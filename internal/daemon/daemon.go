// Package daemon holds the bodies of the long-running commands — ktraced,
// tracerelay, tracecolld, traceaggd, tracestored — and of shmlog, their
// cross-process client, as functions a test can call: each is a Run, and
// its cmd/<name>/main.go exits with daemon.Main(daemon.<Name>). They share
// one preamble, proc: a flag set of their own, one lock over both output
// streams, one HTTP server, and one way to wait for cancellation. A body
// opens every listener before the line that announces it, so the line
// carries the bound address (":0" works) and a port in use is exit 1 with
// nothing announced; it gives up what it opened through defers, so every
// return path leaves no listener and no goroutine behind.
//
// Exit status: 0 after a clean drain, 1 on an error, 2 on usage — a value
// outside its flag's domain (internal/flagset) among them, refused before
// anything is opened. -h prints the usage and is 0.
package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"k42trace/internal/event"
	"k42trace/internal/flagset"
	"k42trace/internal/store"
)

// Run is one command's body: it parses args, serves until ctx is cancelled,
// drains, and returns the exit status.
type Run func(ctx context.Context, args []string, stdout, stderr io.Writer) int

// Main runs a body as the process: its arguments, its streams, and the
// first SIGINT or SIGTERM as the cancellation of ctx, with the signal's
// name as the cause. A second signal ends the process the default way.
func Main(run Run) int {
	ctx, cancel := context.WithCancelCause(context.Background())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		signal.Stop(sigc)
		cancel(errors.New(sig.String()))
	}()
	return run(ctx, os.Args[1:], os.Stdout, os.Stderr)
}

// lockedWriter serialises writes from the goroutines of one command.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(b)
}

// proc is the preamble.
type proc struct {
	name           string
	fs             *flag.FlagSet
	stdout, stderr io.Writer // both under one lock

	web     *http.Server
	webDone chan struct{} // closed when web.Serve has returned webErr
	webErr  error
}

func newProc(name string, stdout, stderr io.Writer) *proc {
	mu := new(sync.Mutex)
	p := &proc{name: name, stdout: lockedWriter{mu, stdout}, stderr: lockedWriter{mu, stderr}}
	p.fs = flag.NewFlagSet(name, flag.ContinueOnError)
	p.fs.SetOutput(p.stderr)
	return p
}

// The domains of the string flags more than one daemon declares.
var (
	traceMask  = flagset.Parses("a trace mask", event.ParseMask)
	tenantName = flagset.Where("a tenant name", store.ValidTenant)
)

// say prints one line on stdout under the command's name.
func (p *proc) say(format string, args ...any) {
	fmt.Fprintf(p.stdout, p.name+": "+format+"\n", args...)
}

// warn is say on stderr.
func (p *proc) warn(format string, args ...any) {
	fmt.Fprintf(p.stderr, p.name+": "+format+"\n", args...)
}

// usage reports a flag the command cannot run with: status 2.
func (p *proc) usage(format string, args ...any) int {
	p.warn(format, args...)
	return 2
}

// fail reports err: status 1.
func (p *proc) fail(err error) int {
	p.warn("%v", err)
	return 1
}

// serve starts the command's HTTP server on ln.
func (p *proc) serve(ln net.Listener, h http.Handler) {
	p.web = &http.Server{Handler: h}
	p.webDone = make(chan struct{})
	go func() {
		p.webErr = p.web.Serve(ln)
		close(p.webDone)
	}()
}

// wait blocks until ctx is cancelled, and says so — cause, then what the
// command does about it — or until the HTTP server fails.
func (p *proc) wait(ctx context.Context, then string) {
	select {
	case <-ctx.Done():
		p.say("%v%s", context.Cause(ctx), then)
	case <-p.webDone:
		p.warn("http: %v", p.webErr)
	}
}

// closeWeb closes the HTTP server, its listener and its connections, and
// returns when Serve has.
func (p *proc) closeWeb() {
	if p.web != nil {
		p.web.Close()
		<-p.webDone
	}
}
