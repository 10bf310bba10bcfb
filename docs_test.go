package ktrace_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsReferToWhatExists: every cmd/, examples/ and internal/ path that
// README.md or DESIGN.md names exists, and every `ktrace <verb>` README.md
// shows is in cmd/ktrace's verb table — so a deletion cannot leave the docs
// pointing at what is gone.
func TestDocsReferToWhatExists(t *testing.T) {
	src, err := os.ReadFile("cmd/ktrace/main.go")
	if err != nil {
		t.Fatal(err)
	}
	verbs := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\t\{"([a-z]+)", [a-z]+, "`).FindAllStringSubmatch(string(src), -1) {
		verbs[m[1]] = true
	}
	if len(verbs) == 0 {
		t.Fatal("no verb table in cmd/ktrace/main.go")
	}

	path := regexp.MustCompile(`\b(?:cmd|examples|internal)(?:/[A-Za-z0-9_.-]+)+`)
	verb := regexp.MustCompile(`\bktrace ([a-z]+)\b`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range path.FindAllString(string(text), -1) {
			// A trailing ".Name" is a Go identifier in that package, and a
			// trailing "." ends the sentence.
			if i := strings.LastIndexByte(p, '.'); i > strings.LastIndexByte(p, '/') &&
				(i == len(p)-1 || p[i+1] >= 'A' && p[i+1] <= 'Z') {
				p = p[:i]
			}
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s names %s, which does not exist", doc, p)
			}
		}
		if doc != "README.md" {
			continue
		}
		for _, m := range verb.FindAllStringSubmatch(string(text), -1) {
			if !verbs[m[1]] {
				t.Errorf("%s shows `ktrace %s`, which is not a verb of cmd/ktrace", doc, m[1])
			}
		}
	}
}
