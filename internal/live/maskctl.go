// Collector-side mask control: the state behind POST/GET /live/mask. The
// collector remembers the operator's desired mask, pushes it down every
// connected producer's control back-channel, replays it to producers that
// connect (or reconnect) later, and tracks per-producer applied masks by
// watching for the in-band CtrlMaskChange events coming back up.
package live

import (
	"fmt"

	"k42trace/internal/event"
)

// SetMask sets the trace mask for producers. producerID == 0 broadcasts:
// the mask becomes the session's desired mask, is sent to every connected
// producer, and is replayed to any producer that connects afterwards
// (which is how a reconnecting producer re-acquires it). A nonzero
// producerID targets one connected producer without changing the desired
// mask. The MajorControl bit is always forced on — a stream without
// control events is not decodable.
func (c *Collector) SetMask(mask uint64, producerID uint64) error {
	mask |= event.MajorControl.Bit()
	// Pick targets under the lock, write frames off it: a control frame is
	// a network write with a multi-second deadline, and one producer that
	// stops draining its socket must never stall ingest or the
	// HTTP handlers behind c.mu.
	c.mu.Lock()
	var targets []*producer
	if producerID == 0 {
		c.maskDesired = mask
		c.maskSet = true
		for _, id := range c.order {
			if p := c.producers[id]; p.connected.Load() {
				targets = append(targets, p)
			}
		}
	} else {
		p, ok := c.producers[producerID]
		if !ok {
			c.mu.Unlock()
			return fmt.Errorf("live: no producer %d", producerID)
		}
		if !p.connected.Load() {
			c.mu.Unlock()
			return fmt.Errorf("live: producer %d is disconnected", producerID)
		}
		targets = append(targets, p)
	}
	c.mu.Unlock()
	for _, p := range targets {
		c.sendMask(p, mask)
	}
	return nil
}

// sendMask pushes one mask frame; it takes no collector lock (the
// ControlSender serializes writes per connection). Send errors are
// dropped: a failing connection is already dying, and the reconnect path
// replays the desired mask on the fresh connection.
func (c *Collector) sendMask(p *producer, mask uint64) {
	if p.ctrl == nil {
		return
	}
	if err := p.ctrl.SetMask(mask); err != nil {
		return
	}
	p.sentMask.Store(mask)
	p.sentSet.Store(true)
	c.maskSends.Add(1)
}

// ProducerMaskStatus is one producer's view in GET /live/mask.
type ProducerMaskStatus struct {
	ID        uint64 `json:"id"`
	Remote    string `json:"remote"`
	Connected bool   `json:"connected"`
	// SentMask is the last mask written down this producer's connection,
	// as a hex literal ("" if none was ever sent).
	SentMask string `json:"sent_mask,omitempty"`
	// AppliedMask is the newest mask this producer reported back via an
	// in-band CtrlMaskChange event ("" until the first one arrives).
	AppliedMask   string   `json:"applied_mask,omitempty"`
	AppliedMajors []string `json:"applied_majors,omitempty"`
	// MaskChanges counts CtrlMaskChange events seen from this producer.
	MaskChanges uint64 `json:"mask_changes"`
}

// MaskStatus is the GET /live/mask document.
type MaskStatus struct {
	// DesiredMask is the broadcast mask pending for (re)connecting
	// producers, as a hex literal ("" if never set).
	DesiredMask   string               `json:"desired_mask,omitempty"`
	DesiredMajors []string             `json:"desired_majors,omitempty"`
	UpdatesSent   uint64               `json:"updates_sent"`
	Producers     []ProducerMaskStatus `json:"producers"`
}

// MaskStatus reports the control-plane state.
func (c *Collector) MaskStatus() MaskStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := MaskStatus{UpdatesSent: c.maskSends.Load()}
	if c.maskSet {
		st.DesiredMask = event.MaskString(c.maskDesired)
		st.DesiredMajors = event.MaskMajors(c.maskDesired)
	}
	for _, id := range c.order {
		p := c.producers[id]
		ps := ProducerMaskStatus{
			ID:          p.id,
			Remote:      p.remote,
			Connected:   p.connected.Load(),
			MaskChanges: p.maskChanges.Load(),
		}
		if p.sentSet.Load() {
			ps.SentMask = event.MaskString(p.sentMask.Load())
		}
		if p.appliedSet.Load() {
			m := p.appliedMask.Load()
			ps.AppliedMask = event.MaskString(m)
			ps.AppliedMajors = event.MaskMajors(m)
		}
		st.Producers = append(st.Producers, ps)
	}
	return st
}
