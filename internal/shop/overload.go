// Overload protection: the shop's bounded front door.
//
// Without a bound, a demand spike queues every creation it cannot
// serve, admission wait grows without limit, and by the time the
// backlog drains the clients have long stopped caring — the classic
// overload collapse. The shop instead bounds how many creations it
// will work on at once (a FIFO admission gate) and how many callers
// may wait at the gate; past that, requests are shed immediately with
// ErrOverload.
//
// ErrOverload is in the transient error class, so shed work is
// retryable by construction: clients back off and resubmit (the
// RequestID dedupe makes the retry safe), and a federated origin cell
// fails the creation over to its next peer.
package shop

import (
	"fmt"

	"vmplants/internal/core"
	"vmplants/internal/sim"
)

// ErrOverload marks a creation shed at the admission gate. It wraps
// core.ErrTransient: shedding is an explicit promise that a retry
// after backoff can succeed — nothing was built, nothing journaled.
var ErrOverload = fmt.Errorf("admission queue full: %w", core.ErrTransient)

// AdmissionConfig bounds the shop's front door. The zero value
// disables admission control entirely (legacy behavior).
type AdmissionConfig struct {
	// MaxInflight is how many creations may run concurrently; further
	// arrivals queue FIFO. Must be positive to enable the gate.
	MaxInflight int
	// MaxQueue is how many arrivals may wait at the gate; the next one
	// is shed. 0 means no queue-length bound.
	MaxQueue int
}

func (c AdmissionConfig) enabled() bool { return c.MaxInflight > 0 }

// SetAdmission installs (or, with a zero config, removes) the
// admission gate. Not safe to call with creations in flight.
func (s *Shop) SetAdmission(c AdmissionConfig) {
	s.admission = c
	if c.enabled() {
		s.gate = sim.NewResource(s.name+"/admission", c.MaxInflight)
	} else {
		s.gate = nil
	}
}

// admit passes one creation through the gate, shedding instead of
// queueing when the queue bound is reached. On success the returned
// release must be called when the creation settles.
func (s *Shop) admit(p *sim.Proc) (release func(), err error) {
	if s.gate == nil {
		return func() {}, nil
	}
	queued := s.gate.QueueLen()
	if s.admission.MaxQueue > 0 && queued >= s.admission.MaxQueue {
		s.mShedCreates.Inc()
		return nil, fmt.Errorf("shop %s: %w (%d queued)", s.name, ErrOverload, queued)
	}
	start := p.Now()
	s.gate.Acquire(p, 1)
	s.hAdmissionWait.Observe((p.Now() - start).Seconds())
	s.gAdmissionQueue.Set(int64(s.gate.QueueLen()))
	return func() {
		s.gate.Release(p, 1)
		s.gAdmissionQueue.Set(int64(s.gate.QueueLen()))
	}, nil
}
