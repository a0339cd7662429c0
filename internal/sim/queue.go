package sim

import "time"

// Mailbox is an unbounded FIFO message queue connecting simulation
// processes. Any number of producers and consumers may use it; consumers
// block in Get until a message arrives. Delivery order is FIFO and
// deterministic.
type Mailbox[T any] struct {
	name    string
	items   []T
	readers []*Proc
	closed  bool
}

// NewMailbox creates an empty mailbox.
func NewMailbox[T any](name string) *Mailbox[T] {
	return &Mailbox[T]{name: name}
}

// Name returns the mailbox name.
func (m *Mailbox[T]) Name() string { return m.name }

// Len reports the number of queued messages.
func (m *Mailbox[T]) Len() int { return len(m.items) }

// Put enqueues v and wakes the longest-waiting reader, if any. Put never
// blocks. Putting to a closed mailbox panics via p.Failf.
func (m *Mailbox[T]) Put(p *Proc, v T) {
	if m.closed {
		p.Failf("put on closed mailbox %q", m.name)
	}
	m.items = append(m.items, v)
	m.wakeOne()
}

func (m *Mailbox[T]) wakeOne() {
	for len(m.readers) > 0 {
		r := m.readers[0]
		m.readers = m.readers[1:]
		if r.State() == ProcBlocked {
			r.WakeUp()
			return
		}
	}
}

// Get dequeues the oldest message, blocking while the mailbox is empty.
// The second result is false if the mailbox was closed and drained.
func (m *Mailbox[T]) Get(p *Proc) (T, bool) {
	for len(m.items) == 0 {
		if m.closed {
			var zero T
			return zero, false
		}
		m.readers = append(m.readers, p)
		p.Wait(-1)
	}
	v := m.items[0]
	m.items = m.items[1:]
	return v, true
}

// GetTimeout dequeues the oldest message, giving up after d of virtual
// time. ok is false on timeout or close-and-drained.
func (m *Mailbox[T]) GetTimeout(p *Proc, d time.Duration) (v T, ok bool) {
	deadline := p.Now() + d
	for len(m.items) == 0 {
		if m.closed {
			var zero T
			return zero, false
		}
		remaining := deadline - p.Now()
		if remaining <= 0 {
			var zero T
			return zero, false
		}
		m.readers = append(m.readers, p)
		p.Wait(remaining)
	}
	v = m.items[0]
	m.items = m.items[1:]
	return v, true
}

// Close marks the mailbox closed and wakes all blocked readers so they
// can observe the close. Messages already queued remain retrievable.
func (m *Mailbox[T]) Close() {
	if m.closed {
		return
	}
	m.closed = true
	for _, r := range m.readers {
		if r.State() == ProcBlocked {
			r.WakeUp()
		}
	}
	m.readers = nil
}

// Closed reports whether Close has been called.
func (m *Mailbox[T]) Closed() bool { return m.closed }
