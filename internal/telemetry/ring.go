package telemetry

// Ring keeps the most recent values pushed into it, up to a fixed
// limit, and counts the ones it evicted. It has no lock of its own:
// every owner already guards it with one.
type Ring[T any] struct {
	limit   int
	buf     []T
	next    int // the oldest value, and the write position, once full
	dropped uint64
}

// NewRing returns a ring keeping the most recent limit values; limit
// must be positive.
func NewRing[T any](limit int) Ring[T] { return Ring[T]{limit: limit} }

// Push appends v, evicting the oldest value when the ring is full.
func (r *Ring[T]) Push(v T) {
	if len(r.buf) < r.limit {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % r.limit
	r.dropped++
}

// Len is how many values the ring holds.
func (r *Ring[T]) Len() int { return len(r.buf) }

// At returns the i-th retained value, oldest first.
func (r *Ring[T]) At(i int) T { return r.buf[(r.next+i)%len(r.buf)] }

// Dropped is how many values were evicted since the last Reset.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }

// Reset discards every value.
func (r *Ring[T]) Reset() {
	clear(r.buf)
	r.buf = r.buf[:0]
	r.next = 0
	r.dropped = 0
}
