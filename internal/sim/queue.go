package sim

import "math/bits"

// Queue is a first-in first-out queue over a power-of-two ring that doubles
// when full: Push and Pop are O(1) and nothing moves. The hardware queues it
// stands for — the prefetcher's observation and request queues (§4.3, §4.6),
// a cache's MSHR-full queue, the TLB's walk queue — are bounded; each owner
// checks its bound before it pushes, so the ring stops growing at the first
// power of two that holds the configured depth. The zero value is empty.
type Queue[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the oldest element, zeroing its slot so the ring
// keeps no reference to it; the queue must not be empty.
func (q *Queue[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Clear empties the queue, zeroing every slot.
func (q *Queue[T]) Clear() {
	clear(q.buf)
	q.head, q.n = 0, 0
}

// CopyFrom replaces q's contents with src's elements, oldest first, each
// passed through conv when conv is non-nil — a fork translates handlers or
// clones requests into its own pool this way. Only the live elements are
// copied, into a ring no larger than they need. CopyFrom stops at conv's first
// error and returns it, with q holding the elements converted before it; with
// a nil conv it cannot fail.
func (q *Queue[T]) CopyFrom(src *Queue[T], conv func(T) (T, error)) error {
	q.Clear()
	if len(q.buf) < src.n {
		q.buf = make([]T, max(8, 1<<bits.Len(uint(src.n-1))))
	}
	for i := 0; i < src.n; i++ {
		v := src.buf[(src.head+i)&(len(src.buf)-1)]
		if conv != nil {
			var err error
			if v, err = conv(v); err != nil {
				return err
			}
		}
		q.buf[i] = v
		q.n++
	}
	return nil
}

// Slab is a table of records named by int32 slot, for state that must
// outlive an event whose payload can carry only a number: an in-flight
// translation, a demand load waiting for its TLB. Put reuses the slot freed
// last, so a steady stream of Put and Take allocates nothing and hands out
// the same slots on every run. The zero value is empty.
type Slab[T any] struct {
	recs []T
	free []int32
}

// Put stores v in a free slot and returns the slot.
func (s *Slab[T]) Put(v T) int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		s.recs[i] = v
		return i
	}
	s.recs = append(s.recs, v)
	return int32(len(s.recs) - 1)
}

// At returns the record in live slot i, for update in place.
func (s *Slab[T]) At(i int32) *T { return &s.recs[i] }

// Take frees slot i and returns the record it held. The slot is zeroed, so
// the table keeps no reference to what the record pointed at.
func (s *Slab[T]) Take(i int32) T {
	var zero T
	v := s.recs[i]
	s.recs[i] = zero
	s.free = append(s.free, i)
	return v
}

// Live returns the number of slots in use.
func (s *Slab[T]) Live() int { return len(s.recs) - len(s.free) }

// CopyFrom makes s a slot-for-slot copy of src, free list included, so the
// copy hands out the same slots src would. Every slot passes through conv
// when conv is non-nil; a free slot holds the zero value. CopyFrom stops at
// conv's first error and returns it, with s holding the records converted
// before it, all live; with a nil conv it cannot fail.
func (s *Slab[T]) CopyFrom(src *Slab[T], conv func(T) (T, error)) error {
	clear(s.recs)
	s.recs, s.free = s.recs[:0], s.free[:0]
	for _, v := range src.recs {
		if conv != nil {
			var err error
			if v, err = conv(v); err != nil {
				return err
			}
		}
		s.recs = append(s.recs, v)
	}
	s.free = append(s.free, src.free...)
	return nil
}
