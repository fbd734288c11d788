package sim

import (
	"errors"
	"testing"
)

func TestQueueWrapsAndGrows(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.Push(next)
			next++
		}
	}
	pop := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if got := q.Pop(); got != want {
				t.Fatalf("Pop = %d, want %d", got, want)
			}
			want++
		}
	}
	push(6)
	pop(5)
	push(7) // wraps inside the first 8-slot ring
	if q.head == 0 || len(q.buf) != 8 || q.Len() != 8 {
		t.Fatalf("head %d, ring %d, len %d: want a full wrapped 8-slot ring", q.head, len(q.buf), q.Len())
	}
	push(3) // grows while wrapped: order must survive the move
	if len(q.buf) != 16 {
		t.Fatalf("ring has %d slots after growing, want 16", len(q.buf))
	}
	var cp Queue[int]
	cp.Push(-1) // replaced by the copy
	cp.CopyFrom(&q, nil)
	pop(11)
	if q.Len() != 0 {
		t.Errorf("Len = %d after popping everything", q.Len())
	}
	if got := cp.Pop(); got != 5 || cp.Len() != 10 {
		t.Errorf("copy pops %d with %d left, want 5 with 10 left: it shares the original's ring", got, cp.Len())
	}
	q.Push(99)
	q.Clear()
	if q.Len() != 0 {
		t.Errorf("Len = %d after Clear", q.Len())
	}
}

// A popped or cleared slot holds no reference, and a copy takes only the
// live elements, in a ring no larger than they need.
func TestQueueKeepsNoReference(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 40; i++ {
		q.Push(new(int))
	}
	for q.Len() > 1 {
		q.Pop()
	}
	var cp Queue[*int]
	cp.CopyFrom(&q, nil)
	if len(cp.buf) != 8 || cp.Len() != 1 || cp.Pop() != q.buf[q.head] {
		t.Errorf("copy of 1 live element from a %d-slot ring has %d slots", len(q.buf), len(cp.buf))
	}
	q.Clear()
	for i, p := range append(q.buf, cp.buf...) {
		if p != nil {
			t.Fatalf("slot %d still points at an element after Pop/Clear", i)
		}
	}
}

func TestQueueCopyFromStopsAtFirstError(t *testing.T) {
	var src, dst Queue[int]
	for i := 1; i <= 5; i++ {
		src.Push(i)
	}
	bad := errors.New("no counterpart")
	err := dst.CopyFrom(&src, func(v int) (int, error) {
		if v == 3 {
			return 0, bad
		}
		return 10 * v, nil
	})
	if !errors.Is(err, bad) {
		t.Fatalf("CopyFrom = %v, want %v", err, bad)
	}
	if dst.Len() != 2 || dst.Pop() != 10 || dst.Pop() != 20 {
		t.Errorf("after the error the copy holds %d elements, want the 2 converted before it", dst.Len())
	}
	if src.Len() != 5 {
		t.Errorf("source lost elements: %d left", src.Len())
	}
}

func TestSlab(t *testing.T) {
	var s Slab[*int]
	vals := []*int{new(int), new(int), new(int)}
	for i, v := range vals {
		if got := s.Put(v); got != int32(i) {
			t.Fatalf("Put #%d = slot %d", i, got)
		}
	}
	*s.At(2) = vals[0]
	if got := s.Take(2); got != vals[0] {
		t.Errorf("Take did not return the record At updated")
	}
	if s.Take(0) != vals[0] || s.recs[0] != nil || s.recs[2] != nil {
		t.Errorf("Take left a reference in its slot")
	}
	if s.Live() != 1 {
		t.Errorf("Live = %d with one slot in use", s.Live())
	}

	// The copy has the same free list: it hands out slots in the same order.
	var cp Slab[*int]
	cp.Put(nil) // replaced by the copy
	calls := 0
	if err := cp.CopyFrom(&s, func(p *int) (*int, error) { calls++; return p, nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 3 || cp.Live() != 1 || cp.At(1) == nil || *cp.At(1) != vals[1] {
		t.Errorf("copy: %d conversions, %d live", calls, cp.Live())
	}
	for _, want := range []int32{0, 2, 3} { // last freed first
		if got, gotCp := s.Put(nil), cp.Put(nil); got != want || gotCp != want {
			t.Errorf("Put = slot %d in the original, %d in the copy; want %d", got, gotCp, want)
		}
	}

	bad := errors.New("no counterpart")
	err := cp.CopyFrom(&s, func(p *int) (*int, error) {
		if p == vals[1] {
			return nil, bad
		}
		return p, nil
	})
	if !errors.Is(err, bad) {
		t.Fatalf("CopyFrom = %v, want %v", err, bad)
	}
	if cp.Live() != 1 {
		t.Errorf("after an error at slot 1 the copy has %d live records, want 1", cp.Live())
	}
}
