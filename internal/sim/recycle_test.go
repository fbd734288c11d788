package sim

import (
	"runtime"
	"testing"
)

// TestRecyclerKeepsWhatWasPut: a Recycler hands back the latest item first,
// keeps at most Max, and — unlike a sync.Pool, which a collection empties
// and which hands a P back only what that P put — still holds an item after
// two collections, for a goroutine other than the one that put it.
func TestRecyclerKeepsWhatWasPut(t *testing.T) {
	items := [3]int{1, 2, 3}
	r := Recycler[*int]{Max: 2}
	for i := range items {
		r.Put(&items[i])
	}
	for _, want := range []*int{&items[1], &items[0]} {
		if got, ok := r.Take(); !ok || got != want {
			t.Fatalf("Take = %v, %v; want item %d", got, ok, *want)
		}
	}
	if got, ok := r.Take(); ok {
		t.Fatalf("Take on an empty Recycler = %d, true; the Put beyond Max was kept", *got)
	}

	put := make(chan struct{})
	go func() {
		r.Put(&items[2])
		close(put)
	}()
	<-put
	runtime.GC()
	runtime.GC()
	got := make(chan *int)
	go func() {
		p, _ := r.Take()
		got <- p
	}()
	if p := <-got; p != &items[2] {
		t.Fatalf("after two collections another goroutine took %v, want the item put", p)
	}

	// IdleLimit: two lives in a row with no Take empty it; a Take between
	// lapses restarts the count.
	r = Recycler[*int]{Max: 2, IdleLimit: 2}
	r.Put(&items[0])
	r.Lapse()
	r.Take()
	r.Put(&items[0])
	r.Lapse()
	if _, ok := r.Take(); !ok {
		t.Fatal("a Take between lapses did not restart the idle count")
	}
	r.Put(&items[0])
	r.Lapse()
	r.Lapse()
	if _, ok := r.Take(); ok {
		t.Fatal("two idle lapses in a row left the item in the Recycler")
	}
}

// TestArrayPoolKeysByLength: a slice comes back only for its own length,
// zeroed by Get and as left by Take; each length keeps at most Max.
func TestArrayPoolKeysByLength(t *testing.T) {
	p := ArrayPool[int]{Max: 1}
	a, b := []int{1, 2, 3, 4}, []int{5, 6, 7, 8}
	p.Put(a)
	p.Put(b) // beyond Max for length 4
	if _, ok := p.Take(8); ok {
		t.Fatal("a length-4 slice came back for length 8")
	}
	got := p.Get(4)
	if &got[0] != &a[0] {
		t.Fatal("Get(4) did not return the slice put")
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("Get left element %d = %d, want 0", i, v)
		}
	}
	if _, ok := p.Take(4); ok {
		t.Fatal("the Put beyond Max was kept")
	}
	got[1] = 9
	p.Put(got)
	if s, ok := p.Take(4); !ok || s[1] != 9 {
		t.Fatalf("Take = %v, %v; want the slice as left", s, ok)
	}
}

// TestReleasedTablesComeBackClean: a Queue, a Slab and an Engine release
// their arrays to their pools and the next ones take them, empty: the queue
// pops in order from an empty start without growing, the slab hands out
// slot 0 again into the array it took, and the engine runs only what it is
// given.
func TestReleasedTablesComeBackClean(t *testing.T) {
	var rings, recs Recycler[[]int]
	rings.Max, recs.Max = 1, 1
	var lastRing, lastRecs *int
	for round := 0; round < 3; round++ {
		var q Queue[int]
		var s Slab[int]
		q.Reuse(&rings)
		s.Reuse(&recs)
		if round > 0 && (&q.buf[0] != lastRing || &s.recs[:1][0] != lastRecs) {
			t.Fatalf("round %d: the queue or slab did not take the arrays released before", round)
		}
		for i := 1; i <= 20; i++ {
			q.Push(i)
			s.Put(i)
		}
		if round > 0 && (&q.buf[0] != lastRing || &s.recs[0] != lastRecs) {
			t.Fatalf("round %d: a reused queue or slab grew", round)
		}
		for i := 1; i <= 20; i++ {
			if got := q.Pop(); got != i {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, i)
			}
		}
		s.Take(3)
		if got := s.Put(99); got != 3 {
			t.Fatalf("round %d: Put after Take(3) = slot %d", round, got)
		}
		lastRing, lastRecs = &q.buf[0], &s.recs[0]
		q.Release()
		s.Release()
		if q.Len() != 0 || s.Live() != 0 {
			t.Fatalf("round %d: released queue holds %d, slab %d", round, q.Len(), s.Live())
		}
	}
	var s Slab[int]
	s.Reuse(&recs)
	if got := s.Put(7); got != 0 || *s.At(0) != 7 || s.recs[:2][1] != 0 {
		t.Fatalf("a slab on a released array handed out slot %d, or kept an old record", got)
	}

	var fired []uint64
	h := recordHandler{&fired}
	for round := 0; round < 3; round++ {
		e := NewEngine()
		e.Own(h)
		for i := uint64(0); i < 50; i++ {
			e.Schedule(Ticks(i%7), h, i, 0)
		}
		e.Schedule(3*wheelSpan, h, 100, 0)
		if round == 1 {
			e.Release() // mid-run: the next engine must not see these events
			if e.Pending() != 51 || e.Seq() != 51 {
				t.Fatalf("after Release: Pending %d, Seq %d; want 51 and 51", e.Pending(), e.Seq())
			}
			continue
		}
		fired = fired[:0]
		e.Run()
		if len(fired) != 51 || fired[50] != 100 {
			t.Fatalf("round %d: %d events fired, last %v", round, len(fired), fired[len(fired)-1:])
		}
		e.Release()
		e.Release()
	}
}

type recordHandler struct{ fired *[]uint64 }

func (h recordHandler) Handle(_ Ticks, a, _ uint64) { *h.fired = append(*h.fired, a) }
