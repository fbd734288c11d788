package mem

import (
	"runtime"
	"testing"

	"eventpf/internal/sim"
)

// TestReleasedMemoryComesBackClean: what one machine's memory releases, the
// next one takes, and none of the old contents show. A page taken for a first
// write reads zero beside that word, a cache built on a released line array
// holds no line, a TLB built on a released L2 array translates nothing
// without a walk, and the released components refuse every access. Several
// rounds, so each piece is handed back and taken again more than once.
func TestReleasedMemoryComesBackClean(t *testing.T) {
	const page = 0x40000
	for round := 0; round < 8; round++ {
		eng := sim.NewEngine()
		old, _ := newTestCache(eng, 4)
		oldTLB, bk := newTestTLB(eng)
		for i := uint64(0); i < 16; i++ {
			bk.MapPage(page + i*PageSize)
			translate(eng, oldTLB, page+i*PageSize) // more pages than the L1 TLB holds
			loadAt(eng, old, page+i*LineSize, nil)
		}
		eng.Run()
		for a := uint64(page); a < page+PageSize; a += 8 {
			bk.Write64(a, ^a)
		}
		bk.Release()
		old.Release()
		oldTLB.Release()

		b := NewBacking()
		b.MapPage(page)
		b.Write64(page+8, 1)
		for a := uint64(page); a < page+PageSize; a += 8 {
			want := uint64(0)
			if a == page+8 {
				want = 1
			}
			if got := b.Read64(a); got != want {
				t.Fatalf("round %d: a fresh page reads %#x at %#x, want %d", round, got, a, want)
			}
		}
		c, _ := newTestCache(eng, 4)
		for i := uint64(0); i < 16; i++ {
			if c.Contains(page + i*LineSize) {
				t.Fatalf("round %d: a new cache holds line %#x", round, page+i*LineSize)
			}
		}
		tlb, tbk := newTestTLB(eng)
		tbk.MapPage(page)
		if translate(eng, tlb, page); tlb.Stats.Walks != 1 {
			t.Fatalf("round %d: a new TLB translated a page with %d walks, want 1", round, tlb.Stats.Walks)
		}
	}

	eng := sim.NewEngine()
	c, _ := newTestCache(eng, 4)
	c.Release()
	bk := NewBacking()
	bk.MapPage(page)
	bk.Release()
	for name, access := range map[string]func(){
		"Read64":  func() { bk.Read64(page) },
		"Write64": func() { bk.Write64(page, 1) },
		"MapPage": func() { bk.MapPage(page) },
		"Access":  func() { loadAt(eng, c, page, nil) },
	} {
		if !panics(access) {
			t.Errorf("%s after Release did not panic", name)
		}
	}
}

func panics(f func()) (yes bool) {
	defer func() { yes = recover() != nil }()
	f()
	return false
}

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
