package mem

import (
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
