package mem

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestBackingReadWrite(t *testing.T) {
	b := NewBacking()
	b.MapPage(0x1000)
	b.Write64(0x1008, 42)
	if got := b.Read64(0x1008); got != 42 {
		t.Errorf("Read64 = %d, want 42", got)
	}
	if got := b.Read64(0x1000); got != 0 {
		t.Errorf("unwritten word = %d, want 0", got)
	}
}

func TestBackingUnmappedPanics(t *testing.T) {
	b := NewBacking()
	defer func() {
		if recover() == nil {
			t.Error("read of unmapped address did not panic")
		}
	}()
	b.Read64(0x5000)
}

func TestBackingMisalignedPanics(t *testing.T) {
	b := NewBacking()
	b.MapPage(0x1000)
	defer func() {
		if recover() == nil {
			t.Error("misaligned read did not panic")
		}
	}()
	b.Read64(0x1004)
}

func TestReadLine(t *testing.T) {
	b := NewBacking()
	b.MapPage(0x1000)
	for i := uint64(0); i < 8; i++ {
		b.Write64(0x1040+i*8, 100+i)
	}
	var line [wordsPerLine]uint64
	if !b.ReadLine(0x1050, &line) { // any address inside the line
		t.Fatal("mapped line reported unmapped")
	}
	for i := uint64(0); i < 8; i++ {
		if line[i] != 100+i {
			t.Errorf("line[%d] = %d, want %d", i, line[i], 100+i)
		}
	}
	if b.ReadLine(0x9000, &line) || line != [wordsPerLine]uint64{} {
		t.Errorf("unmapped line = %v, want zeros and false", line)
	}
}

func TestArenaGuardGap(t *testing.T) {
	b := NewBacking()
	a := NewArena(b)
	r1 := a.Alloc("a", 100)
	r2 := a.Alloc("b", PageSize*2)
	if r1.Base%PageSize != 0 {
		t.Errorf("region base %#x not page aligned", r1.Base)
	}
	if r2.Base <= r1.Base {
		t.Error("regions not disjoint")
	}
	// The guard page between the regions must be unmapped.
	if b.Mapped(r1.Base + PageSize) {
		t.Error("guard page after region a is mapped")
	}
	if !b.Mapped(r2.Base + PageSize) {
		t.Error("second page of region b is unmapped")
	}
}

func TestArenaLookup(t *testing.T) {
	a := NewArena(NewBacking())
	a.AllocWords("keys", 10)
	r, ok := a.Lookup("keys")
	if !ok || r.Size != 80 {
		t.Errorf("Lookup(keys) = %+v, %v", r, ok)
	}
	if _, ok := a.Lookup("missing"); ok {
		t.Error("Lookup(missing) succeeded")
	}
}

func TestRegionContains(t *testing.T) {
	r := Region{Base: 0x1000, Size: 64}
	if !r.Contains(0x1000) || !r.Contains(0x103f) {
		t.Error("Contains rejects in-range addresses")
	}
	if r.Contains(0x1040) || r.Contains(0xfff) {
		t.Error("Contains accepts out-of-range addresses")
	}
}

// Property: for any sequence of word writes within one region, reads return
// the last value written.
func TestBackingLastWriteWins(t *testing.T) {
	f := func(writes []uint16, values []uint64) bool {
		b := NewBacking()
		a := NewArena(b)
		r := a.AllocWords("arr", 1<<16)
		model := map[uint64]uint64{}
		for i, w := range writes {
			if i >= len(values) {
				break
			}
			addr := r.Base + uint64(w)*8
			b.Write64(addr, values[i])
			model[addr] = values[i]
		}
		for addr, want := range model {
			if b.Read64(addr) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLineAndPageAddr(t *testing.T) {
	if LineAddr(0x12345) != 0x12340 {
		t.Errorf("LineAddr = %#x", LineAddr(0x12345))
	}
	if PageAddr(0x12345) != 0x12000 {
		t.Errorf("PageAddr = %#x", PageAddr(0x12345))
	}
}

// shared reports whether b still reads the page at addr from the zero page.
func shared(b *Backing, addr uint64) bool { return b.pages[PageAddr(addr)] == &zeroPage }

func TestMappedPageReadsZeroAndStaysShared(t *testing.T) {
	b := NewBacking()
	b.MapPage(0x1000)
	if !b.Mapped(0x1ff8) {
		t.Fatal("mapped page reports unmapped")
	}
	for addr := uint64(0x1000); addr < 0x2000; addr += 8 {
		if got := b.Read64(addr); got != 0 {
			t.Fatalf("fresh page reads %d at %#x", got, addr)
		}
	}
	line := [wordsPerLine]uint64{1}
	if !b.ReadLine(0x1040, &line) || line != [wordsPerLine]uint64{} {
		t.Errorf("fresh page line = %v", line)
	}
	b.Write64(0x1008, 0)
	if !shared(b, 0x1000) {
		t.Error("writing a zero word gave the page a private copy")
	}
	b.MapPage(0x1000) // mapping again must not drop anything either way
	b.Write64(0x1008, 7)
	b.MapPage(0x1000)
	if shared(b, 0x1000) || b.Read64(0x1008) != 7 || b.Read64(0x1010) != 0 {
		t.Errorf("after a write: shared=%v, word=%d, neighbour=%d", shared(b, 0x1000), b.Read64(0x1008), b.Read64(0x1010))
	}
	b.Write64(0x1008, 0) // a private page takes zero words like any other
	if b.Read64(0x1008) != 0 {
		t.Error("zero written to a private page did not stick")
	}
}

// TestWritesStayInTheirBacking: every Backing starts on the same zero page,
// so a write must never travel through it — not to an unrelated Backing, not
// from a parent to a fork copied earlier, not from a fork back to its parent.
func TestWritesStayInTheirBacking(t *testing.T) {
	a, other := NewBacking(), NewBacking()
	for _, b := range []*Backing{a, other} {
		b.MapPage(0x1000)
		b.MapPage(0x2000)
	}
	a.Write64(0x1000, 1)

	fork := NewBacking()
	fork.CopyFrom(a)
	if fork.Read64(0x1000) != 1 || !shared(fork, 0x2000) {
		t.Fatalf("fork: word=%d, untouched page shared=%v", fork.Read64(0x1000), shared(fork, 0x2000))
	}
	fork.Write64(0x1000, 2)
	fork.Write64(0x2008, 3)
	a.Write64(0x2010, 4)

	for _, c := range []struct {
		name string
		b    *Backing
		want [3]uint64 // words at 0x1000, 0x2008, 0x2010
	}{
		{"parent", a, [3]uint64{1, 0, 4}},
		{"fork", fork, [3]uint64{2, 3, 0}},
		{"unrelated", other, [3]uint64{0, 0, 0}},
	} {
		got := [3]uint64{c.b.Read64(0x1000), c.b.Read64(0x2008), c.b.Read64(0x2010)}
		if got != c.want {
			t.Errorf("%s reads %v, want %v", c.name, got, c.want)
		}
	}
	if zeroPage != [wordsPerPage]uint64{} {
		t.Fatal("the shared zero page was written")
	}

	// Copying over a fork that already owns pages: a page the source never
	// wrote goes back to the shared zero page, and later writes to it still
	// stay in the fork.
	fork.CopyFrom(other)
	if fork.Read64(0x1000) != 0 || !shared(fork, 0x1000) || !shared(fork, 0x2000) {
		t.Errorf("fork of an unwritten store: word=%d, shared=%v/%v", fork.Read64(0x1000), shared(fork, 0x1000), shared(fork, 0x2000))
	}
	fork.Write64(0x1000, 5)
	if other.Read64(0x1000) != 0 || zeroPage != [wordsPerPage]uint64{} {
		t.Error("a write to the re-copied fork leaked")
	}
}

// TestBackingsInParallel: machines run on their own goroutines and share
// nothing but the zero page, which none may write, and the page pool, which
// hands each page to one of them at a time: every round a goroutine takes
// pages either of them released the round before. Under the race detector
// this fails if a write ever goes through the zero page or a released page
// is still written by its last owner.
func TestBackingsInParallel(t *testing.T) {
	parent := NewBacking()
	for pa := uint64(0); pa < 64*PageSize; pa += PageSize {
		parent.MapPage(pa)
	}
	var wg sync.WaitGroup
	for g := uint64(1); g <= 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				b := NewBacking()
				b.CopyFrom(parent)
				for pa := uint64(0); pa < 64*PageSize; pa += PageSize {
					if b.Read64(pa+8) != 0 {
						t.Errorf("goroutine %d round %d: page %#x not zero", g, round, pa)
					}
					b.Write64(pa, 0)
					if pa%(2*PageSize) == 0 {
						b.Write64(pa+8, g)
					}
					var line [wordsPerLine]uint64
					b.ReadLine(pa, &line)
					if got := line[1]; got != 0 && got != g {
						t.Errorf("goroutine %d round %d: page %#x holds %d", g, round, pa, got)
					}
				}
				b.Release()
			}
		}()
	}
	wg.Wait()
	if zeroPage != [wordsPerPage]uint64{} {
		t.Fatal("the shared zero page was written")
	}
}

// BenchmarkBackingRead64 measures a functional load at the two ends of page
// locality: every word of one page in turn (an interpreter scanning an
// array: the page memo answers), and a different page of a 64 MiB region
// every time, in a scattered order (a hash-table probe: nearly every access
// misses the memo and pays the map lookup as well). Neither may allocate.
func BenchmarkBackingRead64(b *testing.B) {
	const pages = 1 << 14
	bk := NewBacking()
	reg := NewArena(bk).Alloc("r", pages*PageSize)
	for _, bc := range []struct {
		name string
		addr func(i int) uint64
	}{
		{"same-page", func(i int) uint64 { return reg.Base + uint64(i)%wordsPerPage*8 }},
		{"random-page", func(i int) uint64 { return reg.Base + uint64(i)*2654435761%pages*PageSize }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var sum uint64
			for i := 0; i < b.N; i++ {
				sum += bk.Read64(bc.addr(i))
			}
			if sum != 0 {
				b.Fatal("read a non-zero word from memory nobody wrote")
			}
			if a := testing.AllocsPerRun(100, func() { bk.Read64(bc.addr(b.N)) }); a != 0 {
				b.Fatalf("%v allocations per read, want none", a)
			}
		})
	}
}
