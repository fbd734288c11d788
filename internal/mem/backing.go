// Package mem models the memory system: a functional backing store holding
// the program's actual data, a virtual-address-space allocator, a TLB with a
// page-table walker, set-associative write-back caches with MSHRs, and a
// banked DDR3 DRAM. Timing and function are split: the backing store answers
// "what value lives here" immediately, while the cache/DRAM models answer
// "when would this access complete".
package mem

import "fmt"

// LineSize is the cache line size in bytes, fixed at 64 as in the paper.
const LineSize = 64

// PageSize is the virtual page size in bytes.
const PageSize = 4096

const (
	wordsPerPage = PageSize / 8
	wordsPerLine = LineSize / 8
)

// LineAddr returns the line-aligned address containing addr.
func LineAddr(addr uint64) uint64 { return addr &^ (LineSize - 1) }

// PageAddr returns the page-aligned address containing addr.
func PageAddr(addr uint64) uint64 { return addr &^ (PageSize - 1) }

// Backing is the functional memory: a sparse 64-bit virtual address space of
// 64-bit words. Reads of unallocated memory are a program error and panic,
// which catches workload bugs early.
//
// A mapped page nobody has written a non-zero word to points at zeroPage,
// shared by every Backing in the process; the first such write gives the
// Backing a page of its own. A trace replay maps every page its trace
// touches and writes none, so it pays for a map entry a page, not 4 KiB.
type Backing struct {
	pages map[uint64]*[wordsPerPage]uint64
	// memo remembers the pages last looked up, direct-mapped by page number,
	// so an access to a page touched recently costs no map hash. An entry is
	// tagged with the last address of its page, which no zero entry matches.
	memo [memoSlots]struct {
		tag uint64
		p   *[wordsPerPage]uint64
	}
}

const memoSlots = 16

// zeroPage stands for every all-zero page. It is only ever read: Write64 and
// CopyFrom replace a Backing's pointer to it before storing through.
var zeroPage [wordsPerPage]uint64

// NewBacking returns an empty backing store.
func NewBacking() *Backing {
	return &Backing{pages: make(map[uint64]*[wordsPerPage]uint64)}
}

// Mapped reports whether addr lies in an allocated page.
func (b *Backing) Mapped(addr uint64) bool { return b.find(addr) != nil }

// MapPage maps the page containing addr, reading as zeros, if not already
// mapped.
func (b *Backing) MapPage(addr uint64) {
	pa := PageAddr(addr)
	if _, ok := b.pages[pa]; !ok {
		b.pages[pa] = &zeroPage
	}
}

// find returns the page holding addr, or nil if it is not mapped.
func (b *Backing) find(addr uint64) *[wordsPerPage]uint64 {
	m := &b.memo[addr/PageSize%memoSlots]
	if m.tag != addr|(PageSize-1) {
		p, ok := b.pages[PageAddr(addr)]
		if !ok {
			return nil
		}
		m.tag, m.p = addr|(PageSize-1), p
	}
	return m.p
}

func (b *Backing) page(addr uint64) *[wordsPerPage]uint64 {
	p := b.find(addr)
	if p == nil {
		panic(fmt.Sprintf("mem: access to unmapped address %#x", addr))
	}
	return p
}

// Read64 returns the 8-byte word at addr. addr must be 8-byte aligned and
// mapped.
func (b *Backing) Read64(addr uint64) uint64 {
	if addr&7 != 0 {
		panic(fmt.Sprintf("mem: misaligned read at %#x", addr))
	}
	return b.page(addr)[(addr%PageSize)/8]
}

// Write64 stores an 8-byte word at addr. addr must be 8-byte aligned and
// mapped.
func (b *Backing) Write64(addr uint64, v uint64) {
	if addr&7 != 0 {
		panic(fmt.Sprintf("mem: misaligned write at %#x", addr))
	}
	p := b.page(addr)
	if p == &zeroPage {
		if v == 0 {
			return
		}
		p = new([wordsPerPage]uint64)
		b.pages[PageAddr(addr)] = p
		b.memo[addr/PageSize%memoSlots].p = p // find just put the zero page there
	}
	p[(addr%PageSize)/8] = v
}

// ReadLine copies the 8 words of the cache line containing addr into dst and
// reports whether the line is mapped; an unmapped line reads as zeros. This
// is what the prefetcher forwards to a PPU along with an observation, which
// may name an address the program never allocated.
func (b *Backing) ReadLine(addr uint64, dst *[wordsPerLine]uint64) bool {
	p := b.find(addr)
	if p == nil {
		*dst = [wordsPerLine]uint64{}
		return false
	}
	off := (LineAddr(addr) % PageSize) / 8
	src := (*[wordsPerLine]uint64)(p[off : off+wordsPerLine])
	for i := range src { // eight moves; an array assignment here calls memmove
		dst[i] = src[i]
	}
	return true
}

// Arena allocates regions of the virtual address space, mapping their pages
// in the backing store. Allocation is a simple bump pointer with a guard gap
// between regions so an off-by-one in a workload faults instead of silently
// reading a neighbouring array.
type Arena struct {
	backing *Backing
	next    uint64
	regions []Region
}

// Region describes one named allocation, usable as prefetcher address-filter
// bounds and for compiler bounds inference.
type Region struct {
	Name string
	Base uint64
	Size uint64 // bytes requested (End-Base may be larger due to page rounding)
}

// End returns the first address past the requested extent of the region.
func (r Region) End() uint64 { return r.Base + r.Size }

// Contains reports whether addr lies within the requested extent.
func (r Region) Contains(addr uint64) bool { return addr >= r.Base && addr < r.End() }

// NewArena returns an allocator over b starting at a non-zero base address.
func NewArena(b *Backing) *Arena {
	return &Arena{backing: b, next: 1 << 20}
}

// Alloc reserves size bytes (rounded up to whole pages, plus a guard page)
// and returns the region. The memory is zeroed.
func (a *Arena) Alloc(name string, size uint64) Region {
	if size == 0 {
		size = 8
	}
	base := a.next
	pages := (size + PageSize - 1) / PageSize
	for i := uint64(0); i < pages; i++ {
		a.backing.MapPage(base + i*PageSize)
	}
	a.next = base + (pages+1)*PageSize // one guard page between regions
	r := Region{Name: name, Base: base, Size: size}
	a.regions = append(a.regions, r)
	return r
}

// AllocWords is Alloc for a count of 8-byte words.
func (a *Arena) AllocWords(name string, words uint64) Region {
	return a.Alloc(name, words*8)
}

// Regions returns all allocations made so far, in order.
func (a *Arena) Regions() []Region { return a.regions }

// Lookup returns the region with the given name.
func (a *Arena) Lookup(name string) (Region, bool) {
	for _, r := range a.regions {
		if r.Name == name {
			return r, true
		}
	}
	return Region{}, false
}
