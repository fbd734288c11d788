package workloads

import (
	"eventpf/internal/mem"
	"eventpf/internal/sim"
)

// A Build writes its input straight into simulated memory and keeps no host
// copy of it. What generation needs only while it runs — the R-MAT edge
// list, a permutation, a dedupe set, an oracle's working vectors — is
// borrowed from scratchPool and handed back before Build (or Check) returns,
// so a warm run's Build allocates only what its Instance keeps. What a Check
// keeps is Instance-owned and small: a return-value sum or a digest of an
// output region, never a copy of the input.

// scratch is one borrower's words: words carves them from one buffer in
// order, and release frees them all at once. A borrower that needs more than
// the buffer holds gets a fresh chunk, and release then replaces the buffer
// with one as large as everything that borrower took, so a pooled scratch
// holds what the largest single Build needed — not the sum of every Build's
// largest pieces.
type scratch struct {
	buf  []uint64
	off  uint64 // words of buf handed out since the last release
	need uint64 // words handed out since the last release, in any chunk
}

// scratchPool holds *scratch: a warm run borrows what the previous one
// returned, from whichever goroutine, whenever the collector last ran (a
// sim.Recycler, as the machine's tables are). It keeps one scratch per build
// that runs at once, and release leaves a buffer above maxPooledScratch words
// to the GC, so what it pins is bounded.
var scratchPool = sim.Recycler[*scratch]{Max: 8}

// maxPooledScratch is the largest buffer kept between builds: 4 Mi words
// (32 MiB), far above what any Table-2 input needs at the figures' scales.
const maxPooledScratch = 4 << 20

// borrowScratch takes a scratch from the pool; call release when done.
func borrowScratch() *scratch {
	if s, ok := scratchPool.Take(); ok {
		return s
	}
	return new(scratch)
}

// words returns n zeroed words, valid until release.
func (s *scratch) words(n uint64) []uint64 {
	s.need += n
	if s.off+n > uint64(len(s.buf)) {
		s.buf, s.off = make([]uint64, n), 0
	}
	w := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	clear(w)
	return w
}

// release hands every word back; the caller keeps no reference to one.
func (s *scratch) release() {
	if s.need > maxPooledScratch {
		return
	}
	if s.need > uint64(len(s.buf)) {
		s.buf = make([]uint64, s.need)
	}
	s.off, s.need = 0, 0
	scratchPool.Put(s)
}

// wordTable is an open-addressing hash set of nonzero words in scratch,
// with linear probing and a word of value per key when made as a map.
type wordTable struct {
	keys, vals []uint64
	shift      uint
}

// newWordSet makes a set for up to n keys at load factor at most ½.
func newWordSet(s *scratch, n uint64) wordTable {
	lg := uint(1)
	for uint64(1)<<lg < 2*n {
		lg++
	}
	return wordTable{keys: s.words(1 << lg), shift: 64 - lg}
}

// newWordMap is newWordSet with a value slot, vals[i], beside each key.
func newWordMap(s *scratch, n uint64) wordTable {
	t := newWordSet(s, n)
	t.vals = s.words(uint64(len(t.keys)))
	return t
}

// insert returns k's slot, adding k (with value 0) if absent, and whether
// k was already there. k must not be 0.
func (t wordTable) insert(k uint64) (slot int, found bool) {
	mask := uint64(len(t.keys) - 1)
	for i := (k * hashMul) >> t.shift; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			return int(i), true
		case 0:
			t.keys[i] = k
			return int(i), false
		}
	}
}

// digest is a weighted sum of a region's words, word i weighted by an odd
// number drawn from i. An odd weight is invertible mod 2^64, so changing any
// one word always changes the digest: a Check that compares an output
// region's digest with the oracle's catches any single flipped word. And the
// sum is linear, so an oracle may add its expected words in any order, or a
// word in parts — IntSort adds one per key to its bucket's count without
// ever building the histogram.
type digest uint64

// add returns d with w added as word i.
func (d digest) add(i, w uint64) digest {
	z := (i + 1) * hashMul
	return d + digest(w*((z^z>>29)|1))
}

// digestOf digests n words of simulated memory from base.
func digestOf(bk *mem.Backing, base, n uint64) digest {
	var d digest
	for i := uint64(0); i < n; i++ {
		d = d.add(i, bk.Read64(base+i*8))
	}
	return d
}

// digestWords digests ws; it equals digestOf over memory holding ws.
func digestWords(ws []uint64) digest {
	var d digest
	for i, w := range ws {
		d = d.add(uint64(i), w)
	}
	return d
}
