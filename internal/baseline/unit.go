package baseline

// Unit is one hardware prefetcher fed the L1's demand stream. The system
// package holds whichever unit the machine's scheme names through this
// one interface and points the L1's demand snoop at Observe, so adding a
// prefetcher never adds a per-scheme field or switch outside its own
// constructor, and a unit never touches the cache's hooks itself.
type Unit interface {
	// Observe is told every demand access at L1 lookup time: its address,
	// the PC of the instruction that made it (-1 if untracked) and whether
	// it hit.
	Observe(addr uint64, pc int, hit bool)
	// Stats returns the unit's issue counters.
	Stats() IssuerStats
	// CopyStateFrom deep-copies src's prediction state and issuer queue for
	// a machine fork (system.Machine.ForkWith). src is always the same
	// concrete type built under an identical configuration; implementations
	// type-assert and report a mismatch as an error rather than panicking.
	CopyStateFrom(src Unit) error
	// Release hands the unit's tables back for the next unit of its kind
	// to take (recycle.go); Stats stay readable. system.Machine.Release
	// calls it once the unit will not observe again.
	Release()
}
