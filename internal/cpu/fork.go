package cpu

// CopyStateFrom copies src's complete execution state — window, completion
// rings, in-flight counts, stall/redirect state, branch predictor and stats.
// The micro-op stream and completion callback cannot be copied (both are
// bound to parent-owned state), so the caller supplies the fork's own:
// stream must be a clone of src's stream positioned at the same op, or nil
// if src's stream was already exhausted.
func (c *Core) CopyStateFrom(src *Core, stream Stream, onDone func()) {
	c.coreState = src.coreState
	c.pendingOp = src.pendingOp // Do is nil outside dispatch: nothing of src's is shared
	copy(c.rob, src.rob)
	*c.ring = *src.ring
	c.bp.history = src.bp.history
	copy(c.bp.table, src.bp.table)
	c.stream = AsFiller(stream)
	c.onDone = onDone
}

// SwapStream replaces the core's micro-op stream. Only legal before the core
// has pulled any op (between Run and the first tick): the replacement must
// deliver the same ops from position zero, possibly filtered — time-parallel
// slicing wraps the stream in its slice window this way.
func (c *Core) SwapStream(s Stream) { c.stream = AsFiller(s) }

// Slot returns the contents of the dispatch slot; parked reports whether the
// op in it still waits for a load- or store-queue entry (diagnostics and
// tests: a fork copies the slot, so it must hold nothing bound to its core).
func (c *Core) Slot() (op MicroOp, parked bool) { return c.pendingOp, c.hasPending }

// StreamActive reports whether the core still holds a live micro-op stream
// (false once the stream has been exhausted), so a fork knows whether it
// must clone the stream.
func (c *Core) StreamActive() bool { return c.stream != nil }

// WarmBranch trains the branch predictor on a branch consumed during
// sampling fast-forward (functional warming): predictor state advances
// exactly as a detailed dispatch would have advanced it, but no prediction
// outcome is acted on and no timing state changes.
func (c *Core) WarmBranch(pc int, taken bool) { c.bp.predictAndUpdate(pc, taken) }
