package prefetch

import "fmt"

// CopyStateFrom copies src's complete state: kernel registry with its warm
// bits (programs are immutable and shared), filter table, globals, queues,
// unit occupancy (each suspended invocation is copied by assignment into a
// record of this prefetcher and bound to it), the pending-prefetch table at
// whatever size it has grown to, pump records and EWMA state. The fork's
// clock may differ from src's — that is the sweep fan-out case — but the
// unit count must match.
func (p *Prefetcher) CopyStateFrom(src *Prefetcher) error {
	if len(p.units) != len(src.units) {
		return fmt.Errorf("prefetch: fork with different PPU count (%d vs %d)", len(p.units), len(src.units))
	}
	p.pfState = src.pfState
	p.kernels = append(p.kernels[:0], src.kernels...)
	p.filter = append(p.filter[:0], src.filter...)
	p.obsQueue.CopyFrom(&src.obsQueue, nil)
	p.reqQueue.CopyFrom(&src.reqQueue, nil)
	copy(p.busy, src.busy)
	for i := range src.units {
		su, du := &src.units[i], &p.units[i]
		du.busyStart = su.busyStart
		du.busyTicks = su.busyTicks
		p.releaseStack(du)
		for _, s := range su.stack {
			d := p.takeInvocation()
			d.copyFrom(s, p)
			du.stack = append(du.stack, d)
		}
	}
	p.pending.copyFrom(&src.pending)
	p.pumpRecs.CopyFrom(&src.pumpRecs, nil)
	return nil
}
