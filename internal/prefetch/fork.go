package prefetch

import (
	"fmt"

	"eventpf/internal/ppu"
)

// CopyStateFrom copies src's complete state: kernel registry with its warm
// bits (programs are immutable and shared), filter table, globals, queues,
// unit occupancy (suspended blocked-mode VMs are cloned and their EmitPF
// callbacks rebuilt against this prefetcher), the pending-prefetch table at
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
	p.obsQueue.copyFrom(&src.obsQueue)
	p.reqQueue.copyFrom(&src.reqQueue)
	copy(p.busy, src.busy)
	for i := range src.units {
		su, du := &src.units[i], &p.units[i]
		du.busyStart = su.busyStart
		du.busyTicks = su.busyTicks
		du.stack = du.stack[:0]
		for _, e := range su.stack {
			srcEnv := e.vm.Env()
			env := &ppu.Env{
				VAddr:     srcEnv.VAddr,
				Line:      srcEnv.Line,
				Globals:   &p.globals,
				Lookahead: p.lookahead,
			}
			vm := e.vm.Clone(env)
			env.EmitPF = p.emitFunc(i, e.kernel, e.start, e.timedAt, e.ewma)
			du.stack = append(du.stack, suspended{vm: vm, kernel: e.kernel, start: e.start, timedAt: e.timedAt, ewma: e.ewma})
		}
	}
	p.pending.copyFrom(&src.pending)
	p.pumpRecs = append(p.pumpRecs[:0], src.pumpRecs...)
	p.pumpFree = append(p.pumpFree[:0], src.pumpFree...)
	return nil
}
