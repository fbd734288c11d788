// Package prefetch implements the paper's contribution: the event-triggered
// programmable prefetcher attached to the L1 data cache (§4). Demand loads
// snooped from the core and prefetched data arriving at L1 pass through an
// address filter; matching events queue in a small observation queue; a
// scheduler hands them to the lowest-numbered free programmable prefetch
// unit (PPU); kernels running on the PPUs generate new — possibly tagged —
// prefetch requests, which drain through a FIFO request queue into free L1
// MSHRs after TLB translation. EWMA calculators provide dynamic look-ahead
// distances (§4.5); memory-request tags re-trigger kernels when fills for
// linked structures arrive (§4.7).
package prefetch

import (
	"fmt"
	"math/bits"

	"eventpf/internal/mem"
	"eventpf/internal/ppu"
	"eventpf/internal/sim"
	"eventpf/internal/trace"
)

// NoKernel marks an unset kernel slot in the filter table.
const NoKernel = -1

// Config sizes the prefetcher (Table 1 defaults: 12 PPUs at 1 GHz, 40-entry
// observation queue, 200-entry prefetch request queue).
type Config struct {
	NumPPUs  int
	PPUClock sim.Clock
	ObsQueue int
	ReqQueue int
	// Blocked switches to the Figure 11 comparison mode: a tagged (chained)
	// prefetch stalls its PPU until the data returns, and the chained
	// kernel runs on the same unit.
	Blocked bool
}

// DefaultConfig returns the Table 1 prefetcher configuration.
func DefaultConfig() Config {
	return Config{
		NumPPUs:  12,
		PPUClock: sim.ClockFromMHz(1000),
		ObsQueue: 40,
		ReqQueue: 200,
	}
}

// RangeConfig is one address-filter entry (§4.2): a virtual address range
// with the kernels to run on load and prefetch-fill observations, plus EWMA
// roles.
type RangeConfig struct {
	Lo, Hi     uint64
	LoadKernel int  // kernel run when the core loads in [Lo,Hi); NoKernel = none
	PFKernel   int  // kernel run when a prefetch fill lands in [Lo,Hi)
	EWMAGroup  int  // EWMA group for the flags below; -1 = none
	Interval   bool // demand loads here feed the group's inter-access EWMA
	TimedStart bool // load events here start a timed prefetch chain
	TimedEnd   bool // fills here close a timed chain into the load-time EWMA
}

// Stats counts prefetcher activity. Every generated prefetch is counted once
// more, where it ends: at drain, with no flush in the run,
// PFGenerated == ReqDropped + TLBDrops + MSHRDrops + FillObservations. A
// flush forgets the records of the requests in flight; they still go out,
// untracked, and reach FillObservations no more (Flush).
type Stats struct {
	LoadObservations int64 // filtered demand-load events
	FillObservations int64 // filtered prefetch-fill events, resident hits included
	ObsDropped       int64 // observation-queue overflow (oldest dropped)
	KernelRuns       int64
	KernelFaults     int64
	ICacheMisses     int64     // cold kernel starts (fetch from memory, §4.4)
	PFGenerated      int64     // prefetch addresses produced by kernels
	ReqDropped       int64     // request-queue overflow
	FillLatencySum   sim.Ticks // total generation→fill delay of real memory fills
	// FillCount counts the prefetches that fetched from memory; the rest of
	// FillObservations, FillObservations − FillCount, found their target
	// already in the L1.
	FillCount       int64
	QueueDepthSum   int64     // request-queue depth observed at each enqueue
	PumpBusy        int64     // pump entered while a translation was in flight
	PumpGated       int64     // pump blocked by the MSHR-headroom gate
	IssueLatencySum sim.Ticks // generation→L1-issue delay of the tracked requests issued
	TLBDrops        int64     // prefetches dropped on page-table miss (§5.3)
	// MSHRDrops counts the prefetches dropped for want of an L1 MSHR, at
	// two places: after translation, when the pump finds none free, and in
	// the L1 itself (its PrefetchDrop), which drops a request the pump had
	// already issued. Those L1 drops are counted in Issued as well.
	MSHRDrops int64
	Issued    int64 // prefetches issued into the L1
	Flushes   int64 // context-switch flushes
}

// Add accumulates o into s; every field is a counter or a duration sum.
func (s *Stats) Add(o Stats) {
	s.LoadObservations += o.LoadObservations
	s.FillObservations += o.FillObservations
	s.ObsDropped += o.ObsDropped
	s.KernelRuns += o.KernelRuns
	s.KernelFaults += o.KernelFaults
	s.ICacheMisses += o.ICacheMisses
	s.PFGenerated += o.PFGenerated
	s.ReqDropped += o.ReqDropped
	s.FillLatencySum += o.FillLatencySum
	s.FillCount += o.FillCount
	s.QueueDepthSum += o.QueueDepthSum
	s.PumpBusy += o.PumpBusy
	s.PumpGated += o.PumpGated
	s.IssueLatencySum += o.IssueLatencySum
	s.TLBDrops += o.TLBDrops
	s.MSHRDrops += o.MSHRDrops
	s.Issued += o.Issued
	s.Flushes += o.Flushes
}

type observation struct {
	addr    uint64
	kernel  int
	timedAt sim.Ticks // chain start time, -1 if untimed
	ewma    int       // group whose chain this closes timing for, -1
}

type request struct {
	addr  uint64
	obsID int
}

// invocation is one kernel run on a PPU: the VM and its environment by value,
// plus what emitPF needs to know about the event being handled. Records are
// pooled; env.EmitPF is bound to the record once, when it is first made. An
// invocation lives on its unit's stack from begin until its kernel halts — in
// event mode that is one record at a time, inside one call of run; in blocked
// mode (Figure 11) it waits there while the unit is stalled on a tagged
// prefetch.
type invocation struct {
	p     *Prefetcher
	vm    ppu.VM
	env   ppu.Env
	unit  int
	obs   observation // the event: obs.addr is env.VAddr
	start sim.Ticks   // tick of the kernel's cycle 0, the reference of its emit times
}

// bind points the record's environment at p. Its two callbacks are bound to
// the record itself, once, when takeInvocation makes it, so a record recycled
// from a released prefetcher (or overwritten by a fork's copy, copyFrom) is
// re-pointed without allocating.
func (inv *invocation) bind(p *Prefetcher) {
	inv.p = p
	inv.env.Globals = &p.globals
	inv.vm.Bind(&inv.env)
}

// copyFrom makes inv a copy of s, a record of another prefetcher, bound to p.
func (inv *invocation) copyFrom(s *invocation, p *Prefetcher) {
	look, emit := inv.env.Lookahead, inv.env.EmitPF
	*inv = *s
	inv.env.Lookahead, inv.env.EmitPF = look, emit
	inv.bind(p)
}

func (inv *invocation) lookahead(group int) uint64 { return inv.p.lookahead(group) }

type unit struct {
	busyStart sim.Ticks
	busyTicks sim.Ticks
	stack     []*invocation // kernels begun and not yet halted, innermost last
}

// Prefetcher wires the event machinery to an L1 cache and TLB.
type Prefetcher struct {
	eng *sim.Engine
	cfg Config
	bk  *mem.Backing
	l1  *mem.Cache
	tlb *mem.TLB

	pfState

	// Bus, if set, receives the prefetcher's lifecycle events (observe,
	// kernel, generate, issue, fill, drop, flush); nil (the default) costs
	// one branch per event.
	Bus *trace.Bus

	// Queue-occupancy histograms, sampled on every enqueue AND dequeue so
	// the distribution covers the queue's whole life; nil unless
	// AttachMetrics was called.
	mObsDepth *trace.Hist
	mReqDepth *trace.Hist

	kernels []kernelEntry // the registry, indexed by kernel id
	filter  []RangeConfig

	obsQueue sim.Queue[observation]
	reqQueue sim.Queue[request]
	units    []unit
	// busy has bit id set while PPU id runs (or is suspended in) a kernel;
	// the bits past the last unit are set for good, so the lowest clear bit
	// is always a real unit.
	busy []uint64

	pending pendTable

	// pumpRecs holds the requests whose TLB translation is in flight (the
	// address must outlive the pending entry: a flush or drop can remove the
	// pending mid-translation and the issue still needs the address).
	// Translation events carry slot numbers.
	pumpRecs sim.Slab[request]

	// invFree holds the invocation records not on any unit's stack.
	invFree []*invocation

	enqueueH enqueueHandler
	pumpH    pumpDoneHandler
	freeH    unitFreeHandler
}

// pfState is the prefetcher's scalar state, copied to a fork by one
// assignment (registry, filter, queues, units and record tables are copied
// beside it).
type pfState struct {
	Enabled  bool
	globals  [ppu.NumGlobals]uint64
	nextObs  int
	ewma     [8]ewmaGroup
	pumping  int    // concurrent request translations (the L2 TLB is pipelined)
	inFlight int    // prefetch lookups issued to L1 whose MSHR is not yet held
	epoch    uint64 // flushes so far; a unit-free event armed before one is stale
	Stats    Stats
}

// enqueueHandler moves a generated prefetch into the request queue at its
// timestamp; a is the address, b the observation id.
type enqueueHandler struct{ p *Prefetcher }

func (h enqueueHandler) Handle(_ sim.Ticks, a, b uint64) {
	h.p.enqueueReq(request{addr: a, obsID: int(b)})
}

// unitFreeHandler frees PPU a at the event time and refills it; b is the
// flush epoch the event was armed in. A flush has already freed the units of
// every earlier epoch, and a unit it freed may be running a new kernel by now.
type unitFreeHandler struct{ p *Prefetcher }

func (h unitFreeHandler) Handle(at sim.Ticks, a, b uint64) {
	p := h.p
	if b != p.epoch {
		return
	}
	u := &p.units[a]
	p.setBusy(int(a), false)
	u.busyTicks += at - u.busyStart
	p.emit(trace.Event{Kind: trace.PFUnitFree, A: -1, C: int32(a)})
	p.schedule()
}

func (p *Prefetcher) isBusy(id int) bool { return p.busy[id>>6]>>(id&63)&1 != 0 }

func (p *Prefetcher) setBusy(id int, busy bool) {
	if busy {
		p.busy[id>>6] |= 1 << (id & 63)
	} else {
		p.busy[id>>6] &^= 1 << (id & 63)
	}
}

// freeUnit returns the lowest-numbered idle PPU (§7.2), or -1.
func (p *Prefetcher) freeUnit() int {
	for w, b := range p.busy {
		if b != ^uint64(0) {
			return w<<6 + bits.TrailingZeros64(^b)
		}
	}
	return -1
}

// New builds a prefetcher and hooks it into the L1 cache's snoop, fill,
// drop and MSHR-free callbacks.
func New(eng *sim.Engine, cfg Config, bk *mem.Backing, l1 *mem.Cache, tlb *mem.TLB) *Prefetcher {
	p := &Prefetcher{
		eng:   eng,
		cfg:   cfg,
		bk:    bk,
		l1:    l1,
		tlb:   tlb,
		units: make([]unit, cfg.NumPPUs),
		busy:  make([]uint64, cfg.NumPPUs/64+1),
		// What can be in flight at once without a request-queue drop: the
		// queue, the MSHRs and the translations between them. Requests a
		// kernel has emitted but not yet enqueued come on top; the table
		// grows if they ever reach back to a live record.
		pending: newPendTable(cfg.ReqQueue + l1.FreeMSHRs() + pumpWays),
	}
	if invs, ok := invocationLists.Take(); ok {
		for _, inv := range invs {
			inv.bind(p)
		}
		p.invFree = invs
	}
	p.kernels, _ = kernelArrays.Take()
	p.filter, _ = filterArrays.Take()
	p.obsQueue.Reuse(&obsRings)
	p.reqQueue.Reuse(&reqRings)
	p.pumpRecs.Reuse(&pumpRecArrays)
	for id := cfg.NumPPUs; id < 64*len(p.busy); id++ {
		p.setBusy(id, true)
	}
	p.Enabled = true
	for i := range p.ewma {
		p.ewma[i].init()
	}
	p.enqueueH.p = p
	p.pumpH.p = p
	p.freeH.p = p
	eng.Own(p.enqueueH, p.pumpH, p.freeH)
	l1.OnDemandAccess = p.Observe
	l1.OnPrefetchFill = p.onPrefetchFill
	l1.OnMSHRFree = p.pump
	l1.OnTaggedLookup = p.lookupDone
	l1.OnPrefetchDrop = func(_ uint64, tag int) {
		p.Stats.MSHRDrops++
		p.dropPending(tag, trace.DropMSHR)
	}
	return p
}

// The prefetcher's tables, recycled from a released prefetcher to the next
// one built: the pending table at each length it has had, the queue rings
// and pump records, the registry and filter arrays (their capacity: a new
// prefetcher appends into them as a fresh one would), and the list of
// invocation records. One each for every machine that runs at once.
var (
	pendArrays      = sim.ArrayPool[pendingPF]{Max: 8}
	obsRings        = sim.Recycler[[]observation]{Max: 8}
	reqRings        = sim.Recycler[[]request]{Max: 8}
	pumpRecArrays   = sim.Recycler[[]request]{Max: 8}
	kernelArrays    = sim.Recycler[[]kernelEntry]{Max: 8}
	filterArrays    = sim.Recycler[[]RangeConfig]{Max: 8}
	invocationLists = sim.Recycler[[]*invocation]{Max: 8}
)

// Release hands the prefetcher's tables and invocation records back for the
// next prefetcher to take. Stats, Lookahead and ActivityFactors stay
// readable. Call it once p will not run again.
func (p *Prefetcher) Release() {
	p.pending.release()
	p.obsQueue.Release()
	p.reqQueue.Release()
	p.pumpRecs.Release()
	if cap(p.kernels) > 0 {
		clear(p.kernels)
		kernelArrays.Put(p.kernels[:0])
	}
	if cap(p.filter) > 0 {
		filterArrays.Put(p.filter[:0])
	}
	p.kernels, p.filter = nil, nil
	for i := range p.units {
		p.releaseStack(&p.units[i])
	}
	if n := len(p.invFree); n > maxPooledInvocations {
		clear(p.invFree[maxPooledInvocations:])
		p.invFree = p.invFree[:maxPooledInvocations]
	}
	for _, inv := range p.invFree {
		inv.vm.Reset(nil, &inv.env) // drops the kernel program
		inv.p, inv.env.Globals = nil, nil
	}
	if len(p.invFree) > 0 {
		invocationLists.Put(p.invFree)
	}
	p.invFree = nil
}

// maxPooledInvocations bounds the records a released prefetcher hands on:
// one per unit in event mode for up to 64 units, or shallow blocked stacks.
// A blocked run that suspends deeper (a chase at serve-mix scale held ~2 700
// at once) makes the rest afresh rather than pinning them for every later
// machine.
const maxPooledInvocations = 64

// emit stamps e with the current time and delivers it to the bus; free when
// none is attached.
func (p *Prefetcher) emit(e trace.Event) {
	if p.Bus == nil {
		return
	}
	e.At = p.eng.Now()
	p.Bus.Emit(e)
}

// AttachMetrics registers the prefetcher's queue-occupancy histograms with
// reg. Depths are observed on every transition (enqueue and dequeue), not
// just at arrival instants.
func (p *Prefetcher) AttachMetrics(reg *trace.Registry) {
	p.mObsDepth = reg.Hist("pf/obs-queue-depth", p.cfg.ObsQueue)
	p.mReqDepth = reg.Hist("pf/req-queue-depth", p.cfg.ReqQueue)
}

// RegisterKernel installs a PPU kernel under an id; configuration
// instructions and tags refer to kernels by these ids. Ids are small
// non-negative integers: the registry is a table indexed by id.
func (p *Prefetcher) RegisterKernel(id int, prog []ppu.Instr) {
	if id < 0 {
		panic(fmt.Sprintf("prefetch: kernel id %d is negative", id))
	}
	for id >= len(p.kernels) {
		p.kernels = append(p.kernels, kernelEntry{})
	}
	p.kernels[id].prog, p.kernels[id].set = prog, true
}

// kernel returns the registry entry of id, or nil if none is registered.
func (p *Prefetcher) kernel(id int) *kernelEntry {
	if id < 0 || id >= len(p.kernels) || !p.kernels[id].set {
		return nil
	}
	return &p.kernels[id]
}

// KernelBytes reports the total encoded size of registered kernels, the
// quantity behind the paper's "at most 1 KB fetched" observation (§4.4).
func (p *Prefetcher) KernelBytes() int {
	n := 0
	for _, k := range p.kernels {
		n += ppu.EncodedSize(k.prog)
	}
	return n
}

// SetRange installs or replaces filter-table slot idx.
func (p *Prefetcher) SetRange(slot int, rc RangeConfig) {
	for slot >= len(p.filter) {
		p.filter = append(p.filter, RangeConfig{LoadKernel: NoKernel, PFKernel: NoKernel, EWMAGroup: -1})
	}
	p.filter[slot] = rc
}

// SetGlobal writes prefetcher global register idx.
func (p *Prefetcher) SetGlobal(idx int, val uint64) { p.globals[idx] = val }

// Flush models a context switch (§5.3): queued observations and requests are
// discarded, every prefetch record is forgotten (so no fill continues a
// chain), busy units are freed at once and EWMA state resets; only the kernel
// registry, the filter table and the global registers survive. Requests a
// kernel had already emitted but whose enqueue event is still armed, and
// those already past the queue, still go out — untracked, as plain
// prefetches.
func (p *Prefetcher) Flush() {
	p.Stats.Flushes++
	p.emit(trace.Event{Kind: trace.PFFlush, A: -1, C: -1})
	p.obsQueue.Clear()
	p.reqQueue.Clear()
	p.epoch++ // disarms the free events of the units freed below
	now := p.eng.Now()
	for i := range p.units {
		u := &p.units[i]
		if p.isBusy(i) {
			u.busyTicks += now - u.busyStart
			p.setBusy(i, false)
		}
		p.releaseStack(u)
	}
	p.pending.clear()
	for i := range p.ewma {
		p.ewma[i].init()
	}
}

// Observe is the L1 demand snoop: every demand access from the core. New
// installs it as l1.OnDemandAccess; the adaptive controller calls it while
// its "pf" arm is active.
func (p *Prefetcher) Observe(addr uint64, pc int, hit bool) {
	if !p.Enabled {
		return
	}
	now := p.eng.Now()
	for i := range p.filter {
		rc := &p.filter[i]
		if addr < rc.Lo || addr >= rc.Hi {
			continue
		}
		if rc.Interval && rc.EWMAGroup >= 0 {
			p.ewma[rc.EWMAGroup].observeInterval(now)
		}
		if rc.LoadKernel == NoKernel {
			continue
		}
		p.Stats.LoadObservations++
		timed := sim.Ticks(-1)
		group := -1
		if rc.TimedStart && rc.EWMAGroup >= 0 {
			timed = now
			group = rc.EWMAGroup
		}
		p.enqueueObs(observation{addr: addr, kernel: rc.LoadKernel, timedAt: timed, ewma: group})
	}
}

// onPrefetchFill handles prefetched data reaching the L1 (or found already
// resident). tag is the obsID of the pending request; filled distinguishes
// a real memory fill from a resident hit.
func (p *Prefetcher) onPrefetchFill(line uint64, tag int, _ sim.Ticks, filled bool) {
	slot := p.pending.find(tag)
	if slot == nil {
		return
	}
	pend := *slot // copy, then release: callees below may reuse the slot
	slot.live = false
	now := p.eng.Now()
	p.Stats.FillObservations++
	filledBit := int32(0)
	if filled {
		filledBit = 1
	}
	p.emit(trace.Event{Kind: trace.PFFill, Addr: pend.addr, ID: int64(tag),
		A: int32(pend.chain), B: filledBit, C: -1})
	// Resident hits return in the cache's lookup latency and say nothing
	// about memory; mixing them into the fill mean hides how slow real
	// fills are, so only real fills are timed.
	if filled {
		p.Stats.FillLatencySum += now - pend.createdAt
		p.Stats.FillCount++
	}

	kernel := pend.chain
	ewmaEnd := -1
	for i := range p.filter {
		rc := &p.filter[i]
		if pend.addr < rc.Lo || pend.addr >= rc.Hi {
			continue
		}
		if kernel == NoKernel && rc.PFKernel != NoKernel {
			kernel = rc.PFKernel
		}
		if rc.TimedEnd && rc.EWMAGroup >= 0 && pend.timedAt >= 0 {
			ewmaEnd = rc.EWMAGroup
		}
	}
	// A chain that ends (no further kernel) also closes its timing, so the
	// EWMA sees the full latency of the dependent-prefetch sequence even
	// when the final structure has no filter range of its own. Chains whose
	// final target was already resident carry no information about memory
	// latency and would drag the look-ahead into a too-shallow equilibrium,
	// so only real fills train the EWMA.
	if ewmaEnd < 0 && pend.timedAt >= 0 && kernel == NoKernel && pend.ewma >= 0 {
		ewmaEnd = pend.ewma
	}
	if ewmaEnd >= 0 && pend.timedAt >= 0 && filled {
		p.ewma[ewmaEnd].observeLoadTime(now - pend.timedAt)
	}

	if !p.Enabled {
		return
	}

	o := observation{addr: pend.addr, kernel: kernel, timedAt: pend.timedAt, ewma: pend.ewma}
	if pend.blockedPPU >= 0 {
		// The issuing PPU has been stalled on this fill: the chained kernel
		// (if any) runs on that same unit, which then resumes.
		p.resumeBlocked(pend.blockedPPU, o)
	} else if kernel != NoKernel {
		p.enqueueObs(o)
	}
}

func (p *Prefetcher) enqueueObs(o observation) {
	p.emit(trace.Event{Kind: trace.PFObserve, Addr: o.addr, A: int32(o.kernel), C: -1})
	if p.obsQueue.Len() >= p.cfg.ObsQueue {
		// Prefetches are only hints: drop the oldest observation (§4.3).
		p.Stats.ObsDropped++
		oldest := p.obsQueue.Pop()
		p.emit(trace.Event{Kind: trace.PFObsDrop, Addr: oldest.addr,
			A: int32(oldest.kernel), C: -1})
		p.mObsDepth.Observe(p.obsQueue.Len())
	}
	p.obsQueue.Push(o)
	p.mObsDepth.Observe(p.obsQueue.Len())
	p.schedule()
}

// schedule assigns queued observations to free PPUs, lowest id first (§7.2).
func (p *Prefetcher) schedule() {
	for p.obsQueue.Len() > 0 {
		id := p.freeUnit()
		if id < 0 {
			return
		}
		o := p.obsQueue.Pop()
		p.mObsDepth.Observe(p.obsQueue.Len())
		p.startKernel(id, o)
	}
}

// startKernel puts free unit id to work on o at the next PPU clock edge.
func (p *Prefetcher) startKernel(id int, o observation) {
	k := p.kernel(o.kernel)
	if k == nil {
		return
	}
	u := &p.units[id]
	p.setBusy(id, true)
	now := p.eng.Now()
	start := p.cfg.PPUClock.NextEdge(now)
	u.busyStart = now

	// First execution of a kernel fetches it into the shared instruction
	// cache from memory (§4.4: ~1 KB total per application); model the
	// cold start as a fixed fetch delay.
	if !k.warm {
		k.warm = true
		p.Stats.ICacheMisses++
		start += p.cfg.PPUClock.Cycles(int64(ppu.EncodedSize(k.prog)/4) + 50)
	}
	p.begin(id, k.prog, o, start)
	p.run(id, start)
}

// resumeBlocked continues unit id, stalled on a tagged prefetch that has now
// filled or been dropped: the kernel chained to the fill (if any) runs first,
// on the same unit, then the kernels below it.
func (p *Prefetcher) resumeBlocked(id int, chained observation) {
	start := p.cfg.PPUClock.NextEdge(p.eng.Now())
	if k := p.kernel(chained.kernel); k != nil {
		p.begin(id, k.prog, chained, start)
	}
	p.run(id, start)
}

// begin makes an invocation of prog for event o the innermost kernel of unit
// id, its cycle 0 at tick start. The line forwarded with the event reads as
// zeros where o.addr is unmapped.
func (p *Prefetcher) begin(id int, prog []ppu.Instr, o observation, start sim.Ticks) {
	inv := p.takeInvocation()
	inv.unit, inv.obs, inv.start = id, o, start
	inv.env.VAddr = o.addr
	p.bk.ReadLine(o.addr, &inv.env.Line)
	inv.vm.Reset(prog, &inv.env)
	p.Stats.KernelRuns++
	p.emit(trace.Event{Kind: trace.PFKernel, Addr: o.addr, A: int32(o.kernel), C: int32(id)})
	p.units[id].stack = append(p.units[id].stack, inv)
}

// run advances unit id from tick at. Its innermost kernel runs until it halts
// — its record is released and the kernel below resumes — or until emitPF
// stalls it on a tagged prefetch, which leaves the unit busy for that request's
// fill or drop to continue (resumeBlocked). Every run of a VM is charged the
// PPU cycles it added (Cycles is cumulative across resumes) and checked for a
// fault. With no kernel left the unit is freed.
func (p *Prefetcher) run(id int, at sim.Ticks) {
	u := &p.units[id]
	for len(u.stack) > 0 {
		top := len(u.stack) - 1
		inv := u.stack[top]
		before := inv.vm.Cycles()
		status := inv.vm.Run()
		at += p.cfg.PPUClock.Cycles(inv.vm.Cycles() - before)
		if inv.vm.Faulted() {
			p.Stats.KernelFaults++
		}
		if status == ppu.Blocked {
			return
		}
		u.stack = u.stack[:top]
		p.invFree = append(p.invFree, inv)
	}
	p.finishUnit(id, at)
}

// takeInvocation returns a record from the pool, bound to p.
func (p *Prefetcher) takeInvocation() *invocation {
	if n := len(p.invFree); n > 0 {
		inv := p.invFree[n-1]
		p.invFree = p.invFree[:n-1]
		return inv
	}
	inv := new(invocation)
	inv.env.Lookahead, inv.env.EmitPF = inv.lookahead, inv.emitPF
	inv.bind(p)
	return inv
}

// releaseStack returns every invocation of u to the pool.
func (p *Prefetcher) releaseStack(u *unit) {
	p.invFree = append(p.invFree, u.stack...)
	u.stack = u.stack[:0]
}

// emitPF is the record's EmitPF: it registers one generated prefetch — its
// record in the pending table plus a timestamped enqueue event carrying
// (addr, obsID) as payload words — and, in blocked mode, stalls the kernel on
// a tagged one.
func (inv *invocation) emitPF(addr uint64, tag int, cycle int64) bool {
	p := inv.p
	p.Stats.PFGenerated++
	at := inv.start + p.cfg.PPUClock.Cycles(cycle)
	if at < p.eng.Now() {
		at = p.eng.Now()
	}
	chain := NoKernel
	if tag != ppu.NoTag {
		chain = tag
	}
	obsID := p.nextObs
	p.nextObs++
	p.emit(trace.Event{Kind: trace.PFGenerate, Addr: addr, ID: int64(obsID),
		A: int32(inv.obs.kernel), B: int32(tag), C: int32(inv.unit)})
	block := p.cfg.Blocked && chain != NoKernel
	blockedPPU := -1
	if block {
		blockedPPU = inv.unit
	}
	*p.pending.insert(obsID) = pendingPF{id: obsID, live: true, addr: addr, chain: chain,
		timedAt: inv.obs.timedAt, ewma: inv.obs.ewma, blockedPPU: blockedPPU, createdAt: p.eng.Now()}
	p.eng.Schedule(at, p.enqueueH, addr, uint64(obsID))
	return block
}

func (p *Prefetcher) enqueueReq(r request) {
	if p.reqQueue.Len() >= p.cfg.ReqQueue {
		p.Stats.ReqDropped++
		p.dropPending(r.obsID, trace.DropQueue)
		return
	}
	p.Stats.QueueDepthSum += int64(p.reqQueue.Len())
	p.reqQueue.Push(r)
	p.mReqDepth.Observe(p.reqQueue.Len())
	p.emit(trace.Event{Kind: trace.PFEnqueue, Addr: r.addr, ID: int64(r.obsID),
		A: int32(p.reqQueue.Len()), C: -1})
	p.pump()
}

// mshrHeadroom keeps a couple of L1 MSHRs free for demand misses so the
// prefetcher cannot starve the core's own traffic.
const mshrHeadroom = 2

// pumpWays is how many request translations may overlap: the shared TLB is
// pipelined, so the drain rate is bounded by MSHR availability rather than
// one translation latency per request.
const pumpWays = 4

// pump drains the request queue into free L1 MSHRs, translating via the
// shared TLB (§4.6). Up to pumpWays translations overlap in the pipelined
// TLB, and every MSHR-free callback (l1.OnMSHRFree) restarts the drain, so
// requests leave the queue as fast as translation bandwidth and MSHR
// availability allow — there is no per-request serialisation. Lookups
// already racing through the cache pipeline (inFlight) count against the
// free MSHRs so the headroom gate cannot be overrun by requests whose MSHR
// claim has not landed yet.
func (p *Prefetcher) pump() {
	if p.reqQueue.Len() == 0 {
		return
	}
	if p.pumping >= pumpWays {
		p.Stats.PumpBusy++
		return
	}
	if p.l1.FreeMSHRs()-p.inFlight-p.pumping <= mshrHeadroom {
		p.Stats.PumpGated++
		return
	}
	p.pumping++
	r := p.reqQueue.Pop()
	p.mReqDepth.Observe(p.reqQueue.Len())

	p.tlb.TranslateTo(r.addr, p.pumpH, uint64(p.pumpRecs.Put(r)))
}

// pumpDoneHandler receives a prefetch request's translation; a is the pump
// record index, ok the mapped bit.
type pumpDoneHandler struct{ p *Prefetcher }

func (h pumpDoneHandler) Handle(_ sim.Ticks, a, ok uint64) {
	p := h.p
	r := p.pumpRecs.Take(int32(a))
	p.pumping--
	if ok == 0 {
		// Page-table miss: discard rather than fault (§5.3).
		p.Stats.TLBDrops++
		p.dropPending(r.obsID, trace.DropTLB)
	} else if p.l1.FreeMSHRs()-p.inFlight <= 0 {
		p.Stats.MSHRDrops++
		p.dropPending(r.obsID, trace.DropMSHR)
	} else {
		p.Stats.Issued++
		p.emit(trace.Event{Kind: trace.PFIssue, Addr: r.addr, ID: int64(r.obsID), C: -1})
		var timed sim.Ticks = -1
		if pend := p.pending.find(r.obsID); pend != nil {
			timed = pend.timedAt
			p.Stats.IssueLatencySum += p.eng.Now() - pend.createdAt
		}
		p.inFlight++
		req := p.l1.Pool.Get()
		req.Addr, req.Kind, req.PC = r.addr, mem.Prefetch, -1
		req.Tag, req.TimedAt = r.obsID, timed
		// The lookup holds its claim on the free MSHRs until the cache has
		// resolved it (lookupDone).
		p.l1.Access(req)
	}
	p.pump()
}

// lookupDone is the L1's OnTaggedLookup hook: the cache pipeline has resolved
// one of our lookups — it holds an MSHR now, or needs none — so its claim on
// the headroom ends and the drain restarts.
func (p *Prefetcher) lookupDone() {
	p.inFlight--
	p.pump()
}

// dropPending abandons a pending tagged request; in blocked mode the
// suspended PPU must be resumed or it would wait forever.
func (p *Prefetcher) dropPending(obsID int, reason int32) {
	slot := p.pending.find(obsID)
	if slot == nil {
		return
	}
	pend := *slot
	slot.live = false
	p.emit(trace.Event{Kind: trace.PFDrop, Addr: pend.addr, ID: int64(obsID),
		A: reason, C: -1})
	if pend.blockedPPU >= 0 {
		p.resumeBlocked(pend.blockedPPU, observation{kernel: NoKernel})
	}
}

// finishUnit frees unit id at time at and lets the scheduler refill it.
func (p *Prefetcher) finishUnit(id int, at sim.Ticks) {
	if at < p.eng.Now() {
		at = p.eng.Now()
	}
	p.eng.Schedule(at, p.freeH, uint64(id), p.epoch)
}

func (p *Prefetcher) lookahead(group int) uint64 {
	if group < 0 || group >= len(p.ewma) {
		return 1
	}
	return p.ewma[group].lookahead()
}

// Lookahead exposes the EWMA-derived distance (tests, examples).
func (p *Prefetcher) Lookahead(group int) uint64 { return p.lookahead(group) }

// ActivityFactors returns each PPU's awake fraction over the elapsed
// runtime: the Figure 10 quantity. Call after the simulation completes.
func (p *Prefetcher) ActivityFactors() []float64 {
	total := p.eng.Now()
	out := make([]float64, len(p.units))
	if total == 0 {
		return out
	}
	for i := range p.units {
		busy := p.units[i].busyTicks
		if p.isBusy(i) {
			busy += total - p.units[i].busyStart
		}
		out[i] = float64(busy) / float64(total)
	}
	return out
}

// ewmaGroup implements the §4.5 moving-average calculators: the first sample
// seeds an average, and each later sample d moves it by (d − avg)/16, a
// weight of 1/16 (TestEWMAWeight pins it). The exposed look-ahead distance
// is quantised to powers of two with hysteresis: a raw ratio that wobbles between adjacent values would leave
// a gap of unprefetched iterations at every upward step, and those gaps
// become fully serialised misses.
type ewmaGroup struct {
	lastAccess sim.Ticks
	interval   float64
	loadTime   float64
	quantised  uint64
}

func (g *ewmaGroup) init() {
	g.lastAccess = -1
	g.interval = 0
	g.loadTime = 0
	g.quantised = 0
}

func (g *ewmaGroup) observeInterval(now sim.Ticks) {
	if g.lastAccess >= 0 {
		dt := float64(now - g.lastAccess)
		if g.interval == 0 {
			g.interval = dt
		} else {
			g.interval += (dt - g.interval) / 16
		}
	}
	g.lastAccess = now
}

func (g *ewmaGroup) observeLoadTime(d sim.Ticks) {
	dt := float64(d)
	if g.loadTime == 0 {
		g.loadTime = dt
	} else {
		g.loadTime += (dt - g.loadTime) / 16
	}
}

// lookahead returns loadTime/interval rounded up to a power of two in
// [4, 64], with hysteresis so the distance changes only when the ratio has
// clearly left its current bucket. With no samples yet it returns 4.
func (g *ewmaGroup) lookahead() uint64 {
	if g.interval <= 0 || g.loadTime <= 0 {
		return 4
	}
	raw := g.loadTime / g.interval
	cur := float64(g.quantised)
	if g.quantised == 0 || raw > cur*1.5 || raw < cur*0.375 {
		q := uint64(4)
		for float64(q) < raw && q < 64 {
			q <<= 1
		}
		g.quantised = q
	}
	return g.quantised
}
