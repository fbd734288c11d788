package main

import (
	"eventpf/internal/harness"
	"eventpf/internal/sim"
	"eventpf/internal/system"
)

// tally sums the simulated statistics of the Results a workload's passes
// produced. Everything in it is a count the simulator made, so for a given
// seed it repeats exactly from run to run.
type tally struct {
	runs                       int64
	ops, detailOps, cycles     int64
	branches, mispredicts      int64
	l1Loads, l1Hits, l1Stores  int64
	l1StoreHits                int64
	l1Misses, l1Merges         int64 // Misses counts MSHR allocations: demand and prefetch
	l1Stalls                   int64
	l2Misses                   int64
	dramReads, dramRowHits     int64
	dramRowAll                 int64
	dramWait                   sim.Ticks
	tlbAccesses, tlbWalks      int64
	pfObs, pfKernelRuns        int64
	pfGenerated, pfIssued      int64
	pfObsDropped, pfReqDropped int64
	pfTLBDrops, pfMSHRDrops    int64
	pfUsed, pfFills            int64 // L1 prefetch outcome, programmable machines
	pfLate, pfL1Issue          int64
	activityMax                float64
	baseGenerated, baseIssued  int64
	baseDrops                  int64
	baseUsed, baseFills        int64 // L1 prefetch outcome, machines with a hardware unit only
	switches                   int64
	warmOps                    int64 // ops the sliced runs fast-forwarded
	slicedOps                  int64
	sampledTotal               int64
	sampledDetail              int64
}

// programOps is the number of program micro-ops a run completed: the whole
// dynamic stream, whether an op was simulated in detail or executed
// functionally by an approximate engine.
func programOps(res harness.Result) int64 {
	if res.Sampled != nil {
		return res.Sampled.TotalOps
	}
	return res.Core.Ops
}

func (t *tally) add(res harness.Result) {
	t.runs++
	t.ops += programOps(res)
	t.detailOps += res.Core.Ops
	t.cycles += res.Cycles
	t.branches += res.Core.Branches
	t.mispredicts += res.Core.Mispredicts
	t.l1Loads += res.L1.DemandLoads
	t.l1Hits += res.L1.DemandHits
	t.l1Stores += res.L1.DemandStores
	t.l1StoreHits += res.L1.StoreHits
	t.l1Misses += res.L1.Misses
	t.l1Merges += res.L1.MSHRMerges
	t.l1Stalls += res.L1.MSHRStalls
	t.l2Misses += res.L2.Misses
	t.dramReads += res.DRAM.Reads
	t.dramRowHits += res.DRAM.RowHits
	t.dramRowAll += res.DRAM.RowHits + res.DRAM.RowMisses + res.DRAM.RowEmpties
	t.dramWait += res.DRAM.BankWaitSum
	t.tlbAccesses += res.TLB.Accesses
	t.tlbWalks += res.TLB.Walks

	info, _ := res.Scheme.Info()
	if info.Machine.IsProgrammable() {
		t.pfObs += res.PF.LoadObservations + res.PF.FillObservations
		t.pfKernelRuns += res.PF.KernelRuns
		t.pfGenerated += res.PF.PFGenerated
		t.pfIssued += res.PF.Issued
		t.pfObsDropped += res.PF.ObsDropped
		t.pfReqDropped += res.PF.ReqDropped
		t.pfTLBDrops += res.PF.TLBDrops
		t.pfMSHRDrops += res.PF.MSHRDrops
		t.pfUsed += res.L1.PrefetchUsed
		t.pfFills += res.L1.PrefetchFills
		t.pfLate += res.L1.LateMerges
		t.pfL1Issue += res.L1.PrefetchIssue
		for _, a := range res.Activity {
			t.activityMax = max(t.activityMax, a)
		}
	} else {
		t.baseUsed += res.L1.PrefetchUsed
		t.baseFills += res.L1.PrefetchFills
	}
	t.baseGenerated += res.Baseline.Generated
	t.baseIssued += res.Baseline.Issued
	t.baseDrops += res.Baseline.TLBDrops + res.Baseline.QueueDrop
	if res.Adaptive != nil {
		t.switches += res.Adaptive.Switches
	}
	if tp := res.TimeParallel; tp != nil {
		t.slicedOps += res.Core.Ops
		for _, w := range tp.WarmOps {
			t.warmOps += w
		}
	}
	if s := res.Sampled; s != nil {
		t.sampledTotal += s.TotalOps
		t.sampledDetail += s.DetailedOps
	}
}

// metrics writes the count metrics of the simulated machine's layers.
func (t *tally) metrics(m map[string]float64) {
	f := func(n int64) float64 { return float64(n) }
	m["cpu.ops"] = f(t.ops)
	m["cpu.ipc"] = ratio(f(t.detailOps), f(t.cycles))
	m["cpu.mispredict_ratio"] = ratio(f(t.mispredicts), f(t.branches))
	m["mem.l1_accesses"] = f(t.l1Loads + t.l1Stores)
	m["mem.l1_miss_ratio"] = ratio(f(t.l1Loads+t.l1Stores-t.l1Hits-t.l1StoreHits), f(t.l1Loads+t.l1Stores))
	m["mem.l1_mshr_merges"] = f(t.l1Merges)
	m["mem.l1_mshr_stalls"] = f(t.l1Stalls)
	// Every L1 MSHR allocation sends one request to the L2, demand or prefetch.
	m["mem.l2_miss_ratio"] = ratio(f(t.l2Misses), f(t.l1Misses))
	m["mem.dram_reads"] = f(t.dramReads)
	m["mem.dram_row_hit_ratio"] = ratio(f(t.dramRowHits), f(t.dramRowAll))
	coreCycle := sim.ClockFromMHz(system.DefaultConfig().CoreMHz).Period // ticks
	m["mem.dram_wait_cycles_per_read"] = ratio(f(t.dramWait)/float64(coreCycle), f(t.dramReads))
	m["mem.tlb_accesses"] = f(t.tlbAccesses)
	m["mem.tlb_walks"] = f(t.tlbWalks)
	m["prefetch.observations"] = f(t.pfObs)
	m["prefetch.kernel_runs"] = f(t.pfKernelRuns)
	m["prefetch.generated"] = f(t.pfGenerated)
	m["prefetch.issued"] = f(t.pfIssued)
	m["prefetch.obs_dropped"] = f(t.pfObsDropped)
	m["prefetch.req_dropped"] = f(t.pfReqDropped)
	m["prefetch.tlb_drops"] = f(t.pfTLBDrops)
	m["prefetch.mshr_drops"] = f(t.pfMSHRDrops)
	m["prefetch.useful_ratio"] = ratio(f(t.pfUsed), f(t.pfFills))
	m["prefetch.late_ratio"] = ratio(f(t.pfLate), f(t.pfL1Issue))
	m["ppu.activity_max"] = t.activityMax
	m["baseline.generated"] = f(t.baseGenerated)
	m["baseline.issued"] = f(t.baseIssued)
	m["baseline.drop_ratio"] = ratio(f(t.baseDrops), f(t.baseGenerated))
	m["baseline.useful_ratio"] = ratio(f(t.baseUsed), f(t.baseFills))
	m["adaptive.switches"] = f(t.switches)
	m["system.sliced_warm_ops_ratio"] = ratio(f(t.warmOps), f(t.slicedOps))
	m["system.sampled_detail_ratio"] = ratio(f(t.sampledDetail), f(t.sampledTotal))
}
