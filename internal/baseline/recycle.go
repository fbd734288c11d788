package baseline

import "eventpf/internal/sim"

// The units' tables, recycled from a released unit (Unit.Release) to the next
// one of its kind built: prediction tables, history buffers, the Markov
// unit's index map and every issuer ring. One per length for each machine
// that runs at once, with room for a forked sweep's parent beside its lanes;
// the adaptive controller hosts one unit of each kind.
var (
	strideTables  = sim.ArrayPool[rptEntry]{Max: 8}
	rptTables     = sim.ArrayPool[rptSlot]{Max: 8}
	ghbRings      = sim.Recycler[[]ghbEntry]{Max: 8}
	deltaArrays   = sim.ArrayPool[deltaEntry]{Max: 8}
	aitArrays     = sim.ArrayPool[aitSlot]{Max: 8}
	trackerArrays = sim.ArrayPool[tskidTracker]{Max: 8}
	targetArrays  = sim.ArrayPool[tskidTarget]{Max: 8}
	recentArrays  = sim.ArrayPool[tskidRecent]{Max: 8}
	// addrRings holds the issuers' queues and the Markov index's age ring:
	// an adaptive machine has five of them.
	addrRings  = sim.Recycler[[]uint64]{Max: 6 * 8}
	ghbIndexes = sim.Recycler[map[uint64]int32]{Max: 8}
)

// maxPooledHistory is the largest Markov history or index that goes back to
// a pool: the regular configuration's 2 048 entries are, the large variant's
// tables (sized for 2^22 entries and grown by the run) are not, so a pool
// never pins what one long ghb-large run grew.
const maxPooledHistory = 1 << 16
