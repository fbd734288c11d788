package workloads

import (
	"slices"
	"sort"
	"testing"
)

// sortedCSR is the Graph500 CSR built the way it was before kroneckerCSR:
// the edge list sorted by (source, target) with sort.Slice, then cut into
// rows.
func sortedCSR(rng *splitmix64, scaleLg uint) (rowptr, adj []uint64) {
	edges := rmat(rng, scaleLg, g500EdgeFactor)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	nv := uint64(1) << scaleLg
	rowptr = make([]uint64, nv+1)
	adj = make([]uint64, len(edges))
	idx := 0
	for v := uint64(0); v <= nv; v++ {
		rowptr[v] = uint64(idx)
		for idx < len(edges) && edges[idx][0] == v {
			adj[idx] = edges[idx][1]
			idx++
		}
	}
	return rowptr, adj
}

// TestKroneckerCSRMatchesComparisonSort: the counting-sort CSR equals the
// sorted edge list word for word, for both Graph500 variants at three
// scales — one of them just past a power of two, where the generator doubles
// the graph — and leaves the generator where the list build continues from.
func TestKroneckerCSRMatchesComparisonSort(t *testing.T) {
	for _, list := range []bool{false, true} {
		base := g500CSRScaleLg
		if list {
			base = g500ListScaleLg
		}
		pastJump := (1<<10 + 1.5) / float64(int(1)<<base) // 2^10 + 1 vertices
		for _, scale := range []float64{0.01, pastJump, 0.05} {
			lg := g500ScaleLg(scale, list)
			if scale == pastJump && lg != 11 {
				t.Fatalf("list=%v scale %g: %d-bit graph, want the 11-bit one past the jump", list, scale, lg)
			}
			rng, refRNG := splitmix64(0x65), splitmix64(0x65)
			rowptr, adj := kroneckerCSR(&rng, lg)
			wantRowptr, wantAdj := sortedCSR(&refRNG, lg)
			if !slices.Equal(rowptr, wantRowptr) || !slices.Equal(adj, wantAdj) {
				t.Errorf("list=%v scale %g (%d-bit): CSR differs from the sorted edge list", list, scale, lg)
			}
			if rng != refRNG {
				t.Errorf("list=%v scale %g: generator state differs after the build", list, scale)
			}
		}
	}
}
