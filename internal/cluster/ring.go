// Package cluster shards the simulation service across many ppfserve
// workers behind one thin coordinator. Jobs route by rendezvous hashing of
// their SHA-256 content address (harness.Job.Key), so every duplicate
// request for the same resolved config lands on the worker that already
// holds the cached bytes; completed results replicate to the next replicas
// on the key's rendezvous order, and a dead worker's traffic moves to those
// same replicas at once, so its death re-simulates nothing. The coordinator
// holds the ring membership and nothing else: requests about a job reach
// its worker by the ID's prefix, and the recovery from any loss is to
// resubmit the spec. The shape mirrors the paper's own scaling unit — many
// small identical units behind one scheduler — applied one level up.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// rankWorkers orders worker IDs by rendezvous (highest-random-weight)
// score for a content key, best first. Every node computes the same order
// independently, membership changes move only the keys whose top-ranked
// worker joined or left (~1/n of the space), and — unlike a ring walk —
// the runner-up order doubles as the replica and failover order.
func rankWorkers(key string, ids []string) []string {
	type scored struct {
		id    string
		score uint64
	}
	ranked := make([]scored, 0, len(ids))
	for _, id := range ids {
		ranked = append(ranked, scored{id: id, score: rendezvousScore(key, id)})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].id < ranked[j].id
	})
	out := make([]string, len(ranked))
	for i, s := range ranked {
		out[i] = s.id
	}
	return out
}

// rendezvousScore hashes (worker, key) into a uint64. SHA-256 keeps the
// score family in the same hash universe as the content keys themselves,
// and its avalanche behaviour gives the near-uniform spread rendezvous
// hashing needs for balance.
func rendezvousScore(key, id string) uint64 {
	h := sha256.New()
	h.Write([]byte(id))
	h.Write([]byte{0})
	h.Write([]byte(key))
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return binary.BigEndian.Uint64(sum[:8])
}
