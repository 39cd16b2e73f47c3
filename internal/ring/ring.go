// Package ring implements a Cassandra-style consistent-hash token ring:
// Murmur3 partitioning, per-node tokens assigned as equal segments of the
// token space (the paper: "We assign tokens to each Cassandra node such that
// nodes own equal segments of the keyspace"), and replica sets found by
// walking the ring clockwise.
package ring

import (
	"fmt"
	"math"
	"sort"

	"c3/internal/core"
)

// Ring is an immutable token ring over a set of nodes.
type Ring struct {
	tokens []int64         // ascending ring positions
	owners []core.ServerID // owners[i] owns tokens[i]
	rf     int
}

// New builds a ring of n nodes with replication factor rf and one token per
// node at equal spacing (node i owns token min + i·(range/n)). It panics on
// a non-positive node count or an rf outside [1, n].
func New(n, rf int) *Ring {
	if n <= 0 {
		panic("ring: need at least one node")
	}
	if rf < 1 || rf > n {
		panic(fmt.Sprintf("ring: replication factor %d outside [1, %d]", rf, n))
	}
	r := &Ring{
		tokens: make([]int64, n),
		owners: make([]core.ServerID, n),
		rf:     rf,
	}
	step := uint64(math.MaxUint64) / uint64(n)
	for i := 0; i < n; i++ {
		r.tokens[i] = math.MinInt64 + int64(uint64(i)*step)
		r.owners[i] = core.ServerID(i)
	}
	return r
}

// Nodes reports the number of ring positions.
func (r *Ring) Nodes() int { return len(r.tokens) }

// RF reports the replication factor.
func (r *Ring) RF() int { return r.rf }

// primaryIndex finds the ring position owning token t: the first position
// with tokens[i] ≥ t, wrapping past the last token.
func (r *Ring) primaryIndex(t int64) int {
	i := sort.Search(len(r.tokens), func(i int) bool { return r.tokens[i] >= t })
	if i == len(r.tokens) {
		return 0
	}
	return i
}

// ReplicasFor writes the RF distinct replicas of key into dst (walking the
// ring clockwise from the key's token, skipping duplicate owners) and
// returns it. dst may be nil.
func (r *Ring) ReplicasFor(key []byte, dst []core.ServerID) []core.ServerID {
	return r.ReplicasForToken(Token(key), dst)
}

// ReplicasForToken is ReplicasFor for a precomputed token.
func (r *Ring) ReplicasForToken(t int64, dst []core.ServerID) []core.ServerID {
	dst = dst[:0]
	i := r.primaryIndex(t)
	for len(dst) < r.rf {
		owner := r.owners[i%len(r.owners)]
		dup := false
		for _, d := range dst {
			if d == owner {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, owner)
		}
		i++
	}
	return dst
}

// Groups enumerates the distinct replica groups of the ring in primary-token
// order. With one token per node there are exactly Nodes() groups.
func (r *Ring) Groups() [][]core.ServerID {
	seen := map[string]bool{}
	var out [][]core.ServerID
	for i := range r.tokens {
		g := r.ReplicasForToken(r.tokens[i], nil)
		k := fmt.Sprint(g)
		if !seen[k] {
			seen[k] = true
			out = append(out, g)
		}
	}
	return out
}

// GroupIndexFor reports which entry of Groups() serves the token, assuming
// the default one-token-per-node layout (groups are keyed by the primary
// ring position).
func (r *Ring) GroupIndexFor(t int64) int { return r.primaryIndex(t) }
