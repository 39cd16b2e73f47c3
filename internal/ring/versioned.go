package ring

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"c3/internal/core"
)

// Versioned is an epoch-numbered immutable topology: one token ring plus the
// monotonically increasing epoch that names it. Membership changes never
// mutate a Versioned — AddNode/RemoveNode derive the successor epoch with
// minimal token movement (a join bisects the widest arc, a leave drops only
// the leaver's tokens), and Diff enumerates exactly the key ranges whose
// replica set changed between two epochs, which is what a joining or
// decommissioning node must stream.
type Versioned struct {
	epoch  uint64
	ring   *Ring
	ids    []core.ServerID // members in token order (ids[i] owns tokens[i])
	tokens []int64         // ascending; one token per member
}

// Membership errors returned by AddNode/RemoveNode.
var (
	ErrMember    = errors.New("ring: node is already a member")
	ErrNotMember = errors.New("ring: node is not a member")
	ErrBelowRF   = errors.New("ring: removal would leave fewer nodes than the replication factor")
)

// NewVersioned builds epoch 0 of an n-node ring with replication factor rf
// and equal token spacing — the same layout as New, wrapped with a version.
func NewVersioned(n, rf int) *Versioned {
	r := New(n, rf)
	v := &Versioned{
		epoch:  0,
		ring:   r,
		ids:    append([]core.ServerID(nil), r.owners...),
		tokens: append([]int64(nil), r.tokens...),
	}
	return v
}

// FromNodes builds a Versioned directly from (id, token) pairs — the
// constructor for topologies received off the wire. Entries need not be
// sorted. It errors on duplicate ids, duplicate tokens, an empty node list,
// or an rf outside [1, nodes].
func FromNodes(epoch uint64, ids []core.ServerID, tokens []int64, rf int) (*Versioned, error) {
	if len(ids) == 0 || len(ids) != len(tokens) {
		return nil, fmt.Errorf("ring: %d ids vs %d tokens", len(ids), len(tokens))
	}
	if rf < 1 || rf > len(ids) {
		return nil, fmt.Errorf("ring: replication factor %d outside [1, %d]", rf, len(ids))
	}
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return tokens[order[a]] < tokens[order[b]] })
	v := &Versioned{
		epoch:  epoch,
		ids:    make([]core.ServerID, len(ids)),
		tokens: make([]int64, len(ids)),
	}
	seenID := make(map[core.ServerID]bool, len(ids))
	for i, o := range order {
		if i > 0 && tokens[o] == v.tokens[i-1] {
			return nil, fmt.Errorf("ring: duplicate token %d", tokens[o])
		}
		if seenID[ids[o]] {
			return nil, fmt.Errorf("ring: duplicate node id %d", ids[o])
		}
		seenID[ids[o]] = true
		v.ids[i] = ids[o]
		v.tokens[i] = tokens[o]
	}
	v.ring = &Ring{tokens: v.tokens, owners: v.ids, rf: rf}
	return v, nil
}

// Epoch reports the topology's version number.
func (v *Versioned) Epoch() uint64 { return v.epoch }

// Ring exposes the underlying token ring for replica lookups.
func (v *Versioned) Ring() *Ring { return v.ring }

// RF reports the replication factor.
func (v *Versioned) RF() int { return v.ring.rf }

// Members lists the member ids in token order. Callers must not modify it.
func (v *Versioned) Members() []core.ServerID { return v.ids }

// Tokens lists the ring tokens in ascending order, parallel to Members.
// Callers must not modify it.
func (v *Versioned) Tokens() []int64 { return v.tokens }

// Contains reports whether id is a member.
func (v *Versioned) Contains(id core.ServerID) bool {
	return slices.Contains(v.ids, id)
}

// MaxID reports the largest member id (the seed for assigning a fresh one).
func (v *Versioned) MaxID() core.ServerID {
	max := v.ids[0]
	for _, id := range v.ids[1:] {
		if id > max {
			max = id
		}
	}
	return max
}

// JoinToken reports the token a joining node would take: the midpoint of the
// widest arc between adjacent tokens (ties broken by ring order), which moves
// the minimal ~1/(2n) share of the primary token space. Deterministic, so
// every node that evaluates a join computes the same successor ring.
func (v *Versioned) JoinToken() int64 {
	widest, at := uint64(0), 0
	for i := range v.tokens {
		var gap uint64
		if i == 0 {
			// Wrap arc: from the last token over the max/min seam to the
			// first.
			gap = uint64(v.tokens[0]) - uint64(v.tokens[len(v.tokens)-1])
		} else {
			gap = uint64(v.tokens[i]) - uint64(v.tokens[i-1])
		}
		if gap > widest {
			widest, at = gap, i
		}
	}
	var lo int64
	if at == 0 {
		lo = v.tokens[len(v.tokens)-1]
	} else {
		lo = v.tokens[at-1]
	}
	return lo + int64(widest/2) // wrapping int64 addition walks the ring
}

// AddNode derives the successor epoch with id joined at JoinToken. Token
// movement is minimal: every existing token keeps its position; only keys in
// the bisected arc (and the replica-set shifts it induces on the preceding
// RF-1 arcs) change owners.
func (v *Versioned) AddNode(id core.ServerID) (*Versioned, error) {
	if v.Contains(id) {
		return nil, ErrMember
	}
	t := v.JoinToken()
	// The widest-arc midpoint can only collide with an existing token in a
	// pathological 2^0-wide ring; nudge until free.
	for slices.Contains(v.tokens, t) {
		t++
	}
	ids := append(append([]core.ServerID(nil), v.ids...), id)
	tokens := append(append([]int64(nil), v.tokens...), t)
	return FromNodes(v.epoch+1, ids, tokens, v.ring.rf)
}

// RemoveNode derives the successor epoch with id removed; its arc falls to
// the ring successors. It errors when id is not a member or when the
// remainder could not satisfy the replication factor.
func (v *Versioned) RemoveNode(id core.ServerID) (*Versioned, error) {
	if !v.Contains(id) {
		return nil, ErrNotMember
	}
	if len(v.ids)-1 < v.ring.rf {
		return nil, ErrBelowRF
	}
	ids := make([]core.ServerID, 0, len(v.ids)-1)
	tokens := make([]int64, 0, len(v.ids)-1)
	for i, m := range v.ids {
		if m == id {
			continue
		}
		ids = append(ids, m)
		tokens = append(tokens, v.tokens[i])
	}
	return FromNodes(v.epoch+1, ids, tokens, v.ring.rf)
}

// Range is a half-open arc of the token space: the tokens t with
// Start < t ≤ End, walking clockwise (so a Range with Start ≥ End wraps
// through the max/min seam). Ranges partition keys the way the ring does:
// every ring position i owns exactly the arc (tokens[i-1], tokens[i]].
type Range struct {
	Start, End int64
}

// Contains reports whether token t lies in the arc.
func (r Range) Contains(t int64) bool {
	if r.Start < r.End {
		return t > r.Start && t <= r.End
	}
	return t > r.Start || t <= r.End
}

// Width reports the arc's share of the token space in 1/2^64 units.
func (r Range) Width() uint64 { return uint64(r.End) - uint64(r.Start) }

// Change is one arc whose replica set differs between two epochs, with the
// owner sets on both sides — the unit of work a membership transition
// streams.
type Change struct {
	Range
	Old []core.ServerID // owners before (in ring preference order)
	New []core.ServerID // owners after
}

// Diff enumerates the arcs whose replica set changed from v to next, merged
// into maximal runs. A single join or leave yields O(RF) changes covering
// roughly RF/n of the token space; an unchanged topology yields nil.
func (v *Versioned) Diff(next *Versioned) []Change {
	// Boundary tokens of either ring cut the space into segments with
	// constant ownership on both sides.
	cuts := make([]int64, 0, len(v.tokens)+len(next.tokens))
	cuts = append(cuts, v.tokens...)
	cuts = append(cuts, next.tokens...)
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)

	var out []Change
	for i, end := range cuts {
		start := cuts[(i+len(cuts)-1)%len(cuts)] // predecessor, wrapping
		oldOwners := v.ring.ReplicasForToken(end, nil)
		newOwners := next.ring.ReplicasForToken(end, nil)
		if slices.Equal(oldOwners, newOwners) {
			continue
		}
		// Merge into the previous change when the arcs are adjacent and the
		// transition is identical.
		if n := len(out); n > 0 && out[n-1].End == start &&
			slices.Equal(out[n-1].Old, oldOwners) && slices.Equal(out[n-1].New, newOwners) {
			out[n-1].End = end
			continue
		}
		out = append(out, Change{Range: Range{Start: start, End: end}, Old: oldOwners, New: newOwners})
	}
	// The first and last changes may be two halves of one arc wrapping the
	// seam; stitch them.
	if n := len(out); n > 1 && out[0].Start == out[n-1].End &&
		slices.Equal(out[0].Old, out[n-1].Old) && slices.Equal(out[0].New, out[n-1].New) {
		out[0].Start = out[n-1].Start
		out = out[:n-1]
	}
	return out
}
