package kvstore

import (
	"fmt"
	"math"
	"strings"
	"time"

	"c3/internal/core"
)

// Stats snapshot: one coherent, race-safe gather of everything the node
// knows about itself — the C3 signals per peer, the coordinator counters,
// the hint-handoff ledger, per-shard queue state, and the LSM's counters.
//
// Coherence rules: per-peer ranker signals are read under each shard
// selector's lock (core.Client.Inspect), so a peer's outstanding/q̂/T̄/R̄
// within one shard are mutually consistent; counters are individually atomic
// but not mutually transactional (a snapshot taken mid-write may show the
// ok before the hint, or vice versa). Nothing here blocks the hot path
// beyond those short lock holds.

// PeerSignalStats is one peer's C3 signals aggregated over the node's shard
// selectors: outstanding sums (total in-flight toward the peer), the EWMAs
// average over the shards that have actually sent to the peer.
type PeerSignalStats struct {
	ID          int     `json:"id"`
	Addr        string  `json:"addr,omitempty"`
	Self        bool    `json:"self,omitempty"`
	Outstanding float64 `json:"outstanding"`
	QHat        float64 `json:"qhat"`
	QBar        float64 `json:"qbar"`
	TBarMs      float64 `json:"tbar_ms"`
	RBarMs      float64 `json:"rbar_ms"`
	Score       float64 `json:"score"`  // Ψ averaged over scoring shards; 0 until scored
	Scored      bool    `json:"scored"` // false: no shard has feedback for this peer yet
}

// ShardQueueStats is one storage shard's hot-path queue state.
type ShardQueueStats struct {
	PendingReads  int64  `json:"pending_reads"`
	SvcTimeUs     uint64 `json:"svc_time_us"` // smoothed replica-read service time
	WriteQueueLen int    `json:"write_queue_len"`
	WriteQueueCap int    `json:"write_queue_cap"`
}

// StoreStats is the LSM layer's state, summed over shards.
type StoreStats struct {
	Keys         int    `json:"keys"`
	Runs         int    `json:"runs"`
	MemBytes     int    `json:"mem_bytes"`
	Gets         uint64 `json:"gets"`
	Puts         uint64 `json:"puts"`
	Deletes      uint64 `json:"deletes"`
	Flushes      uint64 `json:"flushes"`
	Compactions  uint64 `json:"compactions"`
	WALRecords   uint64 `json:"wal_records"`
	GroupCommits uint64 `json:"group_commits"`
	BloomSkips   uint64 `json:"bloom_skips"`
	IOErrors     uint64 `json:"io_errors"`
}

// NodeStats is one coherent snapshot of a node's observable state.
type NodeStats struct {
	ID    int    `json:"id"`
	Epoch uint64 `json:"epoch"`

	SrttMs   float64 `json:"srtt_ms"`   // smoothed replica-read RTT (hedge clock)
	RttvarMs float64 `json:"rttvar_ms"` // its RFC 6298 variance term

	ReadsServed      uint64 `json:"reads_served"`
	ReadsCoordinated uint64 `json:"reads_coordinated"`
	ReadsWaited      uint64 `json:"reads_waited"` // backpressure hits
	HedgesSent       uint64 `json:"hedges_sent"`
	HedgeWins        uint64 `json:"hedge_wins"`
	WriteFails       uint64 `json:"write_fails"`
	QuorumFails      uint64 `json:"quorum_fails"`
	Repairs          uint64 `json:"repairs"`

	// Replica reads this coordinator sent, counted in keys: data reads carry
	// values, digest reads versions only (background probes included), and a
	// digest fetch is the value read after a digest proved newer than the
	// data.
	ReplicaReads  uint64 `json:"replica_reads"`
	DigestReads   uint64 `json:"digest_reads"`
	DigestFetches uint64 `json:"digest_fetches"`

	HintsPending  int    `json:"hints_pending"`
	HintsStored   uint64 `json:"hints_stored"`
	HintsReplayed uint64 `json:"hints_replayed"`
	HintsDropped  uint64 `json:"hints_dropped"`

	Peers  []PeerSignalStats `json:"peers"`
	Shards []ShardQueueStats `json:"shards"`
	Store  StoreStats        `json:"store"`
}

// StatsSnapshot gathers the node's observable state. Safe to call
// concurrently with live traffic from any goroutine.
func (n *Node) StatsSnapshot() NodeStats {
	topo := n.topo.Load()
	st := NodeStats{
		ID:    int(n.id),
		Epoch: topo.epoch(),

		SrttMs:   float64(n.srttNs.Load()) / 1e6,
		RttvarMs: float64(n.rttvarNs.Load()) / 1e6,

		ReadsServed:      n.served.Load(),
		ReadsCoordinated: n.coord.Load(),
		ReadsWaited:      n.waited.Load(),
		HedgesSent:       n.sels.HedgesSent(),
		HedgeWins:        n.hedgeWins.Load(),
		WriteFails:       n.writeFails.Load(),
		QuorumFails:      n.quorumFails.Load(),
		Repairs:          n.repairs.Load(),

		ReplicaReads:  n.replicaReads.Load(),
		DigestReads:   n.digestReads.Load(),
		DigestFetches: n.digestFetches.Load(),

		HintsPending:  n.hints.pending(),
		HintsStored:   n.hints.stored.Load(),
		HintsReplayed: n.hints.replayed.Load(),
		HintsDropped:  n.hints.dropped.Load(),
	}

	st.Peers = n.peerSignals(topo)

	st.Shards = make([]ShardQueueStats, len(n.st))
	for sh := range n.st {
		st.Shards[sh] = ShardQueueStats{
			PendingReads:  n.st[sh].pendingReads.Load(),
			SvcTimeUs:     n.st[sh].svcNs.Load() / uint64(time.Microsecond),
			WriteQueueLen: len(n.st[sh].wq),
			WriteQueueCap: cap(n.st[sh].wq),
		}
	}

	ls := n.store.Stats()
	st.Store = StoreStats{
		Keys:         n.store.Len(),
		Runs:         n.store.Runs(),
		MemBytes:     n.store.MemBytes(),
		Gets:         ls.Gets,
		Puts:         ls.Puts,
		Deletes:      ls.Deletes,
		Flushes:      ls.Flushes,
		Compactions:  ls.Compactions,
		WALRecords:   ls.WALRecords,
		GroupCommits: ls.GroupCommits,
		BloomSkips:   ls.BloomSkips,
		IOErrors:     ls.IOErrors,
	}
	return st
}

// peerSignals reads every registered server's C3 signals across the shard
// selectors, under each selector's lock. Sums outstanding (total in-flight),
// averages the EWMAs over the shards that have seen the peer, and averages Ψ
// over the shards whose score is live (finite).
func (n *Node) peerSignals(topo *topology) []PeerSignalStats {
	ids := make([]core.ServerID, 0, 8)
	for i := 0; i < n.reg.Len(); i++ {
		ids = append(ids, n.reg.ID(i))
	}
	out := make([]PeerSignalStats, len(ids))
	seen := make([]int, len(ids))   // shards with ranker state for ids[j]
	scored := make([]int, len(ids)) // shards with a live (finite) Ψ
	for sh := 0; sh < n.sels.Len(); sh++ {
		n.sels.Shard(sh).Inspect(func(r core.Ranker) {
			sr, ok := r.(core.SignalsReporter)
			if !ok {
				return
			}
			for j, s := range ids {
				sig := sr.Signals(s)
				if !sig.Seen {
					continue
				}
				seen[j]++
				out[j].Outstanding += sig.Outstanding
				out[j].QHat += sig.QHat
				out[j].QBar += sig.QBar
				out[j].TBarMs += sig.TBar * 1e3
				out[j].RBarMs += sig.RBar * 1e3
				if !math.IsInf(sig.Score, 0) && !math.IsNaN(sig.Score) {
					scored[j]++
					out[j].Score += sig.Score
				}
			}
		})
	}
	for j, s := range ids {
		out[j].ID = int(s)
		if int(s) < len(topo.addrs) {
			out[j].Addr = topo.addrs[s]
		}
		out[j].Self = s == n.id
		if seen[j] > 0 {
			k := float64(seen[j])
			out[j].QHat /= k
			out[j].QBar /= k
			out[j].TBarMs /= k
			out[j].RBarMs /= k
		} else {
			out[j].QHat = 1 // the ranker's prior for unseen servers
		}
		if scored[j] > 0 {
			out[j].Score /= float64(scored[j])
			out[j].Scored = true
		}
	}
	return out
}

// InfoText renders the snapshot as a Redis INFO-style text block (the RESP
// gateway's INFO reply).
func (s NodeStats) InfoText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Server\r\nnode_id:%d\r\nring_epoch:%d\r\n", s.ID, s.Epoch)
	fmt.Fprintf(&b, "# Latency\r\nsrtt_ms:%.3f\r\nrttvar_ms:%.3f\r\n", s.SrttMs, s.RttvarMs)
	fmt.Fprintf(&b, "# Coordinator\r\nreads_served:%d\r\nreads_coordinated:%d\r\nreads_waited:%d\r\n",
		s.ReadsServed, s.ReadsCoordinated, s.ReadsWaited)
	fmt.Fprintf(&b, "hedges_sent:%d\r\nhedge_wins:%d\r\nwrite_fails:%d\r\nquorum_fails:%d\r\nrepairs:%d\r\n",
		s.HedgesSent, s.HedgeWins, s.WriteFails, s.QuorumFails, s.Repairs)
	fmt.Fprintf(&b, "replica_reads:%d\r\ndigest_reads:%d\r\ndigest_fetches:%d\r\n",
		s.ReplicaReads, s.DigestReads, s.DigestFetches)
	fmt.Fprintf(&b, "# Hints\r\nhints_pending:%d\r\nhints_stored:%d\r\nhints_replayed:%d\r\nhints_dropped:%d\r\n",
		s.HintsPending, s.HintsStored, s.HintsReplayed, s.HintsDropped)
	fmt.Fprintf(&b, "# Keyspace\r\nkeys:%d\r\nruns:%d\r\nmem_bytes:%d\r\nputs:%d\r\ngets:%d\r\ndeletes:%d\r\n",
		s.Store.Keys, s.Store.Runs, s.Store.MemBytes, s.Store.Puts, s.Store.Gets, s.Store.Deletes)
	for _, p := range s.Peers {
		fmt.Fprintf(&b, "# Peer %d\r\n", p.ID)
		if p.Addr != "" {
			fmt.Fprintf(&b, "addr:%s\r\n", p.Addr)
		}
		fmt.Fprintf(&b, "outstanding:%.1f\r\nqhat:%.3f\r\ntbar_ms:%.3f\r\nrbar_ms:%.3f\r\n",
			p.Outstanding, p.QHat, p.TBarMs, p.RBarMs)
		if p.Scored {
			fmt.Fprintf(&b, "score_ms:%.3f\r\n", p.Score*1e3)
		}
	}
	return b.String()
}
