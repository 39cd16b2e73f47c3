package main

import (
	"runtime"
	"time"

	"c3/internal/kvstore"
	"c3/internal/lsm"
)

// opKind is one of the five operations the workloads issue.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDel
	opMGet
	opMSet
	nKinds
)

var kindNames = [nKinds]string{"get", "put", "del", "mget", "mset"}

func (k opKind) isWrite() bool { return k == opPut || k == opDel || k == opMSet }
func (k opKind) isBatch() bool { return k == opMGet || k == opMSet }

// workload is one named traffic mix against one cluster shape. Every field
// is frozen: a later change is judged by the numbers these settings produce,
// so none of them is a flag.
type workload struct {
	Name string
	Why  string

	Nodes   int
	Durable bool // DataDir + periodic-20ms WAL sync; false = in-memory
	Store   lsm.Options
	// ReadDelayMean is kvstore.Config.ReadDelayMean: injected service time.
	ReadDelayMean time.Duration
	// Faults runs the slow-replica schedule over the fixed-rate phase.
	Faults bool
	// NoFlush: the data set fits the memtable, and a flush is an error.
	NoFlush bool
	// CrashCheck: after the run every node is crashed and reopened from its
	// data directory, and every acknowledged write is read back.
	CrashCheck bool

	RESP  bool          // drive through the RESP gateway on node 0
	Level kvstore.Level // consistency level of every op

	Mix        [nKinds]float64
	Keys       int
	ValueBytes int
	Zipf       float64 // 0 = uniform
	BatchMean  float64
	BatchCap   int

	// Rate is the fixed-rate phase's offered load (ops/s, all lanes). It is
	// kept at or below 30% of SatRate (40% on slow_replica) so queueing in
	// the generator never decides a latency.
	Rate float64
	// SatRate is the saturation throughput seen when the workload was sized
	// on the 2-core reference host. It only fixes the saturation phase's op
	// count (so that phase does identical work in every run).
	SatRate float64
	SLO     time.Duration
}

// Phase shape, as shares of --seconds. Warm-up is not measured.
const (
	fixedShare = 0.7
	satShare   = 0.3
	maxWarmup  = 3 * time.Second
	nWindows   = 5
	satWindow  = 8 // ops each lane keeps outstanding in the saturation phase
)

// Set-ups per untraced run; setup_s is their median. At least minSetups,
// then more while they have taken less than setupBudget seconds in all.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 1.0
)

// Slow-replica schedule, as shares of the fixed-rate phase (the issue's
// 5 s / 10 s / 5 s / 10 s over 30 s), and its injected delays, which match
// internal/bench/tail.go: a degraded replica serves at 5x the healthy mean.
const (
	slowOnShare   = 1.0 / 6
	slowOffShare  = 1.0 / 2
	flapOnShare   = 2.0 / 3
	slowExtra     = 4 * time.Millisecond
	flapHalfCycle = 150 * time.Millisecond
)

func nproc() int { return runtime.NumCPU() }

var workloads = []workload{
	{
		Name:  "steady_read",
		Why:   "healthy fast path: wire, conn-writer, core.Pick and memtable get do the work; compaction, quorum and resp idle",
		Nodes: 3, Durable: true, Store: lsm.Options{FlushBytes: 64 << 20}, NoFlush: true,
		Level: kvstore.One,
		Mix:   [nKinds]float64{opGet: 0.95, opPut: 0.05},
		Keys:  20000, ValueBytes: 256, Zipf: 0.99,
		Rate: 12000, SatRate: 85000, SLO: time.Millisecond,
	},
	{
		Name:  "slow_replica",
		Why:   "the paper's experiment: latency is injected service time and one replica degrades then flaps, so only ranking, rate control and hedging move the tail",
		Nodes: 5, ReadDelayMean: time.Millisecond, Faults: true,
		Level: kvstore.One,
		Mix:   [nKinds]float64{opGet: 0.90, opPut: 0.10},
		Keys:  256, ValueBytes: 128, Zipf: 0.99,
		Rate: 2000, SatRate: 10000, SLO: 10 * time.Millisecond,
	},
	{
		Name:  "write_churn",
		Why:   "storage does the work: WAL group commit, shard-writer fold, SST reads through bloom filters, flush and compaction under the store lock, then crash and recovery",
		Nodes: 3, Durable: true, Store: lsm.Options{FlushBytes: 512 << 10, MaxRuns: 4}, CrashCheck: true,
		Level: kvstore.Quorum,
		Mix:   [nKinds]float64{opGet: 0.50, opPut: 0.50},
		Keys:  8000, ValueBytes: 1024,
		Rate: 2500, SatRate: 16000, SLO: 10 * time.Millisecond,
	},
	{
		Name:  "gateway_mixed",
		Why:   "the externally reproducible path: RESP parse and encode, gateway, batch coordinator and replicated deletes, as batches and tombstones instead of points",
		Nodes: 3, Durable: true,
		RESP: true, Level: kvstore.Quorum,
		Mix:  [nKinds]float64{opGet: 0.40, opPut: 0.20, opDel: 0.05, opMGet: 0.20, opMSet: 0.15},
		Keys: 20000, ValueBytes: 256, Zipf: 0.99, BatchMean: 8, BatchCap: 64,
		Rate: 1500, SatRate: 18000, SLO: 5 * time.Millisecond,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// config is the kvstore.Config the workload boots every node with: zero
// apart from the fields the workload names. The node seed is a constant —
// --seed reaches the program under test only as generated operations.
func (w *workload) config(dataDir string) kvstore.Config {
	cfg := kvstore.Config{
		RF:            3,
		Shards:        nproc(),
		Seed:          1,
		ReadDelayMean: w.ReadDelayMean,
		Store:         w.Store,
	}
	if w.Durable {
		cfg.DataDir = dataDir
	}
	return cfg
}

// gated reports whether reads and writes overlap (R+W>N), which makes a
// stale read a failure instead of an observation.
func (w *workload) gated() bool { return w.Level != kvstore.One }

func (w *workload) syncPolicy() string {
	if w.Durable {
		return "periodic-20ms"
	}
	return "in-memory"
}

// phases splits --seconds into warm-up, fixed-rate length and the
// saturation phase's op count.
func (w *workload) phases(seconds float64) (warm, fixed time.Duration, satOps int) {
	total := time.Duration(seconds * float64(time.Second))
	warm = min(maxWarmup, total/6)
	fixed = time.Duration(float64(total) * fixedShare)
	satOps = int(w.SatRate * seconds * satShare)
	return warm, fixed, satOps
}
