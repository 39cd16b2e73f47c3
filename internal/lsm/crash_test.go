package lsm

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"c3/internal/sim"
)

// kill -9 chaos: the test re-execs its own binary as a child process that
// opens the store and hammers it with a deterministic per-writer op stream,
// applied in small random-sized ApplyMulti batches, printing an ack line only
// after each batch's group fsync returns. The parent SIGKILLs the child at a
// random moment — tiny FlushBytes/MaxRuns keep the child almost permanently
// mid-flush or mid-compaction, and most flushes are triggered by a record in
// the middle of a batch — drains the stdout pipe (the pipe outlives the
// process, so every drained ack is by construction a durable batch), reopens
// the directory, and checks that every acked op survived and no deleted key
// resurrected. Because each writer's stream is deterministic, the parent can
// regenerate it and knows exactly which batch, if any, was in flight but
// unacked at the kill — the only ops whose outcome is legitimately ambiguous.

const (
	crashChildEnvDir    = "LSM_CRASH_CHILD_DIR"
	crashChildEnvSeed   = "LSM_CRASH_CHILD_SEED"
	crashChildEnvSync   = "LSM_CRASH_CHILD_SYNC"   // "periodic" opts into periodic WAL sync
	crashChildEnvShards = "LSM_CRASH_CHILD_SHARDS" // >1 opens a sharded store
	crashWriters        = 3
	crashKeysPerW       = 40
	crashMaxBatch       = 16
)

func TestMain(m *testing.M) {
	if dir := os.Getenv(crashChildEnvDir); dir != "" {
		seed, err := strconv.ParseUint(os.Getenv(crashChildEnvSeed), 10, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bad seed:", err)
			os.Exit(2)
		}
		crashChild(dir, seed)
		os.Exit(0) // unreachable: the child runs until killed
	}
	os.Exit(m.Run())
}

// crashOp is one step of a writer's deterministic stream.
type crashOp struct {
	del bool
	key string
	val string
}

// crashGen yields writer w's op stream for a given seed. Identical in the
// parent and the child.
type crashGen struct {
	rng     *simRand
	w       int
	dels    int
	version [crashKeysPerW]int
	deleted [crashKeysPerW]bool
}

// simRand narrows *rand.Rand to what the generator needs, keeping the
// stream's shape obvious.
type simRand struct{ intN func(int) int }

func newCrashGen(seed uint64, w int) *crashGen {
	r := sim.RNG(seed, uint64(1000+w))
	return &crashGen{rng: &simRand{intN: r.IntN}, w: w}
}

func (g *crashGen) next() crashOp {
	id := g.rng.intN(crashKeysPerW)
	for g.deleted[id] { // deleted keys are never touched again within a run
		id = (id + 1) % crashKeysPerW
	}
	key := fmt.Sprintf("w%d-k%02d", g.w, id)
	// Deletions stop at half the keyspace so an arbitrarily long stream
	// (periodic sync acks are fast) never runs out of live keys.
	if g.rng.intN(25) == 0 && g.dels < crashKeysPerW/2 {
		g.dels++
		g.deleted[id] = true
		return crashOp{del: true, key: key}
	}
	g.version[id]++
	return crashOp{key: key, val: fmt.Sprintf("%s#%d%s", key, g.version[id], crashValPad)}
}

// crashValPad fattens every value so the writers' ~120 live keys outweigh
// the child's 4 KiB FlushBytes several times over: the memtable counts live
// payload, and without the padding the whole keyspace fits under the
// threshold and the child never flushes at all.
var crashValPad = strings.Repeat("-", 100)

func crashUnpad(s string) string { return strings.ReplaceAll(s, crashValPad, "") }

// nextBatch yields the writer's next batch: 1 to crashMaxBatch consecutive
// ops of its stream. A key may recur inside a batch; batch order decides.
func (g *crashGen) nextBatch() []crashOp {
	ops := make([]crashOp, 1+g.rng.intN(crashMaxBatch))
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// crashChild runs until SIGKILLed: writers apply their streams batch by batch
// and ack each batch on stdout only after it is durable. In periodic mode
// "durable" means written to the OS — still kill-proof, since the page cache
// outlives the process — which is exactly the claim that mode makes.
func crashChild(dir string, seed uint64) {
	opts := Options{Dir: dir, FlushBytes: 4 << 10, MaxRuns: 3}
	if os.Getenv(crashChildEnvSync) == "periodic" {
		opts.SyncInterval = 5 * time.Millisecond
	}
	shards, _ := strconv.Atoi(os.Getenv(crashChildEnvShards))
	var s interface {
		ApplyMulti(keys []string, vers []uint64, vals [][]byte, dels []bool) error
	}
	var err error
	if shards > 0 {
		s, err = OpenSharded(opts, shards)
	} else {
		s, err = Open(opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "child open:", err)
		os.Exit(2)
	}
	var outMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < crashWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := newCrashGen(seed, w)
			for {
				ops := g.nextBatch()
				keys := make([]string, len(ops))
				vals := make([][]byte, len(ops))
				dels := make([]bool, len(ops))
				for i, op := range ops {
					keys[i], vals[i], dels[i] = op.key, []byte(op.val), op.del
				}
				if err := s.ApplyMulti(keys, make([]uint64, len(ops)), vals, dels); err != nil {
					fmt.Fprintln(os.Stderr, "child batch:", err)
					os.Exit(2)
				}
				outMu.Lock()
				// Unbuffered single write: either the full ack line reaches
				// the pipe or none of it does.
				fmt.Fprintf(os.Stdout, "a %d\n", w)
				outMu.Unlock()
			}
		}(w)
	}
	wg.Wait()
}

// crashModel is the parent's view of what the store must hold: the last
// acked value per key ("" = deleted).
type crashModel map[string]string

// verify folds one killed round into the model and checks the reopened store
// against it. Each writer's first acks[w] batches were acked and must be
// durable. Its next batch was in flight at the kill: the kill can land
// between any two of its records (a torn WAL tail keeps a prefix; a sharded
// batch is one commit group per shard), so for each key the batch touches,
// the state after any of its ops on that key is as legitimate as the acked
// one — and whichever the store shows becomes the model's truth.
func (m crashModel) verify(t *testing.T, round int, roundSeed uint64, acks []int, get func(string) ([]byte, bool)) {
	t.Helper()
	maybe := map[string][]string{}
	for w := 0; w < crashWriters; w++ {
		g := newCrashGen(roundSeed, w)
		for i := 0; i < acks[w]; i++ {
			for _, op := range g.nextBatch() {
				m[op.key] = op.val // a delete's val is ""
			}
		}
		for _, op := range g.nextBatch() {
			maybe[op.key] = append(maybe[op.key], op.val)
			if _, known := m[op.key]; !known {
				m[op.key] = ""
			}
		}
	}
	for key, want := range m {
		got, ok := get(key)
		if matchState(want, string(got), ok) {
			continue
		}
		landed := false
		for _, alt := range maybe[key] {
			if matchState(alt, string(got), ok) {
				m[key], landed = alt, true // durable, ack lost to the kill
				break
			}
		}
		if !landed {
			t.Fatalf("round %d: key %s = %q,%v; want %q (acked) or an in-flight op %q (padding elided)",
				round, key, crashUnpad(string(got)), ok, crashUnpad(want), crashUnpad(strings.Join(maybe[key], " | ")))
		}
	}
}

func TestKillNineChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos is not -short friendly")
	}
	for seed := uint64(1); seed <= 3; seed++ {
		seed := seed
		// Seed 3 runs the child with periodic WAL sync: acks only wait for
		// write(2), but SIGKILL cannot take back the page cache, so the
		// zero-acked-loss invariant must hold there too.
		sync := ""
		if seed == 3 {
			sync = "periodic"
		}
		t.Run(fmt.Sprintf("seed=%d,sync=%s", seed, sync), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			expected := crashModel{}
			kills := sim.RNG(seed, 999)
			for round := 0; round < 3; round++ {
				roundSeed := seed*1000 + uint64(round)
				acks := runCrashChild(t, dir, roundSeed, 60+kills.IntN(240), sync, 0)

				s := mustOpen(t, Options{Dir: dir})
				expected.verify(t, round, roundSeed, acks, s.Get)
				if err := s.Close(); err != nil {
					t.Fatalf("round %d: Close: %v", round, err)
				}
			}
		})
	}
}

// TestKillNineChaosSharded is TestKillNineChaos over the shard-per-core
// layout: the child runs a sharded store (N independent WALs, committers,
// and flush schedules), the parent kills it mid-write and checks that
// parallel per-shard WAL replay recovers every acked op at shard counts 1,
// 4, and 8. Shard count 1 exercises the marker-less legacy layout through
// the sharded open path; the others exercise true multi-WAL recovery, with
// round 2 reopening round 1's directory so the persisted SHARDS marker —
// not the knob — picks the layout.
func TestKillNineChaosSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos is not -short friendly")
	}
	for _, shards := range []int{1, 4, 8} {
		shards := shards
		// Periodic sync on the widest layout: eight WAL buffers in flight
		// when the SIGKILL lands, none allowed to lose an acked write.
		sync := ""
		if shards == 8 {
			sync = "periodic"
		}
		t.Run(fmt.Sprintf("shards=%d,sync=%s", shards, sync), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			expected := crashModel{}
			kills := sim.RNG(uint64(shards), 777)
			for round := 0; round < 2; round++ {
				roundSeed := uint64(shards)*10000 + uint64(round)
				acks := runCrashChild(t, dir, roundSeed, 60+kills.IntN(240), sync, shards)

				s, err := OpenSharded(Options{Dir: dir}, shards)
				if err != nil {
					t.Fatalf("round %d: OpenSharded: %v", round, err)
				}
				if got := s.ShardCount(); got != shards {
					t.Fatalf("round %d: recovered %d shards, want %d", round, got, shards)
				}
				expected.verify(t, round, roundSeed, acks, s.Get)
				if err := s.Close(); err != nil {
					t.Fatalf("round %d: Close: %v", round, err)
				}
			}
		})
	}
}

// matchState reports whether an observed Get result equals a model state
// (empty string = must be absent).
func matchState(want, got string, ok bool) bool {
	if want == "" {
		return !ok
	}
	return ok && got == want
}

// runCrashChild re-execs the test binary as a crash child over dir, lets it
// run for roughly lifeMs, SIGKILLs it, and returns per-writer ack counts
// drained from the pipe.
func runCrashChild(t *testing.T, dir string, seed uint64, lifeMs int, sync string, shards int) []int {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		crashChildEnvDir+"="+dir,
		crashChildEnvSeed+"="+strconv.FormatUint(seed, 10),
		crashChildEnvSync+"="+sync,
		crashChildEnvShards+"="+strconv.Itoa(shards))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("StdoutPipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start child: %v", err)
	}
	timer := time.AfterFunc(time.Duration(lifeMs)*time.Millisecond, func() {
		cmd.Process.Kill() // SIGKILL: no handlers, no flushes, no goodbyes
	})
	defer timer.Stop()

	acks := make([]int, crashWriters)
	sc := bufio.NewScanner(out)
	for sc.Scan() { // drains until the pipe closes at process death
		var w int
		if _, err := fmt.Sscanf(sc.Text(), "a %d", &w); err == nil && w >= 0 && w < crashWriters {
			acks[w]++
		}
	}
	cmd.Wait() // expected to be the kill signal; the acks are what matter
	total := 0
	for _, a := range acks {
		total += a
	}
	if total == 0 {
		t.Fatalf("child acked nothing before the kill (seed %d)", seed)
	}
	return acks
}
