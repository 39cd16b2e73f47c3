package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"io/fs"
	"runtime"
	"sort"
	"time"

	"c3/internal/bench"
	"c3/internal/ring"
)

//go:embed *.go
var sources embed.FS

// sourceHash fingerprints the benchmark's own Go files: two result sets
// compare only if the same benchmark produced them.
func sourceHash() string {
	names, err := fs.Glob(sources, "*.go")
	if err != nil {
		panic(err) // the pattern is a constant
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		b, err := sources.ReadFile(name)
		if err != nil {
			panic(err) // embedded at build time
		}
		h.Write([]byte(name))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// stamp is the configuration a result was measured under. compare refuses
// two sets whose stamps differ in anything but Seed and SequenceHash.
type stamp struct {
	bench.Meta
	Seed         uint64  `json:"seed"`
	SequenceHash uint64  `json:"sequence_hash"`
	Seconds      float64 `json:"seconds"`
	WarmupS      float64 `json:"warmup_s"`
	FixedS       float64 `json:"fixed_s"`
	SatOps       int     `json:"sat_ops"`
	RateOpsS     float64 `json:"rate_ops_s"`
	SLOMs        float64 `json:"slo_ms"`
	Lanes        int     `json:"lanes"`
	SourceHash   string  `json:"source_hash"`
}

func newStamp(w *workload, seed uint64, seconds float64) stamp {
	warm, fixed, satOps := w.phases(seconds)
	return stamp{
		Meta: bench.Meta{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			Scale:      w.Name,
			Shards:     nproc(),
			SyncPolicy: w.syncPolicy(),
		},
		Seed:         seed,
		SequenceHash: sequenceHash(w, seed, nproc(), 1000),
		Seconds:      seconds,
		WarmupS:      warm.Seconds(),
		FixedS:       fixed.Seconds(),
		SatOps:       satOps,
		RateOpsS:     w.Rate,
		SLOMs:        float64(w.SLO) / 1e6,
		Lanes:        nproc(),
		SourceHash:   sourceHash(),
	}
}

// comparable reports whether two stamps describe the same measurement.
func (s stamp) comparable(o stamp) bool {
	s.Seed, s.SequenceHash = o.Seed, o.SequenceHash
	return s == o
}

// calibrate times a fixed murmur-hash loop and returns ns per KiB hashed.
// It is the machine-drift witness: the same number before and after a run,
// and in two result sets, says the host ran at the same speed for both.
func calibrate() float64 {
	buf := make([]byte, 1024)
	for i := range buf {
		buf[i] = byte(i)
	}
	const rounds, perRound = 7, 4000
	times := make([]float64, rounds)
	var sink uint64
	for r := range times {
		start := time.Now()
		for i := 0; i < perRound; i++ {
			h1, _ := ring.Murmur3_x64_128(buf, sink)
			sink ^= h1
		}
		times[r] = float64(time.Since(start)) / perRound
	}
	if sink == 42 {
		times[0]++ // keep the loop's result alive
	}
	return median(times)
}
