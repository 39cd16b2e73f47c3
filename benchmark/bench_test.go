package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func TestSameSeedSameOps(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := sequenceHash(w, 1, 2, 500), sequenceHash(w, 1, 2, 500)
		if a != b {
			t.Errorf("%s: seed 1 gave op-sequence hashes %x and %x", w.Name, a, b)
		}
		if c := sequenceHash(w, 2, 2, 500); c == a {
			t.Errorf("%s: seeds 1 and 2 gave the same op sequence", w.Name)
		}
	}
}

func TestValuesVerify(t *testing.T) {
	ks := newKeyspace(&workloads[0])
	v := ks.appendValue(nil, 7, 42)
	if seq, ok := ks.checkValue(v, 7); !ok || seq != 42 || len(v) != workloads[0].ValueBytes {
		t.Fatalf("fresh value: seq %d ok %v len %d", seq, ok, len(v))
	}
	if _, ok := ks.checkValue(v, 8); ok {
		t.Error("a value verified under another key")
	}
	v[len(v)-1] ^= 1
	if _, ok := ks.checkValue(v, 7); ok {
		t.Error("a corrupted value verified")
	}
}

// The percentile rule: a percentile is reported only with at least ten
// samples beyond it in the smallest window, and the statistic is the
// median of the per-window percentiles.
func TestWindowedPercentile(t *testing.T) {
	ramp := func(n int, scale float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = scale * float64(i+1)
		}
		return xs
	}
	windows := [][]float64{ramp(1000, 1), ramp(1000, 5), ramp(1000, 2), ramp(1000, 4), ramp(1000, 3)}
	v, n, ok := windowed(windows, 0.99)
	if !ok || n != 1000 || v != 3*990 {
		t.Errorf("p99 of five 1000-sample windows = %v (n=%d ok=%v), want the median window's 2970", v, n, ok)
	}
	windows[2] = ramp(999, 2)
	if _, n, ok := windowed(windows, 0.99); ok || n != 999 {
		t.Errorf("p99 with 9.99 samples beyond it in the smallest window was reported (n=%d)", n)
	}
	if v, _, ok := windowed(windows, 0.5); !ok || v != 3*500 {
		t.Errorf("p50 = %v ok=%v, want 1500", v, ok)
	}
	if _, _, ok := windowed([][]float64{ramp(19, 1)}, 0.5); ok {
		t.Error("p50 of 19 samples was reported")
	}
}

func TestOracleVerdicts(t *testing.T) {
	ks := newKeyspace(&workloads[3])
	o := newOracle(ks)
	k, seq := o.lockWrite(5, false)
	if k2, _ := o.lockWrite(5, false); k2 == k {
		t.Fatal("two writers hold one key")
	}
	o.ackWrite(k, seq, false)
	floor := o.floor(k)
	val := func(seq uint64) []byte { return ks.appendValue(nil, k, seq) }
	if v := o.judge(k, floor, val(1), true); v != readOK {
		t.Errorf("current value: verdict %d", v)
	}
	if v := o.judge(k, floor, nil, false); v != readStaleMissing {
		t.Errorf("missing key under a live floor: verdict %d", v)
	}
	if v := o.judge(k, floor, val(2), true); v != readIntegrity {
		t.Errorf("a value from the future: verdict %d", v)
	}
	_, seq = o.lockWrite(k, false)
	o.ackWrite(k, seq, false)
	if v := o.judge(k, o.floor(k), val(1), true); v != readStaleVersion {
		t.Errorf("older value under a live floor: verdict %d", v)
	}
	_, seq = o.lockWrite(k, true)
	o.ackWrite(k, seq, true)
	if v := o.judge(k, o.floor(k), val(2), true); v != readResurrected {
		t.Errorf("older value after an acked delete: verdict %d", v)
	}
	if v := o.judge(k, o.floor(k), nil, false); v != readOK {
		t.Errorf("missing key after a delete: verdict %d", v)
	}
}

// BENCHMARK.json and the program declare the same workloads and metrics,
// and every name and unit is in the driver's alphabet.
func TestSpecMatchesProgram(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || !unit.MatchString(u) {
			t.Errorf("metric %q unit %q is outside the driver's alphabet", n, u)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check(w.Name, "count")
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		check(d.Name, d.Unit)
		if s := spec.EndToEnd[i]; s.Name != d.Name || s.Unit != d.Unit || s.Better != d.Better || s.Bound != d.Bound {
			t.Errorf("end-to-end %d: program %+v, BENCHMARK.json %+v", i, d, s)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	for i, d := range perLayer {
		check(d.Name, d.Unit)
		if s := spec.PerLayer[i]; s.Name != d.Name || s.Unit != d.Unit || s.Better != d.Better {
			t.Errorf("per-layer %d: program %+v, BENCHMARK.json %+v", i, d, s)
		}
	}
}

// A one-second traced run of every workload: every declared metric comes
// out with its unit, the replies verify, and the span trees are well
// formed. Timing is not asserted; a loaded test host must not fail this.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots four clusters")
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := runOne(w, runOpts{seed: 1, seconds: 1, traced: true, scratch: dir, outDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			for _, list := range [][]decl{endToEnd, perLayer} {
				for _, d := range list {
					if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("%s: missing or without unit %q: %+v", d.Name, d.Unit, m)
					}
				}
			}
			// kvstore.lost_acked_writes is not asserted: see README.md, it is
			// a known fault of lsm's batch apply at this commit.
			for _, zero := range []string{"loadgen.integrity_errors", "kvstore.outstanding_residual"} {
				if v := res.Metrics[zero].Value; v != 0 {
					t.Errorf("%s = %v", zero, v)
				}
			}
			if w.gated() && res.Metrics["kvstore.stale_reads"].Value != 0 {
				t.Errorf("%v stale reads at R+W>N", res.Metrics["kvstore.stale_reads"].Value)
			}
			if res.Attempted == 0 || res.Metrics["trace.spans"].Value == 0 {
				t.Errorf("attempted %d ops, recorded %v spans", res.Attempted, res.Metrics["trace.spans"].Value)
			}
			var driver struct {
				Correct           bool
				Attempted, Failed int64
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(res.driverLine()), &driver); err != nil || len(driver.Metrics) != len(perLayer) {
				t.Errorf("driver line: %v, %d metrics", err, len(driver.Metrics))
			}
			b, err := os.ReadFile(filepath.Join(dir, "trace_"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(b, &spans); err != nil {
				t.Fatal(err)
			}
			checkSpanTrees(t, spans)
		})
	}
}

// checkSpanTrees: every parent exists, every child lies inside its parent,
// and a tree carries one op id.
func checkSpanTrees(t *testing.T, spans []span) {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup || s.ID == 0 {
			t.Fatalf("span id %d is zero or used twice", s.ID)
		}
		byID[s.ID] = s
	}
	bad := 0
	for _, s := range spans {
		if s.End < s.Start {
			bad++
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			t.Errorf("span %d %s: parent %d does not exist", s.ID, s.Name, s.Parent)
		case s.Start < p.Start || s.End > p.End:
			t.Errorf("span %d %s [%d,%d] is outside its parent %s [%d,%d]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		case s.Op != p.Op:
			t.Errorf("span %d %s has op %d, its parent op %d", s.ID, s.Name, s.Op, p.Op)
		default:
			continue
		}
		if bad++; bad > 10 {
			t.Fatal("too many malformed spans")
		}
	}
}
