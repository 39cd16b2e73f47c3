package bench

import (
	"time"

	"c3/internal/cassim"
	"c3/internal/ratelimit"
	"c3/internal/stats"
	"c3/internal/workload"
)

// clusterRun executes one cassim configuration across seeds and returns the
// per-seed results.
func clusterRun(o Options, mut func(*cassim.Config)) []*cassim.Result {
	out := make([]*cassim.Result, 0, o.seeds())
	for seed := 0; seed < o.seeds(); seed++ {
		cfg := cassim.DefaultConfig()
		cfg.Ops = o.clusterOps()
		cfg.Seed = uint64(seed)*7919 + 7
		if mut != nil {
			mut(&cfg)
		}
		out = append(out, cassim.Run(cfg))
	}
	return out
}

// avg aggregates a metric over runs.
func avg(rs []*cassim.Result, f func(*cassim.Result) float64) float64 {
	if len(rs) == 0 {
		return 0
	}
	s := 0.0
	for _, r := range rs {
		s += f(r)
	}
	return s / float64(len(rs))
}

// latencyRow renders the Fig. 6-style percentile row.
func latencyRow(r *Report, label string, rs []*cassim.Result) {
	r.printf("  %-22s mean=%6.2f p50=%6.2f p95=%6.2f p99=%7.2f p99.9=%7.2f (ms, %d runs)",
		label,
		avg(rs, func(x *cassim.Result) float64 { return x.Reads.Mean }),
		avg(rs, func(x *cassim.Result) float64 { return x.Reads.P50 }),
		avg(rs, func(x *cassim.Result) float64 { return x.Reads.P95 }),
		avg(rs, func(x *cassim.Result) float64 { return x.Reads.P99 }),
		avg(rs, func(x *cassim.Result) float64 { return x.Reads.P999 }),
		len(rs))
}

// Fig02 regenerates the Dynamic Snitching load-oscillation evidence (Fig. 2):
// the per-100 ms request-arrival series of the most oscillating node under DS
// versus C3.
func Fig02(o Options) *Report {
	r := newReport("fig2", "Dynamic Snitching load oscillations")
	for _, strat := range []string{cassim.StratDS, cassim.StratC3} {
		rs := clusterRun(o, func(c *cassim.Config) { c.Strategy = strat })
		osc := avg(rs, func(x *cassim.Result) float64 {
			_, w := x.MostOscillatingArrivals()
			return w.OscillationIndex()
		})
		spread := avg(rs, func(x *cassim.Result) float64 {
			_, w := x.MostOscillatingArrivals()
			d := w.Distribution()
			return d.Percentile(99) - d.Percentile(1)
		})
		r.printf("  %-3s  oscillation index (p99/median of reqs per 100ms) = %5.2f, p1–p99 spread = %5.0f req/100ms",
			strat, osc, spread)
		r.Metric("oscillation_"+strat, osc)
	}
	_, w := clusterRun(Options{Scale: Quick, Seeds: 1},
		func(c *cassim.Config) { c.Strategy = cassim.StratDS })[0].MostOscillatingArrivals()
	series := w.Series()
	r.printf("  sample DS arrival series (reqs/100ms): %v", head(series, 30))
	r.Metric("oscillation_ratio_DS_over_C3", r.Metrics["oscillation_DS"]/r.Metrics["oscillation_C3"])
	return r
}

func head(xs []int, n int) []int {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

// Fig06 regenerates the §5 latency profile: mean/median/95/99/99.9 for C3 vs
// DS across the three workload mixes, plus the paper's headline shape metric
// (p99.9 − median).
func Fig06(o Options) *Report {
	r := newReport("fig6", "read latency profile, C3 vs DS")
	for _, mix := range []workload.Mix{workload.ReadHeavy, workload.ReadOnly, workload.UpdateHeavy} {
		var diff [2]float64
		for i, strat := range []string{cassim.StratC3, cassim.StratDS} {
			rs := clusterRun(o, func(c *cassim.Config) {
				c.Strategy = strat
				c.Mix = mix
			})
			latencyRow(r, mix.Name+" / "+strat, rs)
			diff[i] = avg(rs, func(x *cassim.Result) float64 { return x.Reads.P999MinusP50 })
		}
		r.printf("  %-22s p99.9−p50: C3=%.2f ms, DS=%.2f ms → %.2fx (paper: >3x read-heavy, 2.6x others)",
			mix.Name, diff[0], diff[1], diff[1]/diff[0])
		r.Metric("tailgap_ratio_"+mix.Name, diff[1]/diff[0])
	}
	return r
}

// Fig07 regenerates the throughput comparison (Fig. 7).
func Fig07(o Options) *Report {
	r := newReport("fig7", "read throughput, C3 vs DS")
	for _, mix := range []workload.Mix{workload.ReadHeavy, workload.ReadOnly, workload.UpdateHeavy} {
		var thr [2]float64
		for i, strat := range []string{cassim.StratC3, cassim.StratDS} {
			rs := clusterRun(o, func(c *cassim.Config) {
				c.Strategy = strat
				c.Mix = mix
			})
			vals := make([]float64, len(rs))
			for j, x := range rs {
				vals[j] = x.Throughput
			}
			m, ci := stats.MeanCI95(vals)
			thr[i] = m
			r.printf("  %-22s %8.0f ± %5.0f ops/s", mix.Name+" / "+strat, m, ci)
		}
		gain := (thr[0]/thr[1] - 1) * 100
		r.printf("  %-22s C3 over DS: %+.0f%% (paper: +26%% to +43%%)", mix.Name, gain)
		r.Metric("throughput_gain_pct_"+mix.Name, gain)
	}
	return r
}

// Fig08 regenerates the load-conditioning comparison (Fig. 8): the
// distribution of reads served per 100 ms by the most heavily utilized node.
func Fig08(o Options) *Report {
	r := newReport("fig8", "load distribution on the most utilized node")
	for _, strat := range []string{cassim.StratC3, cassim.StratDS} {
		rs := clusterRun(o, func(c *cassim.Config) { c.Strategy = strat })
		p50 := avg(rs, func(x *cassim.Result) float64 {
			_, w := x.MostLoadedNode()
			return w.Distribution().Percentile(50)
		})
		p99 := avg(rs, func(x *cassim.Result) float64 {
			_, w := x.MostLoadedNode()
			return w.Distribution().Percentile(99)
		})
		r.printf("  %-3s  reads/100ms at hottest node: p50=%6.1f p99=%6.1f p99−p50=%6.1f",
			strat, p50, p99, p99-p50)
		r.Metric("hotnode_p99_minus_p50_"+strat, p99-p50)
	}
	r.printf("  (paper: C3's hottest node has a lower p99−median range than DS)")
	r.Metric("range_ratio_DS_over_C3",
		r.Metrics["hotnode_p99_minus_p50_DS"]/r.Metrics["hotnode_p99_minus_p50_C3"])
	return r
}

// Fig09 regenerates the load-versus-time comparison (Fig. 9) as summary
// statistics of one node's arrival series.
func Fig09(o Options) *Report {
	r := newReport("fig9", "load versus time (requests received per 100ms)")
	for _, strat := range []string{cassim.StratC3, cassim.StratDS} {
		rs := clusterRun(o, func(c *cassim.Config) { c.Strategy = strat })
		x := rs[0]
		_, w := x.MostOscillatingArrivals()
		d := w.Distribution()
		r.printf("  %-3s  min=%4.0f p25=%6.1f p50=%6.1f p75=%6.1f max=%6.0f osc=%.2f",
			strat, d.Min(), d.Percentile(25), d.Percentile(50), d.Percentile(75),
			d.Max(), w.OscillationIndex())
		r.Metric("osc_"+strat, w.OscillationIndex())
	}
	r.printf("  (paper: C3's per-node load profile is smooth; DS shows synchronized bursts)")
	return r
}

// Fig10 regenerates the higher-utilization comparison (Fig. 10): 120 → 210
// workload generators.
func Fig10(o Options) *Report {
	r := newReport("fig10", "performance at higher system utilization")
	for _, gens := range []int{120, 210} {
		for _, strat := range []string{cassim.StratC3, cassim.StratDS} {
			rs := clusterRun(o, func(c *cassim.Config) {
				c.Strategy = strat
				c.Generators = gens
			})
			latencyRow(r, itoa(gens)+" gens / "+strat, rs)
			r.Metric("p99_"+strat+"_"+itoa(gens),
				avg(rs, func(x *cassim.Result) float64 { return x.Reads.P99 }))
		}
	}
	// The paper reports DS's 95th/99th percentiles degrading by up to
	// 150% for the 75% load increase while C3 degrades proportionally.
	c3deg := r.Metrics["p99_C3_210"] / r.Metrics["p99_C3_120"]
	dsdeg := r.Metrics["p99_DS_210"] / r.Metrics["p99_DS_120"]
	r.printf("  p99 degradation 120→210: C3 ×%.2f, DS ×%.2f (paper: C3 proportional ≈×1.8; DS up to ×2.5)",
		c3deg, dsdeg)
	r.Metric("degradation_C3", c3deg)
	r.Metric("degradation_DS", dsdeg)
	return r
}

// Fig11 regenerates the dynamic-workload experiment (Fig. 11): an
// update-heavy generator wave joins a read-heavy system; the moving median of
// read latency shows C3 degrading gracefully while DS spikes.
func Fig11(o Options) *Report {
	r := newReport("fig11", "adaptation to dynamic workload change")
	dur := 8 * time.Second
	join := 4 * time.Second
	if o.Scale == Quick {
		dur, join = 4*time.Second, 2*time.Second
	}
	for _, strat := range []string{cassim.StratC3, cassim.StratDS} {
		cfg := cassim.DefaultConfig()
		cfg.Strategy = strat
		cfg.Seed = 11
		cfg.Ops = 0
		cfg.Duration = dur
		cfg.RecordTimeline = true
		cfg.Phases = []cassim.Phase{
			{Start: 0, Generators: 80, Mix: workload.ReadHeavy},
			{Start: join, Generators: 40, Mix: workload.UpdateHeavy},
		}
		res := cassim.Run(cfg)
		// Moving median over the timeline, split at the join.
		var xs []float64
		var ts []time.Duration
		for _, p := range res.Timeline {
			xs = append(xs, p.Ms)
			ts = append(ts, p.T)
		}
		med := stats.MovingMedian(xs, 50)
		var preMax, postMax float64
		for i, t := range ts {
			if t < join {
				if med[i] > preMax {
					preMax = med[i]
				}
			} else if med[i] > postMax {
				postMax = med[i]
			}
		}
		r.printf("  %-3s  moving-median read latency: max before join %6.2f ms, after %6.2f ms (spike ×%.2f)",
			strat, preMax, postMax, postMax/preMax)
		r.Metric("spike_"+strat, postMax/preMax)
	}
	r.printf("  (paper: C3 degrades gracefully; DS shows synchronized latency spikes)")
	return r
}

// Fig12 regenerates the SSD experiment (Fig. 12): 210 generators on the SSD
// latency profile.
func Fig12(o Options) *Report {
	r := newReport("fig12", "SSD-backed cluster")
	var p999 [2]float64
	var thr [2]float64
	for i, strat := range []string{cassim.StratC3, cassim.StratDS} {
		rs := clusterRun(o, func(c *cassim.Config) {
			c.Strategy = strat
			c.Disk = cassim.SSD
			c.Generators = 210
		})
		latencyRow(r, "SSD / "+strat, rs)
		p999[i] = avg(rs, func(x *cassim.Result) float64 { return x.Reads.P999 })
		thr[i] = avg(rs, func(x *cassim.Result) float64 { return x.Throughput })
	}
	r.printf("  p99.9 DS/C3 = %.2fx (paper: >3x); throughput C3 over DS %+.0f%% (paper: +50%%)",
		p999[1]/p999[0], (thr[0]/thr[1]-1)*100)
	r.Metric("ssd_p999_ratio", p999[1]/p999[0])
	r.Metric("ssd_throughput_gain_pct", (thr[0]/thr[1]-1)*100)
	return r
}

// FigSkew regenerates the skewed-record-size experiment (§5 text): Zipfian
// field lengths capped at 2 KB.
func FigSkew(o Options) *Report {
	r := newReport("skew", "skewed record sizes")
	var p99 [2]float64
	for i, strat := range []string{cassim.StratC3, cassim.StratDS} {
		rs := clusterRun(o, func(c *cassim.Config) {
			c.Strategy = strat
			c.Sizer = workload.NewZipfianFields(10, 2048)
		})
		latencyRow(r, "zipf sizes / "+strat, rs)
		p99[i] = avg(rs, func(x *cassim.Result) float64 { return x.Reads.P99 })
	}
	r.printf("  p99 DS/C3 = %.2fx (paper: ~14 ms vs ~30 ms ⇒ >2x)", p99[1]/p99[0])
	r.Metric("skew_p99_ratio", p99[1]/p99[0])
	return r
}

// FigSpec regenerates the speculative-retry comparison (§5 text): DS with
// retries at the observed p99 versus plain DS.
func FigSpec(o Options) *Report {
	r := newReport("spec", "speculative retries atop DS")
	var p99 [2]float64
	for i, strat := range []string{cassim.StratDS, cassim.StratDSSpec} {
		rs := clusterRun(o, func(c *cassim.Config) { c.Strategy = strat })
		latencyRow(r, strat, rs)
		p99[i] = avg(rs, func(x *cassim.Result) float64 { return x.Reads.P99 })
		if strat == cassim.StratDSSpec {
			r.printf("  speculative retries issued: %.0f per run",
				avg(rs, func(x *cassim.Result) float64 { return float64(x.SpeculativeRetries) }))
		}
	}
	r.printf("  p99 DS-SPEC/DS = %.2fx (paper: retries degraded p99 up to 5x)", p99[1]/p99[0])
	r.printf("  KNOWN DEVIATION: the paper's blowup needs disks whose per-op cost grows under")
	r.printf("  contention; this model's seek cost is load-independent, so the extra duplicate")
	r.printf("  load is absorbed instead of cascading. See DESIGN.md, Experiments.")
	r.Metric("spec_p99_ratio", p99[1]/p99[0])
	return r
}

// Fig13 regenerates the rate-adaptation trace (Fig. 13): a 7-node cluster in
// which one node's service times are inflated three times, run with the
// paper's literal Algorithm 2 decrease rule, tracing every coordinator's
// srate toward the degraded node.
func Fig13(o Options) *Report {
	r := newReport("fig13", "sending-rate adaptation and backpressure")
	cfg := cassim.DefaultConfig()
	cfg.Strategy = cassim.StratC3
	cfg.Nodes = 7
	cfg.Generators = 60
	cfg.Seed = 13
	cfg.Ops = 0
	cfg.Duration = 10 * time.Second
	cfg.TraceRates = true
	cfg.TraceTarget = 3
	cfg.Rate = ratelimit.Config{LiteralDecrease: true}
	cfg.Slowdowns = []cassim.Slowdown{
		{Node: 3, From: 3 * time.Second, To: 5 * time.Second, Factor: 8},
		{Node: 3, From: 6 * time.Second, To: 6500 * time.Millisecond, Factor: 8},
		{Node: 3, From: 8 * time.Second, To: 8500 * time.Millisecond, Factor: 8},
	}
	res := cassim.Run(cfg)
	inWindow := func(t time.Duration) bool {
		for _, s := range cfg.Slowdowns {
			if t >= s.From+500*time.Millisecond && t < s.To {
				return true
			}
		}
		return false
	}
	var inSum, inN, outSum, outN float64
	for _, p := range res.RateTrace {
		if inWindow(p.T) {
			inSum += p.SRate
			inN++
		} else if p.T > time.Second {
			outSum += p.SRate
			outN++
		}
	}
	r.printf("  mean srate toward degraded node: healthy %6.2f req/δ, degraded %6.2f req/δ", outSum/outN, inSum/inN)
	r.printf("  backpressure engagements: %d (paper: 4 across both coordinators)", len(res.Backpressure))
	r.printf("  trace points: %d across %d coordinators", len(res.RateTrace), cfg.Nodes-1)
	r.Metric("srate_healthy", outSum/outN)
	r.Metric("srate_degraded", inSum/inN)
	r.Metric("srate_drop_ratio", (outSum/outN)/(inSum/inN))
	r.Metric("backpressure_events", float64(len(res.Backpressure)))
	return r
}
