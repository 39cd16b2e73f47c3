package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval. Spans of one operation share Op; Parent is 0
// for a root. Times are ns since the run's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const (
	// traceSlice is how long tracing stays on, then off, through a traced
	// run's fixed-rate phase. Both halves see the same cluster state and
	// the same minute of the host, so their read medians differ by the
	// tracing overhead and not by machine drift.
	traceSlice = 250 * time.Millisecond
	probeEvery = 16     // ops between probes, within traced slices
	maxSpans   = 200000 // cap of the trace file; ops are sampled by id to fit
)

// tracer records spans around the benchmark's calls into the system and
// feeds the prober. It exists only in a traced run.
type tracer struct {
	every uint64 // spans are kept for ops whose id divides by this
	call  string // name of the span around the call into the system

	mu    sync.Mutex
	spans []span
	ids   atomic.Uint64

	pr *prober
}

func newTracer(w *workload, fixed time.Duration) *tracer {
	// Half the phase is traced, three spans per op, plus probe trees.
	expect := w.Rate * fixed.Seconds() / 2 * 3.5
	t := &tracer{every: uint64(expect/maxSpans) + 1, call: "client.call"}
	if w.RESP {
		t.call = "resp.do"
	}
	return t
}

func tracedAt(at int64) bool { return at/int64(traceSlice)%2 == 1 }

// observe is called for every completed fixed-rate op. It reports whether
// the op fell in a traced slice; if so it records the op's span tree and,
// for every probeEvery-th op, asks the prober to time the layers on the
// op's own keys. rec is recycled after it returns.
func (t *tracer) observe(rec *opRec, done int64, ok bool) bool {
	if !tracedAt(rec.At) {
		return false
	}
	if rec.id%t.every == 0 {
		root := t.ids.Add(3) - 2
		t.mu.Lock()
		t.spans = append(t.spans,
			span{root, 0, rec.id, "op." + kindNames[rec.Kind], rec.sched, done},
			span{root + 1, root, rec.id, "loadgen.wait", rec.sched, rec.sent},
			span{root + 2, root, rec.id, t.call, rec.sent, done})
		t.mu.Unlock()
	}
	if ok {
		t.pr.offer(rec)
	}
	return true
}

// add records a probe's span tree: a root "probe" span over children that
// ran back to back.
func (t *tracer) add(op uint64, children []span) {
	if len(children) == 0 {
		return
	}
	root := t.ids.Add(uint64(len(children))+1) - uint64(len(children))
	t.mu.Lock()
	t.spans = append(t.spans, span{root, 0, op, "probe", children[0].Start, children[len(children)-1].End})
	for i, c := range children {
		c.ID, c.Parent, c.Op = root+1+uint64(i), root, op
		t.spans = append(t.spans, c)
	}
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans[:min(len(t.spans), maxSpans)])
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes groups spans by name and returns each span's self time: its
// duration minus the part of it that its children cover.
func selfTimes(spans []span) map[string][]float64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, upTo := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, upTo), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered))
	}
	return out
}
