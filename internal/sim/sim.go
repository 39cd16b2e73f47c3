// Package sim is a deterministic discrete-event simulation engine: a virtual
// clock, a binary-heap event queue with stable FIFO ordering for simultaneous
// events, cancellable timers, and seeded RNG streams.
//
// Both evaluation substrates (internal/queuesim for the paper's §6 model and
// internal/cassim for the §5 Cassandra-like cluster) run on this engine. The
// engine is single-threaded by design: determinism is what makes every
// simulated experiment of cmd/c3bench exactly reproducible from its seed.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand/v2"
	"time"
)

// Event is a scheduled callback. It is created by Sim.At/Sim.After and may be
// cancelled before it fires.
type Event struct {
	t      int64 // virtual time, ns
	seq    uint64
	fn     func()
	idx    int // heap index, -1 when not queued
	cancel bool
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. Cancellation is O(1); the entry is
// dropped lazily when it surfaces at the top of the heap.
func (e *Event) Cancel() {
	if e != nil {
		e.cancel = true
		e.fn = nil // release captured state promptly
	}
}

// Cancelled reports whether Cancel was called.
func (e *Event) Cancelled() bool { return e != nil && e.cancel }

// Time reports the virtual time the event is (or was) scheduled for.
func (e *Event) Time() int64 { return e.t }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq // FIFO among simultaneous events
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

// Sim is the simulation executive. The zero value is not usable; construct
// with New.
type Sim struct {
	now     int64
	seq     uint64
	events  eventHeap
	stopped bool
	fired   uint64
}

// New returns a simulator with the clock at zero.
func New() *Sim {
	return &Sim{}
}

// Now reports the current virtual time in nanoseconds.
func (s *Sim) Now() int64 { return s.now }

// At schedules fn at absolute virtual time t. Scheduling in the past panics:
// it always indicates a model bug, and silently reordering events would
// destroy determinism.
func (s *Sim) At(t int64, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at t=%d before now=%d", t, s.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	e := &Event{t: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.events, e)
	return e
}

// After schedules fn d nanoseconds from now. Negative d is clamped to zero.
func (s *Sim) After(d int64, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// AfterDur schedules fn a time.Duration from now.
func (s *Sim) AfterDur(d time.Duration, fn func()) *Event {
	return s.After(int64(d), fn)
}

// Stop makes the current Run/RunUntil call return after the in-flight event
// completes. Pending events remain queued.
func (s *Sim) Stop() { s.stopped = true }

// Pending reports the number of events currently queued (including
// cancelled-but-not-yet-collected entries).
func (s *Sim) Pending() int { return len(s.events) }

// Fired reports the number of events executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// step pops and runs a single event. It reports false when the queue is empty
// or only cancelled entries remain.
func (s *Sim) step(limit int64) bool {
	for len(s.events) > 0 {
		top := s.events[0]
		if top.cancel {
			heap.Pop(&s.events)
			continue
		}
		if limit >= 0 && top.t > limit {
			return false
		}
		heap.Pop(&s.events)
		s.now = top.t
		fn := top.fn
		top.fn = nil
		s.fired++
		fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty or Stop is called.
func (s *Sim) Run() {
	s.stopped = false
	for !s.stopped && s.step(-1) {
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
// Events scheduled later remain queued.
func (s *Sim) RunUntil(t int64) {
	s.stopped = false
	for !s.stopped && s.step(t) {
	}
	if !s.stopped && t > s.now {
		s.now = t
	}
}

// RNG returns a deterministic PCG random source derived from seed and stream.
// Distinct streams are independent; the same (seed, stream) always yields the
// same sequence, which is how experiments pin per-client and per-server
// randomness independently of event interleaving.
func RNG(seed, stream uint64) *rand.Rand {
	// Mix the stream into both PCG words so streams differ in more than
	// the low bits (splitmix64 finalizer).
	mix := func(z uint64) uint64 {
		z += 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	return rand.New(rand.NewPCG(mix(seed^stream), mix(seed+0x632be59bd9b4e019+stream*0x100000001b3)))
}

// Exp draws an exponentially distributed duration (ns) with the given mean,
// clamped to at least 1ns so service never completes instantaneously.
func Exp(r *rand.Rand, mean float64) int64 {
	d := int64(r.ExpFloat64() * mean)
	if d < 1 {
		d = 1
	}
	return d
}

// Common duration constants in nanoseconds, for readability in models.
const (
	Microsecond = int64(time.Microsecond)
	Millisecond = int64(time.Millisecond)
	Second      = int64(time.Second)
)
