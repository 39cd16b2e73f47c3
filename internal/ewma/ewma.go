// Package ewma provides exponentially weighted moving averages and windowed
// rate meters, the smoothing primitives used by the C3 replica ranking
// (q̄_s, µ̄_s, R̄_s in the paper) and the rate controller (rrate measurement).
//
// All types are plain values driven by explicit sample calls; none of them
// read the wall clock, which keeps them usable under both the discrete-event
// simulator and real-time clients.
package ewma

import "math"

// EWMA is a classic exponentially weighted moving average:
//
//	v ← α·x + (1−α)·v
//
// The first sample initializes v directly. The zero value is not usable;
// construct with New.
type EWMA struct {
	alpha float64
	v     float64
	n     uint64
}

// New returns an EWMA with smoothing factor alpha in (0, 1]. Larger alpha
// weights recent samples more heavily. New panics if alpha is out of range,
// since a silent bad smoothing factor corrupts every downstream score.
func New(alpha float64) EWMA {
	if alpha <= 0 || alpha > 1 || math.IsNaN(alpha) {
		panic("ewma: alpha must be in (0, 1]")
	}
	return EWMA{alpha: alpha}
}

// Add folds sample x into the average; it is AddN(x, 1).
func (e *EWMA) Add(x float64) { e.AddN(x, 1) }

// AddN folds sample x into the average with weight n: the result equals n
// repeated Adds of x up to floating-point rounding, computed in closed form
//
//	v ← x·(1−(1−α)ⁿ) + (1−α)ⁿ·v
//
// and bitwise equal to Add for n = 1, which takes the point expression
// α·x + (1−α)·v. This is the weighted-feedback primitive of the batch path:
// one feedback sample describing an n-key sub-batch trains the estimator as
// n identical point samples would, without the n loop iterations.
func (e *EWMA) AddN(x float64, n int) {
	switch {
	case n <= 0:
		return
	case e.n == 0:
		e.v = x
	case n == 1:
		e.v = e.alpha*x + (1-e.alpha)*e.v
	default:
		w := math.Pow(1-e.alpha, float64(n)) // weight left on the old value
		e.v = x*(1-w) + w*e.v
	}
	e.n += uint64(n)
}

// Value reports the current average, or 0 before any sample.
func (e *EWMA) Value() float64 { return e.v }

// Count reports how many samples have been folded in.
func (e *EWMA) Count() uint64 { return e.n }

// Initialized reports whether at least one sample has been added.
func (e *EWMA) Initialized() bool { return e.n > 0 }

// Reset discards all state, keeping the smoothing factor.
func (e *EWMA) Reset() { e.v, e.n = 0, 0 }

// Decaying is a time-decaying average: the weight of the existing value
// decays exponentially with the elapsed time between samples, with a
// configurable half-life. It approximates "the average over roughly the last
// half-life" regardless of sampling rate, which is how Cassandra-style
// latency histories behave and what Dynamic Snitching's inputs look like.
type Decaying struct {
	halfLife float64 // ns
	v        float64
	last     int64
	n        uint64
}

// NewDecaying returns a Decaying average whose history halves in weight every
// halfLifeNanos nanoseconds. It panics if halfLifeNanos is not positive.
func NewDecaying(halfLifeNanos int64) Decaying {
	if halfLifeNanos <= 0 {
		panic("ewma: half-life must be positive")
	}
	return Decaying{halfLife: float64(halfLifeNanos)}
}

// Add folds sample x observed at time now (ns) into the average.
// Out-of-order samples (now earlier than the previous sample) are treated as
// concurrent with the previous sample.
func (d *Decaying) Add(x float64, now int64) {
	if d.n == 0 {
		d.v, d.last = x, now
		d.n++
		return
	}
	dt := float64(now - d.last)
	if dt < 0 {
		dt = 0
	}
	w := math.Exp2(-dt / d.halfLife) // weight of old value
	d.v = w*d.v + (1-w)*x
	if now > d.last {
		d.last = now
	}
	d.n++
}

// Value reports the current average, or 0 before any sample.
func (d *Decaying) Value() float64 { return d.v }

// Initialized reports whether at least one sample has been added.
func (d *Decaying) Initialized() bool { return d.n > 0 }

// Reset discards all state, keeping the half-life.
func (d *Decaying) Reset() { d.v, d.last, d.n = 0, 0, 0 }

// WindowRate counts events in consecutive fixed-width windows and reports the
// count of the most recently *completed* window. This is exactly the paper's
// rrate: "the number of responses being received from a server in a δ ms
// interval".
type WindowRate struct {
	width int64 // ns
	start int64 // start of the current window
	cur   float64
	prev  float64
	begun bool
}

// NewWindowRate returns a meter with the given window width in nanoseconds.
// It panics if width is not positive.
func NewWindowRate(widthNanos int64) WindowRate {
	if widthNanos <= 0 {
		panic("ewma: window width must be positive")
	}
	return WindowRate{width: widthNanos}
}

// Add records one event at time now (ns).
func (w *WindowRate) Add(now int64) { w.AddN(now, 1) }

// AddN records n events at time now (ns).
func (w *WindowRate) AddN(now int64, n float64) {
	w.roll(now)
	w.cur += n
}

// Rate reports the event count of the last completed window as of now.
func (w *WindowRate) Rate(now int64) float64 {
	w.roll(now)
	return w.prev
}

// roll advances the window so that start ≤ now < start+width.
func (w *WindowRate) roll(now int64) {
	if !w.begun {
		w.start = now
		w.begun = true
		return
	}
	if now < w.start+w.width {
		return
	}
	elapsed := now - w.start
	steps := elapsed / w.width
	if steps == 1 {
		w.prev = w.cur
	} else {
		// One or more empty windows elapsed; the last completed window
		// had no events.
		w.prev = 0
	}
	w.cur = 0
	w.start += steps * w.width
}
