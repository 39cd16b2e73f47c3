// Package ewma provides the exponentially weighted moving average, the
// smoothing primitive of the C3 replica ranking (q̄_s, µ̄_s, R̄_s in the
// paper).
//
// An EWMA is a plain value driven by explicit sample calls; it never reads
// the wall clock, which keeps it usable under both the discrete-event
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
