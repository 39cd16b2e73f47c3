// Package workload reimplements the YCSB workload-generation machinery the
// paper drives its §5 evaluation with: Zipfian and scrambled-Zipfian key
// choosers (ρ = 0.99), the standard operation mixes (read-heavy 95/5,
// update-heavy 50/50, read-only), and record sizing including the skewed
// (Zipfian-distributed) field lengths of the variable-record experiment.
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Op is an operation type drawn from a Mix.
type Op int

// Operation kinds.
const (
	OpRead Op = iota
	OpUpdate
	// OpMultiGet is a multi-key read: the front-end fetches a batch of keys
	// in one operation (a photo page's tags, a feed's items). The batch size
	// is drawn separately, from a GeometricBatch.
	OpMultiGet
)

// String renders the op name.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "READ"
	case OpMultiGet:
		return "MULTIGET"
	}
	return "UPDATE"
}

// Mix is an operation mix: the fraction of reads, with the remainder updates.
// MultiFrac optionally turns a fraction of the reads into multi-key reads.
type Mix struct {
	Name     string
	ReadFrac float64
	// MultiFrac is the fraction of reads issued as OpMultiGet (0 keeps the
	// mix single-key and draws no extra randomness, preserving the op
	// sequences of existing seeds).
	MultiFrac float64
}

// The paper's three YCSB workload mixes (§5): photo tagging, user-profile
// and session-store application patterns.
var (
	ReadHeavy   = Mix{Name: "Read-Heavy", ReadFrac: 0.95}
	ReadOnly    = Mix{Name: "Read-Only", ReadFrac: 1.00}
	UpdateHeavy = Mix{Name: "Update-Heavy", ReadFrac: 0.50}
)

// Choose draws an operation from the mix.
func (m Mix) Choose(r *rand.Rand) Op {
	if r.Float64() < m.ReadFrac {
		if m.MultiFrac > 0 && r.Float64() < m.MultiFrac {
			return OpMultiGet
		}
		return OpRead
	}
	return OpUpdate
}

// Zipfian generates keys in [0, N) following a Zipfian distribution with
// parameter theta, using the Gray et al. algorithm YCSB uses. Item 0 is the
// hottest.
type Zipfian struct {
	n              uint64
	theta          float64
	alpha, zetan   float64
	eta, zeta2     float64
	countForZeta   uint64
	allowItemCount bool
}

// NewZipfian returns a generator over n items with the given theta
// (YCSB's default, used in the paper, is 0.99). It panics for n == 0 or
// theta outside (0, 1).
func NewZipfian(n uint64, theta float64) *Zipfian {
	if n == 0 {
		panic("workload: zipfian over zero items")
	}
	if theta <= 0 || theta >= 1 {
		panic(fmt.Sprintf("workload: zipfian theta %v outside (0,1)", theta))
	}
	z := &Zipfian{n: n, theta: theta}
	z.zetan = zetaStatic(n, theta)
	z.zeta2 = zetaStatic(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

// zetaStatic computes the Riemann zeta partial sum Σ 1/i^theta for i ≤ n.
func zetaStatic(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next item (0 is most popular).
func (z *Zipfian) Next(r *rand.Rand) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// N reports the item count.
func (z *Zipfian) N() uint64 { return z.n }

// Scrambled wraps a Zipfian so the popular items are spread uniformly over
// the key space (YCSB's ScrambledZipfianGenerator), which is what prevents
// all hot keys from landing on one token range.
type Scrambled struct {
	z *Zipfian
}

// NewScrambled returns a scrambled Zipfian over n items.
func NewScrambled(n uint64, theta float64) *Scrambled {
	return &Scrambled{z: NewZipfian(n, theta)}
}

// Next draws the next item, hashed into [0, N).
func (s *Scrambled) Next(r *rand.Rand) uint64 {
	return fnv64(s.z.Next(r)) % s.z.n
}

// N reports the item count.
func (s *Scrambled) N() uint64 { return s.z.n }

// fnv64 is the FNV-1a finalizer YCSB uses for key scrambling.
func fnv64(v uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

// Uniform draws keys uniformly from [0, N).
type Uniform struct {
	n uint64
}

// NewUniform returns a uniform chooser over n items; it panics for n == 0.
func NewUniform(n uint64) *Uniform {
	if n == 0 {
		panic("workload: uniform over zero items")
	}
	return &Uniform{n: n}
}

// Next draws the next item.
func (u *Uniform) Next(r *rand.Rand) uint64 { return r.Uint64N(u.n) }

// N reports the item count.
func (u *Uniform) N() uint64 { return u.n }

// KeyChooser is any key-popularity distribution.
type KeyChooser interface {
	Next(r *rand.Rand) uint64
	N() uint64
}

// GeometricBatch draws batch sizes from a geometric distribution with the
// given mean — the long-tailed page sizes of real multi-key front-ends (most
// pages small, a few large). Sizes are capped at Max when it is positive.
type GeometricBatch struct {
	Mean float64
	Max  int
}

// Keys draws the key count of the next batch: the number of Bernoulli(1/Mean)
// trials until the first success — mean Mean, minimum 1.
func (g GeometricBatch) Keys(r *rand.Rand) int {
	if g.Mean <= 1 {
		return 1
	}
	p := 1 / g.Mean
	n := 1
	for r.Float64() >= p {
		n++
		if g.Max > 0 && n >= g.Max {
			return g.Max
		}
	}
	return n
}

// Sizer draws record sizes in bytes.
type Sizer interface {
	// Size reports the total record size for a key draw.
	Size(r *rand.Rand) int
}

// FixedSize always returns the same record size (the paper's main datasets
// use 1 KB records of 10 fields).
type FixedSize int

// Size implements Sizer.
func (f FixedSize) Size(*rand.Rand) int { return int(f) }

// ZipfianFields models the paper's skewed-record-size experiment: each record
// has Fields fields whose lengths follow a Zipfian distribution favouring
// shorter values, with the total record capped at MaxBytes.
type ZipfianFields struct {
	Fields   int
	MaxBytes int
	z        *Zipfian
}

// NewZipfianFields returns a sizer with nf fields and a cap of maxBytes.
func NewZipfianFields(nf, maxBytes int) *ZipfianFields {
	if nf <= 0 || maxBytes <= 0 {
		panic("workload: invalid field sizing")
	}
	perField := maxBytes / nf
	if perField < 1 {
		perField = 1
	}
	return &ZipfianFields{
		Fields:   nf,
		MaxBytes: maxBytes,
		z:        NewZipfian(uint64(perField), 0.99),
	}
}

// Size implements Sizer: the sum of nf Zipfian field lengths (hot = short).
func (zf *ZipfianFields) Size(r *rand.Rand) int {
	total := 0
	for i := 0; i < zf.Fields; i++ {
		total += int(zf.z.Next(r)) + 1
	}
	if total > zf.MaxBytes {
		total = zf.MaxBytes
	}
	return total
}

// Key renders item v as a YCSB-style key string ("user" + zero-padded id).
func Key(v uint64) string {
	return fmt.Sprintf("user%019d", v)
}
