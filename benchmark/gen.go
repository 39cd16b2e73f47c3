package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"c3/internal/ring"
	"c3/internal/sim"
	wl "c3/internal/workload"
)

// op is one generated operation: what to do, to which keys, and when (ns
// after the phase started; the saturation phase ignores At).
type op struct {
	Kind opKind
	At   int64
	Keys []int32
}

// RNG stream ids: one independent stream per (phase, lane).
const (
	streamWarm  = 1000
	streamFixed = 2000
	streamSat   = 3000
)

// opGen draws a lane's seeded op stream: Poisson arrivals at the lane's
// share of the rate, the workload's mix, key popularity and batch sizes.
// Nothing but (seed, stream) and the workload decides the sequence.
type opGen struct {
	w     *workload
	r     *rand.Rand
	keys  wl.KeyChooser
	batch wl.GeometricBatch
	gapNs float64 // mean inter-arrival of this lane
	now   float64
}

func newOpGen(w *workload, seed, stream uint64, lanes int) *opGen {
	g := &opGen{
		w:     w,
		r:     sim.RNG(seed, stream),
		batch: wl.GeometricBatch{Mean: w.BatchMean, Max: w.BatchCap},
		gapNs: 1e9 * float64(lanes) / w.Rate,
	}
	if w.Zipf > 0 {
		g.keys = wl.NewScrambled(uint64(w.Keys), w.Zipf)
	} else {
		g.keys = wl.NewUniform(uint64(w.Keys))
	}
	return g
}

// next fills o with the stream's next op, reusing o.Keys.
func (g *opGen) next(o *op) {
	g.now += g.r.ExpFloat64() * g.gapNs
	o.At = int64(g.now)
	x := g.r.Float64()
	o.Kind = opGet
	for k := opKind(0); k < nKinds; k++ {
		if x < g.w.Mix[k] {
			o.Kind = k
			break
		}
		x -= g.w.Mix[k]
	}
	n := 1
	if o.Kind.isBatch() {
		n = g.batch.Keys(g.r)
	}
	o.Keys = o.Keys[:0]
	for len(o.Keys) < n {
		k := int32(g.keys.Next(g.r) % uint64(g.w.Keys))
		dup := false
		for _, have := range o.Keys {
			dup = dup || have == k
		}
		if !dup {
			o.Keys = append(o.Keys, k)
		}
	}
}

// sequenceHash is the fingerprint of a seed's first n ops per lane: equal
// seeds give equal hashes, and the stamp records it.
func sequenceHash(w *workload, seed uint64, lanes, n int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	var o op
	for l := 0; l < lanes; l++ {
		g := newOpGen(w, seed, streamFixed+uint64(l), lanes)
		for i := 0; i < n; i++ {
			g.next(&o)
			binary.LittleEndian.PutUint64(b[:], uint64(o.At))
			h.Write(b[:])
			h.Write([]byte{byte(o.Kind)})
			for _, k := range o.Keys {
				binary.LittleEndian.PutUint32(b[:4], uint32(k))
				h.Write(b[:4])
			}
		}
	}
	return h.Sum64()
}

// keyspace holds the workload's key strings and the per-key hash every
// value carries.
type keyspace struct {
	names []string
	bytes [][]byte
	hash  []uint64
	vlen  int
}

func newKeyspace(w *workload) *keyspace {
	if w.ValueBytes < valueHeader || w.ValueBytes%8 != 0 {
		panic("benchmark: value size must be a multiple of 8, at least 16")
	}
	ks := &keyspace{
		names: make([]string, w.Keys),
		bytes: make([][]byte, w.Keys),
		hash:  make([]uint64, w.Keys),
		vlen:  w.ValueBytes,
	}
	for i := range ks.names {
		ks.names[i] = fmt.Sprintf("key%07d", i)
		ks.bytes[i] = []byte(ks.names[i])
		ks.hash[i], _ = ring.Murmur3_x64_128(ks.bytes[i], 0)
	}
	return ks
}

const valueHeader = 16 // sequence + key hash

// appendValue appends key k's value for write number seq: the 8-byte
// sequence, the key's hash, then filler that is a function of both, so a
// reader can verify every byte without remembering what was written.
func (ks *keyspace) appendValue(dst []byte, k int32, seq uint64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint64(dst, ks.hash[k])
	x := ks.hash[k] ^ seq*0x9e3779b97f4a7c15
	for n := valueHeader; n < ks.vlen; n += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		dst = binary.LittleEndian.AppendUint64(dst, x)
	}
	return dst
}

// checkValue verifies a value read for key k and returns its sequence.
func (ks *keyspace) checkValue(val []byte, k int32) (seq uint64, ok bool) {
	if len(val) != ks.vlen {
		return 0, false
	}
	seq = binary.LittleEndian.Uint64(val)
	if binary.LittleEndian.Uint64(val[8:]) != ks.hash[k] {
		return seq, false
	}
	x := ks.hash[k] ^ seq*0x9e3779b97f4a7c15
	for n := valueHeader; n+8 <= len(val); n += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if binary.LittleEndian.Uint64(val[n:]) != x {
			return seq, false
		}
	}
	return seq, true
}
