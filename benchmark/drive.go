package main

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"c3/internal/resp"
)

// opRec is one in-flight operation: the generated op plus what the oracle
// needs to judge its reply and what the trace needs to time it.
type opRec struct {
	op
	id     uint64
	sched  int64 // ns since the run's epoch: when the op was due
	sent   int64
	floors []uint64 // reads: the oracle floor of each key at send time
	seqs   []uint64 // writes: the sequence claimed for each key
	vals   [][]byte // writes: the value of each key, aliasing buf
	buf    []byte
	ph     *phase
}

// sample is one completed fixed-rate op.
type sample struct {
	kind  opKind
	ok    bool
	at    int64 // scheduled time, ns after the phase started
	late  int64 // sent - scheduled
	lat   int64 // reply - scheduled
	done  int64 // reply, ns after the phase started
	trace bool  // fell in a traced slice
}

// phase is one stretch of driving. Ops of a closed phase still complete
// (and settle with the oracle) but are no longer sampled.
type phase struct {
	start    int64 // ns since epoch
	length   int64 // fixed-rate phases: arrivals stop here
	measured bool  // fixed-rate phase whose ops are sampled
	sat      bool  // saturation phase: ops are counted, not sampled
	inflight atomic.Int64
	closed   atomic.Bool
}

// runner drives one env through its phases.
type runner struct {
	e      *env
	w      *workload
	seed   uint64
	epoch  time.Time
	lanes  []*lane
	tr     *tracer // nil in an untraced run
	nextID atomic.Uint64

	inflightMax atomic.Int64
	attempted   atomic.Int64
	failed      atomic.Int64
	satDone     atomic.Int64
	userBytes   atomic.Int64 // key+value bytes of acknowledged writes
}

func (r *runner) now() int64 { return int64(time.Since(r.epoch)) }

type lane struct {
	r  *runner
	id int

	mu      sync.Mutex
	samples []sample
	recs    sync.Pool

	// RESP transport: one pipelined connection, replies matched in order.
	conn    net.Conn
	bw      *bufio.Writer
	br      *bufio.Reader
	pending chan *opRec
	readers sync.WaitGroup
	cmd     []byte
	args    [][]byte

	slots chan struct{} // saturation: one token per outstanding op
	pace  *pacer        // fixed-rate: wakes the lane for its next send
}

func newRunner(e *env, seed uint64, tr *tracer) (*runner, error) {
	r := &runner{e: e, w: e.w, seed: seed, epoch: time.Now(), tr: tr}
	for i := 0; i < nproc(); i++ {
		l := &lane{r: r, id: i, slots: make(chan struct{}, satWindow)}
		l.recs.New = func() any { return new(opRec) }
		var err error
		if l.pace, err = newPacer(); err != nil {
			return nil, err
		}
		if r.w.RESP {
			c, err := net.Dial("tcp", e.respAddr)
			if err != nil {
				return nil, err
			}
			l.conn, l.bw, l.br = c, bufio.NewWriterSize(c, 64<<10), bufio.NewReaderSize(c, 64<<10)
			// Deep enough that the sender never blocks on the queue before
			// it blocks on the socket; a full queue is backpressure and
			// shows as lateness.
			l.pending = make(chan *opRec, 4096)
			l.readers.Add(1)
			go l.readReplies()
		}
		r.lanes = append(r.lanes, l)
	}
	return r, nil
}

func (r *runner) close() {
	for _, l := range r.lanes {
		l.pace.close()
		if l.conn != nil {
			close(l.pending)
			l.conn.Close()
			l.readers.Wait()
		}
	}
}

// fixedRate runs an open-loop phase: every lane sends its seeded Poisson
// stream on schedule whatever the replies do. It returns once every op has
// completed or the grace period ran out; ops still in flight then count as
// failed.
func (r *runner) fixedRate(stream uint64, length time.Duration, measured bool) {
	ph := &phase{start: r.now(), length: int64(length), measured: measured}
	var wg sync.WaitGroup
	for _, l := range r.lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			g := newOpGen(r.w, r.seed, stream+uint64(l.id), len(r.lanes))
			for {
				rec := l.recs.Get().(*opRec)
				g.next(&rec.op)
				if rec.At >= ph.length {
					return
				}
				rec.ph, rec.sched = ph, ph.start+rec.At
				if d := rec.sched - r.now(); d > 0 {
					l.pace.sleep(time.Duration(d))
				}
				l.issue(rec)
			}
		}(l)
	}
	wg.Wait()
	r.drain(ph, 3*time.Second)
}

// saturate runs the closed-loop phase: every lane keeps satWindow ops
// outstanding until its share of ops (a count, so the work is the same in
// every run) is done. It returns the elapsed time.
func (r *runner) saturate(ops int) time.Duration {
	ph := &phase{start: r.now(), sat: true}
	var wg sync.WaitGroup
	for _, l := range r.lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			g := newOpGen(r.w, r.seed, streamSat+uint64(l.id), len(r.lanes))
			for i := 0; i < ops/len(r.lanes); i++ {
				l.slots <- struct{}{}
				rec := l.recs.Get().(*opRec)
				g.next(&rec.op)
				rec.ph, rec.sched = ph, r.now()
				l.issue(rec)
			}
		}(l)
	}
	wg.Wait()
	r.drain(ph, 10*time.Second)
	return time.Duration(r.now() - ph.start)
}

func (r *runner) drain(ph *phase, grace time.Duration) {
	deadline := time.Now().Add(grace)
	for ph.inflight.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ph.closed.Store(true)
	r.failed.Add(ph.inflight.Load())
}

// issue settles the op with the oracle, stamps the send and hands it to the
// transport: a native op runs on its own goroutine, a RESP op is written to
// the lane's connection and completed by the lane's reply reader.
func (l *lane) issue(rec *opRec) {
	r := l.r
	rec.id = r.nextID.Add(1)
	l.prepare(rec)
	r.attempted.Add(1)
	if n := rec.ph.inflight.Add(1); n > r.inflightMax.Load() {
		r.inflightMax.Store(n)
	}
	rec.sent = r.now()
	if r.w.RESP {
		l.sendRESP(rec)
	} else {
		go l.execNative(rec)
	}
}

// prepare takes the oracle's floor for every key a read names and claims a
// sequence (and builds the value) for every key a write names.
func (l *lane) prepare(rec *opRec) {
	orc, ks := l.r.e.orc, l.r.e.ks
	rec.floors, rec.seqs, rec.vals, rec.buf = rec.floors[:0], rec.seqs[:0], rec.vals[:0], rec.buf[:0]
	if !rec.Kind.isWrite() {
		for _, k := range rec.Keys {
			rec.floors = append(rec.floors, orc.floor(k))
		}
		return
	}
	del := rec.Kind == opDel
	for i, k := range rec.Keys {
		k, seq := orc.lockWrite(k, del)
		rec.Keys[i] = k
		rec.seqs = append(rec.seqs, seq)
		if !del {
			at := len(rec.buf)
			rec.buf = ks.appendValue(rec.buf, k, seq)
			rec.vals = append(rec.vals, rec.buf[at:len(rec.buf):len(rec.buf)])
		}
	}
}

func (l *lane) execNative(rec *opRec) {
	e := l.r.e
	name := e.ks.names[rec.Keys[0]]
	switch rec.Kind {
	case opGet:
		val, found, err := e.client.GetAt(name, l.r.w.Level)
		l.complete(rec, err == nil && l.checkRead(rec, 0, val, found))
	case opPut:
		l.complete(rec, l.settleWrite(rec, e.client.PutAt(name, rec.vals[0], l.r.w.Level) == nil))
	default:
		panic("benchmark: native workloads issue get and put only")
	}
}

// checkRead judges key i's reply. A stale read fails the op only where
// R+W>N forbids it; a resurrected read is the known tombstone gap and is
// counted, never failed.
func (l *lane) checkRead(rec *opRec, i int, val []byte, found bool) bool {
	switch l.r.e.orc.check(rec.Keys[i], rec.floors[i], val, found) {
	case readOK, readResurrected:
		return true
	case readStaleVersion, readStaleMissing:
		return !l.r.w.gated()
	}
	return false
}

// settleWrite tells the oracle how every key of a write ended.
func (l *lane) settleWrite(rec *opRec, acked bool) bool {
	orc := l.r.e.orc
	del := rec.Kind == opDel
	for i, k := range rec.Keys {
		if !acked {
			orc.failWrite(k, rec.seqs[i])
			continue
		}
		orc.ackWrite(k, rec.seqs[i], del)
		l.r.userBytes.Add(int64(len(l.r.e.ks.names[k])))
		if !del {
			l.r.userBytes.Add(int64(len(rec.vals[i])))
		}
	}
	return acked
}

var respVerbs = [nKinds][]byte{[]byte("GET"), []byte("SET"), []byte("DEL"), []byte("MGET"), []byte("MSET")}

func (l *lane) sendRESP(rec *opRec) {
	ks := l.r.e.ks
	l.args = append(l.args[:0], respVerbs[rec.Kind])
	for i, k := range rec.Keys {
		l.args = append(l.args, ks.bytes[k])
		if rec.Kind == opPut || rec.Kind == opMSet {
			l.args = append(l.args, rec.vals[i])
		}
	}
	l.cmd = resp.AppendCommand(l.cmd[:0], l.args)
	l.pending <- rec
	l.bw.Write(l.cmd)
	if err := l.bw.Flush(); err != nil {
		// The reader sees the broken connection and fails every pending op.
		l.conn.Close()
	}
}

func (l *lane) readReplies() {
	defer l.readers.Done()
	for rec := range l.pending {
		rep, err := resp.ReadReply(l.br)
		l.complete(rec, err == nil && l.checkReply(rec, rep))
	}
}

func (l *lane) checkReply(rec *opRec, rep resp.Reply) bool {
	switch rec.Kind {
	case opGet:
		return rep.Kind == '$' && l.checkRead(rec, 0, []byte(rep.Str), !rep.IsNil)
	case opMGet:
		if rep.Kind != '*' || len(rep.Elems) != len(rec.Keys) {
			return false
		}
		ok := true
		for i, el := range rep.Elems {
			ok = l.checkRead(rec, i, []byte(el.Str), !el.IsNil) && el.Kind == '$' && ok
		}
		return ok
	case opDel:
		return l.settleWrite(rec, rep.Kind == ':')
	default:
		return l.settleWrite(rec, rep.Kind == '+')
	}
}

// complete records the finished op. It runs on whichever goroutine got the
// reply. An op whose phase already closed was counted as failed there.
func (l *lane) complete(rec *opRec, ok bool) {
	r, ph := l.r, rec.ph
	done := r.now()
	ph.inflight.Add(-1)
	if ph.sat {
		<-l.slots
	}
	if !ph.closed.Load() {
		if !ok {
			r.failed.Add(1)
		}
		switch {
		case ph.sat:
			r.satDone.Add(1)
		case ph.measured:
			s := sample{kind: rec.Kind, ok: ok, at: rec.At, late: rec.sent - rec.sched,
				lat: done - rec.sched, done: done - ph.start}
			if r.tr != nil {
				s.trace = r.tr.observe(rec, done, ok)
			}
			l.mu.Lock()
			l.samples = append(l.samples, s)
			l.mu.Unlock()
		}
	}
	l.recs.Put(rec)
}

func (r *runner) takeSamples() []sample {
	var all []sample
	for _, l := range r.lanes {
		l.mu.Lock()
		all = append(all, l.samples...)
		l.samples = nil
		l.mu.Unlock()
	}
	return all
}
