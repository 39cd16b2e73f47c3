package main

import (
	"bufio"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"c3/internal/core"
	"c3/internal/kvstore"
	"c3/internal/lsm"
	"c3/internal/ratelimit"
	"c3/internal/resp"
	"c3/internal/ring"
	"c3/internal/wire"
)

// The prober times each layer from outside, through its exported functions,
// on the keys and values of live operations. It runs on one goroutine of
// its own, so a probe never delays the lane that triggered it, and it drops
// requests it cannot keep up with.

type probeReq struct {
	op   uint64
	kind opKind
	keys []int32
}

type shadowWrite struct {
	key int32
	seq uint64
	del bool
}

// pureReps is how often a sub-microsecond probe repeats inside one timing,
// so the two clock reads do not dominate it.
const pureReps = 8

type prober struct {
	r    *runner
	t    *tracer
	reqs chan probeReq
	quit chan struct{}
	done chan struct{}
	obs  map[string][]float64
	last probeReq // the most recent probed op, reused by the alloc probes

	// Shadow instances of the stateless or self-contained layers, built the
	// way kvstore builds its own.
	ring       *ring.Ring
	sel        *core.Client
	cubic      *ratelimit.Cubic
	group      []core.ServerID
	shadow     *lsm.Sharded
	flushLimit int
	maxRuns    int
	feedMu     sync.Mutex
	feed       []shadowWrite // traced writes, replayed into shadow at stop

	// Paired probes go through node 0 both ways.
	backend resp.Backend
	client0 *kvstore.Client
	gwConn  net.Conn // RESP workloads: the prober's own gateway connection
	gwR     *bufio.Reader

	frame, val, cmd, reply []byte
	items                  []wire.BatchItem
	strs                   []string
	args                   [][]byte
	src                    loopReader
	rd                     *resp.Reader
	spans                  []span
}

// loopReader serves one command's bytes to a resp.Reader, then EOF.
type loopReader struct{ b []byte }

func (l *loopReader) Read(p []byte) (int, error) {
	if len(l.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, l.b)
	l.b = l.b[n:]
	return n, nil
}

func newProber(r *runner, t *tracer, shadowDir string) (*prober, error) {
	w, e := r.w, r.e
	reg := core.NewRegistry()
	for i := 0; i < w.Nodes; i++ {
		reg.InternAll(core.ServerID(i))
	}
	cfg := w.config("")
	p := &prober{
		r: r, t: t,
		// A few probes may queue behind a slow one; beyond that the op is
		// simply not probed.
		reqs: make(chan probeReq, 16),
		quit: make(chan struct{}),
		done: make(chan struct{}),
		obs:  make(map[string][]float64),
		ring: ring.New(w.Nodes, cfg.RF),
		sel: core.NewClient(core.NewCubicRanker(core.RankerConfig{
			ConcurrencyWeight: float64(w.Nodes * nproc()), Seed: 1, Registry: reg,
		}), core.ClientConfig{RateControl: true, Rate: cfg.Rate}),
		cubic:   ratelimit.New(ratelimit.DefaultConfig()),
		backend: e.cluster.Nodes[0].RESPBackend(w.Level),
	}
	p.rd = resp.NewReader(&p.src)
	var err error
	if p.client0, err = kvstore.Dial(e.cluster.Addrs()[:1]); err != nil {
		return nil, err
	}
	if w.RESP {
		if p.gwConn, err = net.Dial("tcp", e.respAddr); err != nil {
			return nil, err
		}
		p.gwR = bufio.NewReader(p.gwConn)
	}
	// The shadow store has the nodes' options and, like them, holds the
	// whole keyspace, so its flushes and compactions move as many bytes.
	opts := w.Store
	if w.Durable {
		opts.Dir = shadowDir
		opts.SyncInterval = 20 * time.Millisecond
	}
	if opts.FlushBytes == 0 {
		// The defaults kvstore and lsm apply to a durable and an in-memory
		// node.
		opts.FlushBytes = 4 << 20
		if w.Durable {
			opts.FlushBytes = 32 << 20
		}
	}
	p.flushLimit = opts.FlushBytes
	if p.maxRuns = opts.MaxRuns; p.maxRuns == 0 {
		p.maxRuns = 8 // lsm's default
	}
	if p.shadow, err = lsm.OpenSharded(opts, nproc()); err != nil {
		return nil, err
	}
	var batch []shadowWrite
	for lo := 0; lo < w.Keys; lo += preloadChunk {
		batch = batch[:0]
		for k := lo; k < min(lo+preloadChunk, w.Keys); k++ {
			batch = append(batch, shadowWrite{key: int32(k), seq: 1})
		}
		p.applyShadow(batch)
	}
	delete(p.obs, "lsm.apply_ns_per_key") // the preload is not a sample
	t.pr = p
	go p.run()
	return p, nil
}

// offer is called by the tracer for every successful op in a traced slice.
func (p *prober) offer(rec *opRec) {
	if rec.Kind.isWrite() {
		p.feedMu.Lock()
		for i, k := range rec.Keys {
			p.feed = append(p.feed, shadowWrite{k, rec.seqs[i], rec.Kind == opDel})
		}
		p.feedMu.Unlock()
	}
	if rec.id%probeEvery == 0 {
		select {
		case p.reqs <- probeReq{rec.id, rec.Kind, append([]int32(nil), rec.Keys...)}:
		default:
		}
	}
}

func (p *prober) run() {
	defer close(p.done)
	for {
		select {
		case <-p.quit:
			return
		case q := <-p.reqs:
			p.probe(q)
		}
	}
}

// stop ends the prober, runs the probes that need a quiet process, and
// releases what the prober holds.
func (p *prober) stop() {
	close(p.quit)
	<-p.done
	p.allocProbes()
	p.replayShadow()
	p.shadow.Close()
	p.client0.Close()
	if p.gwConn != nil {
		p.gwConn.Close()
	}
}

func (p *prober) record(name string, v float64) { p.obs[name] = append(p.obs[name], v) }

// timed runs f reps times, records the mean duration per rep divided by per
// under name, and adds one span covering all reps.
func (p *prober) timed(name, spanName string, reps int, per float64, f func()) {
	start := p.r.now()
	for i := 0; i < reps; i++ {
		f()
	}
	end := p.r.now()
	p.record(name, float64(end-start)/float64(reps)/per)
	p.spans = append(p.spans, span{Name: spanName, Start: start, End: end})
}

func (p *prober) probe(q probeReq) {
	p.last, p.spans = q, p.spans[:0]
	ks, orc := p.r.e.ks, p.r.e.orc
	k := q.keys[0]
	seq, _ := orc.ackedSeq(k)
	p.val = ks.appendValue(p.val[:0], k, seq)

	p.timed("ring.replicas_for_ns", "probe.ring_replicas", pureReps, 1, func() {
		p.group = p.ring.ReplicasFor(ks.bytes[k], p.group)
	})
	p.timed("core.pick_cycle_ns", "probe.core_pick", pureReps, 1, p.pickCycle)
	p.timed("ratelimit.acquire_ns", "probe.ratelimit_acquire", pureReps, 1, func() {
		p.cubic.TryAcquire(time.Now().UnixNano())
	})
	switch {
	case q.kind == opMGet:
		p.timed("wire.batch_read_rt_ns_per_key", "probe.wire_rt", pureReps, float64(len(q.keys)), func() { p.wireBatchRead(q.keys) })
	case q.kind.isWrite():
		p.timed("wire.write_rt_ns", "probe.wire_rt", pureReps, 1, func() { p.wireWrite(k, q.kind == opDel) })
	default:
		p.timed("wire.read_rt_ns", "probe.wire_rt", pureReps, 1, func() { p.wireRead(k) })
	}
	store := p.r.e.cluster.Nodes[p.group[0]].Store()
	p.timed("lsm.get_ns", "probe.lsm_get", pureReps, 1, func() {
		p.frame, _, _ = store.GetVersioned(p.frame[:0], ks.names[k])
	})
	p.encodeCommand(q)
	p.timed("resp.decode_ns_per_cmd", "probe.resp_decode", pureReps, 1, p.respDecode)
	p.timed("resp.encode_ns_per_reply", "probe.resp_encode", pureReps, 1, func() { p.respEncode(q) })

	switch q.kind {
	case opGet:
		p.pairedGet(k)
	case opPut:
		k, seq := orc.lockWrite(k, false)
		p.val = ks.appendValue(p.val[:0], k, seq)
		var err error
		p.timed("kvstore.backend_set_us", "probe.backend_set", 1, 1e3, func() { err = p.backend.Set(ks.bytes[k], p.val) })
		if err != nil {
			orc.failWrite(k, seq)
			break
		}
		orc.ackWrite(k, seq, false)
	}
	p.t.add(q.op, p.spans)
}

func (p *prober) pickCycle() {
	now := time.Now().UnixNano()
	if s, ok, _ := p.sel.Pick(p.group, now); ok {
		p.sel.OnResponse(s, core.Feedback{QueueSize: 1, ServiceTime: 100 * time.Microsecond}, 200*time.Microsecond, now)
	}
}

func (p *prober) wireRead(k int32) {
	name := p.r.e.ks.names[k]
	p.frame, _ = wire.AppendReadReq(p.frame[:0], wire.MsgRead, wire.ReadReq{ID: 1, Key: name})
	req, _ := wire.ParseReadReq(p.frame[5:])
	p.frame, _ = wire.AppendReadResp(p.frame[:0], wire.ReadResp{ID: req.ID, Found: true, Version: 1, Value: p.val})
	wire.ParseReadResp(p.frame[5:])
}

func (p *prober) wireWrite(k int32, del bool) {
	name := p.r.e.ks.names[k]
	p.frame, _ = wire.AppendWriteReq(p.frame[:0], wire.MsgWrite, wire.WriteReq{ID: 1, Key: name, Value: p.val, Del: del})
	req, _ := wire.ParseWriteReq(p.frame[5:])
	p.frame, _ = wire.AppendWriteResp(p.frame[:0], wire.WriteResp{ID: req.ID, OK: true})
	wire.ParseWriteResp(p.frame[5:])
}

func (p *prober) wireBatchRead(keys []int32) {
	p.strs = p.strs[:0]
	for _, k := range keys {
		p.strs = append(p.strs, p.r.e.ks.names[k])
	}
	p.frame, _ = wire.AppendBatchReadReq(p.frame[:0], wire.MsgBatchRead, wire.BatchReadReq{ID: 1, Keys: p.strs})
	req, _ := wire.ParseBatchReadReq(p.frame[5:], p.strs[len(p.strs):])
	p.items = p.items[:0]
	for range req.Keys {
		p.items = append(p.items, wire.BatchItem{Found: true, Version: 1, Value: p.val})
	}
	p.frame, _ = wire.AppendBatchReadResp(p.frame[:0], wire.BatchReadResp{ID: req.ID, Items: p.items})
	wire.ParseBatchReadResp(p.frame[5:], p.items[len(p.items):])
}

// encodeCommand renders q as the RESP command a gateway client would send.
func (p *prober) encodeCommand(q probeReq) {
	ks := p.r.e.ks
	p.args = append(p.args[:0], respVerbs[q.kind])
	for _, k := range q.keys {
		p.args = append(p.args, ks.bytes[k])
		if q.kind == opPut || q.kind == opMSet {
			p.args = append(p.args, p.val)
		}
	}
	p.cmd = resp.AppendCommand(p.cmd[:0], p.args)
}

func (p *prober) respDecode() {
	p.src.b = p.cmd
	p.rd.Next()
}

func (p *prober) respEncode(q probeReq) {
	switch q.kind {
	case opGet:
		p.reply = resp.AppendBulk(p.reply[:0], p.val)
	case opMGet:
		p.reply = resp.AppendArray(p.reply[:0], len(q.keys))
		for range q.keys {
			p.reply = resp.AppendBulk(p.reply, p.val)
		}
	case opDel:
		p.reply = resp.AppendInt(p.reply[:0], 1)
	default:
		p.reply = resp.AppendSimple(p.reply[:0], "OK")
	}
}

// pairedGet reads k in-process through node 0's coordinator, then over TCP
// through the same node (and, on RESP workloads, through the gateway). The
// differences are what the client hop and the gateway add.
func (p *prober) pairedGet(k int32) {
	ks := p.r.e.ks
	t0 := p.r.now()
	p.backend.Get(ks.bytes[k])
	t1 := p.r.now()
	p.client0.GetAt(ks.names[k], p.r.w.Level)
	t2 := p.r.now()
	direct := float64(t1 - t0)
	p.record("kvstore.backend_get_us", direct/1e3)
	p.record("kvstore.client_hop_us", (float64(t2-t1)-direct)/1e3)
	p.spans = append(p.spans,
		span{Name: "probe.backend_get", Start: t0, End: t1},
		span{Name: "probe.client_get", Start: t1, End: t2})
	if p.gwConn != nil {
		p.args = append(p.args[:0], respVerbs[opGet], ks.bytes[k])
		p.cmd = resp.AppendCommand(p.cmd[:0], p.args)
		p.gwConn.Write(p.cmd)
		resp.ReadReply(p.gwR)
		t3 := p.r.now()
		p.record("resp.gateway_self_us", (float64(t3-t2)-direct)/1e3)
		p.spans = append(p.spans, span{Name: "probe.resp_get", Start: t2, End: t3})
	}
}

// applyShadow folds a batch of writes into the shadow store the way a shard
// writer folds its queue into one ApplyMulti.
func (p *prober) applyShadow(batch []shadowWrite) {
	ks := p.r.e.ks
	keys := make([]string, len(batch))
	vers := make([]uint64, len(batch))
	vals := make([][]byte, len(batch))
	dels := make([]bool, len(batch))
	for i, sw := range batch {
		keys[i], vers[i], dels[i] = ks.names[sw.key], sw.seq, sw.del
		if !sw.del {
			vals[i] = ks.appendValue(nil, sw.key, sw.seq)
		}
	}
	start := time.Now()
	p.shadow.ApplyMulti(keys, vers, vals, dels)
	p.record("lsm.apply_ns_per_key", float64(time.Since(start))/float64(len(batch)))
}

// replayShadow feeds the run's traced writes to the shadow store once the
// run is over, a shard-writer-sized batch at a time, and times an explicit
// Flush whenever the memtable has nearly filled and an explicit Compact
// whenever the runs have stacked up to the store's limit. Replayed after
// the measured phases, the store's own background work costs the live
// cluster nothing, and the sizes are the live ones: the shadow holds the
// whole keyspace and has the nodes' options.
func (p *prober) replayShadow() {
	flush := func() {
		start := time.Now()
		p.shadow.Flush()
		p.record("lsm.flush_ms", float64(time.Since(start))/1e6)
		if p.shadow.Runs() >= p.maxRuns*nproc() {
			start = time.Now()
			p.shadow.Compact()
			p.record("lsm.compact_ms", float64(time.Since(start))/1e6)
		}
	}
	for lo := 0; lo < len(p.feed); lo += 64 {
		p.applyShadow(p.feed[lo:min(lo+64, len(p.feed))])
		if p.shadow.MemBytes() >= p.flushLimit*3/4 {
			flush()
		}
	}
	// Every workload gets at least one sample of each.
	flush()
	if len(p.obs["lsm.compact_ms"]) == 0 {
		start := time.Now()
		p.shadow.Compact()
		p.record("lsm.compact_ms", float64(time.Since(start))/1e6)
	}
}

// allocProbes counts heap objects allocated by the pure-function probes,
// on the last probed op, while nothing else in the process is running.
func (p *prober) allocProbes() {
	q := p.last
	if len(q.keys) == 0 {
		return // no op was probed
	}
	k := q.keys[0]
	const iters = 2000
	count := func(name string, f func()) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		p.record(name, float64(after.Mallocs-before.Mallocs)/iters)
	}
	p.group = p.ring.ReplicasFor(p.r.e.ks.bytes[k], p.group)
	count("core.pick_allocs", p.pickCycle)
	count("wire.allocs_per_rt", func() { p.wireRead(k) })
	p.encodeCommand(q)
	count("resp.allocs_per_cmd", func() { p.respDecode(); p.respEncode(q) })
}
