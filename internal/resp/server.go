package resp

import (
	"bufio"
	"errors"
	"fmt"
	"hash/maphash"
	"net"
	"slices"
	"sync"
	"sync/atomic"
)

// Backend is what a Server fronts: the five data commands the gateway maps
// onto the store's point and batch paths, plus an INFO payload. Argument
// slices alias memory the server reuses and are valid only for the call —
// implementations retain copies. Returned values are owned by the caller.
// A Server calls a Backend from several goroutines at once, also for one
// connection.
//
// The miss-vs-empty contract: Get/MGet report existence through the found
// flag, never through value length — a present empty value is ([]byte{},
// true) and a missing key is (nil, false), and the server encodes them as $0
// and $-1 respectively.
type Backend interface {
	Get(key []byte) (val []byte, found bool, err error)
	Set(key, val []byte) error
	Del(key []byte) (deleted bool, err error)
	MGet(keys [][]byte, into *MGetReply) error
	MSet(keys, vals [][]byte) error
	Info() string
}

// MGetReply is the caller-owned memory an MGet fills. The caller reuses one
// across calls, so a steady stream of MGETs allocates nothing: the backend
// truncates every field and appends.
type MGetReply struct {
	Vals  [][]byte // Vals[i] is keys[i]'s value, a view of Buf; nil on a miss
	Found []bool   // Found[i] reports whether keys[i] exists
	Buf   []byte   // the bytes of every found value
}

// Server accepts RESP connections and drives a Backend. A connection runs up
// to pipelineDepth commands at once and answers them strictly in command
// order:
//
//   - The reader goroutine decodes a command into a slot of the connection's
//     ring. A lone command — nothing in flight and no more input buffered —
//     runs on the reader itself, the one-hop path of an unpipelined client.
//     Pipelined commands copy their arguments into scratch memory drawn
//     from a shared pool and go to the server's workers: a parked worker
//     takes one without allocating, and a worker starts only when none is
//     parked. An idle connection keeps its reader and writer and no memory
//     of its last commands.
//   - Two commands conflict when they share a key and at least one of them
//     writes (SET, DEL, MSET). A command starts only after every earlier
//     conflicting command has finished, so a connection reads its own
//     writes. Every other command (QUIT, INFO, CONFIG, …) waits for all
//     earlier commands and runs on the reader.
//   - Commands on different keys overlap, so other connections can see a
//     pipeline's effects out of command order: after SET a 1; SET b 1 sent
//     in one write, another client may read b's new value and a's old one.
//     Redis never reorders so; a client that needs one write visible before
//     the next waits for its reply first.
//   - When every slot is busy the reader stops reading, and TCP pushes back
//     on the client.
//   - The writer goroutine drains the ring in order. It flushes before it
//     waits on an unfinished head and when the ring runs dry, so replies to
//     pipelined commands coalesce into few write syscalls.
//
// QUIT and a protocol error deliver every earlier reply, then close.
type Server struct {
	b Backend

	work    chan *slot   // unbuffered: a parked worker takes a runnable command
	idle    atomic.Int32 // workers parked on work
	workers sync.WaitGroup

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns a Server fronting b.
func NewServer(b Backend) *Server {
	return &Server{
		b:     b,
		work:  make(chan *slot),
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[net.Conn]struct{}),
	}
}

// errServerClosed reports an accept loop ended by Close.
var errServerClosed = errors.New("resp: server closed")

// Serve accepts connections on ln until the listener fails or the server is
// closed. It blocks; run it on its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errServerClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.lns, ln)
		s.mu.Unlock()
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return errServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return errServerClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Close stops every listener, severs every connection, and waits for the
// connection goroutines and the workers to drain.
func (s *Server) Close() {
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	if first {
		close(s.work) // no connection is left to hand a worker a command
		s.workers.Wait()
	}
}

// maxIdleWorkers bounds the workers parked between bursts: a worker that
// finishes while this many are parked exits.
const maxIdleWorkers = 256

// worker runs commands of any connection, starting with sl, until the
// server closes or enough other workers are parked.
func (s *Server) worker(sl *slot) {
	defer s.workers.Done()
	for ok := true; ok; {
		sl.c.exec(sl)
		sl.c.complete(sl)
		if s.idle.Add(1) > maxIdleWorkers {
			s.idle.Add(-1)
			return
		}
		sl, ok = <-s.work
		s.idle.Add(-1)
	}
}

// pipelineDepth is how many commands one connection runs at once.
const pipelineDepth = 16

// retainCap and retainArgs bound what a pooled scratch keeps between
// commands, in bytes and in arguments: one huge command must not pin its
// buffers in the pool.
const (
	retainCap  = 64 << 10
	retainArgs = 1024
)

// cmdKind classifies a command for the conflict rule.
type cmdKind uint8

const (
	cmdOther cmdKind = iota // waits for every earlier command, runs on the reader
	cmdGet
	cmdMGet
	cmdSet
	cmdDel
	cmdMSet
)

func (k cmdKind) writes() bool { return k >= cmdSet }

// scratch is the memory one command uses from decode until its reply is
// written. A slot draws one from scratchPool when a command lands in it and
// returns it after the reply, so an idle connection holds none.
type scratch struct {
	argv  [][]byte
	arena []byte
	keys  []uint64 // sorted hashes of the keys the command names
	reply []byte
	mkeys [][]byte // MSET scratch
	mvals [][]byte
	mget  MGetReply
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// release returns sc to the pool, or drops it when a large command grew any
// of its buffers past what the pool keeps.
func (sc *scratch) release() {
	if max(cap(sc.arena), cap(sc.reply), cap(sc.mget.Buf)) > retainCap ||
		max(cap(sc.argv), cap(sc.keys), cap(sc.mkeys), cap(sc.mget.Vals)) > retainArgs {
		return
	}
	// An inline MSET's lists view the connection's parse arena: drop them.
	clear(sc.mkeys)
	clear(sc.mvals)
	sc.reply = sc.reply[:0]
	scratchPool.Put(sc)
}

// slot is one command of a connection's ring, from decode to its reply
// leaving.
type slot struct {
	c    *conn
	kind cmdKind
	bit  uint32   // this slot's ring position as a bit of deps
	deps uint32   // ring positions of earlier unfinished conflicting commands
	done bool     // reply is final (guarded by conn.mu)
	quit bool     // close the connection after this reply
	cmd  [][]byte // the command: views of sc.argv or, inline, of the Reader's arena
	sc   *scratch
}

// own copies args into the slot's scratch: the Reader's arena is reused by
// the next decode, and the command outlives it.
func (sl *slot) own(args [][]byte) {
	sc, n := sl.sc, 0
	for _, a := range args {
		n += len(a)
	}
	if cap(sc.arena) < n {
		sc.arena = make([]byte, 0, n)
	}
	arena, argv := sc.arena[:0], sc.argv[:0]
	for _, a := range args {
		at := len(arena)
		arena = append(arena, a...) // within capacity: earlier views stay put
		argv = append(argv, arena[at:len(arena):len(arena)])
	}
	sc.arena, sc.argv, sl.cmd = arena, argv, argv
}

var keySeed = maphash.MakeSeed()

// hashKeys records the sorted hashes of the keys the command names. A
// collision only orders two commands that could have overlapped.
func (sl *slot) hashKeys() {
	keys := sl.sc.keys[:0]
	step := 1
	if sl.kind == cmdMSet {
		step = 2
	}
	for i := 1; i < len(sl.cmd); i += step {
		keys = append(keys, maphash.Bytes(keySeed, sl.cmd[i]))
		if sl.kind == cmdGet || sl.kind == cmdSet {
			break
		}
	}
	slices.Sort(keys)
	sl.sc.keys = keys
}

// conflicts reports whether sl must wait for the earlier command o: they
// share a key and one of them writes. Both key lists are sorted, so the
// check is one merge, linear in the two commands' key counts.
func (sl *slot) conflicts(o *slot) bool {
	if !sl.kind.writes() && !o.kind.writes() {
		return false
	}
	a, b := sl.sc.keys, o.sc.keys
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] == b[0]:
			return true
		case a[0] < b[0]:
			a = a[1:]
		default:
			b = b[1:]
		}
	}
	return false
}

// conn is one connection's state: the ring of slots, indexed by the
// monotonic counters head (next reply to write) and tail (next slot to fill).
// The reader owns the slot at tail until it publishes it by advancing tail.
type conn struct {
	s    *Server
	nc   net.Conn
	r    *Reader
	name []byte // upper-cased command name (reader only)

	mu      sync.Mutex
	rcond   sync.Cond // on mu: the reader waits for a free slot or a drain
	wcond   sync.Cond // on mu: the writer waits for the head to finish
	ring    [pipelineDepth]slot
	head    uint64
	tail    uint64
	running int  // published commands not yet done
	closing bool // the reader is done; the writer exits once the ring is empty

	wg sync.WaitGroup // the writer
}

// handle runs one connection until the client disconnects, errs at the
// protocol level, or sends QUIT.
func (s *Server) handle(nc net.Conn) {
	defer s.wg.Done()
	c := &conn{s: s, nc: nc, r: NewReader(nc)}
	c.rcond.L, c.wcond.L = &c.mu, &c.mu
	for i := range c.ring {
		c.ring[i].c, c.ring[i].bit = c, 1<<i
	}
	c.wg.Add(1)
	go c.writeLoop()
	c.readLoop()

	c.mu.Lock()
	for c.running > 0 {
		c.rcond.Wait()
	}
	c.closing = true
	c.wcond.Signal()
	c.mu.Unlock()
	c.wg.Wait()

	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
	nc.Close()
}

// readLoop decodes and admits commands until the connection ends.
func (c *conn) readLoop() {
	for {
		args, err := c.r.Next()
		if err != nil {
			if errors.Is(err, ErrProtocol) {
				sl := c.admit(cmdOther, nil)
				sl.sc.reply = AppendError(sl.sc.reply, "ERR "+err.Error())
				sl.quit = true
				c.complete(sl)
			}
			return
		}
		kind := c.classify(args[0])
		sl := c.admit(kind, args)
		if sl == nil {
			continue // handed to the workers
		}
		if kind == cmdOther {
			c.other(sl)
		} else {
			c.exec(sl)
		}
		quit := sl.quit
		c.complete(sl)
		if quit {
			return
		}
	}
}

// classify upper-cases the command name into c.name and returns its kind.
func (c *conn) classify(name []byte) cmdKind {
	c.name = upperInto(c.name, name)
	switch string(c.name) { // does not allocate
	case "GET":
		return cmdGet
	case "MGET":
		return cmdMGet
	case "SET":
		return cmdSet
	case "DEL":
		return cmdDel
	case "MSET":
		return cmdMSet
	}
	return cmdOther
}

// admit takes the slot at tail for a command, waiting while every slot is
// busy, and for cmdOther until every earlier command is done. It returns
// the slot when the command is to run on the reader, or nil when the
// command went to the workers (now, or once its conflicts finish).
func (c *conn) admit(kind cmdKind, args [][]byte) *slot {
	inline := kind == cmdOther || c.r.r.Buffered() == 0
	c.mu.Lock()
	for c.tail-c.head == pipelineDepth || (kind == cmdOther && c.running > 0) {
		c.rcond.Wait()
	}
	// running only falls while the reader waits or works, so a zero seen
	// here holds until the reader publishes the next command.
	inline = inline && c.running == 0
	sl := &c.ring[c.tail%pipelineDepth]
	sl.kind, sl.deps, sl.done = kind, 0, false
	sl.sc = scratchPool.Get().(*scratch)
	if inline {
		sl.cmd = args
		c.tail++
		c.running++
		c.mu.Unlock()
		return sl
	}
	c.mu.Unlock()

	sl.own(args)
	sl.hashKeys()

	c.mu.Lock()
	for i := c.head; i < c.tail; i++ {
		if o := &c.ring[i%pipelineDepth]; !o.done && sl.conflicts(o) {
			sl.deps |= o.bit
		}
	}
	c.tail++
	c.running++
	if sl.deps == 0 {
		c.dispatch(sl)
	}
	c.mu.Unlock()
	return nil
}

// dispatch hands a runnable command to a parked worker, or starts one when
// none is parked. Called with c.mu held.
func (c *conn) dispatch(sl *slot) {
	select {
	case c.s.work <- sl:
	default:
		c.s.workers.Add(1)
		go c.s.worker(sl)
	}
}

// complete marks sl's reply final, releases the commands that waited on it
// and wakes the writer and the reader.
func (c *conn) complete(sl *slot) {
	c.mu.Lock()
	sl.done = true
	c.running--
	for i := c.head; i < c.tail; i++ {
		if o := &c.ring[i%pipelineDepth]; o.deps&sl.bit != 0 {
			if o.deps &^= sl.bit; o.deps == 0 {
				c.dispatch(o)
			}
		}
	}
	c.wcond.Signal()
	if c.running == 0 {
		c.rcond.Signal()
	}
	c.mu.Unlock()
}

// writeLoop writes replies in command order until the reader is done and
// the ring is empty.
func (c *conn) writeLoop() {
	defer c.wg.Done()
	w := bufio.NewWriterSize(c.nc, 64<<10)
	dead := false // a write failed: w's error sticks, and it writes nothing more
	c.mu.Lock()
	for {
		sl := &c.ring[c.head%pipelineDepth]
		if c.head == c.tail || !sl.done {
			if c.head == c.tail && c.closing {
				break
			}
			if w.Buffered() > 0 && !dead {
				c.mu.Unlock()
				if dead = w.Flush() != nil; dead {
					c.nc.Close() // stops the reader
				}
				c.mu.Lock()
				continue
			}
			c.wcond.Wait()
			continue
		}
		c.mu.Unlock()
		w.Write(sl.sc.reply)
		sl.sc.release()
		sl.sc, sl.cmd, sl.quit = nil, nil, false
		c.mu.Lock()
		c.head++
		c.rcond.Signal()
	}
	c.mu.Unlock()
	w.Flush()
}

// upperInto upper-cases b into dst (grown as needed) without allocating in
// steady state.
func upperInto(dst, b []byte) []byte {
	dst = append(dst[:0], b...)
	for i, c := range dst {
		if 'a' <= c && c <= 'z' {
			dst[i] = c - ('a' - 'A')
		}
	}
	return dst
}

// exec runs one data command and encodes its reply into the slot.
func (c *conn) exec(sl *slot) {
	b, args, dst := c.s.b, sl.cmd, sl.sc.reply[:0]
	switch sl.kind {
	case cmdGet:
		if len(args) != 2 {
			dst = wrongArity(dst, "get")
			break
		}
		val, found, err := b.Get(args[1])
		switch {
		case err != nil:
			dst = AppendError(dst, "ERR "+err.Error())
		case !found:
			dst = AppendNil(dst)
		default:
			dst = AppendBulk(dst, val)
		}
	case cmdSet:
		// SET key value [EX ...|PX ...|NX|XX] — options are accepted and
		// ignored (the store has no TTLs), which keeps redis-benchmark and
		// memtier command lines working.
		if len(args) < 3 {
			dst = wrongArity(dst, "set")
		} else if err := b.Set(args[1], args[2]); err != nil {
			dst = AppendError(dst, "ERR "+err.Error())
		} else {
			dst = AppendSimple(dst, "OK")
		}
	case cmdDel:
		if len(args) < 2 {
			dst = wrongArity(dst, "del")
			break
		}
		n := int64(0)
		var err error
		for _, k := range args[1:] {
			var deleted bool
			if deleted, err = b.Del(k); err != nil {
				break
			}
			if deleted {
				n++
			}
		}
		if err != nil {
			dst = AppendError(dst, "ERR "+err.Error())
		} else {
			dst = AppendInt(dst, n)
		}
	case cmdMGet:
		if len(args) < 2 {
			dst = wrongArity(dst, "mget")
			break
		}
		m := &sl.sc.mget
		if err := b.MGet(args[1:], m); err != nil {
			dst = AppendError(dst, "ERR "+err.Error())
			break
		}
		dst = AppendArray(dst, len(args)-1)
		for i := range args[1:] {
			if i < len(m.Found) && m.Found[i] && i < len(m.Vals) {
				dst = AppendBulk(dst, m.Vals[i])
			} else {
				dst = AppendNil(dst)
			}
		}
	case cmdMSet:
		if len(args) < 3 || len(args)%2 != 1 {
			dst = wrongArity(dst, "mset")
			break
		}
		keys, vals := sl.sc.mkeys[:0], sl.sc.mvals[:0]
		for i := 1; i+1 < len(args); i += 2 {
			keys, vals = append(keys, args[i]), append(vals, args[i+1])
		}
		sl.sc.mkeys, sl.sc.mvals = keys, vals
		if err := b.MSet(keys, vals); err != nil {
			dst = AppendError(dst, "ERR "+err.Error())
		} else {
			dst = AppendSimple(dst, "OK")
		}
	}
	sl.sc.reply = dst
}

// other runs a command outside the five data commands, on the reader, with
// c.name holding its upper-cased name.
func (c *conn) other(sl *slot) {
	args, dst := sl.cmd, sl.sc.reply[:0]
	switch string(c.name) {
	case "PING":
		if len(args) >= 2 {
			dst = AppendBulk(dst, args[1])
		} else {
			dst = AppendSimple(dst, "PONG")
		}
	case "ECHO":
		if len(args) != 2 {
			dst = wrongArity(dst, "echo")
		} else {
			dst = AppendBulk(dst, args[1])
		}
	case "INFO":
		dst = AppendBulk(dst, []byte(c.s.b.Info()))
	case "CONFIG":
		// CONFIG GET answers benchmark-compatible stubs; everything else is
		// an acked no-op.
		if len(args) >= 3 && string(upperInto(nil, args[1])) == "GET" {
			dst = AppendArray(dst, 2)
			dst = AppendBulk(dst, args[2])
			switch string(upperInto(nil, args[2])) {
			case "MAXMEMORY":
				dst = AppendBulk(dst, []byte("0"))
			case "APPENDONLY":
				dst = AppendBulk(dst, []byte("no"))
			default: // "save" and friends
				dst = AppendBulk(dst, nil)
			}
		} else {
			dst = AppendSimple(dst, "OK")
		}
	case "SELECT":
		dst = AppendSimple(dst, "OK")
	case "COMMAND":
		dst = AppendArray(dst, 0)
	case "QUIT":
		dst = AppendSimple(dst, "OK")
		sl.quit = true
	default:
		dst = AppendError(dst, fmt.Sprintf("ERR unknown command '%s'", args[0]))
	}
	sl.sc.reply = dst
}

func wrongArity(dst []byte, cmd string) []byte {
	return AppendError(dst, fmt.Sprintf("ERR wrong number of arguments for '%s' command", cmd))
}
