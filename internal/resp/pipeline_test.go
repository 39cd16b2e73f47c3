package resp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// slowBackend delays fakeBackend's calls: a pipelined command that started
// before an earlier one finished would overtake it.
type slowBackend struct {
	*fakeBackend
	read, write time.Duration
}

func (s slowBackend) Get(key []byte) ([]byte, bool, error) {
	time.Sleep(s.read)
	return s.fakeBackend.Get(key)
}

func (s slowBackend) MGet(keys [][]byte, into *MGetReply) error {
	time.Sleep(s.read)
	return s.fakeBackend.MGet(keys, into)
}

func (s slowBackend) Set(key, val []byte) error {
	time.Sleep(s.write)
	return s.fakeBackend.Set(key, val)
}

func (s slowBackend) Del(key []byte) (bool, error) {
	time.Sleep(s.write)
	return s.fakeBackend.Del(key)
}

func (s slowBackend) MSet(keys, vals [][]byte) error {
	time.Sleep(s.write)
	return s.fakeBackend.MSet(keys, vals)
}

// serve starts a Server fronting b and returns a raw connection to it.
func serve(t *testing.T, b Backend) net.Conn {
	t.Helper()
	s := NewServer(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(s.Close)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn
}

// pipeline encodes every command into one buffer.
func pipeline(cmds ...[]string) []byte {
	var b []byte
	for _, c := range cmds {
		args := make([][]byte, len(c))
		for i, a := range c {
			args[i] = []byte(a)
		}
		b = AppendCommand(b, args)
	}
	return b
}

func cmd(args ...string) []string { return args }

// render flattens a reply for comparison: a bulk as its string, nil as
// "(nil)", an array as its elements in brackets.
func render(r Reply) string {
	switch {
	case r.IsNil:
		return "(nil)"
	case r.Kind == ':':
		return string(rune('0' + r.Int))
	case r.Kind == '*':
		s := "["
		for i, e := range r.Elems {
			if i > 0 {
				s += " "
			}
			s += render(e)
		}
		return s + "]"
	}
	return r.Str
}

func expectReplies(t *testing.T, br *bufio.Reader, want ...string) {
	t.Helper()
	for i, w := range want {
		r, err := ReadReply(br)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if got := render(r); got != w {
			t.Fatalf("reply %d = %q, want %q", i, got, w)
		}
	}
}

// One write carries reads and writes of the same key. Writes are slow, so a
// read that started before the write it follows had finished would see the
// old value: the replies show each command ran after every earlier
// conflicting one, and arrive in command order.
func TestPipelineOrdersConflictingCommands(t *testing.T) {
	conn := serve(t, slowBackend{fakeBackend: newFakeBackend(), write: 5 * time.Millisecond})
	req := pipeline(
		cmd("SET", "k", "a"),
		cmd("GET", "other"),
		cmd("GET", "k"),
		cmd("SET", "k", "b"),
		cmd("GET", "k"),
		cmd("DEL", "k"),
		cmd("GET", "k"),
		cmd("MSET", "k", "z", "x", "1", "k", "c"), // a key named twice takes its last value
		cmd("GET", "k"),
		cmd("MGET", "x", "k", "other"),
		cmd("DEL", "x", "k"),
		cmd("MGET", "x", "k"),
	)
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	expectReplies(t, bufio.NewReader(conn),
		"OK", "(nil)", "a", "OK", "b", "1", "(nil)", "OK", "c", "[1 c (nil)]", "2", "[(nil) (nil)]")
}

// Commands larger than a slot keeps between uses (retainCap) still round
// trip, and the slot's next, small command reuses it correctly.
func TestPipelineLargeValues(t *testing.T) {
	conn := serve(t, newFakeBackend())
	big := strings.Repeat("x", 3*retainCap)
	var cmds [][]string
	var want []string
	for i := 0; i < 2*pipelineDepth; i++ {
		k := fmt.Sprint("k", i)
		cmds = append(cmds, cmd("SET", k, big), cmd("MGET", k, "missing"), cmd("SET", k, "small"), cmd("GET", k))
		want = append(want, "OK", "["+big+" (nil)]", "OK", "small")
	}
	go conn.Write(pipeline(cmds...))
	expectReplies(t, bufio.NewReader(conn), want...)
}

// jitterBackend delays each of fakeBackend's calls by up to 300µs, so
// concurrent commands finish in a shuffled order.
type jitterBackend struct{ *fakeBackend }

func jitter() { time.Sleep(time.Duration(rand.IntN(300)) * time.Microsecond) }

func (j jitterBackend) Get(key []byte) ([]byte, bool, error) { jitter(); return j.fakeBackend.Get(key) }
func (j jitterBackend) Set(key, val []byte) error            { jitter(); return j.fakeBackend.Set(key, val) }
func (j jitterBackend) Del(key []byte) (bool, error)         { jitter(); return j.fakeBackend.Del(key) }
func (j jitterBackend) MSet(keys, vals [][]byte) error {
	jitter()
	return j.fakeBackend.MSet(keys, vals)
}

func (j jitterBackend) MGet(keys [][]byte, into *MGetReply) error {
	jitter()
	return j.fakeBackend.MGet(keys, into)
}

// Seeded streams of every data command over six keys, each sent as one
// pipelined write: the replies match a model that runs the commands one at
// a time, whatever order the backend finishes them in.
func TestPipelineMatchesSerialModel(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		model := map[string]string{}
		key := func() string { return fmt.Sprintf("k%d", rng.IntN(6)) }
		get := func(k string) string {
			if v, ok := model[k]; ok {
				return v
			}
			return "(nil)"
		}
		var cmds [][]string
		var want []string
		for i := 0; i < 200; i++ {
			switch op := rng.IntN(10); {
			case op < 3:
				k, v := key(), fmt.Sprintf("v%d", i)
				cmds, want = append(cmds, cmd("SET", k, v)), append(want, "OK")
				model[k] = v
			case op < 6:
				k := key()
				cmds, want = append(cmds, cmd("GET", k)), append(want, get(k))
			case op < 7:
				k := key()
				_, existed := model[k]
				delete(model, k)
				cmds, want = append(cmds, cmd("DEL", k)), append(want, map[bool]string{false: "0", true: "1"}[existed])
			case op < 8:
				c := cmd("MSET")
				for j := 0; j < 3; j++ {
					k, v := key(), fmt.Sprintf("m%d.%d", i, j)
					c = append(c, k, v)
					model[k] = v
				}
				cmds, want = append(cmds, c), append(want, "OK")
			default:
				c, vals := cmd("MGET"), []string(nil)
				for j := 0; j < 3; j++ {
					k := key()
					c, vals = append(c, k), append(vals, get(k))
				}
				cmds, want = append(cmds, c), append(want, "["+strings.Join(vals, " ")+"]")
			}
		}
		conn := serve(t, jitterBackend{newFakeBackend()})
		go conn.Write(pipeline(cmds...)) // the server pushes back once 16 are in flight
		expectReplies(t, bufio.NewReader(conn), want...)
	}
}

// gateBackend's Get blocks until want calls are in flight at once, or
// fails after a timeout.
type gateBackend struct {
	*fakeBackend
	want     int32
	inflight atomic.Int32
	open     chan struct{}
	once     sync.Once
}

var errGateTimeout = errors.New("gate: calls never overlapped")

func (g *gateBackend) Get(key []byte) ([]byte, bool, error) {
	if g.inflight.Add(1) == g.want {
		g.once.Do(func() { close(g.open) })
	}
	defer g.inflight.Add(-1)
	select {
	case <-g.open:
		return g.fakeBackend.Get(key)
	case <-time.After(5 * time.Second):
		return nil, false, errGateTimeout
	}
}

// Eight pipelined GETs of distinct keys run at once: the backend answers
// none of them until all eight are in flight.
func TestPipelineRunsCommandsConcurrently(t *testing.T) {
	const n = 8
	g := &gateBackend{fakeBackend: newFakeBackend(), want: n, open: make(chan struct{})}
	var cmds [][]string
	var want []string
	for i := 0; i < n; i++ {
		k := string(rune('a' + i))
		g.fakeBackend.Set([]byte(k), []byte("v"+k))
		cmds = append(cmds, cmd("GET", k))
		want = append(want, "v"+k)
	}
	conn := serve(t, g)
	if _, err := conn.Write(pipeline(cmds...)); err != nil {
		t.Fatal(err)
	}
	expectReplies(t, bufio.NewReader(conn), want...)
}

// QUIT and a protocol error that follow slow pipelined commands close the
// connection only after every earlier reply, in order.
func TestPipelineQuitAndProtocolErrorDeliverEarlierReplies(t *testing.T) {
	fb := newFakeBackend()
	fb.Set([]byte("a"), []byte("1"))
	fb.Set([]byte("b"), []byte("2"))
	slow := slowBackend{fakeBackend: fb, read: 20 * time.Millisecond, write: 20 * time.Millisecond}
	for _, tc := range []struct {
		name string
		tail []byte
		last string
	}{
		{"quit", pipeline(cmd("QUIT"), cmd("GET", "a")), "OK"},
		{"protocol error", []byte("*bogus\r\n"), "ERR " + ErrProtocol.Error() + `: bad length "bogus"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn := serve(t, slow)
			req := pipeline(cmd("GET", "a"), cmd("SET", "c", "3"), cmd("MGET", "a", "b"), cmd("GET", "c"))
			if _, err := conn.Write(append(req, tc.tail...)); err != nil {
				t.Fatal(err)
			}
			br := bufio.NewReader(conn)
			expectReplies(t, br, "1", "OK", "[1 2]", "3", tc.last)
			if _, err := br.ReadByte(); err != io.EOF {
				t.Fatalf("connection still open after the last reply: %v", err)
			}
		})
	}
}

// capBackend refuses batches over 4096 keys, as the kvstore gateway does.
type capBackend struct{ *fakeBackend }

var errBatchTooLarge = errors.New("batch exceeds 4096 keys")

func (c capBackend) MGet(keys [][]byte, into *MGetReply) error {
	if len(keys) > 4096 {
		return errBatchTooLarge
	}
	return c.fakeBackend.MGet(keys, into)
}

func (c capBackend) MSet(keys, vals [][]byte) error {
	if len(keys) > 4096 {
		return errBatchTooLarge
	}
	return c.fakeBackend.MSet(keys, vals)
}

// A pipeline of the largest MSETs and MGETs a command can carry, each
// sharing no key with the others, is answered quickly: the server's work
// before the backend refuses them — copying, hashing, the conflict checks
// against every earlier command — grows with the key count, not with its
// square.
func TestPipelineOversizedBatchesAnswerQuickly(t *testing.T) {
	conn := serve(t, capBackend{newFakeBackend()})
	const pairs = (MaxArgs - 1) / 2
	var req []byte
	var want []string
	args := make([][]byte, 0, MaxArgs)
	for c := 0; c < 8; c++ {
		args = append(args[:0], []byte("MSET"))
		if c%2 == 1 {
			args[0] = []byte("MGET")
		}
		for i := 0; i < pairs; i++ {
			args = append(args, fmt.Appendf(nil, "k%d.%d", c, i))
			if c%2 == 0 {
				args = append(args, []byte("v"))
			}
		}
		req = AppendCommand(req, args)
		want = append(want, "ERR "+errBatchTooLarge.Error())
	}
	req = AppendCommand(req, [][]byte{[]byte("MSET"), []byte("k"), []byte("v")})
	want = append(want, "OK")
	start := time.Now()
	go conn.Write(req)
	expectReplies(t, bufio.NewReader(conn), want...)
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("oversized batches took %v to answer", d)
	}
}

// constBackend answers every read with one value and acks every write,
// allocating nothing.
type constBackend struct{ val []byte }

func (c constBackend) Get([]byte) ([]byte, bool, error) { return c.val, true, nil }
func (c constBackend) Set(_, _ []byte) error            { return nil }
func (c constBackend) Del([]byte) (bool, error)         { return true, nil }
func (c constBackend) MSet(_, _ [][]byte) error         { return nil }
func (c constBackend) Info() string                     { return "" }

func (c constBackend) MGet(keys [][]byte, into *MGetReply) error {
	into.Vals, into.Found = into.Vals[:0], into.Found[:0]
	for range keys {
		into.Vals, into.Found = append(into.Vals, c.val), append(into.Found, true)
	}
	return nil
}

// Pipelined GET, MGET and MSET allocate nothing per command in the server:
// slots, argument arenas, reply buffers and the MGET/MSET scratch are reused.
func TestPipelineAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on goroutine handoffs")
	}
	val := bytes.Repeat([]byte("v"), 256)
	conn := serve(t, constBackend{val: val})
	conn.SetDeadline(time.Time{})
	var cmds [][]string
	var want []byte
	for i := 0; i < 16; i++ {
		k := string(rune('a' + i))
		cmds = append(cmds, cmd("GET", k), cmd("MGET", k, "x", "y", "z"), cmd("MSET", k, "1", "x", "2"))
		want = AppendBulk(want, val)
		want = AppendArray(want, 4)
		for j := 0; j < 4; j++ {
			want = AppendBulk(want, val)
		}
		want = AppendSimple(want, "OK")
	}
	req := pipeline(cmds...)
	got := make([]byte, len(want))
	var failed error
	run := func() {
		if _, err := conn.Write(req); err != nil {
			failed = err
			return
		}
		if _, err := io.ReadFull(conn, got); err != nil {
			failed = err
		}
	}
	testing.AllocsPerRun(20, run) // start the connection's workers
	allocs := testing.AllocsPerRun(100, run)
	if failed != nil {
		t.Fatal(failed)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("replies = %q, want %q", got, want)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per pipeline of %d commands, want 0", allocs, len(cmds))
	}
}
