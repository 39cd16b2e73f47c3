package resp

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
)

func readAll(t *testing.T, input string) ([][][]byte, error) {
	t.Helper()
	r := NewReader(strings.NewReader(input))
	var cmds [][][]byte
	for {
		args, err := r.Next()
		if err == io.EOF {
			return cmds, nil
		}
		if err != nil {
			return cmds, err
		}
		cp := make([][]byte, len(args))
		for i, a := range args {
			cp[i] = append([]byte(nil), a...)
		}
		cmds = append(cmds, cp)
	}
}

func TestReaderMultibulk(t *testing.T) {
	cmds, err := readAll(t, "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$0\r\n\r\n*1\r\n$4\r\nPING\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 2 {
		t.Fatalf("commands = %d, want 2", len(cmds))
	}
	if string(cmds[0][0]) != "SET" || string(cmds[0][1]) != "k" || len(cmds[0][2]) != 0 {
		t.Fatalf("cmd 0 = %q", cmds[0])
	}
	if string(cmds[1][0]) != "PING" {
		t.Fatalf("cmd 1 = %q", cmds[1])
	}
}

func TestReaderBinaryBulk(t *testing.T) {
	// Bulk payloads are length-prefixed: CR, LF, and NUL inside are data.
	cmds, err := readAll(t, "*2\r\n$3\r\nGET\r\n$5\r\na\r\n\x00b\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if string(cmds[0][1]) != "a\r\n\x00b" {
		t.Fatalf("arg = %q", cmds[0][1])
	}
}

func TestReaderInline(t *testing.T) {
	r := NewReader(strings.NewReader("PING\r\n  GET   key1  \r\n"))
	args, err := r.Next()
	if err != nil || !r.Inline() {
		t.Fatalf("err=%v inline=%v", err, r.Inline())
	}
	if len(args) != 1 || string(args[0]) != "PING" {
		t.Fatalf("args = %q", args)
	}
	args, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 2 || string(args[0]) != "GET" || string(args[1]) != "key1" {
		t.Fatalf("args = %q", args)
	}
}

func TestReaderProtocolErrors(t *testing.T) {
	cases := []string{
		"*0\r\n",                // empty multibulk
		"*-1\r\n",               // null multibulk as a command
		"*01\r\n$4\r\nPING\r\n", // non-canonical count
		"*1\r\n$04\r\nPING\r\n", // non-canonical bulk length
		"*1\r\n$+4\r\nPING\r\n", // signed length
		"*1\r\n:4\r\nPING\r\n",  // wrong header type
		"*1\r\n$4\r\nPINGX\n",   // missing CR in trailer
		"*1\r\n$3\r\nPING\r\n",  // bulk longer than declared
		"\r\n",                  // empty command line
		"*1\n$4\r\nPING\r\n",    // LF-only line terminator
		"*99999999999\r\n",      // count overflows the 10-digit bound
	}
	for _, in := range cases {
		if _, err := readAll(t, in); !errors.Is(err, ErrProtocol) {
			t.Errorf("input %q: err = %v, want ErrProtocol", in, err)
		}
	}
}

func TestReaderTruncatedCommand(t *testing.T) {
	for _, in := range []string{"*2\r\n$3\r\nGET\r\n", "*1\r\n$4\r\nPI"} {
		if _, err := readAll(t, in); err != io.ErrUnexpectedEOF {
			t.Errorf("input %q: err = %v, want ErrUnexpectedEOF", in, err)
		}
	}
}

func TestDecodeReencodeBitExact(t *testing.T) {
	in := []byte("*3\r\n$4\r\nMGET\r\n$1\r\na\r\n$0\r\n\r\n")
	r := NewReader(bytes.NewReader(in))
	args, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendCommand(nil, args); !bytes.Equal(got, in) {
		t.Fatalf("re-encode = %q, want %q", got, in)
	}
}

// TestNilVsEmptyReplies pins the miss-vs-empty wire encoding: nil and empty
// values both encode as $0 via AppendBulk, and only AppendNil produces $-1.
func TestNilVsEmptyReplies(t *testing.T) {
	if got := string(AppendBulk(nil, nil)); got != "$0\r\n\r\n" {
		t.Errorf("AppendBulk(nil) = %q", got)
	}
	if got := string(AppendBulk(nil, []byte{})); got != "$0\r\n\r\n" {
		t.Errorf("AppendBulk(empty) = %q", got)
	}
	if got := string(AppendNil(nil)); got != "$-1\r\n" {
		t.Errorf("AppendNil = %q", got)
	}
	// And the client decoder keeps them distinct.
	r, err := ReadReply(bufio.NewReader(strings.NewReader("$0\r\n\r\n")))
	if err != nil || r.IsNil || r.Str != "" {
		t.Errorf("$0 decoded as %+v, err %v", r, err)
	}
	r, err = ReadReply(bufio.NewReader(strings.NewReader("$-1\r\n")))
	if err != nil || !r.IsNil {
		t.Errorf("$-1 decoded as %+v, err %v", r, err)
	}
}

// fakeBackend is an in-memory Backend for server dispatch tests.
type fakeBackend struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newFakeBackend() *fakeBackend { return &fakeBackend{m: make(map[string][]byte)} }

func (f *fakeBackend) Get(key []byte) ([]byte, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.m[string(key)]
	if !ok {
		return nil, false, nil
	}
	return append([]byte{}, v...), true, nil
}

func (f *fakeBackend) Set(key, val []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.m[string(key)] = append([]byte(nil), val...)
	return nil
}

func (f *fakeBackend) Del(key []byte) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.m[string(key)]
	delete(f.m, string(key))
	return ok, nil
}

func (f *fakeBackend) MGet(keys [][]byte, into *MGetReply) error {
	into.Vals, into.Found = into.Vals[:0], into.Found[:0]
	for _, k := range keys {
		v, ok, _ := f.Get(k)
		into.Vals, into.Found = append(into.Vals, v), append(into.Found, ok)
	}
	return nil
}

func (f *fakeBackend) MSet(keys, vals [][]byte) error {
	for i := range keys {
		f.Set(keys[i], vals[i])
	}
	return nil
}

func (f *fakeBackend) Info() string { return "role:test\r\n" }

func startTestServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer(newFakeBackend())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(s.Close)
	return s, ln.Addr().String()
}

func TestServerCommands(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := DialClient(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	check := func(want Reply, args ...string) {
		t.Helper()
		got, err := c.Do(args...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if got.Kind != want.Kind || got.IsNil != want.IsNil || got.Str != want.Str || got.Int != want.Int {
			t.Fatalf("%v = %+v, want %+v", args, got, want)
		}
	}

	check(Reply{Kind: '+', Str: "PONG"}, "PING")
	check(Reply{Kind: '$', Str: "hello"}, "ECHO", "hello")
	// Miss vs empty: GET of a missing key is nil, of an empty value is "".
	check(Reply{Kind: '$', IsNil: true}, "GET", "nope")
	check(Reply{Kind: '+', Str: "OK"}, "SET", "empty", "")
	check(Reply{Kind: '$', Str: ""}, "GET", "empty")
	check(Reply{Kind: '+', Str: "OK"}, "SET", "k", "v")
	check(Reply{Kind: '$', Str: "v"}, "GET", "k")
	// SET options are accepted and ignored.
	check(Reply{Kind: '+', Str: "OK"}, "SET", "k", "v2", "EX", "100")
	check(Reply{Kind: '$', Str: "v2"}, "GET", "k")
	check(Reply{Kind: ':', Int: 1}, "DEL", "k", "nope")
	check(Reply{Kind: '$', IsNil: true}, "GET", "k")
	check(Reply{Kind: '+', Str: "OK"}, "MSET", "a", "1", "b", "")
	mr, err := c.Do("MGET", "a", "b", "missing")
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.Elems) != 3 {
		t.Fatalf("MGET elems = %d", len(mr.Elems))
	}
	if mr.Elems[0].Str != "1" || mr.Elems[0].IsNil {
		t.Fatalf("MGET[0] = %+v", mr.Elems[0])
	}
	if mr.Elems[1].Str != "" || mr.Elems[1].IsNil {
		t.Fatalf("MGET[1] = %+v (empty value must not be nil)", mr.Elems[1])
	}
	if !mr.Elems[2].IsNil {
		t.Fatalf("MGET[2] = %+v (missing key must be nil)", mr.Elems[2])
	}
	// Benchmark-compat stubs.
	cr, err := c.Do("CONFIG", "GET", "maxmemory")
	if err != nil || len(cr.Elems) != 2 || cr.Elems[1].Str != "0" {
		t.Fatalf("CONFIG GET maxmemory = %+v, err %v", cr, err)
	}
	check(Reply{Kind: '+', Str: "OK"}, "SELECT", "0")
	ir, err := c.Do("INFO")
	if err != nil || ir.Kind != '$' || ir.Str == "" {
		t.Fatalf("INFO = %+v, err %v", ir, err)
	}
	er, err := c.Do("FLUSHALL")
	if err != nil || er.Kind != '-' || !strings.Contains(er.Str, "unknown command") {
		t.Fatalf("FLUSHALL = %+v, err %v", er, err)
	}
	check(Reply{Kind: '-', Str: "ERR wrong number of arguments for 'get' command"}, "GET")
}

func TestServerPipelining(t *testing.T) {
	_, addr := startTestServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var req []byte
	const nreq = 200
	for i := 0; i < nreq; i++ {
		req = AppendCommand(req, [][]byte{[]byte("SET"), []byte("k"), []byte("v")})
	}
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i := 0; i < nreq; i++ {
		r, err := ReadReply(br)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if r.Kind != '+' || r.Str != "OK" {
			t.Fatalf("reply %d = %+v", i, r)
		}
	}
}

func TestServerProtocolErrorCloses(t *testing.T) {
	_, addr := startTestServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("*bogus\r\n")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	r, err := ReadReply(br)
	if err != nil || r.Kind != '-' {
		t.Fatalf("reply = %+v, err %v, want -ERR", r, err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection still open after protocol error: %v", err)
	}
}

func TestServerQuit(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := DialClient(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Do("QUIT")
	if err != nil || r.Str != "OK" {
		t.Fatalf("QUIT = %+v, err %v", r, err)
	}
	if _, err := c.Do("PING"); err == nil {
		t.Fatal("connection survived QUIT")
	}
}

func TestServerInlineCommands(t *testing.T) {
	_, addr := startTestServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("SET ik iv\r\nGET ik\r\n")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if r, err := ReadReply(br); err != nil || r.Str != "OK" {
		t.Fatalf("inline SET = %+v, err %v", r, err)
	}
	if r, err := ReadReply(br); err != nil || r.Str != "iv" {
		t.Fatalf("inline GET = %+v, err %v", r, err)
	}
}
