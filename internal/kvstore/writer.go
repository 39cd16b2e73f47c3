package kvstore

import (
	"errors"
	"net"
	"runtime"
	"sync"

	"c3/internal/wire"
)

// bufRetainCap bounds the capacity of buffers returned to the pool; one huge
// value must not permanently inflate pooled memory. It is twice the frame
// buffer a wire.Reader keeps: a write's pooled copy carries its keys beside
// its values, so a batch whose values fill wire.MaxRetainedBuffer must still
// fit, and a batch frame or batch-read response of that size is reused
// rather than reallocated on every request.
const bufRetainCap = 2 * wire.MaxRetainedBuffer

// bufPool recycles encoded-frame and value-staging buffers across
// connections and requests. Buffers travel as *[]byte so re-pooling does not
// re-box the slice header.
var bufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if b == nil || cap(*b) > bufRetainCap {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

var errWriterClosed = errors.New("kvstore: connection writer closed")

// connWriter owns the send half of one TCP connection. Handlers enqueue
// pre-encoded frames (pooled buffers built with wire.Append*); a single
// writer goroutine drains the queue, buffering every queued frame and
// flushing only once nothing is left to coalesce — under load many frames
// share one write syscall, the same outbound-socket coalescing Cassandra
// applies on its request path (§4).
type connWriter struct {
	conn net.Conn
	w    *wire.Writer

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*[]byte // frames awaiting the writer goroutine
	spare  []*[]byte // drained batch, swapped back in to avoid reallocating
	err    error     // first write error; sticky
	closed bool

	done chan struct{} // closed when loop exits
}

// newConnWriter wraps conn. The caller must start loop in a goroutine (kept
// explicit so servers can account it in their WaitGroups).
func newConnWriter(conn net.Conn) *connWriter {
	cw := &connWriter{conn: conn, w: wire.NewWriter(conn), done: make(chan struct{})}
	cw.cond = sync.NewCond(&cw.mu)
	return cw
}

// enqueue hands a pooled frame to the writer goroutine, which assumes
// ownership. On failure the frame is recycled here and the connection's
// write error is returned.
func (cw *connWriter) enqueue(frame *[]byte) error {
	cw.mu.Lock()
	if cw.err != nil || cw.closed {
		err := cw.err
		cw.mu.Unlock()
		putBuf(frame)
		if err == nil {
			err = errWriterClosed
		}
		return err
	}
	cw.queue = append(cw.queue, frame)
	cw.mu.Unlock()
	cw.cond.Signal()
	return nil
}

// loop is the writer goroutine body: write every queued frame, and flush
// only when the queue has gone empty — one flush covers every frame that
// arrived during the previous write. On a write error it severs the
// connection (unblocking the read side) and discards further frames.
func (cw *connWriter) loop() {
	defer close(cw.done)
	yielded := false
	cw.mu.Lock()
	for {
		for len(cw.queue) == 0 && cw.err == nil && !cw.closed {
			cw.cond.Wait()
		}
		if cw.err != nil || (cw.closed && len(cw.queue) == 0) {
			for i, f := range cw.queue {
				putBuf(f)
				cw.queue[i] = nil
			}
			cw.queue = cw.queue[:0]
			cw.mu.Unlock()
			return
		}
		batch := cw.queue
		cw.queue = cw.spare[:0]
		cw.mu.Unlock()

		var err error
		for i, f := range batch {
			if err == nil {
				err = cw.w.WriteRaw(*f)
			}
			putBuf(f)
			batch[i] = nil
		}

		cw.mu.Lock()
		cw.spare = batch[:0]
		if err != nil {
			cw.fail(err)
			continue
		}
		if len(cw.queue) != 0 || cw.w.Buffered() == 0 {
			continue // more to coalesce before paying the flush
		}
		if !yielded {
			// Yield once before paying the flush syscall: a runnable
			// handler about to enqueue gets to run now and its frame joins
			// this flush. On a saturated box this folds many responses into
			// one write(); idle, the yield returns immediately. Bounded to
			// one yield per flush so a steady producer stream cannot
			// postpone the flush indefinitely.
			yielded = true
			cw.mu.Unlock()
			runtime.Gosched()
			cw.mu.Lock()
			if len(cw.queue) != 0 {
				continue // the yield produced more frames: write them first
			}
		}
		cw.mu.Unlock()
		err = cw.w.Flush()
		yielded = false
		cw.mu.Lock()
		if err != nil {
			cw.fail(err)
		}
	}
}

// fail records the first write error and severs the connection so the read
// side unblocks. Callers hold cw.mu.
func (cw *connWriter) fail(err error) {
	if cw.err == nil {
		cw.err = err
		cw.conn.Close()
	}
}

// sever records err and severs the connection from outside the writer loop.
// Handlers use it when a response cannot be encoded at all (e.g. a batch
// whose values overflow wire.MaxFrame): silently dropping the response would
// leave the peer's pooled call waiting forever, while severing fails it
// fast through the connection-death path.
func (cw *connWriter) sever(err error) {
	cw.mu.Lock()
	cw.fail(err)
	cw.mu.Unlock()
}

// close stops the writer goroutine after it drains already-queued frames and
// waits for it to exit. Safe to call more than once and concurrently.
func (cw *connWriter) close() {
	cw.mu.Lock()
	cw.closed = true
	cw.mu.Unlock()
	cw.cond.Broadcast()
	<-cw.done
}
