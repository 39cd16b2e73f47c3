package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"c3/internal/kvstore"
	"c3/internal/resp"
)

// env is one booted, preloaded cluster with the client side attached.
type env struct {
	w        *workload
	ks       *keyspace
	orc      *oracle
	dataDir  string
	cluster  *kvstore.Cluster
	client   *kvstore.Client
	gateway  *resp.Server // RESP workloads only
	respAddr string
}

const preloadChunk = 256

// setUp boots the workload's cluster, writes sequence 1 of every key at ALL
// and reads every key back at the workload's level (the readable barrier).
// Its duration is the setup_s sample.
func setUp(w *workload, ks *keyspace, dataDir string) (*env, time.Duration, error) {
	start := time.Now()
	e := &env{w: w, ks: ks, orc: newOracle(ks), dataDir: dataDir}
	if err := e.boot(); err != nil {
		return nil, 0, err
	}
	if err := e.preload(); err != nil {
		e.close()
		return nil, 0, err
	}
	return e, time.Since(start), nil
}

func (e *env) boot() error {
	var err error
	if e.cluster, err = kvstore.StartCluster(e.w.Nodes, e.w.config(e.dataDir)); err != nil {
		return fmt.Errorf("start cluster: %w", err)
	}
	if e.client, err = kvstore.Dial(e.cluster.Addrs()); err != nil {
		return err
	}
	if e.w.RESP {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		e.respAddr = ln.Addr().String()
		e.gateway = resp.NewServer(e.cluster.Nodes[0].RESPBackend(e.w.Level))
		go e.gateway.Serve(ln) // returns when close() closes the server
	}
	return nil
}

func (e *env) preload() error {
	n := len(e.ks.names)
	for lo := 0; lo < n; lo += preloadChunk {
		hi := min(lo+preloadChunk, n)
		vals := make([][]byte, 0, hi-lo)
		for k := lo; k < hi; k++ {
			_, seq := e.orc.lockWrite(int32(k), false)
			vals = append(vals, e.ks.appendValue(nil, int32(k), seq))
		}
		oks, err := e.client.MultiPutAt(e.ks.names[lo:hi], vals, kvstore.All)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		for i, ok := range oks {
			if !ok {
				return fmt.Errorf("preload: %s not acknowledged", e.ks.names[lo+i])
			}
			e.orc.ackWrite(int32(lo+i), 1, false)
		}
	}
	if bad := e.readBack(); bad != 0 {
		return fmt.Errorf("readable barrier: %d of %d keys did not read back", bad, n)
	}
	return nil
}

// readBack reads every key at the workload's level and counts the keys whose
// reply is not the last acknowledged write (or newer).
func (e *env) readBack() (bad int) {
	n := len(e.ks.names)
	for lo := 0; lo < n; lo += preloadChunk {
		hi := min(lo+preloadChunk, n)
		vals, found, err := e.client.MultiGetAt(e.ks.names[lo:hi], e.w.Level)
		if err != nil {
			return n
		}
		for i := range vals {
			k := int32(lo + i)
			if e.orc.judge(k, e.orc.floor(k), vals[i], found[i]) != readOK {
				bad++
			}
		}
	}
	return bad
}

// crashAndRecover kills every node without a flush, reopens the cluster
// from its data directory and reads every key back. It reports the reopen
// time and the number of acknowledged writes that did not survive.
func (e *env) crashAndRecover() (recover time.Duration, lost int, err error) {
	for _, n := range e.cluster.Nodes {
		n.Crash()
	}
	e.client.Close()
	start := time.Now()
	if e.cluster, err = kvstore.StartCluster(e.w.Nodes, e.w.config(e.dataDir)); err != nil {
		return 0, 0, fmt.Errorf("reopen after crash: %w", err)
	}
	recover = time.Since(start)
	if e.client, err = kvstore.Dial(e.cluster.Addrs()); err != nil {
		return recover, 0, err
	}
	return recover, e.readBack(), nil
}

func (e *env) close() {
	if e.gateway != nil {
		e.gateway.Close()
	}
	if e.client != nil {
		e.client.Close()
	}
	if e.cluster != nil {
		e.cluster.Close()
	}
	os.RemoveAll(e.dataDir)
}

// outstandingResidual sums every coordinator's in-flight accounting toward
// every peer; a quiescent cluster must report zero.
func (e *env) outstandingResidual() float64 {
	total := 0.0
	for _, n := range e.cluster.Nodes {
		for p := range e.cluster.Nodes {
			total += n.OutstandingToward(p)
		}
	}
	return total
}

// quiesce waits (bounded) for the accounting to drain.
func (e *env) quiesce() {
	deadline := time.Now().Add(2 * time.Second)
	for e.outstandingResidual() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
}

// dirBytes is the size of every regular file under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}
