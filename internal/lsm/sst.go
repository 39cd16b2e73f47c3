package lsm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"unsafe"
)

// SST file layout (little-endian):
//
//	data:   repeated [klen u32][key][vflag u32][value]
//	index:  [count u32] repeated [klen u32][key][off u64][vflag u32]
//	bloom:  [m u64][k u32][nwords u32][nwords × u64]
//	footer: [indexOff u64][bloomOff u64][dataCRC u32][metaCRC u32][magic u64]
//
// vflag carries the value length in its low 31 bits; bit 31 marks a
// tombstone (which stores no value bytes). off is the file offset of the
// value bytes. dataCRC covers the data section, metaCRC covers index+bloom.
// The file is written to a .tmp name, fsynced, atomically renamed into
// place, and the directory fsynced — a crash mid-write leaves only a .tmp
// orphan that Open deletes.

const (
	sstMagic     = uint64(0xc3d1_57ab_1e55_0001)
	sstFooterLen = 8 + 8 + 4 + 4 + 8
	tombstoneBit = uint32(1) << 31

	// sstCacheCap bounds the per-run retained data section: runs up to this
	// size serve reads from memory (the file is the recovery copy), larger
	// ones read through the file. Bounded by 2×MaxRuns × sstCacheCap overall
	// (plus the output a compaction is building), since flushes wait for the
	// compaction in flight before stacking runs beyond 2×MaxRuns.
	sstCacheCap = 16 << 20
)

// sstWriter builds one run from records fed to add in ascending key order —
// the memtable's sorted keys at flush, the merge's output at compaction. With
// a directory it streams SST file num there and finish installs it; without
// one it assembles an in-memory run that keeps the fed value slices
// themselves. Either way it copies every key into the run's own key arena,
// so the run pins neither the memtable generation nor the runs it was built
// from. A nil value is a tombstone.
type sstWriter struct {
	r              *run
	dir, path, tmp string
	f              *os.File // nil: in-memory run
	bw             *bufio.Writer
	off            int64
	dataCRC        uint32
	cache          []byte // the data section, retained while it fits sstCacheCap
	keys           []byte // key arena chunk being filled; each chunk is keyChunk long
	keyChunk       int
	scratch        []byte // record header; starts on hdr, grows only for long keys
	hdr            [64]byte
	err            error // sticky write error, reported by finish
}

// newSSTWriter starts a run of at most n records totalling at most bytes of
// key and value payload — the bounds presize the key columns, the Bloom
// filter and the data cache, so a compaction's output never regrows them.
// kbytes sizes the key arena's chunks: a flush passes its exact key bytes, a
// compaction its largest input's, so an output holding more keys than any
// input takes one more chunk per input's worth.
func newSSTWriter(dir string, num uint64, n, bytes, kbytes int) (*sstWriter, error) {
	w := &sstWriter{dir: dir, keyChunk: kbytes, r: &run{keys: make([]string, 0, n), bloom: NewBloom(n), num: num}}
	if dir == "" {
		w.r.vals = make([][]byte, 0, n)
		return w, nil
	}
	w.path = filepath.Join(dir, sstName(num))
	w.tmp = w.path + ".tmp"
	f, err := os.OpenFile(w.tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	w.f, w.bw = f, bufio.NewWriterSize(f, 1<<16)
	w.scratch = w.hdr[:0]
	w.r.offs = make([]int64, 0, n)
	w.r.vlens = make([]uint32, 0, n)
	w.cache = make([]byte, 0, min(bytes+8*n, sstCacheCap)) // 8: klen + vflag
	return w, nil
}

// add appends one record; its key must sort after every key added before.
// The key is copied; v is kept by an in-memory run.
func (w *sstWriter) add(key string, v []byte) {
	r := w.r
	r.keys = append(r.keys, w.ownKey(key))
	r.bloom.Add(key)
	r.bytes += len(key) + len(v)
	r.kbytes += len(key)
	if w.f == nil {
		r.vals = append(r.vals, v)
		return
	}
	vflag := uint32(len(v))
	if v == nil {
		vflag = tombstoneBit
	}
	w.scratch = binary.LittleEndian.AppendUint32(w.scratch[:0], uint32(len(key)))
	w.scratch = append(w.scratch, key...)
	w.scratch = binary.LittleEndian.AppendUint32(w.scratch, vflag)
	w.emit(w.scratch)
	r.offs = append(r.offs, w.off)
	r.vlens = append(r.vlens, vflag)
	w.emit(v)
}

// ownKey copies key into the run's key arena.
func (w *sstWriter) ownKey(key string) string {
	if len(key) == 0 {
		return ""
	}
	if cap(w.keys)-len(w.keys) < len(key) {
		w.keys = make([]byte, 0, max(w.keyChunk, len(key)))
	}
	at := len(w.keys)
	w.keys = append(w.keys, key...)
	return unsafe.String(&w.keys[at], len(key))
}

// emit writes b to the data section, folding it into the CRC and the cache.
func (w *sstWriter) emit(b []byte) {
	if w.err != nil {
		return
	}
	w.dataCRC = crc32.Update(w.dataCRC, crcTable, b)
	if w.cache != nil {
		if len(w.cache)+len(b) <= sstCacheCap {
			w.cache = append(w.cache, b...)
		} else {
			w.cache = nil // run too big to retain; reads go through the file
		}
	}
	n, err := w.bw.Write(b)
	w.off += int64(n)
	w.err = err
}

// finish completes the run. A durable one gets its index, filter and footer,
// is fsynced, atomically renamed into place with the directory fsynced, and
// comes back open and file-backed; on error nothing but possibly an
// unreferenced file (which Open deletes) is left behind.
func (w *sstWriter) finish() (*run, error) {
	r := w.r
	if w.f == nil {
		return r, nil
	}
	if w.err != nil {
		w.abort()
		return nil, w.err
	}
	indexOff := w.off
	meta := make([]byte, 0, 4+16*len(r.keys)+r.kbytes+16+8*len(r.bloom.bits)+sstFooterLen)
	meta = binary.LittleEndian.AppendUint32(meta, uint32(len(r.keys)))
	for i, k := range r.keys {
		meta = binary.LittleEndian.AppendUint32(meta, uint32(len(k)))
		meta = append(meta, k...)
		meta = binary.LittleEndian.AppendUint64(meta, uint64(r.offs[i]))
		meta = binary.LittleEndian.AppendUint32(meta, r.vlens[i])
	}
	bloomOff := indexOff + int64(len(meta))
	meta = r.bloom.appendTo(meta)
	metaCRC := crc32.Checksum(meta, crcTable)
	meta = binary.LittleEndian.AppendUint64(meta, uint64(indexOff))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(bloomOff))
	meta = binary.LittleEndian.AppendUint32(meta, w.dataCRC)
	meta = binary.LittleEndian.AppendUint32(meta, metaCRC)
	meta = binary.LittleEndian.AppendUint64(meta, sstMagic)

	if _, err := w.bw.Write(meta); err != nil {
		w.abort()
		return nil, err
	}
	if err := w.bw.Flush(); err != nil {
		w.abort()
		return nil, err
	}
	if err := w.f.Sync(); err != nil {
		w.abort()
		return nil, err
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.tmp)
		return nil, err
	}
	if err := os.Rename(w.tmp, w.path); err != nil {
		os.Remove(w.tmp)
		return nil, err
	}
	if err := syncDir(w.dir); err != nil {
		return nil, err
	}
	rf, err := os.Open(w.path)
	if err != nil {
		return nil, err
	}
	r.f = rf
	r.cache = w.cache
	return r, nil
}

// abort drops a durable run mid-write: the temp file is closed and removed.
func (w *sstWriter) abort() {
	if w.f != nil {
		w.f.Close()
		os.Remove(w.tmp)
	}
}

// openSST opens SST file num in dir, loading its index and bloom filter into
// memory and verifying both checksums (the data CRC by a full scan — Open is
// the cold path where paying for integrity is cheap).
func openSST(dir string, num uint64) (*run, error) {
	path := filepath.Join(dir, sstName(num))
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	bad := func(format string, args ...any) (*run, error) {
		f.Close()
		return nil, fmt.Errorf("lsm: sst %s: %s", sstName(num), fmt.Sprintf(format, args...))
	}
	fi, err := f.Stat()
	if err != nil {
		return bad("stat: %v", err)
	}
	if fi.Size() < sstFooterLen {
		return bad("short file (%d bytes)", fi.Size())
	}
	footer := make([]byte, sstFooterLen)
	if _, err := f.ReadAt(footer, fi.Size()-sstFooterLen); err != nil {
		return bad("footer: %v", err)
	}
	if binary.LittleEndian.Uint64(footer[24:]) != sstMagic {
		return bad("bad magic")
	}
	indexOff := int64(binary.LittleEndian.Uint64(footer[0:]))
	bloomOff := int64(binary.LittleEndian.Uint64(footer[8:]))
	dataCRC := binary.LittleEndian.Uint32(footer[16:])
	metaCRC := binary.LittleEndian.Uint32(footer[20:])
	metaLen := fi.Size() - sstFooterLen - indexOff
	if indexOff < 0 || bloomOff < indexOff || metaLen < 0 {
		return bad("corrupt offsets")
	}

	data := make([]byte, indexOff)
	if _, err := f.ReadAt(data, 0); err != nil {
		return bad("data: %v", err)
	}
	if crc32.Checksum(data, crcTable) != dataCRC {
		return bad("data checksum mismatch")
	}
	var cache []byte
	if len(data) <= sstCacheCap {
		cache = data // already paid for by the CRC scan; keep serving from it
	}
	meta := make([]byte, metaLen)
	if _, err := f.ReadAt(meta, indexOff); err != nil {
		return bad("meta: %v", err)
	}
	if crc32.Checksum(meta, crcTable) != metaCRC {
		return bad("meta checksum mismatch")
	}

	index := meta[:bloomOff-indexOff]
	if len(index) < 4 {
		return bad("short index")
	}
	count := int(binary.LittleEndian.Uint32(index))
	index = index[4:]
	r := &run{
		keys:  make([]string, count),
		offs:  make([]int64, count),
		vlens: make([]uint32, count),
		num:   num,
		f:     f,
		cache: cache,
	}
	for i := 0; i < count; i++ {
		if len(index) < 4 {
			return bad("index truncated at entry %d", i)
		}
		klen := int(binary.LittleEndian.Uint32(index))
		if len(index) < 4+klen+12 {
			return bad("index truncated at entry %d", i)
		}
		r.keys[i] = string(index[4 : 4+klen])
		r.kbytes += klen
		r.offs[i] = int64(binary.LittleEndian.Uint64(index[4+klen:]))
		r.vlens[i] = binary.LittleEndian.Uint32(index[4+klen+8:])
		r.bytes += klen + int(r.vlens[i]&^tombstoneBit)
		index = index[4+klen+12:]
	}
	if !sort.StringsAreSorted(r.keys) {
		return bad("index keys out of order")
	}
	bloom, err := bloomFromBytes(meta[bloomOff-indexOff:])
	if err != nil {
		return bad("bloom: %v", err)
	}
	r.bloom = bloom
	return r, nil
}

// appendValue appends the value of entry i to dst, reading from the SST file
// when the run is file-backed. ok=false reports an I/O failure (the caller
// treats the key as unreadable; the sticky error surfaces via Stats).
func (r *run) appendValue(dst []byte, i int) (_ []byte, ok bool) {
	if r.vals != nil {
		return append(dst, r.vals[i]...), true
	}
	n := int(r.vlens[i] &^ tombstoneBit)
	if n == 0 {
		return dst, true
	}
	if r.cache != nil {
		return append(dst, r.cache[r.offs[i]:r.offs[i]+int64(n)]...), true
	}
	at := len(dst)
	dst = slices.Grow(dst, n)[: at+n : at+n]
	if _, err := r.f.ReadAt(dst[at:], r.offs[i]); err != nil {
		return dst[:at], false
	}
	return dst, true
}

// view returns the value of live entry i without copying it when the run
// holds it in memory (vals or the retained cache). A run read through its
// file reads it into buf, which the caller passes back for the next entry;
// the view is valid until then. ok=false reports an I/O failure.
func (r *run) view(i int, buf []byte) (v, nbuf []byte, ok bool) {
	if r.vals != nil {
		return r.vals[i], buf, true
	}
	n := int64(r.vlens[i] &^ tombstoneBit)
	if r.cache != nil {
		return r.cache[r.offs[i] : r.offs[i]+n : r.offs[i]+n], buf, true
	}
	if n == 0 {
		return []byte{}, buf, true // present and empty, never nil (a tombstone)
	}
	buf = slices.Grow(buf[:0], int(n))[:n]
	if _, err := r.f.ReadAt(buf, r.offs[i]); err != nil {
		return nil, buf, false
	}
	return buf, buf, true
}

// tombstone reports whether entry i is a delete marker.
func (r *run) tombstone(i int) bool {
	if r.vals != nil {
		return r.vals[i] == nil
	}
	return r.vlens[i]&tombstoneBit != 0
}

// close releases the backing file of a file-backed run.
func (r *run) close() {
	if r.f != nil {
		r.f.Close()
	}
}

// appendTo serializes the filter.
func (b *Bloom) appendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, b.m)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.k))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.bits)))
	for _, w := range b.bits {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// bloomFromBytes deserializes a filter written by appendTo.
func bloomFromBytes(b []byte) (*Bloom, error) {
	if len(b) < 16 {
		return nil, fmt.Errorf("short bloom header")
	}
	m := binary.LittleEndian.Uint64(b)
	k := int(binary.LittleEndian.Uint32(b[8:]))
	n := int(binary.LittleEndian.Uint32(b[12:]))
	if k < 1 || k > 64 || n < 0 || len(b) < 16+8*n || m > uint64(n)*64 {
		return nil, fmt.Errorf("corrupt bloom header")
	}
	bits := make([]uint64, n)
	for i := range bits {
		bits[i] = binary.LittleEndian.Uint64(b[16+8*i:])
	}
	return &Bloom{bits: bits, m: m, k: k}, nil
}
