package lsm

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The MANIFEST names the durable state of the store: which SST files are
// live (newest first) and the lowest-numbered WAL file that still holds
// unflushed records (the watermark — recovery replays every WAL ≥ it and
// nothing older). It is plain text, rewritten whole on every edit and
// installed by write-temp → fsync → rename → fsync-dir, so readers only
// ever observe a complete old or complete new manifest:
//
//	c3-lsm-manifest v1
//	next <n>
//	wal <num>
//	sst <num>      (zero or more, newest first)
//
// Edit rules: a flush writes its SST and rotates the WAL *before* the
// manifest edit that references them, and deletes superseded WAL files only
// *after* the edit lands; compaction likewise installs its output SST via
// manifest edit before deleting its inputs. Edits happen under the store
// lock only, so a flush that lands while a compaction merges names the
// compaction's inputs, and the compaction's edit names that flush's SST
// ahead of its output. Every intermediate crash state is therefore
// recoverable, leaving at worst orphan files that Open removes.

const manifestName = "MANIFEST"

// manifest is the in-memory image of the MANIFEST file.
type manifest struct {
	next uint64   // next file number to allocate (SSTs and WALs share one space)
	wal  uint64   // WAL watermark: replay every WAL file numbered ≥ this
	ssts []uint64 // live SSTs, newest first
}

// loadManifest reads dir's MANIFEST; a missing file returns (nil, nil) —
// a fresh directory.
func loadManifest(dir string) (*manifest, error) {
	f, err := os.Open(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m := &manifest{}
	sc := bufio.NewScanner(f)
	if !sc.Scan() || sc.Text() != "c3-lsm-manifest v1" {
		return nil, fmt.Errorf("lsm: bad manifest header")
	}
	for sc.Scan() {
		field, rest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			return nil, fmt.Errorf("lsm: bad manifest line %q", sc.Text())
		}
		n, err := strconv.ParseUint(rest, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("lsm: bad manifest line %q", sc.Text())
		}
		switch field {
		case "next":
			m.next = n
		case "wal":
			m.wal = n
		case "sst":
			m.ssts = append(m.ssts, n)
		default:
			return nil, fmt.Errorf("lsm: bad manifest field %q", field)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// store atomically installs m as dir's MANIFEST.
func (m *manifest) store(dir string) error {
	var b strings.Builder
	b.WriteString("c3-lsm-manifest v1\n")
	fmt.Fprintf(&b, "next %d\n", m.next)
	fmt.Fprintf(&b, "wal %d\n", m.wal)
	for _, n := range m.ssts {
		fmt.Fprintf(&b, "sst %d\n", n)
	}
	final := filepath.Join(dir, manifestName)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(b.String()); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}
