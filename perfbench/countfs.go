package main

import (
	"os"
	"sync"
	"time"

	"detectable/internal/durable"
)

// countFs wraps a durable.Fs and counts what the commit path asks of the
// device: fsyncs (file and directory) and their time, bytes written, and
// renames (each log compaction installs its snapshot by rename).
type countFs struct {
	durable.Fs

	mu      sync.Mutex
	syncs   []time.Duration
	written int64
	renames int64
}

// fsCounts is a point-in-time copy of countFs's counters.
type fsCounts struct {
	syncs   int // index into countFs.syncs
	written int64
	renames int64
}

func newCountFs(fsys durable.Fs) *countFs { return &countFs{Fs: fsys} }

func (c *countFs) counts() fsCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fsCounts{syncs: len(c.syncs), written: c.written, renames: c.renames}
}

// syncsSince returns the fsync durations recorded after snapshot from.
func (c *countFs) syncsSince(from fsCounts) []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.syncs[from.syncs:]...)
}

func (c *countFs) noteSync(d time.Duration) {
	c.mu.Lock()
	c.syncs = append(c.syncs, d)
	c.mu.Unlock()
}

func (c *countFs) noteWrite(n int) {
	c.mu.Lock()
	c.written += int64(n)
	c.mu.Unlock()
}

func (c *countFs) OpenFile(path string, flag int, perm os.FileMode) (durable.File, error) {
	f, err := c.Fs.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFs) Rename(oldpath, newpath string) error {
	c.mu.Lock()
	c.renames++
	c.mu.Unlock()
	return c.Fs.Rename(oldpath, newpath)
}

func (c *countFs) SyncDir(dir string) error {
	t := time.Now()
	err := c.Fs.SyncDir(dir)
	c.noteSync(time.Since(t))
	return err
}

// countFile counts one open file's writes and fsyncs into its countFs.
type countFile struct {
	durable.File
	fs *countFs
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.noteWrite(n)
	return n, err
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.fs.noteWrite(n)
	return n, err
}

func (f *countFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	f.fs.noteSync(time.Since(t))
	return err
}
