package frame

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrCrashed is returned by a CrashFS file once the write budget is spent —
// it stands in for the machine dying mid-snapshot.
var ErrCrashed = errors.New("frame: simulated crash during container write")

// File is a container being written: bytes are invisible to Open/List until
// Commit durably publishes them under the final name. Abort discards.
type File interface {
	io.Writer
	Commit() error // atomically publish the bytes under the final name
	Abort() error  // discard the bytes written so far
}

// Blob is a committed container opened for (possibly concurrent) reads.
type Blob interface {
	io.ReaderAt
	Size() int64  // committed size in bytes
	Close() error // release the handle
}

// FS is the directory a Store keeps its chain in. Implementations must make
// Commit atomic with respect to Open and List: a name either resolves to the
// complete container or does not exist.
type FS interface {
	Create(name string) (File, error) // start writing a new container
	Open(name string) (Blob, error)   // open a committed container
	// List returns every name in the store, committed and leftover temp
	// files alike, sorted. The Store uses it to garbage-collect.
	List() ([]string, error)
	Remove(name string) error // delete one name, committed or leftover
}

// readFile slurps one committed blob.
func readFile(fs FS, name string) ([]byte, error) {
	b, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	buf := make([]byte, b.Size())
	if _, err := b.ReadAt(buf, 0); err != nil && !(err == io.EOF && int64(len(buf)) == b.Size()) {
		return nil, err
	}
	return buf, nil
}

// DirFS stores containers as files in one directory, publishing each by
// writing a temp file, syncing it and renaming it into place.
type DirFS struct {
	Dir string // the directory holding the chain; created on first write
}

// tempInfix marks unpublished files; List reports them so the Store can GC
// leftovers from a crashed writer, and discovery code must skip them.
const tempInfix = ".tmp"

type dirFile struct {
	f     *os.File
	final string
	done  bool
}

// Create opens a temp file in the directory; Commit renames it into place.
func (d DirFS) Create(name string) (File, error) {
	if err := os.MkdirAll(d.Dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(d.Dir, name+tempInfix+"*")
	if err != nil {
		return nil, err
	}
	return &dirFile{f: f, final: filepath.Join(d.Dir, name)}, nil
}

func (f *dirFile) Write(p []byte) (int, error) { return f.f.Write(p) }

func (f *dirFile) Commit() error {
	if f.done {
		return fmt.Errorf("frame: commit of finished file %s", f.final)
	}
	f.done = true
	tmp := f.f.Name()
	if err := f.f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, f.final)
}

func (f *dirFile) Abort() error {
	if f.done {
		return nil
	}
	f.done = true
	tmp := f.f.Name()
	f.f.Close()
	return os.Remove(tmp)
}

type dirBlob struct {
	f    *os.File
	size int64
}

func (b dirBlob) ReadAt(p []byte, off int64) (int, error) { return b.f.ReadAt(p, off) }
func (b dirBlob) Size() int64                             { return b.size }
func (b dirBlob) Close() error                            { return b.f.Close() }

// Open opens a committed container for reading.
func (d DirFS) Open(name string) (Blob, error) {
	f, err := os.Open(filepath.Join(d.Dir, name))
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return dirBlob{f: f, size: st.Size()}, nil
}

// List returns the directory's file names (temp leftovers included), sorted.
func (d DirFS) List() ([]string, error) {
	ents, err := os.ReadDir(d.Dir)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Remove deletes one file.
func (d DirFS) Remove(name string) error { return os.Remove(filepath.Join(d.Dir, name)) }

// MemFS is an in-memory FS for tests and crash exploration. Uncommitted
// writes live only in the File, so "crashing" (dropping the File) models a
// writer that died before its rename.
type MemFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

// NewMemFS returns an empty in-memory store.
func NewMemFS() *MemFS { return &MemFS{files: map[string][]byte{}} }

type memFile struct {
	fs   *MemFS
	name string
	buf  bytes.Buffer
	done bool
}

// Create opens an in-memory buffer; Commit publishes it atomically.
func (m *MemFS) Create(name string) (File, error) {
	return &memFile{fs: m, name: name}, nil
}

func (f *memFile) Write(p []byte) (int, error) { return f.buf.Write(p) }

func (f *memFile) Commit() error {
	if f.done {
		return fmt.Errorf("frame: commit of finished file %s", f.name)
	}
	f.done = true
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.files[f.name] = append([]byte(nil), f.buf.Bytes()...)
	return nil
}

func (f *memFile) Abort() error {
	f.done = true
	return nil
}

type memBlob struct{ *bytes.Reader }

func (b memBlob) Size() int64  { return b.Reader.Size() }
func (b memBlob) Close() error { return nil }

// Open opens a committed blob.
func (m *MemFS) Open(name string) (Blob, error) {
	m.mu.Lock()
	data, ok := m.files[name]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("frame: open %s: %w", name, iofs.ErrNotExist)
	}
	return memBlob{bytes.NewReader(data)}, nil
}

// List returns the committed names, sorted.
func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.files))
	for name := range m.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// Remove deletes one committed blob.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, name)
	return nil
}

// Snapshot returns a deep copy of the committed files — crash exploration
// freezes the store alongside the persistent image.
func (m *MemFS) Snapshot() map[string][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string][]byte, len(m.files))
	for name, data := range m.files {
		out[name] = append([]byte(nil), data...)
	}
	return out
}

// CrashFS wraps an FS with a byte budget: once Budget total bytes have been
// written through it, every further Write and every Commit fails with
// ErrCrashed. A snapshot interrupted this way leaves the wrapped FS exactly
// as a real crash would — committed containers intact, the in-flight one
// invisible, the manifest not yet updated.
type CrashFS struct {
	FS
	mu     sync.Mutex
	budget int64
	dead   bool
}

// NewCrashFS wraps fs with the given write budget.
func NewCrashFS(fs FS, budget int64) *CrashFS { return &CrashFS{FS: fs, budget: budget} }

// Arm resets the budget: writes pass until n further bytes have gone
// through, then the crash fires. Workloads use it to let earlier snapshots
// commit and kill a specific later one.
func (c *CrashFS) Arm(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = n
	c.dead = false
}

// Crashed reports whether the budget has been exhausted.
func (c *CrashFS) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// spend consumes n bytes of budget, returning how many may still be written.
func (c *CrashFS) spend(n int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return 0, ErrCrashed
	}
	if int64(n) <= c.budget {
		c.budget -= int64(n)
		return n, nil
	}
	allowed := int(c.budget)
	c.budget = 0
	c.dead = true
	return allowed, ErrCrashed
}

type crashFile struct {
	File
	fs *CrashFS
}

// Create wraps the underlying file so writes draw down the budget.
func (c *CrashFS) Create(name string) (File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &crashFile{File: f, fs: c}, nil
}

func (f *crashFile) Write(p []byte) (int, error) {
	allowed, err := f.fs.spend(len(p))
	if allowed > 0 {
		if n, werr := f.File.Write(p[:allowed]); werr != nil {
			return n, werr
		}
	}
	if err != nil {
		f.File.Abort()
		return allowed, err
	}
	return allowed, nil
}

func (f *crashFile) Commit() error {
	if f.fs.Crashed() {
		f.File.Abort()
		return ErrCrashed
	}
	return f.File.Commit()
}

// isTempName reports whether name is an unpublished temp file.
func isTempName(name string) bool { return strings.Contains(name, tempInfix) }
