package frame

import (
	"encoding/json"
	"errors"
	"fmt"
	iofs "io/fs"
	"sync"
	"sync/atomic"
	"time"

	"github.com/respct/respct/internal/pmem"
)

// ManifestName is the chain manifest's file name. Rewriting it (atomically)
// is the snapshot commit point.
const ManifestName = "MANIFEST.json"

// manifestVersion is the manifest schema version.
const manifestVersion = 1

// ErrNoSnapshot is returned by Restore when the store holds no certified
// chain (no manifest — a crashed first snapshot leaves only orphans).
var ErrNoSnapshot = errors.New("frame: no certified snapshot in store")

// ChainEntry names one container of the certified chain.
type ChainEntry struct {
	Name   string `json:"name"`   // container file name in the FS
	Kind   string `json:"kind"`   // "full" or "delta"
	Epoch  uint64 `json:"epoch"`  // durable epoch the snapshot certified
	Bytes  int64  `json:"bytes"`  // encoded container size
	Frames int    `json:"frames"` // frame records in the container
	Lines  int    `json:"lines"`  // 64-byte lines the container carries
	Digest uint64 `json:"digest"` // set digest the container must match
}

// Manifest certifies a chain: one full set followed by deltas in apply
// order. Containers not named here do not exist as far as recovery is
// concerned.
type Manifest struct {
	Version     int          `json:"version"`     // manifest schema version
	Seq         uint64       `json:"seq"`         // sequence of the newest snapshot
	ImageBytes  int64        `json:"image_bytes"` // size of the image the chain restores
	FrameBytes  int          `json:"frame_bytes"` // frame span the chain was written with
	Compression string       `json:"compression"` // per-frame payload encoding
	Chain       []ChainEntry `json:"chain"`       // full base, then deltas in apply order
}

// SnapshotResult describes one Store.Snapshot call.
type SnapshotResult struct {
	// Info describes the container written.
	Info *SetInfo
	// Name is the container's file name in the store.
	Name string
	// Compacted is the number of chain containers this snapshot folded away
	// (zero when the snapshot extended the chain or started the first one).
	Compacted int
}

// Store keeps one heap's frame-snapshot chain in an FS and decides, per
// snapshot, between extending the chain with a delta and compacting to a
// fresh full set. Methods are serialized internally; a Store belongs to one
// heap lineage at a time (snapshotting a different heap forces a full set,
// since its churn window watches one heap instance).
type Store struct {
	fs      FS
	params  Params
	metrics *Metrics

	mu              sync.Mutex
	man             *Manifest
	win             *window // churn since the last snapshot; nil until a full set
	deltasSinceFull int
	deltaBytes      int64
	fullBytes       int64
}

// NewStore opens (or initialises) a store over fs. A certified manifest
// already present is loaded, so restores work immediately; the first
// snapshot of this process is still a full set, because churn tracking lives
// in memory and dies with the previous process. m may be nil.
func NewStore(fs FS, p Params, m *Metrics) (*Store, error) {
	if err := p.defaults(); err != nil {
		return nil, err
	}
	s := &Store{fs: fs, params: p, metrics: m}
	man, err := loadManifest(fs)
	if err != nil {
		return nil, err
	}
	if man != nil {
		s.man = man
		s.deltasSinceFull = len(man.Chain) - 1
		s.fullBytes = man.Chain[0].Bytes
		for _, e := range man.Chain[1:] {
			s.deltaBytes += e.Bytes
		}
	}
	return s, nil
}

// Params returns the store's (defaulted) parameters.
func (s *Store) Params() Params { return s.params }

// Manifest returns a copy of the certified manifest, or nil if none.
func (s *Store) Manifest() *Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.man == nil {
		return nil
	}
	cp := *s.man
	cp.Chain = append([]ChainEntry(nil), s.man.Chain...)
	return &cp
}

// Snapshot captures the heap's persistent image at epoch. The caller must
// have quiesced the runtime (checkpoint completed, async drains waited) so
// the image is a certified cut. The store picks full vs delta: the first
// snapshot of a heap lineage is full, later ones are deltas carrying only
// the lines churned since the previous snapshot, and the chain is compacted
// back to a full set per Params. extraDirty, when non-nil, is OR-ed into the
// delta's line set (pass core.Runtime.DirtyLineBits for async runtimes).
func (s *Store) Snapshot(h *pmem.Heap, epoch uint64, extraDirty []uint64) (*SnapshotResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()

	full := s.man == nil ||
		s.win == nil || s.win.h != h ||
		s.man.ImageBytes != h.ImageSize() ||
		s.man.FrameBytes != s.params.FrameBytes ||
		(s.params.CompactEvery > 0 && s.deltasSinceFull >= s.params.CompactEvery) ||
		(s.params.CompactFactor > 0 && s.deltaBytes > int64(s.params.CompactFactor*float64(s.fullBytes)))

	var (
		name string
		info *SetInfo
		err  error
	)
	seq := uint64(1)
	if s.man != nil {
		seq = s.man.Seq + 1
	}
	if full {
		// Open a fresh churn window first: lines written back while the
		// frames are read land in it and ride the next delta, so the chain
		// never loses a mutation (it may re-carry an identical line).
		s.watch(h)
		name = fmt.Sprintf("full-%06d.fimg", seq)
		info, err = s.writeContainer(name, func(f File) (*SetInfo, error) {
			return WriteFull(f, HeapSource{h}, s.params)
		})
	} else {
		churn := s.win.harvest()
		for i := 0; i < len(churn) && i < len(extraDirty); i++ {
			churn[i] |= extraDirty[i]
		}
		name = fmt.Sprintf("delta-%06d.fimg", seq)
		info, err = s.writeContainer(name, func(f File) (*SetInfo, error) {
			return WriteDelta(f, HeapSource{h}, churn, s.params)
		})
	}
	if err != nil {
		// The churn window is consumed either way; only a full set can
		// re-establish a sound chain base.
		s.watch(nil)
		return nil, err
	}

	entry := ChainEntry{
		Name: name, Kind: info.Kind.String(), Epoch: epoch,
		Bytes: info.Bytes, Frames: info.Frames, Lines: info.Lines, Digest: info.Digest,
	}
	man := &Manifest{
		Version:     manifestVersion,
		Seq:         seq,
		ImageBytes:  info.ImageBytes,
		FrameBytes:  s.params.FrameBytes,
		Compression: s.params.Compression.String(),
	}
	compacted := 0
	if full {
		if s.man != nil {
			compacted = len(s.man.Chain)
		}
		man.Chain = []ChainEntry{entry}
	} else {
		man.Chain = append(append([]ChainEntry(nil), s.man.Chain...), entry)
	}
	if err := s.commitManifest(man); err != nil {
		s.watch(nil)
		return nil, err
	}
	s.man = man
	if full {
		s.deltasSinceFull = 0
		s.deltaBytes = 0
		s.fullBytes = info.Bytes
	} else {
		s.deltasSinceFull++
		s.deltaBytes += info.Bytes
	}
	s.gc()
	s.metrics.snapshotDone(info, compacted, time.Since(start))
	return &SnapshotResult{Info: info, Name: name, Compacted: compacted}, nil
}

// window is a Store's churn window over one heap: one bit per line, set by
// every write-back of the heap until the next delta harvests it. Every
// durable-image mutation — checkpoint flushes, collision flushes, chaos
// evictions, the eADR battery flush — is a write-back, so the window is a
// conservative superset of the lines whose persistent image may differ from
// the last snapshot: a line is marked whether or not its copy changed the
// image. The window stays attached across an in-process crash and reopen.
type window struct {
	h      *pmem.Heap
	bits   []atomic.Uint64
	detach func()
}

// watch replaces the store's window with a fresh one over h (none when h is
// nil). Caller holds s.mu.
func (s *Store) watch(h *pmem.Heap) {
	if s.win != nil {
		s.win.detach()
		s.win = nil
	}
	if h == nil {
		return
	}
	w := &window{h: h, bits: make([]atomic.Uint64, (h.Lines()+63)/64)}
	w.detach = h.Observe(w, pmem.EvWriteBack)
	s.win = w
}

// Event implements pmem.Observer: mark the written-back line.
func (w *window) Event(e pmem.TraceEvent) {
	b := &w.bits[e.Line/64]
	mask := uint64(1) << (e.Line % 64)
	if b.Load()&mask == 0 {
		b.Or(mask)
	}
}

// harvest returns the marked lines (line i at word i/64, bit i%64) and
// clears them. Each word is swapped atomically, so a write-back racing the
// harvest lands in this harvest or the next: it can blur a line's content
// (as it always could) but never lose the line from the chain.
func (w *window) harvest() []uint64 {
	out := make([]uint64, len(w.bits))
	for i := range w.bits {
		out[i] = w.bits[i].Swap(0)
	}
	return out
}

// Restore rebuilds the image certified by the manifest into dst: the full
// base restored frame-parallel (0 workers means GOMAXPROCS), then each delta
// applied in chain order. Digests are verified end to end; on any error dst
// holds garbage. Returns ErrNoSnapshot when the store has no certified chain.
func (s *Store) Restore(dst ImageSink, workers int) (*Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	man, err := loadManifest(s.fs)
	if err != nil {
		return nil, err
	}
	if man == nil {
		return nil, ErrNoSnapshot
	}
	for i, e := range man.Chain {
		blob, err := s.fs.Open(e.Name)
		if err != nil {
			return nil, fmt.Errorf("frame: chain container %s: %w", e.Name, err)
		}
		info, err := RestoreInto(dst, blob, blob.Size(), workers)
		blob.Close()
		if err != nil {
			return nil, fmt.Errorf("frame: chain container %s: %w", e.Name, err)
		}
		wantKind := KindDelta
		if i == 0 {
			wantKind = KindFull
		}
		if info.Kind != wantKind {
			return nil, fmt.Errorf("frame: chain container %s is %s, manifest position wants %s", e.Name, info.Kind, wantKind)
		}
		if info.Digest != e.Digest {
			return nil, fmt.Errorf("frame: chain container %s digest %#x, manifest certifies %#x", e.Name, info.Digest, e.Digest)
		}
	}
	s.metrics.restoreDone(time.Since(start))
	return man, nil
}

// writeContainer streams one container through Create/Commit.
func (s *Store) writeContainer(name string, write func(File) (*SetInfo, error)) (*SetInfo, error) {
	f, err := s.fs.Create(name)
	if err != nil {
		return nil, err
	}
	info, err := write(f)
	if err != nil {
		f.Abort()
		return nil, err
	}
	if err := f.Commit(); err != nil {
		return nil, err
	}
	return info, nil
}

// commitManifest atomically publishes the new manifest.
func (s *Store) commitManifest(man *Manifest) error {
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	f, err := s.fs.Create(ManifestName)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}

// gc removes everything the manifest does not reference: orphan containers
// from crashed snapshot writes, pre-compaction chain containers, and temp
// leftovers. Best-effort — failures leave garbage a later gc retries.
func (s *Store) gc() {
	names, err := s.fs.List()
	if err != nil {
		return
	}
	live := map[string]bool{ManifestName: true}
	for _, e := range s.man.Chain {
		live[e.Name] = true
	}
	for _, name := range names {
		if !live[name] {
			s.fs.Remove(name)
		}
	}
}

// loadManifest reads and validates the certified manifest, nil if absent.
func loadManifest(fs FS) (*Manifest, error) {
	data, err := readFile(fs, ManifestName)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("frame: corrupt manifest: %w", err)
	}
	if man.Version != manifestVersion {
		return nil, fmt.Errorf("frame: manifest version %d unsupported", man.Version)
	}
	if len(man.Chain) == 0 {
		return nil, fmt.Errorf("frame: manifest certifies an empty chain")
	}
	if man.Chain[0].Kind != KindFull.String() {
		return nil, fmt.Errorf("frame: chain base %s is %s, want full", man.Chain[0].Name, man.Chain[0].Kind)
	}
	for _, e := range man.Chain[1:] {
		if e.Kind != KindDelta.String() {
			return nil, fmt.Errorf("frame: chain link %s is %s, want delta", e.Name, e.Kind)
		}
	}
	return &man, nil
}
