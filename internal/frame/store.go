package frame

import (
	"encoding/json"
	"errors"
	"fmt"
	iofs "io/fs"
	"sync"
)

// ManifestName is the store manifest's file name. Rewriting it (atomically)
// is the snapshot commit point.
const ManifestName = "MANIFEST.json"

// manifestVersion is the manifest schema version.
const manifestVersion = 1

// ErrNoSnapshot is returned by Restore when the store holds no certified
// set (no manifest: a crashed first snapshot leaves only orphans).
var ErrNoSnapshot = errors.New("frame: no certified snapshot in store")

// ChainEntry names the certified container.
type ChainEntry struct {
	Name   string `json:"name"`   // container file name in the FS
	Kind   string `json:"kind"`   // always "full"
	Epoch  uint64 `json:"epoch"`  // durable epoch the snapshot certified
	Bytes  int64  `json:"bytes"`  // encoded container size
	Frames int    `json:"frames"` // frame records in the container
	Lines  int    `json:"lines"`  // 64-byte lines the container carries
	Digest uint64 `json:"digest"` // set digest the container must match
}

// Manifest certifies one full frame set. Containers not named here do not
// exist as far as recovery is concerned.
type Manifest struct {
	Version     int          `json:"version"`     // manifest schema version
	Seq         uint64       `json:"seq"`         // sequence of the newest snapshot
	ImageBytes  int64        `json:"image_bytes"` // size of the image the set restores
	FrameBytes  int          `json:"frame_bytes"` // frame span the set was written with
	Compression string       `json:"compression"` // per-frame payload encoding
	Chain       []ChainEntry `json:"chain"`       // exactly one entry: the full set
}

// fullEntryKind is ChainEntry.Kind of every certified set.
const fullEntryKind = "full"

// SnapshotResult describes one Store.Snapshot call.
type SnapshotResult struct {
	// Info describes the container written.
	Info *SetInfo
	// Name is the container's file name in the store.
	Name string
}

// Store keeps one heap's certified frame set in an FS. Every snapshot writes
// a new full set, certifies it by rewriting the manifest, and removes the
// set it replaces. Methods are serialized internally.
type Store struct {
	fs     FS
	params Params

	mu  sync.Mutex
	man *Manifest
}

// NewStore opens (or initialises) a store over fs. A certified manifest
// already present is loaded, so restores work immediately and the next
// snapshot continues its sequence.
func NewStore(fs FS, p Params) (*Store, error) {
	if err := p.defaults(); err != nil {
		return nil, err
	}
	man, err := loadManifest(fs)
	if err != nil {
		return nil, err
	}
	return &Store{fs: fs, params: p, man: man}, nil
}

// Snapshot writes src, the image of a heap at durable epoch epoch, as a new
// full set and certifies it in place of the previous one. The caller must
// have quiesced the runtime (checkpoint completed, async drains waited) and
// keep it from committing until Snapshot returns, so the image is a
// certified cut. On error the previous set stays certified.
func (s *Store) Snapshot(src ImageSource, epoch uint64) (*SnapshotResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := uint64(1)
	if s.man != nil {
		seq = s.man.Seq + 1
	}
	name := fmt.Sprintf("full-%06d.fimg", seq)
	info, err := s.writeContainer(name, func(f File) (*SetInfo, error) {
		return WriteFull(f, src, s.params)
	})
	if err != nil {
		return nil, err
	}
	man := &Manifest{
		Version:     manifestVersion,
		Seq:         seq,
		ImageBytes:  info.ImageBytes,
		FrameBytes:  s.params.FrameBytes,
		Compression: s.params.Compression.String(),
		Chain: []ChainEntry{{
			Name: name, Kind: fullEntryKind, Epoch: epoch,
			Bytes: info.Bytes, Frames: info.Frames, Lines: info.Lines, Digest: info.Digest,
		}},
	}
	if err := s.commitManifest(man); err != nil {
		return nil, err
	}
	s.man = man
	s.gc()
	return &SnapshotResult{Info: info, Name: name}, nil
}

// Restore rebuilds the image certified by the manifest into dst, frame-
// parallel (0 workers means GOMAXPROCS). Digests are verified end to end; on
// any error dst holds garbage. Returns ErrNoSnapshot when the store has no
// certified set.
func (s *Store) Restore(dst ImageSink, workers int) (*Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	man, err := loadManifest(s.fs)
	if err != nil {
		return nil, err
	}
	if man == nil {
		return nil, ErrNoSnapshot
	}
	e := man.Chain[0]
	blob, err := s.fs.Open(e.Name)
	if err != nil {
		return nil, fmt.Errorf("frame: container %s: %w", e.Name, err)
	}
	info, err := RestoreInto(dst, blob, blob.Size(), workers)
	blob.Close()
	if err != nil {
		return nil, fmt.Errorf("frame: container %s: %w", e.Name, err)
	}
	if info.Digest != e.Digest {
		return nil, fmt.Errorf("frame: container %s digest %#x, manifest certifies %#x", e.Name, info.Digest, e.Digest)
	}
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

// gc removes everything the manifest does not reference: the replaced set,
// orphan containers from crashed snapshot writes, and temp leftovers. Best-effort — failures leave garbage a later gc retries.
func (s *Store) gc() {
	names, err := s.fs.List()
	if err != nil {
		return
	}
	for _, name := range names {
		if name != ManifestName && name != s.man.Chain[0].Name {
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
		return nil, fmt.Errorf("frame: manifest certifies no set")
	}
	if len(man.Chain) > 1 {
		// Restoring the base alone would silently drop every later link.
		return nil, fmt.Errorf("frame: manifest chains %s onto full set %s: delta chains are not read", man.Chain[1].Name, man.Chain[0].Name)
	}
	if man.Chain[0].Kind != fullEntryKind {
		return nil, fmt.Errorf("frame: certified container %s is %s, want %s", man.Chain[0].Name, man.Chain[0].Kind, fullEntryKind)
	}
	return &man, nil
}
