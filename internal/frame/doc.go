//respct:exportdoc

// Package frame implements the frame-based parallel snapshot engine: a
// persistent-heap image is split into independent fixed-size frames that are
// generated and restored in parallel by a worker pool, with bit-identical
// container output regardless of worker count. It is the only on-disk format
// of a heap and this package the only one that knows its byte layout
// (docs/SNAPSHOT-FORMAT.md).
//
// # Containers
//
// A container (one file, or one in-memory blob) holds a full frame set:
// every frame of the image. Every frame carries a CRC-64 digest over its
// uncompressed content, and the container trailer folds the per-frame
// digests (in frame order) into a set digest, so two containers with equal
// digests decode to the same image bytes no matter how many workers produced
// them or whether their payloads were compressed. Frames may individually be
// deflate-compressed; the digest is computed pre-compression, so compression
// changes the bytes on disk but never the digest.
//
// Containers are written front-to-back (streamable to any io.Writer) and
// finish with a frame index plus a fixed-size trailer, so the one reader,
// RestoreInto, restores frames in parallel from an io.ReaderAt after one
// trailer read. Every record goes through one decode routine, which writes
// into an ImageSink — the mirror of the writer's ImageSource: HeapSink boots
// a pmem.Heap straight from the frames, BytesSink materialises the image in
// memory.
//
// # Stores, manifests and fallback
//
// A Store keeps one certified full set in a directory-like FS (a real
// directory, or an in-memory MemFS for tests and crash exploration). Each
// snapshot writes a new set and then rewrites the manifest atomically (temp
// + rename) to name only that set: the manifest update is the commit point,
// after which the replaced set is garbage-collected. A crash in the middle of
// a snapshot write leaves an orphan container but the previous manifest
// intact, so recovery falls back to the previous certified set and a later
// snapshot garbage-collects the orphan.
package frame
