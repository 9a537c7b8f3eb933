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
// A container (one file, or one in-memory blob) holds either a full frame
// set — every frame of the image — or a delta: for each frame touched since
// the previous set in the chain, a line bitmap plus only the churned 64-byte
// lines. Every frame carries a CRC-64 digest over its uncompressed content,
// and the container trailer folds the per-frame digests (in frame order)
// into a set digest, so two containers with equal digests decode to the same
// image bytes no matter how many workers produced them or whether their
// payloads were compressed. Frames may individually be deflate-compressed;
// the digest is computed pre-compression, so compression changes the bytes
// on disk but never the digest.
//
// Containers are written front-to-back (streamable to any io.Writer) and
// finish with a frame index plus a fixed-size trailer, so a reader with
// io.ReaderAt restores frames in parallel after one trailer read, while a
// plain stream reader can decode the same container sequentially. Both hand
// every record to one decode routine, which writes into an ImageSink — the
// mirror of the writer's ImageSource: HeapSink boots a pmem.Heap straight
// from the frames, BytesSink materialises the image in memory.
//
// # Chains, manifests and fallback
//
// A Store keeps a chain of containers — one full set plus following deltas —
// in a directory-like FS (a real directory, or an in-memory MemFS for tests
// and crash exploration). The chain is certified by a manifest that is
// rewritten atomically (temp + rename) only after every container it names
// is durably in place: the manifest update is the commit point. A crash in
// the middle of a snapshot write leaves orphan container files but the
// previous manifest intact, so recovery falls back to the previous certified
// frame set and a later snapshot garbage-collects the orphans.
//
// Deltas harvest the heap's churn bitmap (pmem.Heap.SwapChurn): the lines
// written back to the persistent image since the previous snapshot. The
// store compacts the chain back to a single full set when it grows too long
// or too large (Params.CompactEvery / CompactFactor).
package frame
