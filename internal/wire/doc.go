//respct:exportdoc

// Package wire implements the binary KV protocol: length-prefixed frames
// with fixed-layout little-endian headers carrying batches of GET/SET/DELETE
// operations in one direction and status-coded results in the other (the
// normative layout is docs/WIRE-PROTOCOL.md).
//
// The codec is built for a zero-allocation steady state: builders append
// into a buffer they own and reuse across frames, decoders read each frame's
// payload into a buffer they own and hand operations out as sub-slices of
// it. Nothing escapes — a decoded key or value is valid only until the next
// Decode on the same frame, and callers that retain bytes must copy them.
// Both directions are gated by testing.AllocsPerRun in wire_test.go.
//
// A request frame is executed whole on one leased store thread (checkpoint
// gating is per operation, DESIGN.md §3f; only a FlagAtomic frame is one
// atomic unit) and answered by exactly one response frame carrying one
// status per operation, in order. Clients may
// pipeline: any number of request frames can be in flight on a connection,
// and responses always come back in request order.
package wire
