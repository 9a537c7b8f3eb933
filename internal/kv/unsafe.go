package kv

import "unsafe"

// bstr views b as a string without copying. It is the protocol layers'
// bridge into the Store interface, whose key parameter is a string: request
// keys arrive as sub-slices of per-connection read buffers, and copying each
// one would put an allocation back on every op of the hot path.
//
// The view is sound because of two lifetime facts the callers maintain:
// the backing buffer is not rewritten until the operation has completed
// (the connection goroutine runs the operation itself before its next
// read), and no Store implementation retains the key beyond the call — the
// Store interface documents that contract, and both RespctStore and
// TransientStore copy key bytes into their own records.
//
// The read path uses it the other way round, under the same two facts: a
// scan's keys leave an Entries buffer as views — into the reply builder,
// which copies them before the connection's next op refills the buffer, and
// out of Entries.Copy, whose buffer nothing ever rewrites.
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}
