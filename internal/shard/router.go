package shard

import "github.com/respct/respct/internal/kv"

// Route maps key deterministically onto [0, shards). The FNV-1a hash is
// scrambled with a Fibonacci multiplier and folded from the high bits, so
// the shard index is decorrelated from the store's own bucket index (which
// consumes the unscrambled low bits of the same hash family) — otherwise
// every shard would populate only 1/N of its buckets.
func Route(key string, shards int) int {
	if shards == 1 {
		return 0
	}
	h := kv.FNV1a(key) * 0x9E3779B97F4A7C15
	return int((h >> 33) % uint64(shards))
}

// ShardFor returns the shard index serving key.
func (p *Pool) ShardFor(key string) int { return Route(key, len(p.shards)) }
