package service

import (
	"fmt"
)

// Horizontal scale-out: a ShardSet runs N fully independent Engines —
// each with its own worker pool, admission queue and arena pool — and
// routes every session to one of them by consistent hash of its tenant
// key. Shards share nothing mutable (the only cross-shard sharing is the
// immutable pristine shadow pages in internal/shadow), so there is no
// cross-shard lock to contend on and a panicking or saturated tenant
// population degrades only the shard it hashes to.
//
// Routing uses the shared consistent-hash ring (see ring.go) rather than
// hash-mod-N so that resizing a deployment remaps only ~1/N of the tenant
// keys — warm arena shelves and queue affinity survive a scale-out
// instead of being reshuffled wholesale.

// ShardSet is a fixed set of independent engines behind one Submit
// surface. It implements the same Backend contract as a single Engine.
type ShardSet struct {
	shards []*Engine
	ring   ring
}

// NewShardSet starts n engines per cfg. The capacity knobs in cfg —
// Workers, QueueDepth, ArenasPerKey (when set) — are totals for the whole
// set and are divided across shards (ceiling division, minimum 1 each),
// so `-serve-shards 4` with 8 workers means 4 shards × 2 workers, not
// 4 × 8. The differential canary, when enabled, runs on shard 0 only:
// it validates the sanitizer implementation, which every shard shares,
// so one always-on instance suffices. Callers must Close the set.
func NewShardSet(n int, cfg Config) *ShardSet {
	if n <= 0 {
		n = 1
	}
	per := cfg.withDefaults()
	divide := func(total int) int { return (total + n - 1) / n }
	per.Workers = divide(per.Workers)
	per.QueueDepth = divide(per.QueueDepth)
	if cfg.ArenasPerKey > 0 {
		per.ArenasPerKey = divide(cfg.ArenasPerKey)
	} else {
		per.ArenasPerKey = 0 // re-derive from the per-shard worker count
	}
	s := &ShardSet{shards: make([]*Engine, n)}
	names := make([]string, n)
	for i := range s.shards {
		shardCfg := per
		shardCfg.CanaryEnabled = cfg.CanaryEnabled && i == 0
		s.shards[i] = New(shardCfg)
		names[i] = fmt.Sprintf("shard-%d", i)
	}
	s.ring = buildRing(names)
	return s
}

// ShardFor returns the shard index the given tenant/session key routes
// to: the first ring vnode clockwise of the key's hash.
func (s *ShardSet) ShardFor(key string) int {
	return s.ring.lookup(key)
}

// NumShards returns the shard count.
func (s *ShardSet) NumShards() int { return len(s.shards) }

// Shard exposes one shard's engine, for tests and shard-local probes.
func (s *ShardSet) Shard(i int) *Engine { return s.shards[i] }

// Submit routes the session to its tenant's shard, blocks until it
// completes there, and stamps the shard index into the response.
func (s *ShardSet) Submit(req Request) (*Response, error) {
	idx := s.ShardFor(routeKey(&req))
	resp, err := s.shards[idx].Submit(req)
	if resp != nil {
		resp.Shard = idx
	}
	return resp, err
}

// QueueDepth returns the total queue depth across shards.
func (s *ShardSet) QueueDepth() int {
	total := 0
	for _, e := range s.shards {
		total += e.QueueDepth()
	}
	return total
}

// Draining reports whether the set has begun its graceful drain (the
// shards drain together, so any draining shard means the set is).
func (s *ShardSet) Draining() bool {
	for _, e := range s.shards {
		if e.Draining() {
			return true
		}
	}
	return false
}

// Close drains every shard (each finishes its queued and running
// sessions) and returns when all are done.
func (s *ShardSet) Close() {
	for _, e := range s.shards {
		e.Close()
	}
}
