// Package service is the multi-tenant sanitization session engine: the
// production shell that turns the repo's one-shot experiment drivers into
// a server. A session binds one request — a workload run or an uploaded
// trace replay, under a chosen sanitizer, scale and virtual-clock
// deadline — to a pooled execution arena, and the engine around it
// provides bounded admission with backpressure, panic isolation, graceful
// drain, and a Prometheus-text metrics surface. Engines scale out
// horizontally as shards (see shards.go), each owning its own pool and
// admission queue.
//
// The arena pool recycles rt.Env runtimes. Each arena's shadow is a
// copy-on-write page table (internal/shadow): construction writes no
// shadow bytes, a tenant's resident shadow is proportional to the pages it
// dirtied, and recycling through rt.Env.Reset drops those pages in
// O(dirty pages). The reset differential suite in internal/rt is what
// makes this safe: a recycled arena is byte-for-byte equivalent to a fresh
// one, so no shadow poison, application bytes, counters or oracle state
// can leak between tenants.
package service

import (
	"sync"

	"giantsan/internal/rt"
)

// ArenaPool recycles rt.Env execution arenas, keyed by their full
// normalized rt.Config — two sessions share an arena shelf only when a
// fresh build would have produced interchangeable environments.
type ArenaPool struct {
	mu     sync.Mutex
	perKey int
	free   map[rt.Config][]*rt.Env
	// pending counts arenas that hold a reserved shelf slot while their
	// Reset runs outside the lock, so concurrent Puts cannot oversubscribe
	// a shelf between the capacity check and the append.
	pending map[rt.Config]int

	hits    uint64
	misses  uint64
	dropped uint64
}

// ArenaStats is a snapshot of the pool counters.
type ArenaStats struct {
	// Hits counts sessions served by a recycled (warm) arena; Misses
	// counts sessions that had to build a fresh one.
	Hits, Misses uint64
	// Dropped counts arenas discarded instead of shelved: suspect state
	// (panicked or error-path sessions) and over-capacity Puts. Every
	// arena the pool hands out is eventually either shelved or counted
	// here — a growing gap would be a leak.
	Dropped uint64
	// Size is the number of arenas currently shelved, across all keys.
	Size int
	// Keys is the number of live configuration shelves. Shelves are
	// deleted when they empty, so a service that has seen many distinct
	// configs does not hold a map entry per config forever — Keys tracks
	// current occupancy, not history.
	Keys int
}

// NewArenaPool returns a pool shelving at most perKey idle arenas per
// configuration (<= 0 means 1).
func NewArenaPool(perKey int) *ArenaPool {
	if perKey <= 0 {
		perKey = 1
	}
	return &ArenaPool{perKey: perKey, free: make(map[rt.Config][]*rt.Env), pending: make(map[rt.Config]int)}
}

// Get returns an arena for cfg and whether it was recycled (warm). A cold
// get builds one with rt.New, which writes no shadow bytes, so even the
// cold path is cheap and the arena's resident shadow stays proportional
// to what the session dirties.
func (p *ArenaPool) Get(cfg rt.Config) (env *rt.Env, warm bool) {
	cfg = cfg.Normalize() // match the key Put derives from env.Config()
	p.mu.Lock()
	if list := p.free[cfg]; len(list) > 0 {
		env = list[len(list)-1]
		if len(list) == 1 {
			delete(p.free, cfg) // emptied shelf: drop the map entry too
		} else {
			p.free[cfg] = list[:len(list)-1]
		}
		p.hits++
		p.mu.Unlock()
		return env, true
	}
	p.misses++
	p.mu.Unlock()
	// Build outside the lock: construction must not serialize concurrent
	// cold sessions.
	return rt.New(cfg), false
}

// Put resets env and shelves it for reuse. Arenas beyond the per-key bound
// are dropped on the floor for the GC (and counted) — before paying for
// the reset: the capacity check reserves a shelf slot under the lock and
// only a Put that holds a reservation scrubs, so the over-capacity path
// does no reset work at all. A session that panicked must NOT Put its
// arena back (its state is suspect) — it Drops it instead, which the
// engine enforces with a deferred return-or-drop on every session path.
func (p *ArenaPool) Put(env *rt.Env) {
	cfg := env.Config()
	p.mu.Lock()
	if len(p.free[cfg])+p.pending[cfg] >= p.perKey {
		p.dropped++
		p.mu.Unlock()
		return
	}
	p.pending[cfg]++
	p.mu.Unlock()

	env.Reset() // the expensive part, outside the lock

	p.mu.Lock()
	if p.pending[cfg] == 1 {
		delete(p.pending, cfg)
	} else {
		p.pending[cfg]--
	}
	p.free[cfg] = append(p.free[cfg], env)
	p.mu.Unlock()
}

// Drop discards env without shelving it — the exit for arenas whose
// state is suspect (panicked sessions, failed replays). Counting the
// discard keeps the pool's books closed: handed-out arenas are always
// either shelved or visibly dropped, never silently abandoned.
func (p *ArenaPool) Drop(env *rt.Env) {
	if env == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dropped++
}

// Stats returns a snapshot of the pool counters.
func (p *ArenaPool) Stats() ArenaStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	size := 0
	for _, list := range p.free {
		size += len(list)
	}
	return ArenaStats{Hits: p.hits, Misses: p.misses, Dropped: p.dropped, Size: size, Keys: len(p.free)}
}
