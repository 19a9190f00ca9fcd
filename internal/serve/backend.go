package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"wflocks"
)

// Backend is the storage a Server executes requests against. The three
// implementations are the wait-free Map (the durable-KV shape: full is
// an error), the wait-free Cache (the caching shape: full evicts, TTL
// honored), and a sharded mutex map — the design a conventional Go
// service would use, kept as the head-to-head baseline for the
// holder-stall tail-latency comparison.
type Backend interface {
	// Get reports the value stored for key.
	Get(key string) (string, bool)
	// Set stores val for key. A positive ttl asks for per-entry expiry;
	// backends that cannot expire reject it with a client-visible error.
	Set(key, val string, ttl time.Duration) error
	// Del removes key, reporting whether it was present.
	Del(key string) bool
	// LockID reports the ID of the shard lock key's operations run
	// under — the correlation key joining request spans to the flight
	// recorder's lock events — or -1 for backends without lock IDs
	// (mutex). A pure hash computation; no lock is taken.
	LockID(key string) int
	// Name identifies the backend in STATS output.
	Name() string
}

// errNoTTL is the client-visible rejection for TTL'd SETs against a
// backend without expiry.
var errNoTTL = protoErrorf("backend does not support PX")

// TableShardInfo is one backend shard's occupancy and probe shape, for
// the metrics exposition. Tombstones/MaxProbe/SumProbe are zero for
// backends without an open-addressed region (mutex).
type TableShardInfo struct {
	Size, Capacity                 int
	Tombstones, MaxProbe, SumProbe int
}

// tableStatser is the optional Backend extension feeding the /metrics
// per-shard table series.
type tableStatser interface {
	TableShards() []TableShardInfo
}

// hookCodec wraps a value codec so every Encode first calls hook — the
// generic form of the benchmark harness's stall-injection codec. Value
// encodes happen inside the structures' critical sections (bucket and
// result-cell writes), so the hook lands exactly where a preempted
// holder would hold a blocking design up; the mutex backend calls the
// same hook while holding its shard lock, keeping the injection
// symmetric.
type hookCodec struct {
	inner wflocks.Codec[string]
	hook  func()
}

func (c hookCodec) Words() int { return c.inner.Words() }
func (c hookCodec) Encode(v string, dst []uint64) {
	c.hook()
	c.inner.Encode(v, dst)
}
func (c hookCodec) Decode(src []uint64) string { return c.inner.Decode(src) }

// mapBackend serves from a wait-free Map: a durable KV whose Put can
// report shard-full, surfaced to the client as an -ERR.
type mapBackend struct {
	m *wflocks.Map[string, string]
}

func newMapBackend(mgr *wflocks.Manager, cfg *Config, vc wflocks.Codec[string]) (Backend, error) {
	perShard := (cfg.Capacity + cfg.Shards - 1) / cfg.Shards
	m, err := wflocks.NewMapOf[string, string](mgr,
		wflocks.StringCodec(cfg.MaxKeyBytes), vc,
		wflocks.WithShards(cfg.Shards), wflocks.WithShardCapacity(perShard))
	if err != nil {
		return nil, err
	}
	return &mapBackend{m: m}, nil
}

func (b *mapBackend) Name() string { return "map" }

func (b *mapBackend) Get(key string) (string, bool) { return b.m.Get(key) }

func (b *mapBackend) Set(key, val string, ttl time.Duration) error {
	if ttl > 0 {
		return errNoTTL
	}
	if err := b.m.Put(key, val); err != nil {
		if errors.Is(err, wflocks.ErrMapFull) {
			return protoErrorf("out of memory: map shard full")
		}
		return err
	}
	return nil
}

func (b *mapBackend) Del(key string) bool { return b.m.Delete(key) }

func (b *mapBackend) LockID(key string) int { return b.m.ShardLockID(key) }

func (b *mapBackend) TableShards() []TableShardInfo {
	st := b.m.Stats()
	out := make([]TableShardInfo, len(st.Shards))
	for i, sh := range st.Shards {
		out[i] = TableShardInfo{
			Size: sh.Size, Capacity: b.m.ShardCapacity(),
			Tombstones: sh.Tombstones, MaxProbe: sh.MaxProbe, SumProbe: sh.SumProbe,
		}
	}
	return out
}

// cacheBackend serves from a wait-free Cache: Set never fails (full
// evicts by CLOCK) and PX maps to PutTTL.
type cacheBackend struct {
	c *wflocks.Cache[string, string]
}

func newCacheBackend(mgr *wflocks.Manager, cfg *Config, vc wflocks.Codec[string]) (Backend, error) {
	opts := []wflocks.CacheOption{
		wflocks.WithCacheShards(cfg.Shards), wflocks.WithCapacity(cfg.Capacity),
	}
	if cfg.TTL > 0 {
		opts = append(opts, wflocks.WithTTL(cfg.TTL))
	}
	c, err := wflocks.NewCacheOf[string, string](mgr,
		wflocks.StringCodec(cfg.MaxKeyBytes), vc, opts...)
	if err != nil {
		return nil, err
	}
	return &cacheBackend{c: c}, nil
}

func (b *cacheBackend) Name() string { return "cache" }

func (b *cacheBackend) Get(key string) (string, bool) { return b.c.Get(key) }

func (b *cacheBackend) Set(key, val string, ttl time.Duration) error {
	if ttl > 0 {
		b.c.PutTTL(key, val, ttl)
	} else {
		b.c.Put(key, val)
	}
	return nil
}

func (b *cacheBackend) Del(key string) bool { return b.c.Delete(key) }

func (b *cacheBackend) LockID(key string) int { return b.c.ShardLockID(key) }

func (b *cacheBackend) TableShards() []TableShardInfo {
	st := b.c.Stats()
	per := b.c.Capacity() / b.c.Shards()
	out := make([]TableShardInfo, len(st.Shards))
	for i, sh := range st.Shards {
		out[i] = TableShardInfo{
			Size: sh.Size, Capacity: per,
			Tombstones: sh.Tombstones, MaxProbe: sh.MaxProbe, SumProbe: sh.SumProbe,
		}
	}
	return out
}

// mutexBackend is the blocking baseline: the conventional sharded
// map[string]entry design with one sync.Mutex per shard and per-entry
// expiry. The stall hook is drawn while the shard mutex is held
// whenever an entry's value is touched, mirroring the wait-free
// backends' in-critical-section encodes — a stalled holder blocks its
// whole shard for the stall, which is exactly the behavior the
// wait-free backends exist to avoid.
type mutexBackend struct {
	shards []mutexShard
	mask   uint64
	hook   func()
}

type mutexShard struct {
	mu sync.Mutex
	m  map[string]mutexEntry
	_  [40]byte // pad to a cache line: shard locks must not false-share
}

type mutexEntry struct {
	val string
	exp int64 // UnixNano deadline; 0 = never expires
}

func newMutexBackend(cfg *Config, hook func()) Backend {
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	b := &mutexBackend{shards: make([]mutexShard, n), mask: uint64(n - 1), hook: hook}
	for i := range b.shards {
		b.shards[i].m = make(map[string]mutexEntry, cfg.Capacity/n+1)
	}
	if b.hook == nil {
		b.hook = func() {}
	}
	return b
}

func (b *mutexBackend) Name() string { return "mutex" }

// LockID reports -1: mutex shards have no wait-free lock IDs to
// correlate against.
func (b *mutexBackend) LockID(string) int { return -1 }

// fnv1a hashes key for shard selection (the same job the wait-free
// backends' codec-word hash does).
func fnv1a(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func (b *mutexBackend) shard(key string) *mutexShard {
	return &b.shards[fnv1a(key)&b.mask]
}

func (b *mutexBackend) Get(key string) (string, bool) {
	sh := b.shard(key)
	sh.mu.Lock()
	e, ok := sh.m[key]
	if !ok {
		sh.mu.Unlock()
		return "", false
	}
	b.hook()
	if e.exp != 0 && e.exp <= time.Now().UnixNano() {
		delete(sh.m, key)
		sh.mu.Unlock()
		return "", false
	}
	sh.mu.Unlock()
	return e.val, true
}

func (b *mutexBackend) Set(key, val string, ttl time.Duration) error {
	var exp int64
	if ttl > 0 {
		exp = time.Now().Add(ttl).UnixNano()
	}
	sh := b.shard(key)
	sh.mu.Lock()
	b.hook()
	sh.m[key] = mutexEntry{val: val, exp: exp}
	sh.mu.Unlock()
	return nil
}

func (b *mutexBackend) Del(key string) bool {
	sh := b.shard(key)
	sh.mu.Lock()
	_, ok := sh.m[key]
	if ok {
		b.hook()
		delete(sh.m, key)
	}
	sh.mu.Unlock()
	return ok
}

// newBackend builds the configured backend; the wait-free backends
// put their shard locks on mgr, which the caller built. vc is the value codec with any stall hook already
// applied.
func newBackend(mgr *wflocks.Manager, cfg *Config, vc wflocks.Codec[string]) (Backend, error) {
	switch cfg.Backend {
	case BackendMap:
		return newMapBackend(mgr, cfg, vc)
	case BackendCache:
		return newCacheBackend(mgr, cfg, vc)
	case BackendMutex:
		return newMutexBackend(cfg, cfg.Stall), nil
	}
	return nil, fmt.Errorf("serve: unknown backend %q (want %q, %q or %q)",
		cfg.Backend, BackendMap, BackendCache, BackendMutex)
}
