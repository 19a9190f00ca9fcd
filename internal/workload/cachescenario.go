package workload

import (
	"fmt"

	"wflocks/internal/env"
)

// Cache workloads. Where MapScenario describes raw key-value traffic,
// CacheScenario describes traffic against the wfcache subsystem: an
// operation mix, a keyspace, a skew, and crucially a cache capacity
// smaller than the keyspace, so that hit rate, eviction pressure and
// hot-key contention all emerge from the shape rather than being
// configured directly. The three canonical shapes are read-heavy with a
// comfortable cache (cache:read), zipf-skewed hot keys over a small
// cache (cache:zipf — the "millions of users, few hot keys" regime),
// and churn with writes and deletes keeping the eviction path hot
// (cache:churn).

// CacheOpKind is one kind of cache operation in a scenario's mix.
type CacheOpKind int

const (
	CacheGet CacheOpKind = iota
	CachePut
	CacheDelete
)

// String names the op kind in tables.
func (k CacheOpKind) String() string {
	switch k {
	case CacheGet:
		return "get"
	case CachePut:
		return "put"
	case CacheDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// CacheScenario is a cache workload: an operation mix over a keyspace
// with a chosen skew, against a cache of a given capacity. Percentages
// sum to 100.
type CacheScenario struct {
	// Name identifies the scenario (the cmd/wfbench -workload flag
	// matches it, e.g. "cache:zipf").
	Name string
	// Keys is the keyspace size; ops draw keys in [0, Keys).
	Keys int
	// Capacity is the cache's total entry capacity. Hit rate is an
	// emergent property of Capacity/Keys and the skew.
	Capacity int
	// GetPct, PutPct and DeletePct give the operation mix.
	GetPct, PutPct, DeletePct int
	// Skew selects the key distribution: 0 is uniform; s > 0 draws keys
	// from a Zipf distribution with exponent s (rank i with weight
	// 1/(i+1)^s), the standard hot-key model.
	Skew float64
}

// Validate checks the scenario's internal consistency.
func (s *CacheScenario) Validate() error {
	if s.Keys <= 0 {
		return fmt.Errorf("cache scenario %q: keyspace must be positive, got %d", s.Name, s.Keys)
	}
	if s.Capacity <= 0 {
		return fmt.Errorf("cache scenario %q: capacity must be positive, got %d", s.Name, s.Capacity)
	}
	if s.GetPct < 0 || s.PutPct < 0 || s.DeletePct < 0 ||
		s.GetPct+s.PutPct+s.DeletePct != 100 {
		return fmt.Errorf("cache scenario %q: op mix %d/%d/%d must be non-negative and sum to 100",
			s.Name, s.GetPct, s.PutPct, s.DeletePct)
	}
	if s.Skew < 0 {
		return fmt.Errorf("cache scenario %q: skew must be non-negative, got %v", s.Name, s.Skew)
	}
	return nil
}

// CacheScenarios lists the built-in scenario family.
func CacheScenarios() []CacheScenario {
	return []CacheScenario{
		// Read-heavy with the cache holding half the keyspace: the
		// baseline serving shape.
		{Name: "cache:read", Keys: 256, Capacity: 128, GetPct: 95, PutPct: 5, DeletePct: 0, Skew: 0},
		// Hot keys over a small cache: the head of the zipf fits, the
		// tail always misses, and the hot shard carries most contention.
		{Name: "cache:zipf", Keys: 256, Capacity: 64, GetPct: 95, PutPct: 5, DeletePct: 0, Skew: 1.2},
		// Write/delete churn at capacity: every insert evicts, keeping
		// the eviction path (not the probe fast path) hot.
		{Name: "cache:churn", Keys: 256, Capacity: 64, GetPct: 40, PutPct: 50, DeletePct: 10, Skew: 0.6},
	}
}

// LookupCacheScenario finds a built-in scenario by name, or nil.
func LookupCacheScenario(name string) *CacheScenario {
	for _, s := range CacheScenarios() {
		if s.Name == name {
			return &s
		}
	}
	return nil
}

// CacheOpStream draws operations from a scenario with a private RNG, so
// each worker goroutine owns one stream with no shared state. The
// skewed variant draws keys from the shared Zipf sampler.
type CacheOpStream struct {
	sc   *CacheScenario
	rng  *env.RNG
	zipf *Zipf
}

// NewCacheOpStream creates a stream over sc seeded with seed.
func NewCacheOpStream(sc *CacheScenario, seed uint64) *CacheOpStream {
	st := &CacheOpStream{sc: sc, rng: env.NewRNG(seed)}
	if sc.Skew > 0 {
		st.zipf = NewZipf(sc.Keys, sc.Skew)
	}
	return st
}

// Next draws one operation: its kind from the scenario's mix and its
// key from the scenario's distribution.
func (st *CacheOpStream) Next() (CacheOpKind, int) {
	roll := st.rng.IntN(100)
	var kind CacheOpKind
	switch {
	case roll < st.sc.GetPct:
		kind = CacheGet
	case roll < st.sc.GetPct+st.sc.PutPct:
		kind = CachePut
	default:
		kind = CacheDelete
	}
	return kind, st.Key()
}

// Key draws a key index from the scenario's distribution.
func (st *CacheOpStream) Key() int {
	if st.zipf != nil {
		return st.zipf.Sample(st.rng)
	}
	return st.rng.IntN(st.sc.Keys)
}
