package main

import (
	"errors"
	"strings"
	"testing"

	"wflocks/internal/serve"
)

// Each audit passes a consistent input and names the fault in a
// deliberately broken one.
func TestAudits(t *testing.T) {
	ok := tally{}
	for i := uint64(1); i <= 5; i++ {
		ok.add(i)
	}
	dup := tally{} // 1,2,3,4,4: right count, one entry twice, one lost
	for _, s := range []uint64{1, 2, 3, 4, 4} {
		dup.add(s)
	}
	swapped := tally{} // 1,2,3,3,6: right count and sum, still not 1..5
	for _, s := range []uint64{1, 2, 3, 3, 6} {
		swapped.add(s)
	}
	want := []string{"v0", "v1"}
	cases := []struct {
		name  string
		got   []string
		fault string // empty: must pass
	}{
		{"pool ok", auditPool(10, 10, 55, 55, 0), ""},
		{"pool lost element", auditPool(10, 9, 55, 50, 0), "pool conservation"},
		{"pool wrong element", auditPool(10, 10, 55, 56, 0), "pool conservation"},
		{"pool left over", auditPool(10, 10, 55, 55, 1), "not empty"},
		{"counters ok", auditSum("map counters", 42, 42), ""},
		{"counters lost update", auditSum("map counters", 41, 42), "map counters: sum 41, want 42"},
		{"transfer leak", auditSum("transfer balances", 102_401, 102_400), "transfer balances"},
		{"log ok", auditLog(0, []tally{ok, ok}, []tally{ok, ok}), ""},
		{"log short", auditLog(1, []tally{ok, {}}, []tally{ok, ok}), "cursor 1, producer 1"},
		{"log duplicate", auditLog(0, []tally{dup}, []tally{ok}), "cursor 0, producer 0"},
		{"log substituted", auditLog(0, []tally{swapped}, []tally{ok}), "cursor 0, producer 0"},
		{"txn ok", auditTxn(102_400, 102_400, 0), ""},
		{"txn leak", auditTxn(102_399, 102_400, 0), "txn balances"},
		{"txn error", auditTxn(102_400, 102_400, 3), "3 Atomic calls"},
		{"serve ok", auditServe(0, want, []string{"v0", "v1"}, []bool{true, true}), ""},
		{"serve wire error", auditServe(2, want, []string{"v0", "v1"}, []bool{true, true}), "2 requests"},
		{"serve evicted", auditServe(0, want, []string{"v0", ""}, []bool{true, false}), "key 1 evicted"},
		{"serve wrong value", auditServe(0, want, []string{"v1", "v1"}, []bool{true, true}), "key 0 holds"},
	}
	for _, c := range cases {
		joined := strings.Join(c.got, "; ")
		if c.fault == "" && len(c.got) != 0 {
			t.Errorf("%s: unexpected violation %q", c.name, joined)
		}
		if c.fault != "" && !strings.Contains(joined, c.fault) {
			t.Errorf("%s: violations %q do not name %q", c.name, joined, c.fault)
		}
	}
}

func TestReplyOK(t *testing.T) {
	cases := []struct {
		name string
		set  bool
		rep  serve.Reply
		err  error
		ok   bool
	}{
		{"get hit", false, serve.Reply{Kind: serve.ReplyBulk, Str: "v"}, nil, true},
		{"get stale value", false, serve.Reply{Kind: serve.ReplyBulk, Str: "x"}, nil, false},
		{"get miss", false, serve.Reply{Kind: serve.ReplyNull}, nil, false},
		{"get refused", false, serve.Reply{Kind: serve.ReplyError, Str: "max connections reached"}, nil, false},
		{"get io error", false, serve.Reply{Kind: serve.ReplyBulk, Str: "v"}, errors.New("closed pipe"), false},
		{"set ok", true, serve.Reply{Kind: serve.ReplySimple, Str: "OK"}, nil, true},
		{"set error", true, serve.Reply{Kind: serve.ReplyError, Str: "out of memory"}, nil, false},
		{"set answered as get", true, serve.Reply{Kind: serve.ReplyBulk, Str: "v"}, nil, false},
	}
	for _, c := range cases {
		if got := replyOK(c.set, "v", c.rep, c.err); got != c.ok {
			t.Errorf("%s: replyOK = %v, want %v", c.name, got, c.ok)
		}
	}
}

// TestCacheValueAudit: a cache hit is checked against the key's one
// value, so a hit returning another key's value counts as wrong.
func TestCacheValueAudit(t *testing.T) {
	seen := map[uint64]uint64{}
	for k := uint64(0); k < structsCacheKeys; k++ {
		v := cacheValue(k)
		if other, dup := seen[v]; dup {
			t.Fatalf("keys %d and %d share the value %d: a crossed hit would pass", other, k, v)
		}
		seen[v] = k
	}
}
