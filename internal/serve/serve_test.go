package serve_test

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wflocks/internal/serve"
)

// startServer builds a server over a loopback listener and tears both
// down when the test ends.
func startServer(t *testing.T, cfg serve.Config) (*serve.Server, *serve.Loopback) {
	t.Helper()
	s, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	lis := serve.NewLoopback()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx) // double Shutdown errors; tests that drained already ignore this
		if err := <-serveDone; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return s, lis
}

// client wraps one loopback connection with the protocol's client side.
type client struct {
	conn net.Conn
	br   *bufio.Reader
}

func dial(t *testing.T, lis *serve.Loopback) *client {
	t.Helper()
	conn, err := lis.Dial()
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, br: bufio.NewReader(conn)}
}

// do runs one command and returns the reply.
func (c *client) do(t *testing.T, args ...string) serve.Reply {
	t.Helper()
	if _, err := c.conn.Write(serve.AppendCommand(nil, args...)); err != nil {
		t.Fatalf("write %v: %v", args, err)
	}
	r, err := serve.ReadReply(c.br)
	if err != nil {
		t.Fatalf("read reply to %v: %v", args, err)
	}
	return r
}

// liveFrames counts occurrences of frame in the dump of all goroutines.
// Pass a call frame with its opening parenthesis ("handleConn("): that
// matches a goroutine running the function, not the "created by"
// ancestry line of its children.
func liveFrames(frame string) int {
	stacks := make([]byte, 1<<20)
	stacks = stacks[:runtime.Stack(stacks, true)]
	return strings.Count(string(stacks), frame)
}

// TestServeIdleIsQuiet: a server with no traffic makes no lock attempts.
// Nothing of the server runs between requests — each connection's
// writer blocks on its empty pending channel — so the attempt counter
// stays at zero from start-up and, with every attempt traced, the
// lock-level flight recorder stays empty.
func TestServeIdleIsQuiet(t *testing.T) {
	s, lis := startServer(t, serve.Config{Backend: serve.BackendCache, TraceSample: 1})
	c := dial(t, lis)
	if r := c.do(t, "PING"); r.Str != "PONG" {
		t.Fatalf("PING = %+v", r)
	}
	time.Sleep(200 * time.Millisecond)
	if got := s.Manager().Stats().Attempts; got != 0 {
		t.Errorf("%d lock attempts without traffic, want 0", got)
	}
	if events := s.Manager().Observe().Events; len(events) != 0 {
		t.Errorf("flight recorder holds %d events without traffic, want 0", len(events))
	}
	// The server still serves after idling, a pipelined SET and GET
	// included, and the SET's lock attempt shows on the counter that
	// stood at zero.
	buf := serve.AppendCommand(nil, "SET", "k", "v")
	buf = serve.AppendCommand(buf, "GET", "k")
	if _, err := c.conn.Write(buf); err != nil {
		t.Fatalf("write SET+GET: %v", err)
	}
	if r, err := serve.ReadReply(c.br); err != nil || r.Str != "OK" {
		t.Fatalf("SET after idling = %+v, %v", r, err)
	}
	if r, err := serve.ReadReply(c.br); err != nil || r.Kind != serve.ReplyBulk || r.Str != "v" {
		t.Fatalf("GET after idling = %+v, %v", r, err)
	}
	if s.Manager().Stats().Attempts == 0 {
		t.Error("no lock attempt counted for the SET after idling")
	}
}

func TestServeEndToEnd(t *testing.T) {
	for _, backend := range []string{serve.BackendMap, serve.BackendCache, serve.BackendMutex} {
		t.Run(backend, func(t *testing.T) {
			_, lis := startServer(t, serve.Config{Backend: backend})
			c := dial(t, lis)

			if r := c.do(t, "PING"); r.Kind != serve.ReplySimple || r.Str != "PONG" {
				t.Fatalf("PING = %+v", r)
			}
			if r := c.do(t, "GET", "k"); r.Kind != serve.ReplyNull {
				t.Fatalf("GET missing = %+v, want null", r)
			}
			if r := c.do(t, "SET", "k", "hello"); r.Kind != serve.ReplySimple || r.Str != "OK" {
				t.Fatalf("SET = %+v", r)
			}
			if r := c.do(t, "GET", "k"); r.Kind != serve.ReplyBulk || r.Str != "hello" {
				t.Fatalf("GET = %+v, want bulk hello", r)
			}
			if r := c.do(t, "DEL", "k"); r.Kind != serve.ReplyInt || r.Int != 1 {
				t.Fatalf("DEL = %+v, want :1", r)
			}
			if r := c.do(t, "DEL", "k"); r.Kind != serve.ReplyInt || r.Int != 0 {
				t.Fatalf("second DEL = %+v, want :0", r)
			}
			// A command error answers -ERR and keeps the connection usable.
			if r := c.do(t, "NOPE"); r.Kind != serve.ReplyError {
				t.Fatalf("unknown command = %+v, want error", r)
			}
			if r := c.do(t, "PING"); r.Str != "PONG" {
				t.Fatalf("PING after error = %+v", r)
			}
			// STATS reports the backend and sane counters.
			r := c.do(t, "STATS")
			if r.Kind != serve.ReplyBulk || !strings.Contains(r.Str, "backend:"+backend) {
				t.Fatalf("STATS = %+v", r)
			}
		})
	}
}

func TestServePipelining(t *testing.T) {
	_, lis := startServer(t, serve.Config{})
	c := dial(t, lis)

	// Fire a burst of pipelined commands, then read every reply: they
	// must come back in request order, each GET reading its SET.
	const n = 64
	var buf []byte
	for i := 0; i < n; i++ {
		buf = serve.AppendCommand(buf, "SET", fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	for i := 0; i < n; i++ {
		buf = serve.AppendCommand(buf, "GET", fmt.Sprintf("k%d", i))
	}
	if _, err := c.conn.Write(buf); err != nil {
		t.Fatalf("write burst: %v", err)
	}
	for i := 0; i < n; i++ {
		r, err := serve.ReadReply(c.br)
		if err != nil || r.Str != "OK" {
			t.Fatalf("SET %d reply = %+v, %v", i, r, err)
		}
	}
	for i := 0; i < n; i++ {
		r, err := serve.ReadReply(c.br)
		if err != nil || r.Kind != serve.ReplyBulk || r.Str != fmt.Sprintf("v%d", i) {
			t.Fatalf("GET %d reply = %+v, %v (order violated?)", i, r, err)
		}
	}
}

func TestServeTTL(t *testing.T) {
	_, lis := startServer(t, serve.Config{Backend: serve.BackendCache})
	c := dial(t, lis)
	if r := c.do(t, "SET", "k", "v", "PX", "40"); r.Str != "OK" {
		t.Fatalf("SET PX = %+v", r)
	}
	if r := c.do(t, "GET", "k"); r.Kind != serve.ReplyBulk || r.Str != "v" {
		t.Fatalf("GET before expiry = %+v", r)
	}
	time.Sleep(60 * time.Millisecond)
	if r := c.do(t, "GET", "k"); r.Kind != serve.ReplyNull {
		t.Fatalf("GET after expiry = %+v, want null", r)
	}
}

func TestServeMapRejectsTTL(t *testing.T) {
	_, lis := startServer(t, serve.Config{Backend: serve.BackendMap})
	c := dial(t, lis)
	if r := c.do(t, "SET", "k", "v", "PX", "40"); r.Kind != serve.ReplyError {
		t.Fatalf("SET PX on map backend = %+v, want error", r)
	}
}

func TestServeSizeBounds(t *testing.T) {
	_, lis := startServer(t, serve.Config{MaxKeyBytes: 8, MaxValBytes: 8})
	c := dial(t, lis)
	if r := c.do(t, "SET", strings.Repeat("k", 9), "v"); r.Kind != serve.ReplyError {
		t.Fatalf("oversized key = %+v, want error", r)
	}
	if r := c.do(t, "SET", "k", strings.Repeat("v", 9)); r.Kind != serve.ReplyError {
		t.Fatalf("oversized value = %+v, want error", r)
	}
	// The connection survives both rejections.
	if r := c.do(t, "SET", "k", "v"); r.Str != "OK" {
		t.Fatalf("in-bounds SET after rejections = %+v", r)
	}
}

func TestServeMaxConns(t *testing.T) {
	_, lis := startServer(t, serve.Config{MaxConns: 1})
	c1 := dial(t, lis)
	if r := c1.do(t, "PING"); r.Str != "PONG" {
		t.Fatalf("first conn PING = %+v", r)
	}
	c2 := dial(t, lis)
	r, err := serve.ReadReply(c2.br)
	if err != nil || r.Kind != serve.ReplyError || !strings.Contains(r.Str, "max connections") {
		t.Fatalf("second conn greeting = %+v, %v; want max-connections error", r, err)
	}
	// The refused conn is closed by the server.
	if _, err := serve.ReadReply(c2.br); err == nil {
		t.Fatal("refused connection still open")
	}
	// The first connection is unaffected.
	if r := c1.do(t, "PING"); r.Str != "PONG" {
		t.Fatalf("first conn after refusal = %+v", r)
	}
}

// TestServeClientVanishesMidPipeline covers the failed-flush path: a
// client pipelines a command that is still inside the backend, then
// disconnects. The writer's flush fails once the stalled request
// returns; every request still pending must run exactly once and its
// slot return to the free list only after it has run, or another
// connection can reacquire a slot still in use (data race). A tiny slab
// maximizes reuse pressure; run under -race.
func TestServeClientVanishesMidPipeline(t *testing.T) {
	var mu sync.Mutex
	var gate chan struct{}
	entered := make(chan struct{}, 64)
	_, lis := startServer(t, serve.Config{
		Backend:     serve.BackendMutex,
		MaxInFlight: 2, // slab of 2 slots: retired-too-early slots get reused immediately
		Stall: func() {
			mu.Lock()
			g := gate
			mu.Unlock()
			if g != nil {
				entered <- struct{}{}
				<-g
			}
		},
	})

	for i := 0; i < 25; i++ {
		g := make(chan struct{})
		mu.Lock()
		gate = g
		mu.Unlock()

		conn, err := lis.Dial()
		if err != nil {
			t.Fatalf("iter %d: Dial: %v", i, err)
		}
		// PING buffers an unflushed PONG ahead of the stalled SET, and
		// the trailing PING queues behind it, so the writer reaches its
		// flush with bytes pending and the connection gone.
		buf := serve.AppendCommand(nil, "PING")
		buf = serve.AppendCommand(buf, "SET", fmt.Sprintf("k%d", i), "v")
		buf = serve.AppendCommand(buf, "PING")
		if _, err := conn.Write(buf); err != nil {
			t.Fatalf("iter %d: write: %v", i, err)
		}
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("iter %d: SET never reached the backend", i)
		}
		conn.Close()
		time.Sleep(time.Millisecond) // let the writer observe the dead connection

		mu.Lock()
		gate = nil
		mu.Unlock()
		close(g)

		// The service must still be intact: fresh connections get sane
		// replies and the abandoned SET was executed exactly once.
		c := dial(t, lis)
		if r := c.do(t, "SET", "probe", "ok"); r.Str != "OK" {
			t.Fatalf("iter %d: probe SET = %+v", i, r)
		}
		if r := c.do(t, "GET", fmt.Sprintf("k%d", i)); r.Kind != serve.ReplyBulk || r.Str != "v" {
			t.Fatalf("iter %d: abandoned SET lost: GET = %+v", i, r)
		}
		c.conn.Close()
	}
}

// TestServeForcedShutdownSaturated: a reader parked on slot acquisition
// (slab exhausted) must be released by a forced Shutdown even though no
// slot ever frees — otherwise the reader goroutine leaks past Shutdown.
func TestServeForcedShutdownSaturated(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 16)
	s, lis := startServer(t, serve.Config{
		Backend:     serve.BackendMutex,
		MaxInFlight: 2, // slab of 2: the third in-flight SET parks its reader on <-free
		Stall: func() {
			entered <- struct{}{}
			<-gate
		},
	})
	t.Cleanup(func() { close(gate) })

	conn, err := lis.Dial()
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	var buf []byte
	for i := 0; i < 3; i++ {
		buf = serve.AppendCommand(buf, "SET", fmt.Sprintf("k%d", i), "v")
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatalf("write burst: %v", err)
	}
	// The first SET holds its slot inside the backend, the second holds
	// the other slot queued behind it on the writer, and the third
	// leaves the reader blocked acquiring a slot.
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("SET never reached the backend")
	}
	time.Sleep(10 * time.Millisecond) // let the reader park on the free list

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: force the hard-shutdown path immediately
	if err := s.Shutdown(ctx); err != context.Canceled {
		t.Fatalf("forced Shutdown = %v, want context.Canceled", err)
	}

	// The parked reader must exit even though both slots stay in flight
	// (the gate is still closed); poll the goroutine dump for it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if liveFrames("handleConn(") == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("connection reader still parked on slot acquisition after forced shutdown")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeGracefulDrain is the drain contract: a request already
// dispatched when Shutdown begins still completes and is written back;
// new connections are refused; Shutdown returns within its deadline.
// The mutex backend's stall hook gates the in-flight request so the
// test controls exactly when it finishes.
func TestServeGracefulDrain(t *testing.T) {
	gate := make(chan struct{})
	var entered sync.Once
	inFlight := make(chan struct{})
	s, lis := startServer(t, serve.Config{
		Backend: serve.BackendMutex,
		Stall: func() {
			entered.Do(func() { close(inFlight) })
			<-gate
		},
	})

	c := dial(t, lis)
	if _, err := c.conn.Write(serve.AppendCommand(nil, "SET", "k", "v")); err != nil {
		t.Fatalf("write SET: %v", err)
	}
	// Wait until the writer holds the request inside the backend.
	select {
	case <-inFlight:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the backend")
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Draining: new connections are refused (the listener is closed).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := lis.Dial(); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("new connections still accepted while draining")
		}
		time.Sleep(time.Millisecond)
	}

	// The in-flight request must not have been dropped: release it and
	// expect its reply.
	close(gate)
	r, err := serve.ReadReply(c.br)
	if err != nil || r.Str != "OK" {
		t.Fatalf("in-flight SET reply after drain = %+v, %v", r, err)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestServeInlineWriteThenPipelinedRead: a SET sent alone is visible to
// a pipelined GET of the same key, and a pipelined SET followed by its
// GET still reads its write.
func TestServeInlineWriteThenPipelinedRead(t *testing.T) {
	_, lis := startServer(t, serve.Config{Backend: serve.BackendCache})
	c := dial(t, lis)
	if r := c.do(t, "SET", "k", "v1"); r.Str != "OK" {
		t.Fatalf("SET = %+v", r)
	}
	buf := serve.AppendCommand(nil, "GET", "k")
	buf = serve.AppendCommand(buf, "SET", "k", "v2")
	buf = serve.AppendCommand(buf, "GET", "k")
	if _, err := c.conn.Write(buf); err != nil {
		t.Fatalf("write burst: %v", err)
	}
	for i, want := range []string{"v1", "OK", "v2"} {
		r, err := serve.ReadReply(c.br)
		if err != nil || r.Str != want {
			t.Fatalf("reply %d = %+v, %v; want %s", i, r, err, want)
		}
	}
}

// TestServeForcedShutdownInlineStall: a forced Shutdown while the
// connection's writer is inside the backend (an unpipelined request
// held by the stall gate) returns ctx.Err() at once; the reader exits
// with the closed connection, and the writer as soon as the request
// finishes.
func TestServeForcedShutdownInlineStall(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	s, lis := startServer(t, serve.Config{
		Backend: serve.BackendMutex,
		Stall: func() {
			entered <- struct{}{}
			<-gate
		},
	})
	c := dial(t, lis)
	if _, err := c.conn.Write(serve.AppendCommand(nil, "SET", "k", "v")); err != nil {
		t.Fatalf("write SET: %v", err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		close(gate)
		t.Fatal("SET never reached the backend")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(ctx); err != context.Canceled {
		close(gate)
		t.Fatalf("forced Shutdown = %v, want context.Canceled", err)
	}
	if liveFrames("connWriter(") == 0 {
		close(gate)
		t.Fatal("connection writer gone while its SET is still stalled")
	}

	close(gate)
	deadline := time.Now().Add(5 * time.Second)
	for liveFrames("handleConn(")+liveFrames("connWriter(") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("connection reader or writer still running after the stalled SET finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeReadsPastStalledRequest: while the connection's writer is
// stalled inside the backend on one SET, the reader keeps reading, so
// the client's next writes return at once. What it sent behind the
// stalled SET runs only after it: the second SET enters the backend
// once the gate opens, and the replies come back in request order.
func TestServeReadsPastStalledRequest(t *testing.T) {
	gate := make(chan struct{})
	var opened atomic.Bool
	entered := make(chan bool, 2) // whether the gate was open on entry
	_, lis := startServer(t, serve.Config{
		Backend: serve.BackendMutex,
		Stall: func() {
			entered <- opened.Load()
			<-gate
		},
	})
	c := dial(t, lis)
	// The loopback is a net.Pipe: a write returns only once the server
	// reads it, so a reader that stops reading shows as a write timeout.
	c.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.conn.Write(serve.AppendCommand(nil, "SET", "k0", "v")); err != nil {
		t.Fatalf("write first SET: %v", err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		close(gate)
		t.Fatal("first SET never reached the backend")
	}
	// k0 and k1 land on distinct mutex shards (their FNV-1a hashes
	// differ in the low bit), so only the writer's order keeps the
	// second SET out of the backend.
	for _, cmd := range [][]string{{"SET", "k1", "v"}, {"PING"}} {
		if _, err := c.conn.Write(serve.AppendCommand(nil, cmd...)); err != nil {
			close(gate)
			t.Fatalf("write %v while the first SET stalls: %v", cmd, err)
		}
	}
	opened.Store(true)
	close(gate)
	select {
	case open := <-entered:
		if !open {
			t.Error("second SET entered the backend while the first was stalled")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second SET never reached the backend")
	}
	for i, want := range []string{"OK", "OK", "PONG"} {
		if r, err := serve.ReadReply(c.br); err != nil || r.Str != want {
			t.Fatalf("reply %d = %+v, %v; want %s", i, r, err, want)
		}
	}
}

// TestServeSameKeyBehindBlockedWriter: a request runs on the
// connection's writer, which may itself be blocked flushing earlier
// replies to a client that is not reading yet. A same-key request
// behind it must not make the reader wait for it: the client, still
// writing, waits on the reader, so that wait would never end. Here the
// client sends PING, SET k, GET k and PING before reading any reply.
func TestServeSameKeyBehindBlockedWriter(t *testing.T) {
	for _, backend := range []string{serve.BackendMap, serve.BackendCache, serve.BackendMutex} {
		t.Run(backend, func(t *testing.T) {
			_, lis := startServer(t, serve.Config{Backend: backend})
			c := dial(t, lis)
			// net.Pipe: each write returns once the server has read it.
			c.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
			for _, cmd := range [][]string{{"PING"}, {"SET", "k", "v"}, {"GET", "k"}, {"PING"}} {
				if _, err := c.conn.Write(serve.AppendCommand(nil, cmd...)); err != nil {
					t.Fatalf("write %v before reading any reply: %v", cmd, err)
				}
			}
			for i, want := range []string{"PONG", "OK", "v", "PONG"} {
				if r, err := serve.ReadReply(c.br); err != nil || r.Str != want {
					t.Fatalf("reply %d = %+v, %v; want %s", i, r, err, want)
				}
			}
		})
	}
}

func TestServeJournal(t *testing.T) {
	s, lis := startServer(t, serve.Config{Backend: serve.BackendMap, JournalCap: 256})
	jr := s.Journal()
	if jr == nil {
		t.Fatal("Journal() = nil with JournalCap set")
	}
	cur, err := jr.NewCursor()
	if err != nil {
		t.Fatalf("NewCursor: %v", err)
	}
	defer cur.Close()
	c := dial(t, lis)

	c.do(t, "SET", "a", "1")
	c.do(t, "SET", "b", "2")
	c.do(t, "DEL", "a")
	// A miss journals nothing: nothing was written.
	if r := c.do(t, "DEL", "nope"); r.Int != 0 {
		t.Fatalf("DEL miss = %+v", r)
	}

	// Three events, delivered as a set (distinct keys may land on
	// distinct shards, and the cursor interleaves shards)...
	var got []uint64
	for i := 0; i < 3; i++ {
		v, ok := cur.TryNext()
		if !ok {
			t.Fatalf("journal delivered only %d of 3 events", i)
		}
		got = append(got, v)
	}
	if _, ok := cur.TryNext(); ok {
		t.Fatal("journal delivered a fourth event")
	}
	want := map[uint64]int{
		serve.JournalEntry("a", true):  1,
		serve.JournalEntry("b", true):  1,
		serve.JournalEntry("a", false): 1,
	}
	for _, v := range got {
		if want[v] == 0 {
			t.Fatalf("unexpected journal event %#x", v)
		}
		want[v]--
	}
	// ...but one key's events stay in order: keyed appends pin "a" to
	// one shard, and shards deliver FIFO.
	var aEvents []uint64
	for _, v := range got {
		if v == serve.JournalEntry("a", true) || v == serve.JournalEntry("a", false) {
			aEvents = append(aEvents, v)
		}
	}
	if len(aEvents) != 2 || aEvents[0] != serve.JournalEntry("a", true) {
		t.Fatalf("key a's events out of order: %#x", aEvents)
	}

	r := c.do(t, "STATS")
	if !strings.Contains(r.Str, "journal_appends:3") || !strings.Contains(r.Str, "journal_dropped:0") {
		t.Fatalf("STATS missing journal lines:\n%s", r.Str)
	}
}

func TestServeJournalOff(t *testing.T) {
	s, lis := startServer(t, serve.Config{Backend: serve.BackendMap})
	if s.Journal() != nil {
		t.Fatal("Journal() non-nil without JournalCap")
	}
	c := dial(t, lis)
	c.do(t, "SET", "a", "1")
	if r := c.do(t, "STATS"); strings.Contains(r.Str, "journal_") {
		t.Fatalf("STATS carries journal lines without a journal:\n%s", r.Str)
	}
}

// statsField returns the integer value of one "name:value" line of a
// STATS reply.
func statsField(t *testing.T, c *client, name string) int {
	t.Helper()
	r := c.do(t, "STATS")
	for _, line := range strings.Split(r.Str, "\n") {
		if v, ok := strings.CutPrefix(strings.TrimSpace(line), name+":"); ok {
			var n int
			if _, err := fmt.Sscan(v, &n); err != nil {
				t.Fatalf("STATS %s: %q: %v", name, v, err)
			}
			return n
		}
	}
	t.Fatalf("STATS has no %s line: %q", name, r.Str)
	return 0
}

// TestServeIdleTimeout: a connection idle past ReadTimeout is dropped
// (no sooner than 7/8 of it: the deadline is re-armed lazily), and one
// that keeps sending commands within it is kept for many timeouts.
func TestServeIdleTimeout(t *testing.T) {
	const timeout = 200 * time.Millisecond
	_, lis := startServer(t, serve.Config{Backend: serve.BackendMutex, ReadTimeout: timeout})
	idle, active := dial(t, lis), dial(t, lis)
	if r := idle.do(t, "PING"); r.Str != "PONG" {
		t.Fatalf("idle PING = %+v", r)
	}
	last := time.Now()
	dropped := make(chan time.Duration, 1)
	go func() {
		idle.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		_, err := idle.br.ReadByte()
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			dropped <- -1
			return
		}
		dropped <- time.Since(last)
	}()
	for i := 0; i < 12; i++ {
		time.Sleep(timeout / 4)
		if r := active.do(t, "PING"); r.Str != "PONG" {
			t.Fatalf("active PING %d after %v = %+v", i, time.Duration(i+1)*timeout/4, r)
		}
	}
	select {
	case d := <-dropped:
		if d < 0 {
			t.Fatal("idle connection still open 10s after its last command")
		}
		if d < timeout*7/8-10*time.Millisecond {
			t.Fatalf("idle connection dropped %v after its last command, want >= 7/8 of %v", d, timeout)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("idle connection never dropped")
	}
	if n := statsField(t, active, "conns"); n != 1 {
		t.Fatalf("conns = %d after the idle connection was dropped, want 1", n)
	}
}

// TestServeSlowClientWriteTimeout: a client that sends requests and
// never reads a reply blocks the writer's flush; after WriteTimeout the
// connection is dropped. Every request the server read ran exactly
// once, and every slab slot returns.
func TestServeSlowClientWriteTimeout(t *testing.T) {
	const timeout = 200 * time.Millisecond
	var writes atomic.Int64 // backend value writes: one per SET run
	_, lis := startServer(t, serve.Config{
		Backend:       serve.BackendMutex,
		WriteTimeout:  timeout,
		MaxInFlight:   4,
		PipelineDepth: 4,
		Stall:         func() { writes.Add(1) },
	})
	slow := dial(t, lis)
	// net.Pipe: a write returns once the server has read it, so the
	// sent count is what the server accepted; once the reader is parked
	// behind the blocked writer, writes time out.
	slow.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	sent := 0
	for ; sent < 200; sent++ {
		if _, err := slow.conn.Write(serve.AppendCommand(nil, "SET", fmt.Sprintf("k%d", sent), "v")); err != nil {
			break
		}
	}
	if sent == 0 || sent == 200 {
		t.Fatalf("slow client sent %d of 200 SETs, want the server to stop reading in between", sent)
	}
	// Dropped: the replies the writer could not flush are gone, and the
	// read ends in EOF rather than in the client's own deadline.
	slow.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		if _, err := slow.br.ReadByte(); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("slow client still connected 10s after it stopped reading")
			}
			break
		}
	}
	c := dial(t, lis)
	deadline := time.Now().Add(5 * time.Second)
	for statsField(t, c, "slab_free") != statsField(t, c, "slab_cap") {
		if time.Now().After(deadline) {
			t.Fatalf("slab_free %d never returned to slab_cap %d",
				statsField(t, c, "slab_free"), statsField(t, c, "slab_cap"))
		}
		time.Sleep(time.Millisecond)
	}
	if got := writes.Load(); got != int64(sent) {
		t.Fatalf("%d SETs accepted, %d ran", sent, got)
	}
	for i := 0; i < sent; i++ {
		if r := c.do(t, "GET", fmt.Sprintf("k%d", i)); r.Str != "v" {
			t.Fatalf("GET k%d = %+v after the slow client was dropped", i, r)
		}
	}
}
