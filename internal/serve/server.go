package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wflocks"
	"wflocks/internal/obs"
)

// Backend selectors for Config.Backend.
const (
	BackendMap   = "map"
	BackendCache = "cache"
	BackendMutex = "mutex"
)

// Config shapes a Server. The zero value is not usable; call
// (*Config).withDefaults via NewServer, which fills every unset field.
type Config struct {
	// Backend selects the storage: BackendMap, BackendCache or
	// BackendMutex (default BackendMap).
	Backend string
	// Shards is the backend shard count (default 8).
	Shards int
	// Capacity is the backend's total entry capacity (default 65536).
	Capacity int
	// TTL is the cache backend's default time-to-live (0 = entries
	// never expire unless SET ... PX asks).
	TTL time.Duration
	// MaxKeyBytes and MaxValBytes bound key and value sizes; oversized
	// arguments are rejected with -ERR before touching the backend
	// (they also size the fixed-width string codecs, so keep them
	// honest: every stored entry pays for the full width).
	MaxKeyBytes, MaxValBytes int
	// MaxInFlight bounds the backend requests the whole server holds
	// between parse and reply (default 4096): each occupies a slot of the
	// request slab until its response is written, and a reader that finds
	// the slab empty waits for a slot. This is the admission control.
	MaxInFlight int
	// JournalCap, when positive, attaches a wflog change journal of
	// that capacity: every successful SET and DEL appends a key-hash
	// event, and subscribers attach cursors through Server.Journal.
	// Appends are keyed by the hash, so one key's events stay in shard
	// order. The journal is lossy by design: a subscriber that pins
	// retention makes further appends drop (counted in STATS as
	// journal_dropped) rather than ever blocking request execution.
	JournalCap int
	// PipelineDepth bounds how many responses one connection may have
	// in flight before its reader stops reading new requests (default
	// 128). This is per-connection backpressure, not admission control.
	PipelineDepth int
	// MaxConns bounds concurrently served connections; dials beyond it
	// are told "-ERR max connections reached" and closed (default 256).
	MaxConns int
	// ReadTimeout caps how long a connection may sit idle between
	// commands; WriteTimeout caps each response flush (defaults 60s and
	// 10s; zero keeps the default, negative disables). A deadline is
	// re-armed only once the armed one is more than 1/8 of its timeout
	// old, not per command or flush, so the limit actually applied lies
	// in [7/8·T, T].
	ReadTimeout, WriteTimeout time.Duration
	// Stall, when non-nil, is called on every backend value write while
	// the protecting lock (or mutex) is held — the benchmark harness's
	// holder-stall injection point. Production servers leave it nil.
	Stall func()
	// Metrics enables the manager's latency histograms
	// (wflocks.WithMetrics) plus the server's own per-op latency
	// histograms, feeding the extended STATS fields and the /metrics
	// exposition (MetricsMux). TraceSample > 0 additionally attaches the
	// sampled flight recorder (wflocks.WithTracing, implying Metrics).
	Metrics     bool
	TraceSample int
	// TraceRing is the lock-level flight recorder's event capacity
	// (default 4096, the library's).
	TraceRing int
	// SpanRing is the capacity of the request-span flight recorder
	// (default 2048). Spans are recorded whenever TraceSample > 0: every
	// request's trip through the pipeline — read, admit, wait, execute,
	// flush — is stamped in its slab slot and published on completion,
	// joinable against the lock-level flight recorder by lock ID (see
	// WriteTrace and /debug/wftrace on MetricsMux).
	SpanRing int
	// WatchdogDelaySteps and WatchdogHelpRun arm the lock manager's
	// stall watchdog (wflocks.WithStallWatchdog, implying Metrics): an
	// attempt charged more delay-schedule steps than the former, or a
	// single help run longer than the latter, counts a stall alert —
	// exposed as wflocks_stall_alerts_total on /metrics and as
	// stall_alerts plus an alert ring in STATS. Zero disables that
	// bound.
	WatchdogDelaySteps uint64
	WatchdogHelpRun    time.Duration
}

// withDefaults fills unset fields.
func (cfg Config) withDefaults() Config {
	if cfg.Backend == "" {
		cfg.Backend = BackendMap
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 65536
	}
	if cfg.MaxKeyBytes <= 0 {
		cfg.MaxKeyBytes = 64
	}
	if cfg.MaxValBytes <= 0 {
		cfg.MaxValBytes = 128
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4096
	}
	if cfg.PipelineDepth <= 0 {
		cfg.PipelineDepth = 128
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 256
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = 60 * time.Second
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.TraceSample > 0 {
		cfg.Metrics = true
	}
	if cfg.WatchdogDelaySteps > 0 || cfg.WatchdogHelpRun > 0 {
		cfg.Metrics = true
	}
	if cfg.SpanRing <= 0 {
		cfg.SpanRing = 2048
	}
	if cfg.TraceRing <= 0 {
		cfg.TraceRing = 4096
	}
	return cfg
}

// request is one in-flight command: filled by a connection reader,
// executed and written by the connection's writer. The resp buffer is
// reused across the slot's lifetimes. Responses the reader answers
// itself (PING, STATS, protocol errors) are requests with idx -1 and no
// slab slot.
type request struct {
	idx  int // slot index in the slab; -1 for responses without a backend call
	req  Request
	resp []byte
	// more records that the reader still had input of this connection
	// buffered when it queued the request: another request follows at
	// once, so the writer holds its flush for it (see connWriter).
	more bool

	// span is the request's causal trace, stamped in place as the slot
	// moves from the reader to the writer. Plain stores: the pending
	// channel orders the reader's stamps before the writer's, so no
	// stage races another. Only populated when the server records spans
	// (Config.TraceSample > 0).
	span obs.Span
}

// Server is the KV/cache service: an accept loop feeding
// per-connection reader/writer pairs, where each connection's writer
// runs its requests against the backend in order, and a graceful drain.
// Construct with NewServer, start with Serve, stop with Shutdown.
type Server struct {
	cfg     Config
	backend Backend
	mgr     *wflocks.Manager
	journal *wflocks.Log[uint64]

	// opHists are the per-op service-time histograms (backend call to
	// response ready), sharded by slab slot index; nil without
	// Config.Metrics.
	opGets, opSets, opDels *obs.PHist

	// spans is the request-span flight recorder; nil unless
	// Config.TraceSample > 0, and every span-stamping site is guarded
	// by that one nil check. reqID and connID label spans.
	spans  *obs.SpanRing
	reqID  atomic.Uint64
	connID atomic.Uint64

	// slab holds in-flight requests. free hands out unused slots and
	// doubles as admission control: readers block here when the
	// service is saturated. forced is closed by a Shutdown whose
	// context expires, releasing readers parked on free.
	slab   []request
	free   chan int
	forced chan struct{}

	connsWG sync.WaitGroup

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	// draining is set once, under mu, by Shutdown; readers load it per
	// command without taking mu.
	draining atomic.Bool

	stats serverStats
	start time.Time
}

// serverStats is the atomic counter block behind STATS.
type serverStats struct {
	accepted, refused, curConns atomic.Int64
	gets, sets, dels, pings     atomic.Uint64
	hits                        atomic.Uint64
	errs                        atomic.Uint64
	journalDrops                atomic.Uint64
}

// Journal shape: the segment is the reclamation granularity, the batch
// bounds subscriber NextBatch chunks, and the consumer pool caps
// concurrently attached subscribers. Fixed rather than configured —
// they size critical-section budgets, not semantics.
const (
	journalSegment   = 64
	journalBatch     = 8
	journalConsumers = 8
)

// NewServer builds the service: manager, backend and request slab
// (connections arrive via Serve).
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()

	// The manager hosts the backend's shard locks and the journal's:
	// L=2 covers the journal's two-lock cursor advance, T the largest of
	// the structures' worst critical sections, and the process bound
	// covers every connection's writer (the goroutines that run
	// requests) plus headroom.
	kw := wflocks.StringCodec(cfg.MaxKeyBytes).Words()
	vw := wflocks.StringCodec(cfg.MaxValBytes).Words()
	perShard := nextPow2((cfg.Capacity + cfg.Shards - 1) / cfg.Shards)
	maxCritical := wflocks.CacheCriticalSteps(perShard, kw, vw)
	if b := wflocks.MapCriticalSteps(perShard, kw, vw); b > maxCritical {
		maxCritical = b
	}
	if cfg.JournalCap > 0 {
		if b := wflocks.LogCriticalSteps(1, journalBatch, journalConsumers, journalSegment); b > maxCritical {
			maxCritical = b
		}
	}
	procs := cfg.MaxConns + 4
	// The paper's §6.2 unknown-bounds adaptive-delay configuration:
	// per-lock contention after sharding is far below procs, which is
	// the regime the adaptive delays exploit.
	opts := []wflocks.Option{
		wflocks.WithUnknownBounds(procs),
		wflocks.WithMaxLocks(2),
		wflocks.WithMaxCriticalSteps(maxCritical),
	}
	if cfg.TraceSample > 0 {
		opts = append(opts, wflocks.WithTracing(cfg.TraceSample),
			wflocks.WithTraceRing(cfg.TraceRing))
	} else if cfg.Metrics {
		opts = append(opts, wflocks.WithMetrics())
	}
	if cfg.WatchdogDelaySteps > 0 || cfg.WatchdogHelpRun > 0 {
		opts = append(opts, wflocks.WithStallWatchdog(cfg.WatchdogDelaySteps, cfg.WatchdogHelpRun))
	}
	mgr, err := wflocks.New(opts...)
	if err != nil {
		return nil, fmt.Errorf("serve: building manager: %w", err)
	}

	vc := wflocks.Codec[string](wflocks.StringCodec(cfg.MaxValBytes))
	if cfg.Stall != nil {
		vc = hookCodec{inner: vc, hook: cfg.Stall}
	}
	backend, err := newBackend(mgr, &cfg, vc)
	if err != nil {
		return nil, err
	}
	var journal *wflocks.Log[uint64]
	if cfg.JournalCap > 0 {
		// Small journals get a proportionally finer reclamation grain:
		// the segment cannot exceed one shard's ring.
		seg := journalSegment
		if per := nextPow2((cfg.JournalCap + 7) / 8); per < seg {
			seg = per
		}
		journal, err = wflocks.NewLog[uint64](mgr,
			wflocks.WithLogCapacity(cfg.JournalCap), wflocks.WithLogSegment(seg),
			wflocks.WithLogBatch(journalBatch), wflocks.WithLogConsumers(journalConsumers))
		if err != nil {
			return nil, fmt.Errorf("serve: building journal: %w", err)
		}
	}

	s := &Server{
		cfg:       cfg,
		backend:   backend,
		mgr:       mgr,
		journal:   journal,
		slab:      make([]request, cfg.MaxInFlight),
		free:      make(chan int, cfg.MaxInFlight),
		forced:    make(chan struct{}),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		start:     time.Now(),
	}
	if cfg.Metrics {
		s.opGets = obs.NewPHist(runtime.GOMAXPROCS(0))
		s.opSets = obs.NewPHist(runtime.GOMAXPROCS(0))
		s.opDels = obs.NewPHist(runtime.GOMAXPROCS(0))
	}
	if cfg.TraceSample > 0 {
		s.spans = obs.NewSpanRing(cfg.SpanRing)
	}
	for i := range s.slab {
		s.slab[i].idx = i
		s.free <- i
	}
	return s, nil
}

// nextPow2 rounds n up to a power of two.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Backend exposes the storage for tests and harnesses.
func (s *Server) Backend() Backend { return s.backend }

// Manager exposes the wait-free lock manager hosting the backend and
// journal, for harnesses reporting its Stats/Observe snapshots.
func (s *Server) Manager() *wflocks.Manager { return s.mgr }

// Journal exposes the change journal (nil unless Config.JournalCap is
// set). Subscribers attach cursors with NewCursor/NewTailCursor and
// read JournalEntry-encoded events; a subscriber that falls behind
// pins retention only until the log fills, after which new events are
// dropped (see Config.JournalCap).
func (s *Server) Journal() *wflocks.Log[uint64] { return s.journal }

// JournalEntry encodes the journal event for key: the key's FNV-1a
// hash with the low bit replaced by the op (1 = SET, 0 = DEL).
func JournalEntry(key string, set bool) uint64 {
	e := fnv1a(key) &^ 1
	if set {
		e |= 1
	}
	return e
}

// journalAppend records a successful write. Keyed by the hash so one
// key's events stay in per-shard append order; never blocks — a full
// journal drops the event and counts it.
func (s *Server) journalAppend(key string, set bool) {
	if s.journal == nil {
		return
	}
	if !s.journal.TryAppendKeyed(fnv1a(key), JournalEntry(key, set)) {
		s.stats.journalDrops.Add(1)
	}
}

// Serve accepts connections on lis until Shutdown (or a listener
// error). Several Serve calls may run on distinct listeners. Serve
// returns nil after a graceful Shutdown.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		lis.Close()
		return errors.New("serve: server is shut down")
	}
	s.listeners[lis] = struct{}{}
	s.mu.Unlock()

	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			delete(s.listeners, lis)
			draining := s.draining.Load()
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		if int(s.stats.curConns.Load()) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.stats.refused.Add(1)
			conn.Write(AppendError(nil, "max connections reached"))
			conn.Close()
			continue
		}
		s.stats.curConns.Add(1)
		s.stats.accepted.Add(1)
		s.conns[conn] = struct{}{}
		s.connsWG.Add(2) // reader + writer
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// dropConn unregisters a finished connection.
func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.stats.curConns.Add(-1)
	conn.Close()
}

// handleConn runs a connection's reader loop and spawns its writer.
// The reader parses commands and hands each to the writer through
// pending, in request order; the writer runs the backend requests one
// at a time in that order and writes their responses (see connWriter).
// Running them in order is what a pipelining client relies on:
// responses come back in request order, and every request reads the
// writes its connection sent before it, with no per-key bookkeeping.
//
// A backend request takes a slab slot first (admission control). The
// reader never waits for a request to execute: it goes straight back to
// parsing, so a request sent while an earlier one is stalled inside the
// backend is read, admitted and queued at once, and only pending's
// capacity (Config.PipelineDepth) or an empty slab makes it stop.
func (s *Server) handleConn(conn net.Conn) {
	pending := make(chan *request, s.cfg.PipelineDepth)
	go s.connWriter(conn, pending)

	defer s.connsWG.Done()
	defer close(pending)

	var connID uint64
	if s.spans != nil {
		connID = s.connID.Add(1)
	}

	br := bufio.NewReader(conn)
	push := func(r *request) {
		r.more = br.Buffered() > 0
		pending <- r
	}
	idle := deadline{set: conn.SetReadDeadline, timeout: s.cfg.ReadTimeout}
	for {
		if s.draining.Load() {
			return
		}
		idle.arm()
		req, err := ReadCommand(br)
		if err != nil {
			if IsProtoError(err) {
				// Recoverable command error: answer in order, keep going.
				s.stats.errs.Add(1)
				push(&request{idx: -1, resp: AppendError(nil, err.Error())})
				continue
			}
			return // framing error, EOF, deadline: drop the connection
		}
		if pe := s.validate(&req); pe != nil {
			s.stats.errs.Add(1)
			push(&request{idx: -1, resp: AppendError(nil, pe.Error())})
			continue
		}
		switch req.Op {
		case OpPing:
			s.stats.pings.Add(1)
			push(&request{idx: -1, resp: AppendSimple(nil, "PONG")})
		case OpStats:
			push(&request{idx: -1, resp: AppendBulk(nil, s.statsText())})
		default:
			var readNS int64
			if s.spans != nil {
				readNS = time.Now().UnixNano()
			}
			// Saturated services park readers here; a forced Shutdown
			// closes forced, which must also release them (the graceful
			// path replenishes free as writers drain).
			var idx int
			select {
			case idx = <-s.free:
			case <-s.forced:
				return
			}
			slot := &s.slab[idx]
			slot.req = req
			if s.spans != nil {
				// A whole-struct store resets every later stage stamp
				// along with filling the identity fields.
				slot.span = obs.Span{
					ID:      s.reqID.Add(1),
					Conn:    connID,
					Slot:    idx,
					Op:      req.Op.String(),
					LockID:  s.backend.LockID(req.Key),
					KeyHash: fnv1a(req.Key),
					ReadNS:  readNS,
					AdmitNS: time.Now().UnixNano(),
				}
			}
			push(slot)
		}
	}
}

// connWriter runs and writes the connection's requests in request
// order: a backend request executes here, so one connection has at
// most one request inside the backend at a time, and its response,
// like one the reader answered itself, is copied into the write buffer.
// The writer flushes only when no further request is queued and the
// reader has none left to parse from input already received — one
// syscall covers a pipelined burst (write coalescing), while a lone
// request still flushes before the writer blocks. Holding the flush
// for the rest of a burst also matters on an unbuffered transport
// (net.Pipe, a full TCP window): a flush there waits for the client to
// read, and a request behind it would wait with it.
func (s *Server) connWriter(conn net.Conn, pending chan *request) {
	defer s.connsWG.Done()
	defer s.dropConn(conn)
	bw := bufio.NewWriter(conn)
	slow := deadline{set: conn.SetWriteDeadline, timeout: s.cfg.WriteTimeout}
	flush := func() bool {
		if bw.Buffered() == 0 {
			return true
		}
		slow.arm()
		return bw.Flush() == nil
	}
	hold := false // the last request's more: the reader is still parsing
	for {
		var r *request
		var ok bool
		select {
		case r, ok = <-pending:
		default:
			// Nothing queued: flush what we have before blocking.
			if !hold && !flush() {
				s.discard(conn, pending)
				return
			}
			r, ok = <-pending
		}
		if !ok {
			flush()
			return
		}
		if r.idx >= 0 {
			s.run(r)
		}
		_, err := bw.Write(r.resp)
		if s.spans != nil && r.idx >= 0 && r.span.ReadNS != 0 {
			// Publish the completed span before the slot can be handed
			// to another connection; the ring copies it by value.
			r.span.WriteNS = time.Now().UnixNano()
			s.spans.Publish(&r.span)
		}
		hold = r.more
		s.retire(r)
		if err != nil {
			s.discard(conn, pending)
			return
		}
	}
}

// retire returns a slab-backed request's slot to the free list
// (responses the reader answered carry no slot).
func (s *Server) retire(r *request) {
	if r.idx >= 0 {
		s.free <- r.idx
	}
}

// discard runs and retires whatever is still pending after a write
// failure: the client is gone or not reading, but every request the
// reader accepted executes exactly once, and no slot is leaked. It
// closes the connection first, so the reader's next read fails and it
// stops accepting: a client that keeps writing without reading would
// otherwise keep its requests running here for as long as it writes.
func (s *Server) discard(conn net.Conn, pending chan *request) {
	conn.Close()
	for r := range pending {
		if r.idx >= 0 {
			s.run(r)
		}
		s.retire(r)
	}
}

// run executes a slot's request on the connection's writer, recording
// its service time (histogram shard = slot index: PHist takes records
// from any goroutine, the index only spreads them) and stamping the
// span's execute stages.
func (s *Server) run(slot *request) {
	if s.opGets == nil {
		// Spans imply metrics, so there is nothing to stamp either.
		slot.resp = s.execute(slot.resp[:0], &slot.req)
		return
	}
	t0 := time.Now()
	if s.spans != nil {
		slot.span.ExecNS = t0.UnixNano()
	}
	slot.resp = s.execute(slot.resp[:0], &slot.req)
	if h := s.opHist(slot.req.Op); h != nil {
		h.Record(slot.idx, uint64(time.Since(t0)))
	}
	if s.spans != nil {
		slot.span.DoneNS = time.Now().UnixNano()
	}
}

// opHist picks the per-op latency histogram (nil for ops not measured).
func (s *Server) opHist(op Op) *obs.PHist {
	switch op {
	case OpGet:
		return s.opGets
	case OpSet:
		return s.opSets
	case OpDel:
		return s.opDels
	}
	return nil
}

// execute runs one command against the backend, appending the RESP
// reply to dst.
func (s *Server) execute(dst []byte, req *Request) []byte {
	switch req.Op {
	case OpGet:
		s.stats.gets.Add(1)
		if v, ok := s.backend.Get(req.Key); ok {
			s.stats.hits.Add(1)
			return AppendBulk(dst, v)
		}
		return AppendNullBulk(dst)
	case OpSet:
		s.stats.sets.Add(1)
		if err := s.backend.Set(req.Key, req.Val, req.TTL); err != nil {
			s.stats.errs.Add(1)
			return AppendError(dst, err.Error())
		}
		s.journalAppend(req.Key, true)
		return AppendSimple(dst, "OK")
	case OpDel:
		s.stats.dels.Add(1)
		if s.backend.Del(req.Key) {
			s.journalAppend(req.Key, false)
			return AppendInt(dst, 1)
		}
		return AppendInt(dst, 0)
	}
	return AppendError(dst, "unreachable op")
}

// validate applies the configured size bounds before a request reaches
// the slab (oversized keys would panic the fixed-width codec — the
// bound is the protocol's, enforced here).
func (s *Server) validate(req *Request) error {
	if len(req.Key) > s.cfg.MaxKeyBytes {
		return protoErrorf("key exceeds %d bytes", s.cfg.MaxKeyBytes)
	}
	if len(req.Val) > s.cfg.MaxValBytes {
		return protoErrorf("value exceeds %d bytes", s.cfg.MaxValBytes)
	}
	return nil
}

// deadline arms one of a connection's deadlines (set) timeout ahead,
// re-arming it only once the armed one is more than timeout/8 old: on
// some transports (net.Pipe) every set starts a fresh timer, so a set
// per command or flush would allocate per request. The deadline in
// force is thus between 7/8 and all of timeout away. A non-positive
// timeout arms nothing.
type deadline struct {
	set     func(time.Time) error
	timeout time.Duration
	armed   time.Time
}

func (d *deadline) arm() {
	if d.timeout <= 0 {
		return
	}
	if now := time.Now(); now.Sub(d.armed) > d.timeout/8 {
		d.set(now.Add(d.timeout))
		d.armed = now
	}
}

// statsAlerts bounds the alert lines STATS renders (single digits keep
// the lexicographically sorted output in ring order).
const statsAlerts = 8

// Spans snapshots the request-span flight recorder, ordered by request
// ID; nil unless Config.TraceSample > 0.
func (s *Server) Spans() []obs.Span {
	if s.spans == nil {
		return nil
	}
	return s.spans.Snapshot()
}

// statsText renders the STATS reply.
func (s *Server) statsText() string {
	lines := []string{
		fmt.Sprintf("backend:%s", s.backend.Name()),
		fmt.Sprintf("uptime_ms:%d", time.Since(s.start).Milliseconds()),
		fmt.Sprintf("conns:%d", s.stats.curConns.Load()),
		fmt.Sprintf("accepted:%d", s.stats.accepted.Load()),
		fmt.Sprintf("refused:%d", s.stats.refused.Load()),
		fmt.Sprintf("gets:%d", s.stats.gets.Load()),
		fmt.Sprintf("hits:%d", s.stats.hits.Load()),
		fmt.Sprintf("sets:%d", s.stats.sets.Load()),
		fmt.Sprintf("dels:%d", s.stats.dels.Load()),
		fmt.Sprintf("pings:%d", s.stats.pings.Load()),
		fmt.Sprintf("errors:%d", s.stats.errs.Load()),
		fmt.Sprintf("slab_free:%d", len(s.free)),
		fmt.Sprintf("slab_cap:%d", cap(s.free)),
	}
	ms := s.mgr.Stats()
	lines = append(lines,
		fmt.Sprintf("lock_attempts:%d", ms.Attempts),
		fmt.Sprintf("lock_helps:%d", ms.Helps),
		fmt.Sprintf("lock_help_completions:%d", ms.HelpCompletions),
		fmt.Sprintf("help_rate:%.4f", ms.HelpRate()),
		fmt.Sprintf("fastpath_rate:%.4f", ms.FastPathRate()),
	)
	if s.journal != nil {
		js := s.journal.Stats()
		lines = append(lines,
			fmt.Sprintf("journal_appends:%d", js.Appends),
			fmt.Sprintf("journal_trimmed:%d", js.Trimmed),
			fmt.Sprintf("journal_retained:%d", js.Len),
			fmt.Sprintf("journal_lag_max:%d", js.MaxLag),
			fmt.Sprintf("journal_reads:%d", js.Reads),
			fmt.Sprintf("journal_dropped:%d", s.stats.journalDrops.Load()),
		)
	}
	if os := s.mgr.Observe(); os.Enabled {
		lines = append(lines,
			fmt.Sprintf("delay_share:%.4f", os.DelayShare()),
			fmt.Sprintf("acquire_ns_p50:%d", os.Acquire.Quantile(0.50)),
			fmt.Sprintf("acquire_ns_p99:%d", os.Acquire.Quantile(0.99)),
			fmt.Sprintf("help_run_ns_p50:%d", os.HelpRun.Quantile(0.50)),
			fmt.Sprintf("help_run_ns_p99:%d", os.HelpRun.Quantile(0.99)),
			fmt.Sprintf("stall_alerts:%d", os.StallAlerts),
		)
		// The watchdog's last alerts, newest last (at most statsAlerts
		// so the zero-padded index keeps the sorted output in order).
		alerts := os.Alerts
		if len(alerts) > statsAlerts {
			alerts = alerts[len(alerts)-statsAlerts:]
		}
		for i, ev := range alerts {
			lines = append(lines, fmt.Sprintf("alert%d:%s lock=%d pid=%d value=%d",
				i, ev.Kind, ev.LockID, ev.Pid, ev.Value))
		}
		for _, oh := range []struct {
			name string
			h    *obs.PHist
		}{{"get", s.opGets}, {"set", s.opSets}, {"del", s.opDels}} {
			if oh.h == nil {
				continue
			}
			hist := oh.h.Snapshot()
			if hist.Count() == 0 {
				continue
			}
			lines = append(lines, fmt.Sprintf("%s_ns_p50:%d", oh.name, hist.Quantile(0.50)),
				fmt.Sprintf("%s_ns_p99:%d", oh.name, hist.Quantile(0.99)))
		}
	}
	sort.Strings(lines)
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}

// Shutdown drains the server: listeners close (new connections are
// refused), connection readers stop at their next command boundary,
// and every request already read runs, is written back and flushed
// before its writer exits. ctx bounds the wait; expiry force-closes the
// connections, releases readers parked on the slab and returns
// ctx.Err(). A writer inside the backend at that moment exits once its
// request returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		return errors.New("serve: Shutdown called twice")
	}
	s.draining.Store(true)
	for lis := range s.listeners {
		lis.Close()
	}
	// Unblock readers parked in Read: an immediate deadline surfaces as
	// a read error, the reader sees draining and exits cleanly, and its
	// writer drains the pipeline behind it.
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.connsWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		close(s.forced)
		return ctx.Err()
	}
}
