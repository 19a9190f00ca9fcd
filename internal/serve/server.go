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
	// Workers is the number of pool goroutines executing pipelined and
	// overlapping requests against the backend (default GOMAXPROCS,
	// floored at 4 so stalled winners always have runnable helpers). A
	// request that is alone on its connection — nothing else of the
	// connection in flight, nothing more buffered — runs on the
	// connection's writer instead and never reaches a worker.
	Workers int
	// QueueShards and QueueDepth shape the dispatch WorkPool (defaults
	// 8 shards, 4096 slots) that carries pipelined and overlapping
	// requests to the workers. Requests hash by key onto a sub-ring, so
	// one key's requests drain through one home shard while the steal
	// path rebalances uneven traffic. QueueDepth also sizes the request
	// slab, which every backend request (inline or pooled) occupies
	// until its response is written.
	QueueShards, QueueDepth int
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
	// 10s; zero keeps the default, negative disables).
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
	// request's trip through the pipeline — read, admit, queue, execute,
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
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers < 4 {
		cfg.Workers = 4
	}
	if cfg.QueueShards <= 0 {
		cfg.QueueShards = 8
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4096
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
// executed by a worker (or, when inline, by the connection's writer, see
// handleConn), written by the connection's writer. The resp buffer is
// reused across the slot's lifetimes; done is fresh per backend request
// (closed once it has executed) and the pre-closed closedChan for
// everything the reader answered itself.
type request struct {
	idx    int // slot index in the slab; -1 for responses without a backend call
	req    Request
	resp   []byte
	done   chan struct{}
	inline bool // left to the connection's writer to execute, not to the pool

	// span is the request's causal trace, stamped in place as the slot
	// moves through the pipeline (reader → worker → writer, or reader →
	// writer for a request run inline). Plain stores: each stage's
	// writes are ordered by the pipeline's own happens-before edges
	// (free-list receive, queue hand-off, done close, pending send), so
	// no stage races another. Only populated when the server records
	// spans (Config.TraceSample > 0).
	span obs.Span
}

// Server is the KV/cache service: an accept loop feeding per-connection
// reader/writer pairs, a shard-by-key WorkPool dispatching pipelined
// requests to backend workers, and a graceful drain. Construct with
// NewServer, start with Serve, stop with Shutdown.
type Server struct {
	cfg     Config
	backend Backend
	mgr     *wflocks.Manager
	pool    *wflocks.WorkPool[uint64]
	journal *wflocks.Log[uint64]

	// opHists are the per-op service-time histograms (backend call to
	// response ready), sharded by worker index (slot index for requests
	// run inline by a writer); nil without Config.Metrics.
	opGets, opSets, opDels *obs.PHist

	// spans is the request-span flight recorder; nil unless
	// Config.TraceSample > 0, and every span-stamping site is guarded
	// by that one nil check. reqID and connID label spans.
	spans  *obs.SpanRing
	reqID  atomic.Uint64
	connID atomic.Uint64

	// slab holds in-flight requests; the pool carries slab indices
	// (single-word elements keep the pool's critical sections O(1)).
	// free hands out unused slots and doubles as admission control:
	// readers block here when the service is saturated.
	slab []request
	free chan int

	workerCtx    context.Context
	workerCancel context.CancelFunc
	workersWG    sync.WaitGroup
	connsWG      sync.WaitGroup

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	draining  bool

	stats serverStats
	start time.Time
}

// serverStats is the atomic counter block behind STATS.
type serverStats struct {
	accepted, refused, curConns atomic.Int64
	gets, sets, dels, pings     atomic.Uint64
	inline                      atomic.Uint64 // backend requests run by their connection's writer
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

// NewServer builds the service: manager, backend, dispatch pool and
// worker goroutines (workers start immediately; connections arrive via
// Serve).
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()

	// The manager hosts the backend's shard locks and the pool's shard
	// locks: L=2 covers the pool's steal path, T the larger of the two
	// structures' worst critical sections, and the process bound covers
	// workers + every connection reader + headroom.
	kw := wflocks.StringCodec(cfg.MaxKeyBytes).Words()
	vw := wflocks.StringCodec(cfg.MaxValBytes).Words()
	perShard := nextPow2((cfg.Capacity + cfg.Shards - 1) / cfg.Shards)
	maxCritical := wflocks.CacheCriticalSteps(perShard, kw, vw)
	if b := wflocks.MapCriticalSteps(perShard, kw, vw); b > maxCritical {
		maxCritical = b
	}
	if b := wflocks.WorkPoolCriticalSteps(1, 1); b > maxCritical {
		maxCritical = b
	}
	if cfg.JournalCap > 0 {
		if b := wflocks.LogCriticalSteps(1, journalBatch, journalConsumers, journalSegment); b > maxCritical {
			maxCritical = b
		}
	}
	procs := cfg.Workers + cfg.MaxConns + 4
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
	pool, err := wflocks.NewWorkPoolOf[uint64](mgr, wflocks.IntegerCodec[uint64](),
		wflocks.WithPoolShards(cfg.QueueShards), wflocks.WithPoolCapacity(cfg.QueueDepth),
		wflocks.WithPoolBatch(1))
	if err != nil {
		return nil, fmt.Errorf("serve: building dispatch pool: %w", err)
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
		pool:      pool,
		journal:   journal,
		slab:      make([]request, pool.Cap()),
		free:      make(chan int, pool.Cap()),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		start:     time.Now(),
	}
	if cfg.Metrics {
		s.opGets = obs.NewPHist(cfg.Workers)
		s.opSets = obs.NewPHist(cfg.Workers)
		s.opDels = obs.NewPHist(cfg.Workers)
	}
	if cfg.TraceSample > 0 {
		s.spans = obs.NewSpanRing(cfg.SpanRing)
	}
	for i := range s.slab {
		s.slab[i].idx = i
		s.free <- i
	}
	s.workerCtx, s.workerCancel = context.WithCancel(context.Background())
	for w := 0; w < cfg.Workers; w++ {
		s.workersWG.Add(1)
		go s.worker(w)
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
// dispatch pool, for harnesses reporting its Stats/Observe snapshots.
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
	if s.draining {
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
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
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
// The reader parses commands and hands each response to the writer
// through pending, in request order (the protocol is pipelined:
// responses must come back in request order even though requests
// execute concurrently); the writer coalesces flushes.
//
// A backend request runs one of two ways. When nothing else of this
// connection is outstanding (every earlier response has been taken by
// the writer) and nothing more is buffered (br.Buffered() == 0), the
// request is the head of the connection's response order, and the
// writer would wait for it before writing anything else anyway. So it
// goes to the writer marked inline and the writer runs it itself: no
// queue hand-off, no worker wake-up, no lock attempt for dispatch.
// Otherwise — a pipelined burst, or a request sent while an earlier one
// is still in flight — it goes by key hash through the WorkPool, so
// distinct keys execute concurrently on the workers. Either way the
// reader goes straight back to parsing, so a request that arrives while
// an inline one is still running (stalled inside the backend, say)
// reaches the pool at once. Both paths take a slab slot first, so
// admission control is the same.
//
// The reader never waits for an inline request: the writer runs it only
// after flushing everything ahead of it, and a flush can wait on a
// client that is itself blocked writing to this reader. So a request
// whose same-key predecessor is an inline one not yet run goes inline
// too, and the writer's request order keeps it behind its predecessor.
func (s *Server) handleConn(conn net.Conn) {
	pending := make(chan *request, s.cfg.PipelineDepth)
	// outstanding counts responses on pending the writer has not yet
	// written out; zero means the connection is idle behind this reader.
	var outstanding atomic.Int64
	go s.connWriter(conn, pending, &outstanding)

	defer s.connsWG.Done()
	defer close(pending)
	push := func(r *request) {
		outstanding.Add(1)
		pending <- r
	}

	var connID uint64
	if s.spans != nil {
		connID = s.connID.Add(1)
	}

	// inFlight tracks the last backend request per key, so pipelined
	// commands on one connection read their own writes: a request waits
	// for its same-key predecessor to execute before dispatching (or,
	// behind an inline one, goes inline after it). Distinct keys still
	// execute concurrently, which is the pipelining contract a client
	// can actually rely on. The entry is captured by value — the slab
	// slot may be reused by another connection after retirement, but a
	// captured channel, once closed, stays closed.
	inFlight := make(map[string]keyTail)

	br := bufio.NewReader(conn)
	for {
		if s.isDraining() {
			return
		}
		if s.cfg.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		req, err := ReadCommand(br)
		if err != nil {
			if IsProtoError(err) {
				// Recoverable command error: answer in order, keep going.
				s.stats.errs.Add(1)
				push(&request{idx: -1, resp: AppendError(nil, err.Error()), done: closedChan})
				continue
			}
			return // framing error, EOF, deadline: drop the connection
		}
		if pe := s.validate(&req); pe != nil {
			s.stats.errs.Add(1)
			push(&request{idx: -1, resp: AppendError(nil, pe.Error()), done: closedChan})
			continue
		}
		switch req.Op {
		case OpPing:
			s.stats.pings.Add(1)
			push(&request{idx: -1, resp: AppendSimple(nil, "PONG"), done: closedChan})
		case OpStats:
			push(&request{idx: -1, resp: AppendBulk(nil, s.statsText()), done: closedChan})
		default:
			var readNS int64
			if s.spans != nil {
				readNS = time.Now().UnixNano()
			}
			behindInline := false
			if prev, ok := inFlight[req.Key]; ok {
				select {
				case <-prev.done:
				default:
					if behindInline = prev.inline; !behindInline {
						<-prev.done
					}
				}
			}
			// Saturated services park readers here; a forced Shutdown
			// cancels workerCtx, which must also release them (the
			// graceful path replenishes free as writers drain).
			var idx int
			select {
			case idx = <-s.free:
			case <-s.workerCtx.Done():
				return
			}
			slot := &s.slab[idx]
			slot.req = req
			slot.resp = slot.resp[:0]
			slot.done = make(chan struct{})
			slot.inline = behindInline || outstanding.Load() == 0 && br.Buffered() == 0
			if s.spans != nil {
				// A whole-struct store resets every later stage stamp
				// along with filling the identity fields.
				slot.span = obs.Span{
					ID:      s.reqID.Add(1),
					Conn:    connID,
					Slot:    idx,
					Worker:  -1,
					Op:      req.Op.String(),
					LockID:  s.backend.LockID(req.Key),
					KeyHash: fnv1a(req.Key),
					ReadNS:  readNS,
					AdmitNS: time.Now().UnixNano(),
				}
				if !slot.inline {
					// Stamped before the enqueue: the instant the call
					// returns a worker may own the slot, and a blocked
					// enqueue (queue backpressure) is queue wait too.
					slot.span.EnqNS = slot.span.AdmitNS
				}
			}
			if slot.inline {
				s.stats.inline.Add(1)
			} else if err := s.pool.EnqueueKeyed(s.workerCtx, fnv1a(req.Key), uint64(idx)); err != nil {
				// Only Shutdown cancels the pool; answer and retire.
				slot.resp = AppendError(slot.resp, "server shutting down")
				close(slot.done)
			}
			inFlight[req.Key] = keyTail{done: slot.done, inline: slot.inline}
			if len(inFlight) > 2*s.cfg.PipelineDepth {
				pruneDone(inFlight)
			}
			push(slot)
		}
	}
}

// keyTail is a connection's last backend request on one key: its done
// channel, and whether the connection's writer (not a worker) runs it.
type keyTail struct {
	done   chan struct{}
	inline bool
}

// pruneDone evicts completed entries so a long-lived connection's
// read-your-writes map stays proportional to its true in-flight window.
func pruneDone(inFlight map[string]keyTail) {
	for k, t := range inFlight {
		select {
		case <-t.done:
			delete(inFlight, k)
		default:
		}
	}
}

// closedChan is the pre-closed done channel of responses the reader
// answers without the backend (PING, STATS, protocol errors) — they
// flow through pending so ordering holds, without costing an
// allocation.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// connWriter writes responses in request order, flushing only when the
// pipeline has no further response ready — one syscall covers a burst
// of pipelined requests (write coalescing), while a lone request still
// flushes before the writer blocks. A slot from the pool is awaited on
// its done channel; one marked inline the writer runs itself (see
// finish). Each response, once copied into the write buffer, decrements
// outstanding, the count the reader consults to mark the next request
// inline; that happens before the flush, so by the time a lone
// request's client can send again its connection reads idle.
func (s *Server) connWriter(conn net.Conn, pending chan *request, outstanding *atomic.Int64) {
	defer s.connsWG.Done()
	defer s.dropConn(conn)
	bw := bufio.NewWriter(conn)
	flush := func() bool {
		if bw.Buffered() == 0 {
			return true
		}
		if s.cfg.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		}
		return bw.Flush() == nil
	}
	for {
		var r *request
		var ok bool
		select {
		case r, ok = <-pending:
		default:
			// Nothing queued: flush what we have before blocking.
			if !flush() {
				s.discard(pending)
				return
			}
			r, ok = <-pending
		}
		if !ok {
			flush()
			return
		}
		select {
		case <-r.done:
		default:
			// The response is still being computed, or is this writer's
			// to compute: flush before waiting (or running).
			if !flush() {
				// A worker may still own the slot; wait for it before the
				// slot can be handed to another connection (mirrors
				// discard's contract).
				s.finish(r)
				s.retire(r)
				s.discard(pending)
				return
			}
			s.finish(r)
		}
		_, err := bw.Write(r.resp)
		if s.spans != nil && r.idx >= 0 && r.span.ReadNS != 0 {
			// Publish the completed span before the slot can be handed
			// to another connection; the ring copies it by value.
			r.span.WriteNS = time.Now().UnixNano()
			s.spans.Publish(&r.span)
		}
		s.retire(r)
		outstanding.Add(-1)
		if err != nil {
			s.discard(pending)
			return
		}
	}
}

// retire returns a slab-backed request's slot to the free list (inline
// responses carry no slot).
func (s *Server) retire(r *request) {
	if r.idx >= 0 {
		s.free <- r.idx
	}
}

// discard drains and retires whatever is still pending after a write
// failure, so slots are not leaked when a client disappears
// mid-pipeline. Workers may still be executing these requests; finish
// awaits them so a slot is never freed while a worker can touch it, and
// runs the inline ones, so every request the reader accepted executes
// exactly once whichever path it took.
func (s *Server) discard(pending chan *request) {
	for r := range pending {
		s.finish(r)
		s.retire(r)
	}
}

// finish returns once r's response is ready: a request marked inline
// runs here, on the connection's writer, and closes its done channel so
// the reader sees its key free again; any other is awaited on its done
// channel.
func (s *Server) finish(r *request) {
	if !r.inline {
		<-r.done
		return
	}
	s.run(r, r.idx)
	close(r.done)
}

// worker executes pooled requests against the backend until Shutdown
// cancels the worker context.
func (s *Server) worker(id int) {
	defer s.workersWG.Done()
	for {
		idx, err := s.pool.Dequeue(s.workerCtx)
		if err != nil {
			return
		}
		slot := &s.slab[idx]
		if s.spans != nil {
			slot.span.DeqNS = time.Now().UnixNano()
			slot.span.Worker = id
		}
		s.run(slot, id)
		close(slot.done)
	}
}

// run executes a slot's request — on a pool worker or, inline, on the
// connection's writer — recording its service time and stamping the
// span's execute stages. shard picks the per-op histogram shard: the
// worker's index, or the slot's index when the writer runs it (PHist
// takes records from any goroutine; the index only spreads them).
func (s *Server) run(slot *request, shard int) {
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
		h.Record(shard, uint64(time.Since(t0)))
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

// isDraining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
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
		fmt.Sprintf("requests_inline:%d", s.stats.inline.Load()),
		fmt.Sprintf("errors:%d", s.stats.errs.Load()),
		fmt.Sprintf("queue_len:%d", s.pool.Len()),
		fmt.Sprintf("workers:%d", s.cfg.Workers),
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
	ps := s.pool.Stats()
	lines = append(lines, fmt.Sprintf("pool_steals:%d", ps.Steals), fmt.Sprintf("workers_parked:%d", ps.Parked))
	for i, sh := range ps.Shards {
		lines = append(lines, fmt.Sprintf("pool_shard%d:len=%d steals=%d enq=%d deq=%d", i, sh.Len, sh.Steals, sh.Enqueues, sh.Dequeues))
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
// every dispatched request completes and is written, writers flush,
// and only then do the backend workers stop. ctx bounds the wait;
// expiry force-closes what remains and returns ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("serve: Shutdown called twice")
	}
	s.draining = true
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
		// All readers and writers are gone, so no request is in flight;
		// now the workers can stop.
		s.workerCancel()
		s.workersWG.Wait()
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
		s.workerCancel()
		return ctx.Err()
	}
}
