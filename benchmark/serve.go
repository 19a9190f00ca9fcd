package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"time"

	"wflocks"
	"wflocks/internal/serve"
)

// The serve workloads drive wfserve over its in-process loopback: RESP
// parse, slab, WorkPool hop, goroutine hand-offs, ordered writer, and
// wide-codec Cache bodies underneath. 1024 keys, zipf(1.1), 32-byte
// values; every SET writes its key's one deterministic value, so every
// GET has one right answer whatever the interleaving.
const (
	serveKeys     = 1024
	serveZipfS    = 1.1
	serveStream   = 1 << 16 // requests generated per connection, replayed in a cycle
	pacedRate     = 2000    // requests per second over all connections
	stallInFlight = 4       // requests each serve-stall connection keeps in flight
)

func serveConfig() serve.Config {
	return serve.Config{Backend: serve.BackendCache, Shards: 8, Capacity: 2048, MaxKeyBytes: 16, MaxValBytes: 32}
}

// req is one generated request: a key index and whether it is a SET.
type req struct {
	key uint16
	set bool
}

type serveEnv struct {
	srv      *serve.Server
	lb       *serve.Loopback
	served   chan error
	keys     []string
	vals     []string
	clients  []*client
	streams  [][]req
	wireErrs []uint64 // per generator: I/O and protocol errors, read after the run
}

// client is one connection's RESP encoder and reply reader.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
}

// encode renders r into the client's buffer; write puts it on the wire.
func (c *client) encode(e *serveEnv, r req) {
	if r.set {
		c.buf = serve.AppendCommand(c.buf[:0], "SET", e.keys[r.key], e.vals[r.key])
	} else {
		c.buf = serve.AppendCommand(c.buf[:0], "GET", e.keys[r.key])
	}
}

func (c *client) write() error {
	_, err := c.conn.Write(c.buf)
	return err
}

// replyOK reports whether rep answers r correctly: +OK for a SET, the
// key's value as a bulk string for a GET.
func replyOK(set bool, want string, rep serve.Reply, err error) bool {
	if err != nil {
		return false
	}
	if set {
		return rep.Kind == serve.ReplySimple && rep.Str == "OK"
	}
	return rep.Kind == serve.ReplyBulk && rep.Str == want
}

// newServeEnv starts a server with the workload's configuration,
// prefills it through the backend, generates each connection's request
// stream from the seed and dials the connections.
func newServeEnv(c setupCfg, conns int, setShare float64, stall func()) (*serveEnv, error) {
	cfg := serveConfig()
	cfg.Stall = stall
	cfg.Metrics = c.metrics
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	e := &serveEnv{srv: srv, lb: serve.NewLoopback(), served: make(chan error, 1),
		wireErrs: make([]uint64, 2*conns)} // serve-paced runs two generators per connection
	go func() { e.served <- srv.Serve(e.lb) }()
	rng := newRand(c, 0)
	for i := 0; i < serveKeys; i++ {
		e.keys = append(e.keys, fmt.Sprintf("k%09d", i))
		e.vals = append(e.vals, fmt.Sprintf("%016x%016x", rng.Uint64(), rng.Uint64()))
		if err := srv.Backend().Set(e.keys[i], e.vals[i], 0); err != nil {
			return nil, errors.Join(fmt.Errorf("serve: prefill: %w", err), e.close())
		}
	}
	z := newZipf(rng, serveKeys, serveZipfS)
	for i := 0; i < conns; i++ {
		crng := newRand(c, i+1)
		stream := make([]req, serveStream)
		for j := range stream {
			stream[j] = req{key: uint16(z.sample(crng)), set: crng.Float64() < setShare}
		}
		e.streams = append(e.streams, stream)
		conn, err := e.lb.Dial()
		if err != nil {
			return nil, errors.Join(fmt.Errorf("serve: dial: %w", err), e.close())
		}
		e.clients = append(e.clients, &client{conn: conn, br: bufio.NewReader(conn)})
	}
	return e, nil
}

func (e *serveEnv) close() error {
	for _, c := range e.clients {
		c.conn.Close() // the server sees EOF; nothing is in flight once the generators returned
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	return errors.Join(err, <-e.served)
}

func (e *serveEnv) instance() *instance {
	return &instance{
		mgrs:   []*wflocks.Manager{e.srv.Manager()},
		tables: e.tables,
		counts: func() map[string]uint64 { return map[string]uint64{} },
		audit:  e.audit,
		close:  e.close,
	}
}

// tables reads the backend's open-addressed regions through the
// optional method the cache backend exports for the server's own
// metrics page.
func (e *serveEnv) tables() (size, sumProbe, maxProbe int) {
	ts, ok := e.srv.Backend().(interface{ TableShards() []serve.TableShardInfo })
	if !ok {
		return 0, 0, 0
	}
	for _, sh := range ts.TableShards() {
		size, sumProbe, maxProbe = size+sh.Size, sumProbe+sh.SumProbe, max(maxProbe, sh.MaxProbe)
	}
	return size, sumProbe, maxProbe
}

// audit checks, after the run, that the wire never failed and that
// every key still holds its value: the cache is sized so that nothing
// is ever evicted, and an evicted key would be missing here or would
// already have failed the GET that missed it.
func (e *serveEnv) audit() []string {
	var wire uint64
	for _, n := range e.wireErrs {
		wire += n
	}
	held := make([]string, len(e.keys))
	present := make([]bool, len(e.keys))
	for i, k := range e.keys {
		held[i], present[i] = e.srv.Backend().Get(k)
	}
	return auditServe(wire, e.vals, held, present)
}

func auditServe(wireErrs uint64, want, held []string, present []bool) []string {
	var out []string
	if wireErrs != 0 {
		out = append(out, fmt.Sprintf("serve: %d requests hit an I/O or protocol error", wireErrs))
	}
	for i := range want {
		if !present[i] {
			out = append(out, fmt.Sprintf("serve: key %d evicted or lost", i))
		} else if held[i] != want[i] {
			out = append(out, fmt.Sprintf("serve: key %d holds %q, want %q", i, held[i], want[i]))
		}
	}
	return out
}

// exchange sends r and reads its reply; the span covers write to reply.
func (e *serveEnv) exchange(g *gen, c *client, r req, round uint64) uint64 {
	c.encode(e, r)
	t := g.tr.now()
	err := c.write()
	var rep serve.Reply
	if err == nil {
		rep, err = serve.ReadReply(c.br)
	}
	g.tr.lap(kServeReq, round, t)
	if err != nil {
		e.wireErrs[g.id]++
	}
	if !replyOK(r.set, e.vals[r.key], rep, err) {
		return 1
	}
	return 0
}

// serve-closed: W connections, one request in flight each, 95/5
// GET/SET, raw regime: the saturated use of the dispatch layer.
func setupServeClosed(c setupCfg) (*instance, error) {
	e, err := newServeEnv(c, c.W, 0.05, nil)
	if err != nil {
		return nil, err
	}
	inst := e.instance()
	for i := range e.clients {
		inst.gens = append(inst.gens, func(g *gen) {
			g.closedLoop(1, func(round uint64) uint64 {
				return e.exchange(g, e.clients[i], e.streams[i][round%serveStream], round)
			})
		})
	}
	return inst, nil
}

// serve-stall: 80/20 GET/SET with the stall point inside the backend's
// value writes, and a sliding window of requests in flight on each of
// the W connections: stalled writers hold shard locks, so helping and
// per-connection ordering carry the result.
func setupServeStall(c setupCfg) (*instance, error) {
	sp := &stallPoint{}
	e, err := newServeEnv(c, c.W, 0.20, sp.hit)
	if err != nil {
		return nil, err
	}
	inst := e.instance()
	inst.arm = func() { sp.armed.Store(true) }
	for i := range e.clients {
		inst.gens = append(inst.gens, func(g *gen) { e.slidingWindow(g, e.clients[i], e.streams[i]) })
	}
	return inst, nil
}

// inFlight is a request sent and not yet answered.
type inFlight struct {
	r          req
	round      uint64
	phase      int32
	traced     bool
	due        int64 // open loop: when the request was due to be sent
	begun, out int64 // when the generator began encoding it, and began writing it
}

// slidingWindow keeps stallInFlight requests in flight: it reads one
// reply, checks it, and sends the next request. Latency is write to
// reply. A round span here runs from the start of encoding to the end
// of the check, so rounds overlap, but their self time is still the
// generator's own work.
func (e *serveEnv) slidingWindow(g *gen, c *client, stream []req) {
	var q [stallInFlight]inFlight
	head, n := 0, 0
	for round := uint64(0); ; {
		ph := g.phase.Load()
		for ; n < stallInFlight && ph != phStop; round++ {
			p := inFlight{r: stream[round%serveStream], round: round, phase: ph,
				traced: g.tr.every > 0 && round%g.tr.every == 0}
			p.begun = g.clock()
			c.encode(e, p.r)
			p.out = g.clock()
			if err := c.write(); err != nil {
				e.wireErrs[g.id]++
			}
			q[(head+n)%stallInFlight] = p
			n++
		}
		if n == 0 {
			return
		}
		p := q[head]
		head, n = (head+1)%stallInFlight, n-1
		e.receive(g, c, p)
	}
}

// receive reads and checks the reply to p and books the op.
func (e *serveEnv) receive(g *gen, c *client, p inFlight) {
	rep, err := serve.ReadReply(c.br)
	got := g.clock()
	if err != nil {
		e.wireErrs[g.id]++
	}
	ok := replyOK(p.r.set, e.vals[p.r.key], rep, err)
	if p.phase != phMeasure {
		g.warmOps++
	} else {
		g.ops++
		if !ok {
			g.failed++
		}
		from := p.out
		if p.due != 0 {
			from = p.due
		}
		g.lat.record(got - from)
	}
	g.tr.on = p.traced
	g.tr.add(kServeReq, p.round, p.out, got)
	g.tr.add(kRound, p.round, p.begun, g.tr.now())
}

// serve-paced: the serve-closed server driven open loop at pacedRate on
// W connections. Send times are drawn from the seed (exponential gaps),
// so the server cannot slow the schedule down; latency runs from the
// time a request was due, and how late the generator sent it is
// recorded beside it. The dispatch layer is mostly idle here, which is
// where its spin-polling workers show.
func setupServePaced(c setupCfg) (*instance, error) {
	e, err := newServeEnv(c, c.W, 0.05, nil)
	if err != nil {
		return nil, err
	}
	inst := e.instance()
	gap := float64(time.Second) * float64(len(e.clients)) / pacedRate
	for i, cl := range e.clients {
		// The server's pipeline depth (128) bounds what can be in flight;
		// the buffer only has to keep the sender from waiting on the reader.
		sent := make(chan inFlight, 1024)
		rng := newRand(c, 64+i)
		inst.gens = append(inst.gens,
			func(g *gen) { e.pacedSender(g, cl, e.streams[i], rng, gap, sent) },
			func(g *gen) {
				for p := range sent {
					e.receive(g, cl, p)
				}
			})
	}
	return inst, nil
}

func (e *serveEnv) pacedSender(g *gen, c *client, stream []req, rng *rand.Rand, gap float64, sent chan<- inFlight) {
	defer close(sent)
	due := g.clock()
	for round := uint64(0); ; round++ {
		due += int64(rng.ExpFloat64() * gap)
		if d := due - g.clock(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		ph := g.phase.Load()
		if ph == phStop {
			return
		}
		p := inFlight{r: stream[round%serveStream], round: round, phase: ph, due: due,
			traced: g.tr.every > 0 && round%g.tr.every == 0}
		p.begun = g.clock()
		c.encode(e, p.r)
		p.out = g.clock()
		if err := c.write(); err != nil {
			e.wireErrs[g.id]++
		}
		if ph == phMeasure {
			g.late.record(p.out - due)
		}
		sent <- p
	}
}
