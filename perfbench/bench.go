package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"time"

	"privinf"
	"privinf/internal/delphi"
	"privinf/internal/obs"
	"privinf/internal/serve"
	"privinf/internal/transport"
)

// modelSeed fixes the demo networks' weights. The workload seed drives
// inputs and arrival times only, so every run serves the same model.
const modelSeed = 42

// inputPool is how many distinct inputs a run cycles through.
const inputPool = 64

// inputs are a run's requests with their plaintext answers: the oracle
// every private output is compared against, bit for bit.
type inputs struct {
	xs   [][]uint64
	want [][]uint64
}

// makeInputs draws the pool from the seed alone; the stream constant
// keeps it independent of the arrival schedule drawn from the same seed.
func makeInputs(model *privinf.Model, seed uint64) inputs {
	r := rand.New(rand.NewPCG(seed, 0x1f))
	in := inputs{}
	for range inputPool {
		x := make([]uint64, model.InputLen())
		for j := range x {
			x[j] = r.Uint64N(16)
		}
		in.xs = append(in.xs, x)
		in.want = append(in.want, model.Forward(x))
	}
	return in
}

func (in inputs) pick(k int) ([]uint64, []uint64) {
	k %= len(in.xs)
	return in.xs[k], in.want[k]
}

// arrivals is an open-loop schedule of n requests at rate per second
// with exponential inter-arrival gaps, drawn stratified: the n gaps are
// the n quantile midpoints of the exponential distribution, in an order
// the seed shuffles. Every seed offers the same load and the same gaps,
// and runs differ only in how bursts line up; with plain random gaps the
// tail latency swung by 15-30% between seeds.
func arrivals(seed uint64, rate float64, n int) []time.Duration {
	r := rand.New(rand.NewPCG(seed, 0xa7))
	gaps := make([]float64, n)
	for i := range gaps {
		gaps[i] = -math.Log(1-(float64(i)+0.5)/float64(n)) / rate
	}
	r.Shuffle(n, func(a, b int) { gaps[a], gaps[b] = gaps[b], gaps[a] })
	out := make([]time.Duration, n)
	var at float64
	for i := range out {
		out[i] = time.Duration(at * float64(time.Second))
		at += gaps[i]
	}
	return out
}

// env is one live engine serving one model over TCP loopback.
type env struct {
	name  string
	eng   *serve.Engine
	addr  string
	done  chan error
	build time.Duration
}

// startEnv registers, builds and pins the model's artifact, starts an
// engine on it and serves a loopback listener.
func startEnv(name string, model *privinf.Model, cfg serve.Config) (*env, error) {
	reg := serve.NewRegistry(0)
	if err := reg.Register(name, model); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := reg.Pin(name); err != nil {
		return nil, err
	}
	if _, err := reg.Get(name); err != nil {
		return nil, err
	}
	build := time.Since(t0)
	cfg.Registry, cfg.DefaultModel, cfg.PinDefaultModel = reg, name, true
	eng, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	e := &env{name: name, eng: eng, addr: ln.Addr(), done: make(chan error, 1), build: build}
	go func() { e.done <- eng.Serve(ln) }()
	return e, nil
}

func (e *env) close() error {
	e.eng.Close()
	return <-e.done
}

// sess is one client connection. Dialing the transport ourselves, as
// serve.Dial does, leaves the connection's byte counters in reach.
type sess struct {
	c          *serve.Client
	conn       *transport.Conn
	connect    time.Duration
	setupBytes uint64
}

func (s *sess) bytes() uint64 { return s.conn.SentBytes() + s.conn.RecvBytes() }

// tally counts attempts and what went wrong with them; shared by the
// goroutines of one run.
type tally struct {
	attempts, errors, mismatches, resumeMisses atomic.Int64
}

func (t *tally) failed() int64 { return t.errors.Load() + t.mismatches.Load() }

// errorShare is (errors + unverified outputs + resume misses) / attempts.
func (t *tally) errorShare() float64 {
	n := t.attempts.Load()
	if n == 0 {
		return 0
	}
	return float64(t.failed()+t.resumeMisses.Load()) / float64(n)
}

// phase holds one measured stretch of a workload. Each goroutine fills
// its own and they are merged at the end.
type phase struct {
	first      []time.Duration // connect start to the session's first verified output
	infer      []time.Duration // per request
	full       []time.Duration // full connects
	resumed    []time.Duration // resumed connects
	setupBytes []uint64        // per connect, both directions
	inferBytes uint64          // after-setup bytes of sessions, both directions
	inferences int             // verified inferences
	sloSent    int
	sloMet     int
	resumeTry  int
	resumeHit  int
	sent       int
	bufferHits int
	queueWait  []time.Duration
	genLate    []time.Duration
	// elapsed is what throughput_rps divides by: a closed loop's wall
	// time, or the open loop's summed Infer wall time, since the arrival
	// schedule, not the program, sets how long the open loop lasts.
	elapsed time.Duration
}

func (p *phase) merge(q *phase) {
	p.first = append(p.first, q.first...)
	p.infer = append(p.infer, q.infer...)
	p.full = append(p.full, q.full...)
	p.resumed = append(p.resumed, q.resumed...)
	p.setupBytes = append(p.setupBytes, q.setupBytes...)
	p.inferBytes += q.inferBytes
	p.inferences += q.inferences
	p.sloSent += q.sloSent
	p.sloMet += q.sloMet
	p.resumeTry += q.resumeTry
	p.resumeHit += q.resumeHit
	p.sent += q.sent
	p.bufferHits += q.bufferHits
	p.queueWait = append(p.queueWait, q.queueWait...)
	p.genLate = append(p.genLate, q.genLate...)
}

// slo files one request against the workload's latency limit; a failed
// request counts as a miss.
func (p *phase) slo(lat, limit time.Duration, ok bool) {
	p.sloSent++
	if ok && lat <= limit {
		p.sloMet++
	}
}

// bench is one run of one workload.
type bench struct {
	wl      workload
	size    sizing
	seed    uint64
	measure time.Duration
	// tails makes a measured stretch run on until every tail has its
	// samples; traced stretches report no tails.
	tails bool
	model *privinf.Model
	in    inputs
	env   *env
	tr    *tracer
	tally tally

	nextSession atomic.Uint64
	nextInput   atomic.Int64
	verified    atomic.Int64
	onlineBytes atomic.Uint64 // client online report bytes, both directions

	// pres are the logical clients' preambles, fresh at each set-up.
	pres []*serve.Preamble

	// Filled by set-up: one entry per set-up or warm-up leg.
	setups       []time.Duration
	builds       []time.Duration
	warmConnects []time.Duration
	readyGaps    []time.Duration
	storeBytes   []uint64
	offBytes     []uint64

	// Base-OT and keygen probe times of a traced run.
	otProbes, kgProbes []time.Duration
}

// dial opens a session and records it as a child span of parent.
func (b *bench) dial(sid, parent uint64, opts ...serve.Option) (*sess, error) {
	id := b.tr.reserve()
	t0 := time.Now()
	conn, err := transport.Dial(b.env.addr)
	if err != nil {
		return nil, err
	}
	c, err := serve.Connect(conn, append([]serve.Option{serve.WithModel(b.env.name)}, opts...)...)
	t1 := time.Now()
	if err != nil {
		conn.Close()
		return nil, err
	}
	name := "serve.dial.full"
	if c.Resumed() {
		name = "serve.dial.resumed"
	}
	b.tr.finish(id, sid, parent, name, t0, t1)
	return &sess{c: c, conn: conn, connect: t1.Sub(t0), setupBytes: conn.SentBytes() + conn.RecvBytes()}, nil
}

func (b *bench) close(s *sess, sid, parent uint64) {
	t0 := time.Now()
	s.c.Close()
	b.tr.add(sid, parent, "serve.close", t0, time.Now())
}

// infer runs one inference on s and checks it against plaintext
// inference. It returns the call's wall time and whether the output was
// verified; errors and mismatches are counted in the tally.
func (b *bench) infer(s *sess, sid, parent uint64) (time.Duration, bool) {
	x, want := b.in.pick(int(b.nextInput.Add(1)))
	traced := b.tr.on
	var off0 obs.HistogramSnapshot
	if traced {
		off0 = hClientOffline.Snapshot()
	}
	buffered := s.c.Buffered()
	id := b.tr.reserve()
	t0 := time.Now()
	out, cli, _, err := s.c.Infer(x)
	t1 := time.Now()
	b.tr.finish(id, sid, parent, "serve.infer", t0, t1)
	if err != nil {
		b.tally.errors.Add(1)
		return t1.Sub(t0), false
	}
	b.onlineBytes.Add(cli.BytesSent + cli.BytesRecv)
	if traced {
		// The call's own offline phase ran inline when nothing was
		// buffered; its length is the mean of the client offline phases
		// that finished during the call, which is exact when one session
		// runs at a time.
		b.tr.nested(sid, id, "delphi.online", cli.Duration, t1)
		if buffered == 0 {
			d := hClientOffline.Snapshot().Sub(off0)
			if d.Count > 0 {
				b.tr.nested(sid, id, "delphi.offline", time.Duration(d.Sum/int64(d.Count)), t1.Add(-cli.Duration))
			}
		}
	}
	v0 := time.Now()
	ok := slices.Equal(out, want)
	b.tr.add(sid, parent, "bench.verify", v0, time.Now())
	if !ok {
		b.tally.mismatches.Add(1)
		return t1.Sub(t0), false
	}
	b.verified.Add(1)
	return t1.Sub(t0), true
}

// session runs one client session: connect (resuming when pre holds a
// ticket), n verified inferences, close. It is the closed-loop unit of
// cold-start, warm-resume and arrival-cnn's resume legs.
func (b *bench) session(p *phase, pre *serve.Preamble, n int, limit time.Duration, sloOnFirst bool) {
	sid := b.nextSession.Add(1)
	root := b.tr.reserve()
	t0 := time.Now()
	defer func() { b.tr.finish(root, sid, 0, "session", t0, time.Now()) }()
	var opts []serve.Option
	tryResume := pre != nil && pre.HasTicket()
	if pre != nil {
		opts = append(opts, serve.WithPreamble(pre))
	}
	b.tally.attempts.Add(1)
	s, err := b.dial(sid, root, opts...)
	if err != nil {
		b.tally.errors.Add(1)
		if sloOnFirst {
			p.slo(0, limit, false)
		}
		return
	}
	defer b.close(s, sid, root)
	if tryResume {
		p.resumeTry++
		if s.c.Resumed() {
			p.resumeHit++
		} else {
			b.tally.resumeMisses.Add(1)
		}
	}
	if s.c.Resumed() {
		p.resumed = append(p.resumed, s.connect)
	} else {
		p.full = append(p.full, s.connect)
	}
	p.setupBytes = append(p.setupBytes, s.setupBytes)
	for i := range n {
		if i > 0 {
			b.tally.attempts.Add(1)
		}
		lat, ok := b.infer(s, sid, root)
		if i == 0 {
			first := time.Since(t0)
			if ok {
				p.first = append(p.first, first)
			}
			if sloOnFirst {
				p.slo(first, limit, ok)
			}
		}
		if !sloOnFirst {
			p.slo(lat, limit, ok)
		}
		if !ok {
			return
		}
		p.infer = append(p.infer, lat)
		p.inferences++
	}
	p.inferBytes += s.bytes() - s.setupBytes
}

// warmup is one set-up leg: a full connect, one explicit pre-compute
// (whose reports give the garbled-table storage and offline bytes), one
// verified inference, close.
func (b *bench) warmup(pre *serve.Preamble) error {
	var opts []serve.Option
	if pre != nil {
		opts = append(opts, serve.WithPreamble(pre))
	}
	s, err := b.dial(0, 0, opts...)
	if err != nil {
		return fmt.Errorf("warm-up connect: %w", err)
	}
	defer s.c.Close()
	b.warmConnects = append(b.warmConnects, s.connect)
	t0 := time.Now()
	cli, srv, err := s.c.Precompute()
	if err != nil {
		return fmt.Errorf("warm-up precompute: %w", err)
	}
	// Under Server-Garbler the engine finishes its half of setup after
	// the client's returns, and the first call waits for it.
	b.readyGaps = append(b.readyGaps, time.Since(t0)-cli.Duration)
	b.storeBytes = append(b.storeBytes, cli.GCStoreBytes+srv.GCStoreBytes)
	b.offBytes = append(b.offBytes, cli.BytesSent+cli.BytesRecv)
	b.tally.attempts.Add(1)
	if _, ok := b.infer(s, 0, 0); !ok {
		return errors.New("warm-up inference failed or diverged from plaintext")
	}
	return nil
}

// setUp starts a fresh engine and runs the workload's warm-up legs,
// replacing any previous engine. Its duration is one setup_s sample.
func (b *bench) setUp() error {
	if b.env != nil {
		if err := b.env.close(); err != nil {
			return err
		}
		b.env = nil
	}
	t0 := time.Now()
	e, err := startEnv(b.wl.model, b.model, b.wl.engine(b.model))
	if err != nil {
		return err
	}
	b.env = e
	b.builds = append(b.builds, e.build)
	for i := range b.pres {
		b.pres[i] = serve.NewPreamble()
		if err := b.warmup(b.pres[i]); err != nil {
			return err
		}
	}
	if len(b.pres) == 0 {
		if err := b.warmup(nil); err != nil {
			return err
		}
	}
	b.setups = append(b.setups, time.Since(t0))
	return nil
}

// done reports whether a measured stretch may stop: it has run its time
// and, when tails are reported, every tail has enough samples beyond it.
// counts pairs each sample count with the count its tail needs.
func (b *bench) done(t0 time.Time, counts ...int) bool {
	if time.Since(t0) > hardLimit {
		return true
	}
	if time.Since(t0) < b.measure {
		return false
	}
	if !b.tails {
		return true
	}
	for i := 0; i+1 < len(counts); i += 2 {
		if counts[i] < counts[i+1] {
			return false
		}
	}
	return true
}

// hardLimit stops a measured stretch that cannot gather its samples, so
// a run always ends; its tails are then refused.
const hardLimit = 100 * time.Second

// variantName names the protocol roles for the output.
func variantName(v delphi.Variant) string {
	if v == delphi.ClientGarbler {
		return "client-garbler"
	}
	return "server-garbler"
}

func meanBytes(xs []uint64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s uint64
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}
