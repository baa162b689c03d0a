// Package serve is the multi-client serving engine: it turns the one-pair
// DELPHI protocol stack into a server that accepts N concurrent client
// sessions over a transport listener (TCP or in-process pipe), keeps each
// session's pre-compute buffer filled by a background scheduler operating
// under a global client-storage budget and a bounded offline worker pool,
// and reports per-session and aggregate metrics.
//
// This is the deployment shape the paper's arrival-rate analysis (§3–§5)
// models: pre-computes are produced ahead of Poisson-arriving requests,
// client storage bounds how many may buffer, and request-level parallelism
// across sessions comes from aggregate client storage scaling with the
// session count (§5.2). The scheduler's refill policy is shared with the
// discrete-event simulator (sim.NeediestClient), so measured engine
// behavior and simulated predictions can be compared directly.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"privinf/internal/delphi"
	"privinf/internal/nn"
	"privinf/internal/obs"
	"privinf/internal/transport"
)

// DefaultModelName is the registry name an engine gives a model supplied
// through the single-model Config fields (Model / Artifact).
const DefaultModelName = "default"

// Config parameterizes an Engine.
type Config struct {
	// Registry holds the named models this engine serves; clients pick one
	// by name in the handshake. Built artifacts live under the registry's
	// byte budget with LRU eviction. Mutually exclusive with Model and
	// Artifact. A registry may be shared by several engines.
	Registry *Registry
	// DefaultModel is the name served when a client's hello does not name
	// a model. Empty defaults to the registry's single entry when it has
	// exactly one; with several models and no default, unnamed hellos are
	// rejected.
	DefaultModel string
	// RegistryBudget is the artifact byte budget applied when the engine
	// builds its own registry from Model/Artifact (<= 0 unbounded). Ignored
	// when Registry is set — the caller's registry carries its own budget.
	RegistryBudget int64
	// ArtifactDir, when non-empty, backs the engine's private registry with
	// a disk artifact store rooted there (see ArtifactStore): misses load
	// from disk before building, builds are written through, and eviction
	// spills instead of dropping. Applies to the Model/Artifact
	// configurations; mutually exclusive with Registry — a caller-built
	// registry carries its own store (NewRegistryWithStore).
	ArtifactDir string

	// Model is the single network to serve (the one-model configuration):
	// the engine wraps it in a private registry under DefaultModelName.
	// Weights stay server-side. May be nil when Artifact or Registry is set.
	Model *nn.Lowered
	// Artifact is an optional pre-built shared model artifact (encoded
	// weights, matvec plans, ReLU circuits) for the one-model
	// configuration, registered under DefaultModelName. Passing one lets
	// several engines — or an engine and one-off local sessions — share a
	// single encoded copy of the model.
	Artifact *delphi.SharedModel
	// Variant selects which party garbles (delphi.ServerGarbler or
	// delphi.ClientGarbler).
	Variant delphi.Variant
	// LPHEWorkers bounds concurrent offline HE layer jobs per session
	// (delphi's layer-parallel HE, §5.2). 0 runs layers sequentially.
	LPHEWorkers int
	// BufferPerSession is each session's pre-compute buffer target. 0
	// disables background refills: the storage-starved configuration where
	// every inference runs its offline phase inline.
	BufferPerSession int
	// StorageBudget caps total buffered pre-computes across all sessions —
	// the global client-storage budget, in pre-compute slots (divide a byte
	// budget by the per-pre-compute storage from the cost model to get
	// slots). < 0 means unbounded; 0 disables background refills.
	StorageBudget int
	// OfflineWorkers bounds concurrent scheduled offline phases across
	// sessions (the server's pre-processing parallelism). Minimum 1.
	OfflineWorkers int
	// SetupWorkers bounds concurrent full session setups (base OTs + HE
	// keygen) — the admission control that keeps a connect storm from
	// monopolizing the engine's cores and wrecking online latency, and the
	// per-replica capacity knob a fleet front tier scales against. Excess
	// cold connects queue; ticket resumptions bypass the bound (they cost
	// ~no compute, so a full fleet still reconnects fast). 0 means
	// unbounded.
	SetupWorkers int
	// ModelWeights sets the scheduler's per-model refill shares: the
	// global storage budget is split between models with live sessions in
	// proportion to weight, so a hot model's refill demand cannot starve a
	// cold model's buffers. Unnamed models weigh 1; weights <= 0 are
	// treated as 1. Nil gives every model equal weight.
	ModelWeights map[string]float64
	// TicketTTL bounds how long an OT resumption ticket stays redeemable
	// (redeeming slides the window). 0 uses DefaultTicketTTL; < 0 disables
	// resumption entirely — every connect runs full base OTs.
	TicketTTL time.Duration
	// TicketBudget caps the resumption cache's resident seed-material
	// bytes, evicting least-recently-resumed tickets past it. 0 uses
	// DefaultTicketBudget; < 0 means unbounded.
	TicketBudget int64
	// TicketDir, when non-empty, backs the resumption-ticket cache with a
	// disk store rooted there: live tickets are written through on a
	// background writer and reloaded at construction, so repeat clients
	// stay on the resumed fast path across an engine restart. Records
	// whose TTL lapsed while the engine was down are swept; damaged
	// records are deleted and counted (TicketStats.LoadErrors) and the
	// affected clients fall back to a fresh handshake. Requires resumption
	// enabled (TicketTTL >= 0). Ticket files hold secret OT seed material
	// — the directory is created 0700 and files 0600.
	TicketDir string
	// PinDefaultModel exempts the default model's artifact from registry
	// LRU eviction and pre-builds it at engine construction, so the
	// highest-traffic entry never pays the cold-build latency spike.
	PinDefaultModel bool
	// ArtifactDiskBudget caps the artifact store directory's bytes when
	// ArtifactDir is set: every write sweeps least-recently-modified
	// artifact files past the budget. <= 0 means unbounded.
	ArtifactDiskBudget int64
	// Entropy seeds all cryptographic randomness; nil means crypto/rand.
	// It is locked internally so concurrent sessions may share it.
	Entropy io.Reader
}

// Engine is a multi-session PI server. Create with New, feed it listeners
// with Serve, inspect with Stats, stop with Close.
type Engine struct {
	cfg     Config
	entropy io.Reader
	sched   *scheduler
	// reg resolves handshake model names to shared artifacts: weights are
	// encoded once per model (and rebuilt after eviction), never once per
	// connected client.
	reg *Registry
	// defaultModel serves hellos that do not name a model; empty rejects
	// them.
	defaultModel string
	// tickets is the OT resumption cache; nil when resumption is disabled
	// (Config.TicketTTL < 0).
	tickets *ticketCache
	// setupSem bounds concurrent full session setups (Config.SetupWorkers);
	// nil means unbounded.
	setupSem chan struct{}
	// garbler coalesces offline ReLU garbling across concurrent sessions of
	// one model into shared GarbleBatch passes (see garbler.go).
	garbler *batchGarbler
	// draining marks an engine that rejects new handshakes while existing
	// sessions run to completion (Drain).
	draining atomic.Bool

	mu        sync.Mutex
	sessions  map[uint64]*session
	conns     map[*transport.Conn]struct{}
	listeners []transport.Listener
	nextID    uint64
	closed    bool
	// Lifetime totals folded in from disconnected sessions, so Stats
	// reports engine history, not just currently connected clients. The
	// per-model map partitions the same history for the queue telemetry
	// ModelStats exports.
	retiredPrecomputes uint64
	retiredInferences  uint64
	retiredByModel     map[string]*modelTotals

	done chan struct{}
	wg   sync.WaitGroup
}

// modelTotals accumulates one model's retired-session phase history.
type modelTotals struct {
	precomputes, inferences   uint64
	offlineTotal, onlineTotal time.Duration
}

// session is one connected client's server-side state.
type session struct {
	id    uint64
	addr  string
	model string // registry name resolved in the handshake
	// resumed marks a session whose OT setup was expanded from a cached
	// ticket instead of running base OTs.
	resumed bool
	eng     *Engine
	m       *mux
	srv     *delphi.Server

	refill chan struct{}

	// Scheduler state, guarded by the scheduler's mutex.
	bufCount int
	granted  bool

	// Metrics. queued counts inference requests accepted but not finished.
	queued atomic.Int64

	statMu       sync.Mutex
	precomputes  uint64
	inferences   uint64
	offlineTotal time.Duration
	onlineTotal  time.Duration
}

// New validates the configuration and builds an engine around a model
// registry. The one-model configuration (cfg.Model / cfg.Artifact) wraps
// the model in a private registry under DefaultModelName; a multi-model
// engine takes a caller-built cfg.Registry. Artifacts — encoded weight
// plaintexts, matvec plans, ReLU circuits — are built once per model (a
// pre-built cfg.Artifact or RegisterArtifact entry is reused as-is; lazy
// entries are built on first request) and every session of that model
// serves from the same immutable copy.
func New(cfg Config) (*Engine, error) {
	reg := cfg.Registry
	defaultModel := cfg.DefaultModel
	if reg != nil {
		if cfg.Model != nil || cfg.Artifact != nil {
			return nil, fmt.Errorf("serve: cfg.Registry is mutually exclusive with cfg.Model/cfg.Artifact")
		}
		if cfg.ArtifactDir != "" {
			return nil, fmt.Errorf("serve: cfg.Registry is mutually exclusive with cfg.ArtifactDir; back the registry itself with NewRegistryWithStore")
		}
		if reg.Len() == 0 {
			return nil, fmt.Errorf("serve: empty model registry")
		}
	} else {
		if cfg.Artifact != nil && cfg.Model != nil && cfg.Artifact.Model() != cfg.Model {
			return nil, fmt.Errorf("serve: cfg.Artifact was built from a different model than cfg.Model")
		}
		var store *ArtifactStore
		if cfg.ArtifactDir != "" {
			var err error
			if store, err = NewArtifactStoreBudget(cfg.ArtifactDir, cfg.ArtifactDiskBudget); err != nil {
				return nil, err
			}
		}
		reg = NewRegistryWithStore(cfg.RegistryBudget, store)
		switch {
		case cfg.Artifact != nil:
			if err := reg.RegisterArtifact(DefaultModelName, cfg.Artifact); err != nil {
				return nil, err
			}
		case cfg.Model != nil:
			// Register lazily but build now: a one-model engine should fail
			// fast on a bad model, and its first session should not pay the
			// encode (preserves the pre-registry construction behavior).
			if err := reg.Register(DefaultModelName, cfg.Model); err != nil {
				return nil, err
			}
			if _, err := reg.Get(DefaultModelName); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("serve: nil model")
		}
		if defaultModel == "" {
			defaultModel = DefaultModelName
		}
	}
	if defaultModel == "" {
		if names := reg.Names(); len(names) == 1 {
			defaultModel = names[0]
		}
	} else if !reg.Has(defaultModel) {
		return nil, fmt.Errorf("serve: default model %q is not registered", defaultModel)
	}
	if cfg.PinDefaultModel {
		if defaultModel == "" {
			return nil, fmt.Errorf("serve: PinDefaultModel set but the engine has no default model")
		}
		if err := reg.Pin(defaultModel); err != nil {
			return nil, err
		}
		// Warm-start: build (or reload) the pinned artifact now, so the
		// first session never pays the ~4-orders-of-magnitude cold-build gap
		// BenchmarkRegistryHitVsColdBuild measures.
		if _, err := reg.Get(defaultModel); err != nil {
			return nil, err
		}
	}
	e := &Engine{
		cfg:            cfg,
		reg:            reg,
		defaultModel:   defaultModel,
		entropy:        delphi.LockedEntropy(cfg.Entropy),
		sched:          newScheduler(cfg.BufferPerSession, cfg.StorageBudget, cfg.OfflineWorkers, cfg.ModelWeights),
		sessions:       map[uint64]*session{},
		conns:          map[*transport.Conn]struct{}{},
		retiredByModel: map[string]*modelTotals{},
		done:           make(chan struct{}),
	}
	if cfg.TicketTTL >= 0 {
		e.tickets = newTicketCache(cfg.TicketTTL, cfg.TicketBudget, e.entropy)
		if cfg.TicketDir != "" {
			ts, err := newTicketStore(cfg.TicketDir)
			if err != nil {
				return nil, err
			}
			e.tickets.attachStore(ts)
		}
	} else if cfg.TicketDir != "" {
		return nil, fmt.Errorf("serve: cfg.TicketDir requires resumption enabled (TicketTTL >= 0)")
	}
	if cfg.SetupWorkers > 0 {
		e.setupSem = make(chan struct{}, cfg.SetupWorkers)
	}
	e.garbler = newBatchGarbler(e)
	e.wg.Add(1)
	go e.garbler.run()
	return e, nil
}

// Registry returns the engine's model registry (for registering further
// models on a live engine, or direct inspection).
func (e *Engine) Registry() *Registry { return e.reg }

// Serve accepts sessions from ln until the listener fails or the engine is
// closed. It blocks; run it on its own goroutine to serve several listeners
// (e.g. a TCP socket and an in-process pipe) concurrently.
func (e *Engine) Serve(ln transport.Listener) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return fmt.Errorf("serve: engine closed")
	}
	e.listeners = append(e.listeners, ln)
	e.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-e.done:
				return nil
			default:
				return err
			}
		}
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.handle(conn, ln.Addr())
		}()
	}
}

// handle runs one session from handshake to teardown.
func (e *Engine) handle(conn *transport.Conn, addr string) {
	defer conn.Close()

	// Track the connection from the start so Close can cut a session loose
	// even mid-handshake.
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.conns[conn] = struct{}{}
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.conns, conn)
		e.mu.Unlock()
	}()

	// Handshake happens on the raw connection, before the demultiplexer.
	// A v3 connection opens with a transport preamble frame, so the wire
	// version is gated before any JSON is parsed; a first frame that is
	// not a preamble is a legacy (v2 or older) peer's hello, which falls
	// through to the JSON version check for the same typed rejection.
	f, err := conn.Recv()
	if err != nil {
		return
	}
	var op byte
	var body []byte
	if transport.IsPreamble(f) {
		pre, err := transport.DecodePreamble(f)
		if err != nil || pre.Version != wireVersion {
			sendReject(conn, rejectVersion, fmt.Sprintf("serve: client speaks wire version %d, server speaks %d", pre.Version, wireVersion))
			return
		}
		if op, body, err = recvCtrl(conn); err != nil {
			return
		}
	} else if op, body, err = parseCtrl(f); err != nil {
		return
	}
	var hello helloMsg
	if op != opHello || unmarshalJSON(body, &hello) != nil {
		sendReject(conn, rejectBadHello, "serve: malformed hello")
		return
	}
	if hello.Version != wireVersion {
		sendReject(conn, rejectVersion, fmt.Sprintf("serve: client speaks wire version %d, server speaks %d", hello.Version, wireVersion))
		return
	}
	if e.draining.Load() {
		sendReject(conn, rejectDraining, "serve: engine is draining, not accepting new sessions")
		return
	}
	name := hello.Model
	if name == "" {
		name = e.defaultModel
	}
	if name == "" {
		sendReject(conn, rejectUnknownModel, "serve: hello named no model and the engine has no default model")
		return
	}
	// Settle the session preamble: a presented ticket either resumes OT
	// setup from cached seed material or is rejected with a typed code and
	// the session falls back to the full base-OT path on this same
	// connection. Full handshakes get a fresh ticket reserved here (it
	// rides in the welcome) and published once setup produces its state,
	// unless the client said it cannot keep one: its seeds would only take
	// budget from the tickets of clients that do return.
	var (
		resume       *delphi.OTResume
		resumeReject string
		newTicket    []byte
		serverNonce  []byte
	)
	if len(hello.Ticket) > 0 {
		switch {
		case e.tickets == nil:
			resumeReject = resumeDisabled
		case len(hello.Nonce) == 0:
			resumeReject = resumeBadNonce
		default:
			resume, resumeReject = e.tickets.redeem(hello.Ticket, name)
		}
	}
	if resume != nil {
		serverNonce = randomID(e.entropy)
	} else if e.tickets != nil && !hello.NoTicket {
		newTicket = e.tickets.reserve()
		// insert settles the reservation once setup publishes the ticket;
		// this covers every other way out of the handshake.
		defer e.tickets.settle(newTicket)
	}
	// Establishment tier for the resume-tier counter: a redeemed ticket,
	// a typed resume rejection that fell back to the full path, or a
	// plain full handshake.
	tier := tierFull
	switch {
	case resume != nil:
		tier = tierResumed
	case resumeReject != "":
		tier = resumeReject
	}
	obsResume.With(tier).Inc()
	// Full setups (artifact resolve + base OTs + HE keygen) are the
	// engine's admission-controlled work: at most SetupWorkers run at
	// once, excess cold connects queue here. Resumed sessions skip the
	// bound — seed expansion costs ~nothing, so reconnect latency stays
	// flat even under a cold-connect storm.
	releaseSetup := func() {}
	if resume == nil && e.setupSem != nil {
		select {
		case e.setupSem <- struct{}{}:
		case <-e.done:
			return
		}
		var once sync.Once
		releaseSetup = func() { once.Do(func() { <-e.setupSem }) }
		defer releaseSetup()
	}
	// Resolving the artifact may build it (a registry miss); that cost is
	// paid here, on this connection's goroutine, so other sessions keep
	// serving while a cold model encodes.
	artifact, err := e.reg.Get(name)
	if err != nil {
		if errors.Is(err, ErrUnknownModel) {
			sendReject(conn, rejectUnknownModel, err.Error())
		} else {
			obsHandshakes.With(outcomeEngineErr).Inc()
			sendCtrl(conn, opErr, []byte(err.Error()))
		}
		return
	}
	welcome := marshalJSON(welcomeMsg{
		Version:      wireVersion,
		Variant:      int(e.cfg.Variant),
		RingN:        artifact.Params().N,
		Model:        name,
		Meta:         artifact.Meta(),
		Resumed:      resume != nil,
		ResumeReject: resumeReject,
		Ticket:       newTicket,
		Nonce:        serverNonce,
	})
	if err := sendCtrl(conn, opWelcome, welcome); err != nil {
		return
	}

	if remote := conn.RemoteAddr(); remote != "" {
		addr = remote
	}
	s := &session{
		addr:    addr,
		model:   name,
		resumed: resume != nil,
		eng:     e,
		m:       newMux(conn),
		refill:  make(chan struct{}, 1),
	}
	// GarbleFunc routes the session's offline ReLU garbling through the
	// engine's coalescer, so concurrent refills of one model garble as one
	// batch instead of per-session.
	dcfg := delphi.Config{
		Variant:     e.cfg.Variant,
		HEParams:    artifact.Params(),
		LPHEWorkers: e.cfg.LPHEWorkers,
		GarbleFunc:  e.garbler.submit,
	}
	setupTier := tierFull
	if resume != nil {
		setupTier = tierResumed
	}
	setupSpan := obs.StartSpan(obsSetup.With(setupTier))
	s.srv, err = delphi.NewServerShared(dataConn{s.m}, dcfg, artifact, e.entropy)
	if err != nil {
		obsHandshakes.With(outcomeSetupError).Inc()
		s.fail(err)
		return
	}
	if resume != nil {
		// Both halves contribute to the per-session nonce, so neither party
		// can force a stream replay on the other. Keyless: under wire v4 a
		// resumed client reuses the key pair this engine validated at ticket
		// issue, so no public key crosses the wire here.
		err = s.srv.SetupResumeKeyless(resume, joinNonce(hello.Nonce, serverNonce))
	} else {
		err = s.srv.Setup()
		if err == nil && newTicket != nil {
			e.tickets.insert(newTicket, s.srv.OTResume(), name)
		}
	}
	if err != nil {
		obsHandshakes.With(outcomeSetupError).Inc()
		s.fail(err)
		return
	}
	setupSpan.End()
	releaseSetup()

	if !e.addSession(s) {
		s.m.close(errors.New("serve: engine closed"))
		return
	}
	obsHandshakes.With(outcomeOK).Inc()
	e.sched.register(s)
	defer func() {
		e.sched.unregister(s)
		e.removeSession(s)
	}()

	s.run()
}

func (e *Engine) addSession(s *session) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.nextID++
	s.id = e.nextID
	e.sessions[s.id] = s
	obsSessions.Add(1)
	return true
}

func (e *Engine) removeSession(s *session) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.sessions, s.id)
	obsSessions.Add(-1)
	s.statMu.Lock()
	e.retiredPrecomputes += s.precomputes
	e.retiredInferences += s.inferences
	mt := e.retiredByModel[s.model]
	if mt == nil {
		mt = &modelTotals{}
		e.retiredByModel[s.model] = mt
	}
	mt.precomputes += s.precomputes
	mt.inferences += s.inferences
	mt.offlineTotal += s.offlineTotal
	mt.onlineTotal += s.onlineTotal
	s.statMu.Unlock()
}

// Draining reports whether the engine is refusing new sessions (Drain).
func (e *Engine) Draining() bool { return e.draining.Load() }

// Drain switches the engine to drain mode — new handshakes are rejected
// with a typed code matching errors.Is(err, ErrDraining) — and waits until
// every connected session has finished and disconnected, or ctx ends. It
// does not tear anything down: in-flight inferences complete normally, and
// the caller decides what follows (typically Close). This is the
// scale-down half of a fleet front tier: stop routing to a replica, Drain,
// then stop it.
func (e *Engine) Drain(ctx context.Context) error {
	e.draining.Store(true)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		e.mu.Lock()
		idle := len(e.conns) == 0
		e.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-e.done:
			return nil
		case <-tick.C:
		}
	}
}

// SetStorageBudget replaces the scheduler's global storage budget (in
// pre-compute slots; < 0 unbounded, 0 disables background refills) on a
// live engine — the per-replica knob a fleet autoscaler re-assigns as the
// replica set grows and shrinks. A raised budget triggers refills
// immediately; a lowered one drains by attrition (buffered pre-computes
// are consumed, not discarded).
func (e *Engine) SetStorageBudget(budget int) {
	e.sched.setBudget(budget)
}

// startCtrlPump moves control messages from the mux onto a selectable
// channel, counting accepted inference requests in s.queued. sdone unblocks
// it when the session loop exits for any reason; a message the pump had
// already counted but could not deliver is un-counted on that path, so a
// torn-down session never reports a stale positive QueueDepth.
func (s *session) startCtrlPump(sdone <-chan struct{}) <-chan ctrlMsg {
	ctrlCh := make(chan ctrlMsg)
	go func() {
		defer close(ctrlCh)
		for {
			cm, err := s.m.ctrl.pop()
			if err != nil {
				return
			}
			if cm.op == opInferReq {
				s.queued.Add(1)
			}
			select {
			case ctrlCh <- cm:
			case <-sdone:
				if cm.op == opInferReq {
					s.queued.Add(-1)
				}
				return
			}
		}
	}()
	return ctrlCh
}

// run is the session loop: it serializes this session's protocol phases,
// interleaving scheduler refills with client requests.
func (s *session) run() {
	sdone := make(chan struct{})
	defer close(sdone)
	ctrlCh := s.startCtrlPump(sdone)

	for {
		select {
		case <-s.refill:
			err := s.precompute(causeScheduled)
			s.eng.sched.grantDone(s)
			if err != nil {
				s.fail(err)
				return
			}
		case cm, ok := <-ctrlCh:
			if !ok {
				s.m.close(io.EOF) // client hung up or connection died
				return
			}
			if err := s.handleCtrl(cm); err != nil {
				if errors.Is(err, errBye) {
					s.m.close(io.EOF)
				} else {
					s.fail(err)
				}
				return
			}
		case <-s.eng.done:
			s.m.close(errors.New("serve: engine closed"))
			return
		}
	}
}

var errBye = errors.New("serve: client said goodbye")

func (s *session) handleCtrl(cm ctrlMsg) error {
	switch cm.op {
	case opInferReq:
		err := s.handleInfer()
		s.queued.Add(-1)
		return err
	case opPrecomputeReq:
		return s.precompute(causeRequested)
	case opBye:
		return errBye
	default:
		return fmt.Errorf("%w: unexpected client opcode %d", ErrBadFrame, cm.op)
	}
}

// precompute directs the client into one offline phase and runs the server
// side of it.
func (s *session) precompute(cause byte) error {
	if err := sendCtrl(s.m.conn, opPrecompute, []byte{cause}); err != nil {
		return err
	}
	rep, err := s.srv.RunOffline()
	if err != nil {
		return err
	}
	s.statMu.Lock()
	s.precomputes++
	s.offlineTotal += rep.Duration
	s.statMu.Unlock()
	recordOffline(s.model, rep.HEDuration, rep.GCDuration, rep.OTDuration, rep.Duration)
	s.eng.sched.added(s)
	if cause == causeRequested {
		return sendCtrl(s.m.conn, opPrecomputeAck, marshalJSON(rep))
	}
	return nil
}

// handleInfer serves one inference request, paying an inline offline phase
// first when the buffer is empty (the paper's on-the-fly case).
func (s *session) handleInfer() error {
	if s.srv.Buffered() == 0 {
		if err := s.precompute(causeInline); err != nil {
			return err
		}
	}
	if err := sendCtrl(s.m.conn, opGoInfer, nil); err != nil {
		return err
	}
	rep, err := s.srv.RunOnline()
	if err != nil {
		return err
	}
	s.statMu.Lock()
	s.inferences++
	s.onlineTotal += rep.Duration
	s.statMu.Unlock()
	if obs.Enabled() {
		obsOnline.With(s.model).Record(rep.Duration)
	}
	s.eng.sched.consumed(s)
	return sendCtrl(s.m.conn, opInferAck, marshalJSON(rep))
}

// fail reports a fatal session error to the client and tears the session
// down.
func (s *session) fail(err error) {
	sendCtrl(s.m.conn, opErr, []byte(err.Error()))
	s.m.close(err)
}

// Close stops listeners and tears down every session, then waits for the
// session goroutines to exit.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.done)
	lns := append([]transport.Listener(nil), e.listeners...)
	sess := make([]*session, 0, len(e.sessions))
	for _, s := range e.sessions {
		sess = append(sess, s)
	}
	conns := make([]*transport.Conn, 0, len(e.conns))
	for c := range e.conns {
		conns = append(conns, c)
	}
	e.mu.Unlock()

	for _, ln := range lns {
		ln.Close()
	}
	for _, s := range sess {
		s.m.close(errors.New("serve: engine closed"))
	}
	for _, c := range conns {
		c.Close()
	}
	e.wg.Wait()
	// Clean shutdown drains the registry's background disk writes, so a
	// restart over the same artifact directory finds every write-through
	// the engine promised (the registry may be shared; waiting is safe).
	e.reg.Flush()
	// Same barrier for the ticket cache's background persistence: a
	// restart over the same ticket directory must find every live ticket.
	if e.tickets != nil {
		e.tickets.flush()
	}
	return nil
}

// SessionStats is one session's metrics snapshot.
type SessionStats struct {
	ID   uint64
	Addr string
	// Model is the registry name of the model this session serves.
	Model string
	// Resumed marks a session whose OT setup was expanded from a
	// resumption ticket instead of running base OTs.
	Resumed bool
	// Buffered is the session's current pre-compute buffer depth.
	Buffered int
	// QueueDepth counts inference requests accepted but not yet finished.
	QueueDepth int
	// Precomputes and Inferences count completed phases.
	Precomputes uint64
	Inferences  uint64
	// MeanOffline and MeanOnline are mean phase latencies.
	MeanOffline time.Duration
	MeanOnline  time.Duration
	// BytesSent and BytesRecv are the connection totals, framing included.
	BytesSent uint64
	BytesRecv uint64
}

// ModelStats is one registered model's slice of the engine: its live
// sessions and their aggregate buffer fill, plus the registry's artifact
// cache counters for the model.
type ModelStats struct {
	Name string
	// Sessions counts currently connected sessions serving this model;
	// Buffered is their aggregate pre-compute buffer depth.
	Sessions int
	Buffered int
	// Queue telemetry — the per-model signals a fleet autoscaler's queue
	// model consumes. QueueDepth is the number of inference requests
	// accepted but not yet finished across the model's live sessions;
	// Inferences and Precomputes are lifetime phase counts (disconnected
	// sessions included); MeanOnline and MeanOffline are the lifetime mean
	// phase latencies (the online one is the queue model's service time).
	QueueDepth  int
	Inferences  uint64
	Precomputes uint64
	MeanOnline  time.Duration
	MeanOffline time.Duration
	// Resident reports whether the built artifact is currently held by the
	// registry, and SizeBytes its footprint (0 when evicted or not yet
	// built). Sessions opened before an eviction keep serving from the
	// evicted artifact. OnDisk reports whether THIS process has confirmed a
	// current copy in the backing store (written or reloaded since start-up);
	// it is false for a model whose file exists but has not been resolved
	// yet this run, and always false on memory-only registries.
	Resident  bool
	OnDisk    bool
	SizeBytes int64
	// Hits, Misses and Evictions are the registry's lifetime counters for
	// this model: a miss paid an artifact resolve (disk reload or rebuild),
	// an eviction dropped the built artifact under byte-budget pressure.
	Hits, Misses, Evictions uint64
	// Pinned reports whether the artifact is exempt from LRU eviction
	// (Registry.Pin / Config.PinDefaultModel).
	Pinned bool
	// Spills, Reloads, LoadErrors and SpillErrors are the disk layer's
	// counters for this model (see RegistryStats).
	Spills, Reloads         uint64
	LoadErrors, SpillErrors uint64
	// TicketsIssued, Resumes and ResumeRejects are the resumption cache's
	// counters attributed to sessions of this model (the seed material
	// itself is model-independent; attribution follows the session's
	// requested model).
	TicketsIssued uint64
	Resumes       uint64
	ResumeRejects uint64
}

// Stats is an engine-wide metrics snapshot.
type Stats struct {
	Sessions []SessionStats // sorted by session ID
	// Models partitions the engine per registered model — session counts,
	// buffer fill, registry hit/miss/eviction counters — sorted by name.
	Models []ModelStats
	// ActiveSessions is the number of connected sessions.
	ActiveSessions int
	// TotalBuffered is the global buffered pre-compute count. Background
	// refills never push it past a positive StorageBudget (in-flight
	// refills included in the budget accounting), but explicit
	// client-requested pre-computes bypass the budget and can exceed it.
	TotalBuffered int
	// RefillsInFlight counts scheduled offline phases currently running.
	RefillsInFlight  int
	TotalPrecomputes uint64
	TotalInferences  uint64
	// RegistryBudget and RegistryBytes are the artifact cache's byte budget
	// (<= 0 unbounded) and current resident footprint; the counters are
	// registry lifetime totals across all models. The Spill/Reload/LoadError
	// counters are the disk layer's totals (zero without an artifact store).
	RegistryBudget      int64
	RegistryBytes       int64
	RegistryHits        uint64
	RegistryMisses      uint64
	RegistryEvictions   uint64
	RegistrySpills      uint64
	RegistryReloads     uint64
	RegistryLoadErrors  uint64
	RegistrySpillErrors uint64
	// Tickets is the OT resumption cache's snapshot (zero-valued when
	// resumption is disabled).
	Tickets TicketStats
	// Garbling coalescer counters: GarbleRequests is per-layer garbling
	// requests routed through the engine's batch garbler, GarbleBatches the
	// GarbleBatch passes it ran, and GarbleCoalesced the requests that
	// shared a pass with at least one other session's (0 when offline
	// phases never overlapped).
	GarbleRequests  uint64
	GarbleBatches   uint64
	GarbleCoalesced uint64
}

// Stats snapshots per-session, per-model and aggregate metrics. Lifetime
// totals include sessions that have since disconnected.
func (e *Engine) Stats() Stats {
	buffered, bufferedByModel, inflight := e.sched.snapshot()
	rst := e.reg.Stats()

	e.mu.Lock()
	defer e.mu.Unlock()
	sess := make([]*session, 0, len(e.sessions))
	for _, s := range e.sessions {
		sess = append(sess, s)
	}

	st := Stats{
		ActiveSessions:      len(sess),
		RefillsInFlight:     inflight,
		TotalPrecomputes:    e.retiredPrecomputes,
		TotalInferences:     e.retiredInferences,
		RegistryBudget:      rst.Budget,
		RegistryBytes:       rst.BytesResident,
		RegistryHits:        rst.Hits,
		RegistryMisses:      rst.Misses,
		RegistryEvictions:   rst.Evictions,
		RegistrySpills:      rst.Spills,
		RegistryReloads:     rst.Reloads,
		RegistryLoadErrors:  rst.LoadErrors,
		RegistrySpillErrors: rst.SpillErrors,
		GarbleRequests:      e.garbler.requests.Load(),
		GarbleBatches:       e.garbler.batches.Load(),
		GarbleCoalesced:     e.garbler.coalesced.Load(),
	}
	var ticketModels map[string]ticketModelCounters
	if e.tickets != nil {
		st.Tickets, ticketModels = e.tickets.stats()
	}
	// Partition the engine per model: start from the registry's per-model
	// cache counters and the retired-session history, then fold in each
	// live session and the resumption cache's per-model counters. Phase
	// totals accumulate in side maps so the means divide once at the end.
	st.Models = rst.Models // already sorted by name
	byModel := make(map[string]*ModelStats, len(st.Models))
	offTotals := make(map[string]time.Duration, len(st.Models))
	onTotals := make(map[string]time.Duration, len(st.Models))
	for i := range st.Models {
		ms := &st.Models[i]
		ms.Buffered = bufferedByModel[ms.Name] // scheduler's per-model partition
		if tc, ok := ticketModels[ms.Name]; ok {
			ms.TicketsIssued = tc.issued
			ms.Resumes = tc.resumed
			ms.ResumeRejects = tc.rejected
		}
		if mt := e.retiredByModel[ms.Name]; mt != nil {
			ms.Precomputes = mt.precomputes
			ms.Inferences = mt.inferences
			offTotals[ms.Name] = mt.offlineTotal
			onTotals[ms.Name] = mt.onlineTotal
		}
		byModel[ms.Name] = ms
	}
	for _, s := range sess {
		s.statMu.Lock()
		ss := SessionStats{
			ID:          s.id,
			Addr:        s.addr,
			Model:       s.model,
			Resumed:     s.resumed,
			Buffered:    buffered[s],
			QueueDepth:  int(s.queued.Load()),
			Precomputes: s.precomputes,
			Inferences:  s.inferences,
			BytesSent:   s.m.conn.SentBytes(),
			BytesRecv:   s.m.conn.RecvBytes(),
		}
		offTot, onTot := s.offlineTotal, s.onlineTotal
		if s.precomputes > 0 {
			ss.MeanOffline = s.offlineTotal / time.Duration(s.precomputes)
		}
		if s.inferences > 0 {
			ss.MeanOnline = s.onlineTotal / time.Duration(s.inferences)
		}
		s.statMu.Unlock()
		st.Sessions = append(st.Sessions, ss)
		st.TotalBuffered += ss.Buffered
		st.TotalPrecomputes += ss.Precomputes
		st.TotalInferences += ss.Inferences
		if ms := byModel[ss.Model]; ms != nil {
			ms.Sessions++
			ms.QueueDepth += ss.QueueDepth
			ms.Precomputes += ss.Precomputes
			ms.Inferences += ss.Inferences
			offTotals[ss.Model] += offTot
			onTotals[ss.Model] += onTot
		}
	}
	for i := range st.Models {
		ms := &st.Models[i]
		if ms.Precomputes > 0 {
			ms.MeanOffline = offTotals[ms.Name] / time.Duration(ms.Precomputes)
		}
		if ms.Inferences > 0 {
			ms.MeanOnline = onTotals[ms.Name] / time.Duration(ms.Inferences)
		}
	}
	sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].ID < st.Sessions[j].ID })
	return st
}
