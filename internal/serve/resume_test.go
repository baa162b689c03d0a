package serve

import (
	"errors"
	"testing"
	"time"

	"privinf/internal/delphi"
	"privinf/internal/field"
	"privinf/internal/nn"
	"privinf/internal/transport"
)

// connectPreamble opens a session through a preamble over an in-process
// listener.
func connectPreamble(t *testing.T, ln *transport.PipeListener, model string, p *Preamble) *Client {
	t.Helper()
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Connect(conn, WithModel(model), WithPreamble(p))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func pipeEngine(t *testing.T, cfg Config) (*Engine, *transport.PipeListener) {
	t.Helper()
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln := transport.NewPipeListener()
	go eng.Serve(ln)
	t.Cleanup(func() { eng.Close() })
	return eng, ln
}

// TestSessionResumeRoundTrip is the preamble subsystem's acceptance test on
// the demo CNN: a cold session's full handshake issues a ticket, the
// reconnect resumes from it (no base OTs), and the resumed session's
// inference output is bit-identical to the cold session's.
func TestSessionResumeRoundTrip(t *testing.T) {
	model, err := nn.DemoCNN(field.New(field.P20), 61)
	if err != nil {
		t.Fatal(err)
	}
	eng, ln := pipeEngine(t, Config{
		Model:       model,
		Variant:     delphi.ClientGarbler,
		LPHEWorkers: len(model.Linear),
	})

	x := make([]uint64, model.InputLen())
	for j := range x {
		x[j] = uint64((j*7 + 3) % 16)
	}
	want := model.Forward(x)

	p := NewPreamble()
	cold := connectPreamble(t, ln, "", p)
	if cold.Resumed() {
		t.Fatal("first connect cannot resume")
	}
	if !p.HasTicket() {
		t.Fatal("full handshake issued no resumption ticket")
	}
	coldOut, _, _, err := cold.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	cold.Close()

	resumed := connectPreamble(t, ln, "", p)
	defer resumed.Close()
	if got, code := resumed.ResumeOutcome(); !got || code != "" {
		t.Fatalf("reconnect resumed=%v reject=%q, want resumed cleanly", got, code)
	}
	resumedOut, _, _, err := resumed.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if coldOut[j] != want[j] {
			t.Fatalf("cold output %d = %d, want %d", j, coldOut[j], want[j])
		}
		if resumedOut[j] != coldOut[j] {
			t.Fatalf("resumed output %d = %d, cold session produced %d", j, resumedOut[j], coldOut[j])
		}
	}

	st := eng.Stats()
	if st.Tickets.Issued != 1 || st.Tickets.Resumed != 1 {
		t.Fatalf("ticket stats issued=%d resumed=%d, want 1/1", st.Tickets.Issued, st.Tickets.Resumed)
	}
	ms := modelStats(t, RegistryStats{Models: st.Models}, DefaultModelName)
	if ms.TicketsIssued != 1 || ms.Resumes != 1 || ms.ResumeRejects != 0 {
		t.Fatalf("per-model ticket stats %+v, want issued=1 resumes=1 rejects=0", ms)
	}
	for _, ss := range st.Sessions {
		if !ss.Resumed {
			t.Fatalf("live session %d should report Resumed", ss.ID)
		}
	}
}

// TestNoTicketWithoutPreamble: a client with no preamble cannot keep a
// ticket, so its full handshake must not reserve one (whose seeds would
// take ticket budget from returning clients), while a preamble client on
// the same engine still gets one.
func TestNoTicketWithoutPreamble(t *testing.T) {
	model := testModel(t, 71)
	eng, ln := pipeEngine(t, Config{Model: model, Variant: delphi.ClientGarbler, LPHEWorkers: 2})
	x := make([]uint64, model.InputLen())

	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Connect(conn)
	if err != nil {
		t.Fatal(err)
	}
	// An inference settles the server side of setup, where a ticket
	// would have been published.
	if _, _, _, err := plain.Infer(x); err != nil {
		t.Fatal(err)
	}
	plain.Close()
	if tk := eng.Stats().Tickets; tk.Issued != 0 || tk.Tickets != 0 || tk.Bytes != 0 {
		t.Fatalf("preamble-less connect left issued=%d tickets=%d bytes=%d, want all 0", tk.Issued, tk.Tickets, tk.Bytes)
	}

	p := NewPreamble()
	c := connectPreamble(t, ln, "", p)
	defer c.Close()
	if _, _, _, err := c.Infer(x); err != nil {
		t.Fatal(err)
	}
	if !p.HasTicket() {
		t.Fatal("preamble connect got no ticket")
	}
	if tk := eng.Stats().Tickets; tk.Issued != 1 || tk.Tickets != 1 || tk.Bytes == 0 {
		t.Fatalf("preamble connect left issued=%d tickets=%d bytes=%d, want 1/1/>0", tk.Issued, tk.Tickets, tk.Bytes)
	}
}

// awaitTicketPublished blocks until the engine has published the ticket p
// holds. Connect can return before the engine's half of setup does, so a
// test that moves the cache's clock must wait, or the late insert stamps
// its expiry from the moved clock.
func awaitTicketPublished(eng *Engine, p *Preamble) {
	id, _ := p.ticketSnapshot()
	eng.tickets.mu.Lock()
	ch := eng.tickets.pending[string(id)]
	eng.tickets.mu.Unlock()
	if ch != nil {
		<-ch
	}
}

// TestTicketRedeemWaitsForPendingPublish: a ticket presented while the
// session that reserved it is still in setup resolves when that setup
// settles — to the published state on success, to unknown_ticket when the
// setup ended without publishing.
func TestTicketRedeemWaitsForPendingPublish(t *testing.T) {
	tc := newTicketCache(time.Hour, -1, nil)
	type result struct {
		state  *delphi.OTResume
		reject string
	}
	done := make(chan result, 1)
	redeem := func(id []byte) {
		go func() {
			s, r := tc.redeem(id, "m")
			done <- result{s, r}
		}()
	}

	id := tc.reserve()
	redeem(id)
	select {
	case r := <-done:
		t.Fatalf("redeem of a pending ticket returned before its publish: %+v", r)
	case <-time.After(20 * time.Millisecond):
	}
	state := testOTResume(t, 50)
	tc.insert(id, state, "m")
	if r := <-done; r.state != state || r.reject != "" {
		t.Fatalf("redeem after publish = %+v, want the published state", r)
	}

	failed := tc.reserve()
	redeem(failed)
	tc.settle(failed)
	if r := <-done; r.state != nil || r.reject != resumeUnknownTicket {
		t.Fatalf("redeem of an abandoned reservation = %+v, want %q", r, resumeUnknownTicket)
	}
	tc.settle(id) // settling a published ticket is a no-op
	if _, reject := tc.redeem(id, "m"); reject != "" {
		t.Fatalf("published ticket rejected with %q after a late settle", reject)
	}
}

// TestImmediateReconnectResumes: a client that closes its first session
// as soon as Connect returns and reconnects at once still resumes, under
// both variants, although its half of setup can finish before the
// engine's half publishes the ticket.
func TestImmediateReconnectResumes(t *testing.T) {
	for _, v := range []delphi.Variant{delphi.ClientGarbler, delphi.ServerGarbler} {
		_, ln := pipeEngine(t, Config{Model: testModel(t, 72), Variant: v, LPHEWorkers: 2})
		for i := range 5 {
			p := NewPreamble()
			connectPreamble(t, ln, "", p).Close()
			c := connectPreamble(t, ln, "", p)
			resumed, code := c.ResumeOutcome()
			c.Close()
			if !resumed {
				t.Fatalf("%v reconnect %d: resumed=false reject=%q", v, i, code)
			}
		}
	}
}

// TestResumeExpiredTicket: a ticket past its TTL gets the typed
// expired_ticket outcome, the session falls back to full base OTs on the
// same connection, and the fallback issues a fresh ticket that works.
func TestResumeExpiredTicket(t *testing.T) {
	eng, ln := pipeEngine(t, Config{
		Model:       testModel(t, 62),
		Variant:     delphi.ClientGarbler,
		LPHEWorkers: 2,
	})

	p := NewPreamble()
	connectPreamble(t, ln, "", p).Close()
	awaitTicketPublished(eng, p)

	// Lapse the ticket deterministically through the cache's clock seam
	// rather than sleeping against a real TTL.
	skew := DefaultTicketTTL + time.Minute
	eng.tickets.mu.Lock()
	eng.tickets.now = func() time.Time { return time.Now().Add(skew) }
	eng.tickets.mu.Unlock()

	c := connectPreamble(t, ln, "", p)
	if resumed, code := c.ResumeOutcome(); resumed || code != resumeExpiredTicket {
		t.Fatalf("resumed=%v reject=%q, want fallback with %q", resumed, code, resumeExpiredTicket)
	}
	c.Close()
	if st := eng.Stats(); st.Tickets.Expired != 1 {
		t.Fatalf("expired counter = %d, want 1", st.Tickets.Expired)
	}

	// The fallback handshake re-issued; an immediate reconnect resumes.
	c2 := connectPreamble(t, ln, "", p)
	defer c2.Close()
	if !c2.Resumed() {
		t.Fatal("reconnect after re-issue should resume")
	}
}

// TestResumeUnknownTicket: a ticket the engine never issued (or evicted)
// gets unknown_ticket and a clean full-handshake fallback that still
// serves verified inferences.
func TestResumeUnknownTicket(t *testing.T) {
	model := testModel(t, 63)
	eng, ln := pipeEngine(t, Config{
		Model:       model,
		Variant:     delphi.ClientGarbler,
		LPHEWorkers: 2,
	})

	p := NewPreamble()
	p.mu.Lock()
	p.ticket = []byte("never-issued-by-anyone")
	p.mu.Unlock()

	c := connectPreamble(t, ln, "", p)
	defer c.Close()
	if resumed, code := c.ResumeOutcome(); resumed || code != resumeUnknownTicket {
		t.Fatalf("resumed=%v reject=%q, want fallback with %q", resumed, code, resumeUnknownTicket)
	}
	x := make([]uint64, model.InputLen())
	for j := range x {
		x[j] = uint64(j % 9)
	}
	out, _, _, err := c.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	for j, w := range model.Forward(x) {
		if out[j] != w {
			t.Fatalf("fallback session output %d diverged", j)
		}
	}
	if st := eng.Stats(); st.Tickets.Unknown != 1 {
		t.Fatalf("unknown counter = %d, want 1", st.Tickets.Unknown)
	}
}

// TestResumeDisabled: an engine with resumption off issues no tickets and
// answers presented tickets with the typed resume_disabled fallback.
func TestResumeDisabled(t *testing.T) {
	_, ln := pipeEngine(t, Config{
		Model:       testModel(t, 64),
		Variant:     delphi.ClientGarbler,
		LPHEWorkers: 2,
		TicketTTL:   -1,
	})

	p := NewPreamble()
	connectPreamble(t, ln, "", p).Close()
	if p.HasTicket() {
		t.Fatal("resumption-disabled engine issued a ticket")
	}

	p.mu.Lock()
	p.ticket = []byte("stale-ticket-from-elsewhere")
	p.mu.Unlock()
	c := connectPreamble(t, ln, "", p)
	defer c.Close()
	if resumed, code := c.ResumeOutcome(); resumed || code != resumeDisabled {
		t.Fatalf("resumed=%v reject=%q, want fallback with %q", resumed, code, resumeDisabled)
	}
}

// TestTicketCacheEvictionUnderBudget: with a budget that holds a single
// ticket, issuing a second evicts the first (LRU); the evicted client
// falls back with unknown_ticket while the resident one still resumes.
// Run with -race this doubles as the cache's concurrency test.
func TestTicketCacheEvictionUnderBudget(t *testing.T) {
	eng, ln := pipeEngine(t, Config{
		Model:        testModel(t, 65),
		Variant:      delphi.ClientGarbler,
		LPHEWorkers:  2,
		TicketBudget: 1, // any real state exceeds this: only the newest survives
	})

	pa, pb := NewPreamble(), NewPreamble()
	connectPreamble(t, ln, "", pa).Close() // ticket A resident
	connectPreamble(t, ln, "", pb).Close() // ticket B evicts A

	// Newest ticket survives (redeeming does not re-insert, so check B
	// before A's fallback issues — and thereby evicts B with — a new one).
	cb := connectPreamble(t, ln, "", pb)
	if !cb.Resumed() {
		t.Fatal("resident ticket should still resume")
	}
	cb.Close()

	ca := connectPreamble(t, ln, "", pa)
	defer ca.Close()
	if resumed, code := ca.ResumeOutcome(); resumed || code != resumeUnknownTicket {
		t.Fatalf("evicted ticket: resumed=%v reject=%q, want %q", resumed, code, resumeUnknownTicket)
	}

	st := eng.Stats()
	if st.Tickets.Evicted == 0 {
		t.Fatalf("a one-ticket budget across two clients should have evicted: %+v", st.Tickets)
	}
	if st.Tickets.Tickets != 1 {
		// The cache tolerates the newest ticket exceeding the budget (the
		// registry's over-budget-singleton semantics), but never more.
		t.Fatalf("cache holds %d tickets under a one-ticket budget, want 1", st.Tickets.Tickets)
	}
}

// TestTicketCachePrunesExpiredOnInsert: lapsed tickets do not linger in
// memory until someone redeems them — the next insert sweeps them, so
// secret seed material dies with its TTL even for clients that never
// reconnect.
func TestTicketCachePrunesExpiredOnInsert(t *testing.T) {
	tc := newTicketCache(time.Minute, -1, nil)
	state := &delphi.OTResume{}
	base := time.Now()
	now := base
	tc.now = func() time.Time { return now }

	stale := tc.reserve()
	tc.insert(stale, state, "m")
	now = base.Add(2 * time.Minute) // past the TTL
	fresh := tc.reserve()
	tc.insert(fresh, state, "m")

	st, _ := tc.stats()
	if st.Tickets != 1 {
		t.Fatalf("cache holds %d tickets after prune, want only the fresh one", st.Tickets)
	}
	if st.Expired != 1 {
		t.Fatalf("expired counter = %d, want 1 (the pruned ticket)", st.Expired)
	}
	if _, reject := tc.redeem(stale, "m"); reject != resumeUnknownTicket {
		t.Fatalf("pruned ticket redeems with %q, want %q (already gone)", reject, resumeUnknownTicket)
	}
	if got, reject := tc.redeem(fresh, "m"); got == nil || reject != "" {
		t.Fatalf("fresh ticket rejected with %q", reject)
	}
}

// TestPreambleVersionMismatchRejected: a connection preamble speaking
// another wire version is rejected with the typed version code before any
// JSON is parsed — the v3 half of the version gate (the legacy v2-peer
// half lives in TestWireVersionMismatchRejected).
func TestPreambleVersionMismatchRejected(t *testing.T) {
	_, ln := startEngine(t, Config{
		Model:       testModel(t, 66),
		Variant:     delphi.ClientGarbler,
		LPHEWorkers: 2,
	})

	conn, err := transport.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := transport.SendPreamble(conn, transport.Preamble{Version: 2}); err != nil {
		t.Fatal(err)
	}
	op, body, err := recvCtrl(conn)
	if err != nil {
		t.Fatal(err)
	}
	if op != opReject {
		t.Fatalf("got opcode %d, want opReject", op)
	}
	var rej rejectMsg
	if err := unmarshalJSON(body, &rej); err != nil {
		t.Fatal(err)
	}
	if rej.Code != rejectVersion {
		t.Fatalf("reject code %q, want %q", rej.Code, rejectVersion)
	}
	if !errors.Is(&HandshakeError{Code: rej.Code}, ErrVersionMismatch) {
		t.Fatal("preamble version rejection must map to ErrVersionMismatch")
	}
}

// TestPreambleSharedArtifactsAcrossModels: one preamble serves sessions on
// several models, caching one client artifact per model, while the ticket
// (model-independent) resumes across them.
func TestPreambleSharedArtifactsAcrossModels(t *testing.T) {
	mlp := testModel(t, 67)
	cnn, err := nn.DemoCNN(field.New(field.P20), 68)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(0)
	if err := reg.Register("mlp", mlp); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("cnn", cnn); err != nil {
		t.Fatal(err)
	}
	eng, ln := pipeEngine(t, Config{
		Registry:    reg,
		Variant:     delphi.ClientGarbler,
		LPHEWorkers: 2,
	})

	p := NewPreamble()
	connectPreamble(t, ln, "mlp", p).Close() // full handshake, ticket issued
	c := connectPreamble(t, ln, "cnn", p)    // other model, same ticket
	defer c.Close()
	if !c.Resumed() {
		t.Fatal("the ticket is model-independent; a session on another model should resume")
	}
	if p.SizeBytes() == 0 {
		t.Fatal("preamble reports zero footprint after caching artifacts")
	}
	p.mu.Lock()
	cachedModels := len(p.shared)
	p.mu.Unlock()
	if cachedModels != 2 {
		t.Fatalf("preamble caches %d client artifacts, want 2", cachedModels)
	}

	st := eng.Stats()
	mcnn := modelStats(t, RegistryStats{Models: st.Models}, "cnn")
	if mcnn.Resumes != 1 {
		t.Fatalf("cnn resume counter = %d, want 1", mcnn.Resumes)
	}
}

// TestPreambleForgetTicketKeepsArtifacts: the artifact-warm tier — after
// ForgetTicket the next connect runs full base OTs (no resume) but the
// cached client artifact is still reused.
func TestPreambleForgetTicketKeepsArtifacts(t *testing.T) {
	_, ln := pipeEngine(t, Config{
		Model:       testModel(t, 69),
		Variant:     delphi.ClientGarbler,
		LPHEWorkers: 2,
	})

	p := NewPreamble()
	connectPreamble(t, ln, "", p).Close()
	p.mu.Lock()
	before := p.shared[DefaultModelName]
	p.mu.Unlock()
	if before == nil {
		t.Fatal("no client artifact cached after first session")
	}

	p.ForgetTicket()
	if p.HasTicket() {
		t.Fatal("ForgetTicket left a ticket behind")
	}
	c := connectPreamble(t, ln, "", p)
	defer c.Close()
	if c.Resumed() {
		t.Fatal("connect without a ticket cannot resume")
	}
	p.mu.Lock()
	after := p.shared[DefaultModelName]
	p.mu.Unlock()
	if after != before {
		t.Fatal("artifact-warm connect rebuilt the cached client artifact")
	}
	if !p.HasTicket() {
		t.Fatal("artifact-warm full handshake should re-issue a ticket")
	}
}
