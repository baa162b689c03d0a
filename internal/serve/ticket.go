package serve

import (
	"container/list"
	"crypto/rand"
	"io"
	"sync"
	"time"

	"privinf/internal/delphi"
)

// Resumption ticket cache defaults (see Config.TicketTTL / TicketBudget).
const (
	// DefaultTicketTTL is how long an issued resumption ticket stays
	// redeemable when Config.TicketTTL is zero. Redeeming slides the
	// window, so an active client never falls off the fast path.
	DefaultTicketTTL = 15 * time.Minute
	// DefaultTicketBudget caps the cache's resident seed material when
	// Config.TicketBudget is zero: at ~2-4 KiB per ticket this holds on
	// the order of a thousand repeat clients.
	DefaultTicketBudget int64 = 4 << 20
)

// ticketIDBytes is the opaque ticket identifier length. 16 random bytes
// keep blind guessing hopeless (the ticket is a bearer credential for the
// cached OT correlation).
const ticketIDBytes = 16

// ticketCache is the server half of the OT resumption cache: it maps
// opaque tickets to the engine's cached base-OT seed material
// (delphi.OTResume), bounded by a TTL and a byte budget with LRU eviction
// — the same budget discipline the model registry applies to artifacts,
// applied to per-client correlation state. All methods are safe for
// concurrent use.
type ticketCache struct {
	mu     sync.Mutex
	ttl    time.Duration
	budget int64 // <= 0 unbounded
	bytes  int64

	entries map[string]*ticketEntry
	lru     *list.List // of *ticketEntry; front = most recently used

	// pending maps each reserved ticket whose session setup is still
	// running to a channel closed when that setup settles (insert
	// published the ticket, or settle abandoned it). The client holds the
	// ticket as soon as its own half of setup returns, which can be before
	// the engine's half publishes it; a reconnect that fast waits here
	// instead of missing the resumed path.
	pending map[string]chan struct{}

	// now is a test seam for expiry.
	now func() time.Time

	// entropy draws ticket identifiers. Tickets are bearer credentials for
	// cached OT correlation, so they come from the same injected source as
	// the session's other secret material.
	entropy io.Reader

	// store is the optional disk half (nil = memory-only): live tickets are
	// written through so a restarted engine keeps serving the resumed fast
	// path. Disk writes ride a lazily started background worker — the same
	// idiom as the registry's spill writer — so insert and redeem never
	// block on I/O (and never perform I/O under tc.mu). persistQ is the
	// pending jobs, persistActive whether a worker is draining it,
	// pendingPersists the queued+in-flight count flush waits on.
	store           *ticketStore
	persistQ        []ticketPersistJob
	persistActive   bool
	pendingPersists int
	persistDone     *sync.Cond // signalled when pendingPersists reaches zero

	issued, resumed, expired, unknown, evicted uint64
	loaded, loadErrors, persisted, persistErrs uint64
	perModel                                   map[string]*ticketModelCounters
}

// ticketPersistJob is one deferred disk operation: a write-through of a
// live ticket (payload pre-encoded under the lock — pure CPU on a few KiB)
// or a deletion (nil payload) of a dropped one. Jobs apply in queue order,
// so the file always converges to the cache's final state for that id.
type ticketPersistJob struct {
	id      []byte
	payload []byte // nil = delete the record
}

// ticketModelCounters partition the cache's traffic by the model the
// session requested (the seed material itself is model-independent — one
// ticket serves every model the engine hosts).
type ticketModelCounters struct {
	issued, resumed, rejected uint64
}

// ticketEntry is one cached client correlation.
type ticketEntry struct {
	id      string
	state   *delphi.OTResume
	expires time.Time
	size    int64
	elem    *list.Element
}

func newTicketCache(ttl time.Duration, budget int64, entropy io.Reader) *ticketCache {
	if ttl == 0 {
		ttl = DefaultTicketTTL
	}
	if budget == 0 {
		budget = DefaultTicketBudget
	}
	if entropy == nil {
		entropy = rand.Reader
	}
	tc := &ticketCache{
		ttl:      ttl,
		budget:   budget,
		entries:  map[string]*ticketEntry{},
		pending:  map[string]chan struct{}{},
		lru:      list.New(),
		now:      time.Now,
		entropy:  entropy,
		perModel: map[string]*ticketModelCounters{},
	}
	tc.persistDone = sync.NewCond(&tc.mu)
	return tc
}

func (tc *ticketCache) model(name string) *ticketModelCounters {
	c := tc.perModel[name]
	if c == nil {
		c = &ticketModelCounters{}
		tc.perModel[name] = c
	}
	return c
}

// randomID returns 16 fresh random bytes from src — a ticket identifier or
// one party's half of a resumption nonce. A nil src falls back to the
// system RNG.
func randomID(src io.Reader) []byte {
	if src == nil {
		src = rand.Reader
	}
	id := make([]byte, ticketIDBytes)
	if _, err := io.ReadFull(src, id); err != nil {
		// Tickets are an optimization; a broken entropy source should fail
		// the session's real cryptography, not be papered over here.
		panic("serve: ticket id entropy: " + err.Error())
	}
	return id
}

// joinNonce concatenates the two parties' nonce halves into the value the
// OT layer derives per-session streams from.
func joinNonce(client, server []byte) []byte {
	out := make([]byte, 0, len(client)+len(server))
	out = append(out, client...)
	return append(out, server...)
}

// reserve generates a fresh opaque ticket identifier. The entry is not in
// the cache yet — the welcome carries the ticket before the OT setup that
// produces its seed material completes; insert publishes it afterwards.
// Until then the ticket is pending, and the reserving session must settle
// it on every path that does not reach insert.
func (tc *ticketCache) reserve() []byte {
	id := randomID(tc.entropy)
	tc.mu.Lock()
	tc.pending[string(id)] = make(chan struct{})
	tc.mu.Unlock()
	return id
}

// settle ends a ticket's pending reservation, waking any redeem waiting on
// it; a no-op once insert has published the ticket.
func (tc *ticketCache) settle(id []byte) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.settleLocked(string(id))
}

func (tc *ticketCache) settleLocked(id string) {
	if ch, ok := tc.pending[id]; ok {
		close(ch)
		delete(tc.pending, id)
	}
}

// insert publishes seed material under a reserved ticket and evicts LRU
// entries past the byte budget (never the one just inserted).
func (tc *ticketCache) insert(id []byte, state *delphi.OTResume, model string) {
	if state == nil {
		return
	}
	e := &ticketEntry{
		id:      string(id),
		state:   state,
		expires: tc.now().Add(tc.ttl),
		size:    state.SizeBytes(),
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	// Prune lapsed tickets eagerly: secret correlation seeds must not
	// outlive their TTL just because the holder never reconnects and the
	// byte budget never bites. Inserts happen at most once per full
	// handshake (tens of ms of base OTs each) and the default budget holds
	// about a thousand entries, so a linear scan costs microseconds.
	// Not-Before, not After: a ticket is dead AT its expiry instant, the
	// same boundary redeem enforces.
	now := tc.now()
	for _, old := range tc.entries {
		if !now.Before(old.expires) {
			tc.drop(old)
			tc.expired++
			obsTicketExpired.Inc()
		}
	}
	if old, ok := tc.entries[e.id]; ok {
		// A reserved id collided with a live entry (astronomically unlikely);
		// drop the old one rather than double-count.
		tc.drop(old)
	}
	tc.entries[e.id] = e
	e.elem = tc.lru.PushFront(e)
	tc.settleLocked(e.id)
	tc.bytes += e.size
	tc.issued++
	tc.model(model).issued++
	obsTicketIssued.Inc()
	if tc.budget > 0 {
		for tc.bytes > tc.budget {
			back := tc.lru.Back()
			if back == nil || back.Value.(*ticketEntry) == e {
				break
			}
			tc.drop(back.Value.(*ticketEntry))
			tc.evicted++
			obsTicketEvicted.Inc()
		}
	}
	tc.enqueueSave(e)
}

// redeem exchanges a presented ticket for its cached seed material. On
// success it returns the state, refreshes the TTL (a sliding window), and
// bumps the LRU; otherwise it returns the typed welcome reject code. The
// entry survives redemption — one ticket serves every reconnect until it
// expires or is evicted. A ticket still pending is waited for: the session
// that reserved it is in setup, and settles it whether setup succeeds or
// fails (engine close included), so the wait is bounded by that setup.
func (tc *ticketCache) redeem(id []byte, model string) (*delphi.OTResume, string) {
	tc.mu.Lock()
	if ch, ok := tc.pending[string(id)]; ok {
		tc.mu.Unlock()
		<-ch
		tc.mu.Lock()
	}
	defer tc.mu.Unlock()
	e, ok := tc.entries[string(id)]
	if !ok {
		tc.unknown++
		obsTicketUnknown.Inc()
		tc.model(model).rejected++
		return nil, resumeUnknownTicket
	}
	// A ticket is dead AT its expiry instant: a lookup at exactly t = TTL
	// is a typed expiry, not a hit. The not-Before form (rather than
	// After) pins that boundary — it must hold identically in the eager
	// insert prune and the store's load sweep, or a ticket that would be
	// rejected live could resurrect through a restart.
	if !tc.now().Before(e.expires) {
		tc.drop(e)
		tc.expired++
		obsTicketExpired.Inc()
		tc.model(model).rejected++
		return nil, resumeExpiredTicket
	}
	e.expires = tc.now().Add(tc.ttl)
	tc.lru.MoveToFront(e.elem)
	tc.resumed++
	tc.model(model).resumed++
	obsTicketResumed.Inc()
	// The slid expiry is durable state: re-persist so a restart honors the
	// refreshed window rather than the stale one on disk.
	tc.enqueueSave(e)
	return e.state, ""
}

// remove deletes a ticket (a reserved id whose session setup failed, so
// the welcome promised a ticket that never gained state — removing is a
// no-op then — or an explicit invalidation).
func (tc *ticketCache) remove(id []byte) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if e, ok := tc.entries[string(id)]; ok {
		tc.drop(e)
	}
}

// drop unlinks an entry and queues the deletion of its disk record —
// however a ticket dies (expiry, eviction, explicit removal), its secret
// seeds leave the disk with it. Caller holds tc.mu.
func (tc *ticketCache) drop(e *ticketEntry) {
	delete(tc.entries, e.id)
	tc.lru.Remove(e.elem)
	tc.bytes -= e.size
	if tc.store != nil {
		tc.enqueuePersist(ticketPersistJob{id: []byte(e.id)})
	}
}

// enqueueSave queues a write-through of a live entry. The payload is
// encoded here, under tc.mu — pure CPU over a few KiB, no I/O — so the
// worker writes a snapshot even if the entry mutates afterwards. Caller
// holds tc.mu.
func (tc *ticketCache) enqueueSave(e *ticketEntry) {
	if tc.store == nil {
		return
	}
	payload, err := marshalTicketRecord(ticketRecord{id: []byte(e.id), expires: e.expires, state: e.state})
	if err != nil {
		tc.persistErrs++
		return
	}
	tc.enqueuePersist(ticketPersistJob{id: []byte(e.id), payload: payload})
}

// enqueuePersist queues one disk job and ensures a worker is draining the
// queue. Caller holds tc.mu.
func (tc *ticketCache) enqueuePersist(job ticketPersistJob) {
	tc.persistQ = append(tc.persistQ, job)
	tc.pendingPersists++
	if !tc.persistActive {
		tc.persistActive = true
		//lint:allow goroutineleak persistActive gates one worker at a time and flush joins it via pendingPersists; it exits when the queue drains
		go tc.persistWorker()
	}
}

// persistWorker drains the persist queue, touching the disk outside tc.mu,
// and exits when the queue empties (no long-lived goroutine per cache).
// Outcomes fold into the persist counters; flush waits on pendingPersists.
func (tc *ticketCache) persistWorker() {
	tc.mu.Lock()
	for len(tc.persistQ) > 0 {
		job := tc.persistQ[0]
		tc.persistQ = tc.persistQ[1:]
		store := tc.store
		tc.mu.Unlock()
		var err error
		if job.payload == nil {
			err = store.remove(job.id)
		} else {
			err = store.savePayload(job.id, job.payload)
		}
		tc.mu.Lock()
		if err != nil {
			tc.persistErrs++
		} else {
			tc.persisted++
		}
		tc.pendingPersists--
		if tc.pendingPersists == 0 {
			tc.persistDone.Broadcast()
		}
	}
	tc.persistActive = false
	tc.mu.Unlock()
}

// flush blocks until every queued background disk write has completed —
// the barrier clean shutdown (and tests) use before trusting the store's
// contents or the persist counters.
func (tc *ticketCache) flush() {
	tc.mu.Lock()
	for tc.pendingPersists > 0 {
		tc.persistDone.Wait()
	}
	tc.mu.Unlock()
}

// attachStore wires the disk half in and reloads its surviving records:
// the restarted engine's live tickets, minus those whose TTL lapsed while
// it was down (swept, counted expired) and those that fail verification
// (deleted, counted as load errors — the affected clients fall back to a
// fresh handshake). Loaded entries join the LRU behind anything already
// live and are evicted past the byte budget like any others. The load runs
// before tc.store is installed, outside tc.mu — startup I/O never blocks
// under the cache lock.
func (tc *ticketCache) attachStore(ts *ticketStore) {
	tc.mu.Lock()
	now := tc.now()
	tc.mu.Unlock()
	recs, st := ts.loadAll(now)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.store = ts
	tc.loaded += uint64(st.loaded)
	tc.loadErrors += uint64(st.corrupt)
	tc.expired += uint64(st.expired)
	obsTicketExpired.Add(uint64(st.expired))
	for _, rec := range recs {
		if _, ok := tc.entries[string(rec.id)]; ok {
			// A live entry outranks its own stale disk copy.
			continue
		}
		e := &ticketEntry{
			id:      string(rec.id),
			state:   rec.state,
			expires: rec.expires,
			size:    rec.state.SizeBytes(),
		}
		tc.entries[e.id] = e
		e.elem = tc.lru.PushBack(e)
		tc.bytes += e.size
	}
	if tc.budget > 0 {
		for tc.bytes > tc.budget {
			back := tc.lru.Back()
			// Same over-budget-singleton tolerance as insert: the budget
			// never empties the cache outright.
			if back == nil || tc.lru.Len() == 1 {
				break
			}
			tc.drop(back.Value.(*ticketEntry))
			tc.evicted++
			obsTicketEvicted.Inc()
		}
	}
}

// TicketStats is a resumption-cache metrics snapshot.
type TicketStats struct {
	// TTL and Budget are the configured limits; Tickets and Bytes the
	// current cache occupancy.
	TTL     time.Duration
	Budget  int64
	Tickets int
	Bytes   int64
	// Issued counts tickets handed out on full handshakes; Resumed counts
	// successful redemptions (base OTs skipped); Expired counts lapsed
	// tickets (typed rejection at redeem, pruned eagerly on the next
	// insert, or swept at load for lapsing while the engine was down) and
	// Unknown the never-issued/evicted rejections; Evicted counts
	// budget-pressure drops.
	Issued, Resumed, Expired, Unknown, Evicted uint64
	// Durability counters (all zero without a ticket store). Loaded counts
	// records reloaded across a restart; LoadErrors counts on-disk records
	// deleted for failing verification; Persisted counts completed
	// background disk operations (write-throughs and deletions) and
	// PersistErrors the ones that failed (the ticket stays live in memory
	// either way).
	Loaded, LoadErrors, Persisted, PersistErrors uint64
}

func (tc *ticketCache) stats() (TicketStats, map[string]ticketModelCounters) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	st := TicketStats{
		TTL:           tc.ttl,
		Budget:        tc.budget,
		Tickets:       len(tc.entries),
		Bytes:         tc.bytes,
		Issued:        tc.issued,
		Resumed:       tc.resumed,
		Expired:       tc.expired,
		Unknown:       tc.unknown,
		Evicted:       tc.evicted,
		Loaded:        tc.loaded,
		LoadErrors:    tc.loadErrors,
		Persisted:     tc.persisted,
		PersistErrors: tc.persistErrs,
	}
	models := make(map[string]ticketModelCounters, len(tc.perModel))
	for name, c := range tc.perModel {
		models[name] = *c
	}
	return st, models
}
