package serve

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"privinf/internal/delphi"
	"privinf/internal/ot"
)

// testOTResume builds a deterministic sender-side OT resumption state from
// a seed byte — real enough for the codecs (exact sizes, valid flags)
// without running base OTs.
func testOTResume(t testing.TB, seed byte) *delphi.OTResume {
	t.Helper()
	raw := make([]byte, 1+ot.SenderStateBytes)
	raw[0] = 1 // sender flag
	for i := 1; i < len(raw); i++ {
		raw[i] = byte(int(seed) + i)
	}
	res, err := delphi.UnmarshalOTResume(raw)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// testTicketRecord builds a record with a deterministic id derived from
// seed.
func testTicketRecord(t testing.TB, seed byte, expires time.Time) ticketRecord {
	t.Helper()
	id := make([]byte, ticketIDBytes)
	for i := range id {
		id[i] = byte(int(seed)*17 + i)
	}
	return ticketRecord{id: id, expires: expires, state: testOTResume(t, seed)}
}

// TestTicketStoreRoundTrip: save → loadAll reproduces every record — id,
// nanosecond-exact expiry, and OT state bytes — and an absent id reads as
// the typed not-found sentinel.
func TestTicketStoreRoundTrip(t *testing.T) {
	ts, err := newTicketStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	want := []ticketRecord{
		testTicketRecord(t, 1, now.Add(time.Hour)),
		testTicketRecord(t, 2, now.Add(2*time.Hour)),
	}
	for _, rec := range want {
		if err := ts.save(rec); err != nil {
			t.Fatal(err)
		}
	}

	recs, st := ts.loadAll(now)
	if st.loaded != 2 || st.expired != 0 || st.corrupt != 0 {
		t.Fatalf("load stats %+v, want loaded=2 only", st)
	}
	byID := map[string]ticketRecord{}
	for _, rec := range recs {
		byID[string(rec.id)] = rec
	}
	for _, w := range want {
		got, ok := byID[string(w.id)]
		if !ok {
			t.Fatalf("record %x missing after reload", w.id)
		}
		if !got.expires.Equal(w.expires) {
			t.Fatalf("expiry %v loaded as %v", w.expires, got.expires)
		}
		gotRaw, _ := got.state.MarshalBinary()
		wantRaw, _ := w.state.MarshalBinary()
		if !bytes.Equal(gotRaw, wantRaw) {
			t.Fatal("OT state bytes did not survive the store")
		}
	}

	missing := testTicketRecord(t, 3, now)
	if _, err := ticketFrame.readFramed(ts.path(missing.id), "x"); !errors.Is(err, ErrTicketNotFound) {
		t.Fatalf("absent record read = %v, want ErrTicketNotFound", err)
	}
}

// TestTicketRecordCodecRejectsDamage: the payload codec errors — never
// panics, never half-accepts — on truncation at every prefix, trailing
// bytes, a wrong-size id, and damaged OT state flags.
func TestTicketRecordCodecRejectsDamage(t *testing.T) {
	payload, err := marshalTicketRecord(testTicketRecord(t, 4, time.Now()))
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := unmarshalTicketRecord(payload); err != nil || rec.state == nil {
		t.Fatalf("pristine payload rejected: %v", err)
	}

	for i := 0; i < len(payload); i++ {
		if _, err := unmarshalTicketRecord(payload[:i]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", i, len(payload))
		}
	}
	if _, err := unmarshalTicketRecord(append(append([]byte(nil), payload...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}

	shortID := testTicketRecord(t, 5, time.Now())
	shortID.id = shortID.id[:8]
	raw, err := marshalTicketRecord(shortID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unmarshalTicketRecord(raw); err == nil {
		t.Fatal("8-byte ticket id accepted")
	}

	badFlags := append([]byte(nil), payload...)
	badFlags[8+8+ticketIDBytes+8] = 0xFF // OT state flags byte
	if _, err := unmarshalTicketRecord(badFlags); err == nil {
		t.Fatal("hostile OT state flags accepted")
	}

	if _, err := marshalTicketRecord(ticketRecord{id: shortID.id}); err == nil {
		t.Fatal("nil OT state marshaled")
	}
}

// corruptTicketFile rewrites the stored record for rec through f.
func corruptTicketFile(t *testing.T, ts *ticketStore, rec ticketRecord, f func([]byte) []byte) {
	t.Helper()
	path := ts.path(rec.id)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, f(data), 0o600); err != nil {
		t.Fatal(err)
	}
}

// TestTicketStoreDetectsTruncation: a record file cut anywhere reads as
// the typed corrupt sentinel, and the load sweep deletes it instead of
// resurfacing the error on every future restart.
func TestTicketStoreDetectsTruncation(t *testing.T) {
	for _, frac := range []float64{0, 0.2, 0.5, 0.99} {
		ts, err := newTicketStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		rec := testTicketRecord(t, 6, time.Now().Add(time.Hour))
		if err := ts.save(rec); err != nil {
			t.Fatal(err)
		}
		corruptTicketFile(t, ts, rec, func(b []byte) []byte {
			return b[:int(float64(len(b))*frac)]
		})
		if _, err := ticketFrame.readFramed(ts.path(rec.id), "x"); !errors.Is(err, ErrTicketCorrupt) {
			t.Fatalf("truncation to %.0f%%: read = %v, want ErrTicketCorrupt", frac*100, err)
		}
		recs, st := ts.loadAll(time.Now())
		if len(recs) != 0 || st.corrupt != 1 {
			t.Fatalf("truncated record: loadAll returned %d records, stats %+v", len(recs), st)
		}
		if _, err := os.Stat(ts.path(rec.id)); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("load sweep left the truncated record on disk")
		}
	}
}

// TestTicketStoreDetectsBitFlips: one flipped byte in the magic, the
// checksum, or the payload is caught before any payload byte reaches the
// codec.
func TestTicketStoreDetectsBitFlips(t *testing.T) {
	offsets := map[string]int{
		"magic":    0,
		"checksum": 17,
		"payload":  storeHeaderBytes + 8,
	}
	for which, off := range offsets {
		ts, err := newTicketStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		rec := testTicketRecord(t, 7, time.Now().Add(time.Hour))
		if err := ts.save(rec); err != nil {
			t.Fatal(err)
		}
		corruptTicketFile(t, ts, rec, func(b []byte) []byte {
			b[off] ^= 0x40
			return b
		})
		if _, err := ticketFrame.readFramed(ts.path(rec.id), "x"); !errors.Is(err, ErrTicketCorrupt) {
			t.Fatalf("%s flip: read = %v, want ErrTicketCorrupt", which, err)
		}
		if recs, st := ts.loadAll(time.Now()); len(recs) != 0 || st.corrupt != 1 {
			t.Fatalf("%s flip: loadAll returned %d records, stats %+v", which, len(recs), st)
		}
	}
}

// TestTicketStoreVersionSkewTyped: a record written under another format
// version reads as the version sentinel — distinguishable from corruption
// and from a miss — and the load sweep still clears it.
func TestTicketStoreVersionSkewTyped(t *testing.T) {
	ts, err := newTicketStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := testTicketRecord(t, 8, time.Now().Add(time.Hour))
	if err := ts.save(rec); err != nil {
		t.Fatal(err)
	}
	corruptTicketFile(t, ts, rec, func(b []byte) []byte {
		b[4] = ticketFormatVersion + 1
		return b
	})
	_, err = ticketFrame.readFramed(ts.path(rec.id), "x")
	if !errors.Is(err, ErrTicketVersion) {
		t.Fatalf("read = %v, want ErrTicketVersion", err)
	}
	if errors.Is(err, ErrTicketCorrupt) || errors.Is(err, ErrTicketNotFound) {
		t.Fatal("version mismatch must not match the other sentinels")
	}
	if recs, st := ts.loadAll(time.Now()); len(recs) != 0 || st.corrupt != 1 {
		t.Fatalf("version skew: loadAll returned %d records, stats %+v", len(recs), st)
	}
	if _, err := os.Stat(ts.path(rec.id)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("load sweep left the version-skewed record on disk")
	}
}

// TestTicketStoreSweepsExpiredOnLoad: records whose TTL lapsed while the
// engine was down are swept at load — including one expiring at exactly
// the load instant, the same dead-AT-expiry boundary redeem enforces, so
// a ticket that would be rejected live cannot resurrect via a restart.
func TestTicketStoreSweepsExpiredOnLoad(t *testing.T) {
	ts, err := newTicketStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().Round(0)
	lapsed := testTicketRecord(t, 9, now.Add(-time.Minute))
	boundary := testTicketRecord(t, 10, now)
	live := testTicketRecord(t, 11, now.Add(time.Minute))
	for _, rec := range []ticketRecord{lapsed, boundary, live} {
		if err := ts.save(rec); err != nil {
			t.Fatal(err)
		}
	}

	recs, st := ts.loadAll(now)
	if st.loaded != 1 || st.expired != 2 || st.corrupt != 0 {
		t.Fatalf("load stats %+v, want loaded=1 expired=2", st)
	}
	if len(recs) != 1 || !bytes.Equal(recs[0].id, live.id) {
		t.Fatal("survivor is not the live record")
	}
	for _, rec := range []ticketRecord{lapsed, boundary} {
		if _, err := os.Stat(ts.path(rec.id)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("expired record %x left on disk", rec.id)
		}
	}
}

// TestTicketStoreSweepsOrphanedTemps: opening a store removes stale
// atomic-write debris but never published records.
func TestTicketStoreSweepsOrphanedTemps(t *testing.T) {
	dir := t.TempDir()
	ts, err := newTicketStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := testTicketRecord(t, 12, time.Now().Add(time.Hour))
	if err := ts.save(rec); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, ".deadbeef.tmp-123")
	if err := os.WriteFile(stale, []byte("half"), 0o600); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * tempMaxAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := newTicketStore(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("startup sweep left the orphaned temp file")
	}
	if recs, _ := ts.loadAll(time.Now()); len(recs) != 1 {
		t.Fatal("startup sweep damaged a published record")
	}
}

// TestTicketCacheWriteThrough: inserts and redeems write through to the
// attached store in the background (flush joins), a redeem's slid expiry
// replaces the stale one on disk, and every death path — explicit removal
// included — deletes the record file.
func TestTicketCacheWriteThrough(t *testing.T) {
	dir := t.TempDir()
	ts, err := newTicketStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tc := newTicketCache(time.Minute, -1, nil)
	base := time.Now().Round(0)
	now := base
	tc.mu.Lock()
	tc.now = func() time.Time { return now }
	tc.mu.Unlock()
	tc.attachStore(ts)

	id := tc.reserve()
	tc.insert(id, testOTResume(t, 13), "m")
	tc.flush()
	if _, err := os.Stat(ts.path(id)); err != nil {
		t.Fatalf("insert did not write through: %v", err)
	}
	st, _ := tc.stats()
	if st.Persisted == 0 || st.PersistErrors != 0 {
		t.Fatalf("persist counters %+v after write-through", st)
	}

	// Redeem slides the expiry; the disk record must carry the slid window.
	now = base.Add(30 * time.Second)
	if _, reject := tc.redeem(id, "m"); reject != "" {
		t.Fatalf("redeem rejected with %q", reject)
	}
	tc.flush()
	recs, _ := ts.loadAll(now)
	if len(recs) != 1 {
		t.Fatalf("store holds %d records after redeem, want 1", len(recs))
	}
	if want := now.Add(time.Minute); !recs[0].expires.Equal(want) {
		t.Fatalf("disk expiry %v, want slid %v", recs[0].expires, want)
	}

	tc.remove(id)
	tc.flush()
	if _, err := os.Stat(ts.path(id)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("removal left the record on disk")
	}
}

// TestTicketCacheReloadAcrossRestart: a second cache attached to the same
// directory reloads the first cache's live tickets and redeems them with
// the original seed bytes.
func TestTicketCacheReloadAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ts1, err := newTicketStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tc1 := newTicketCache(time.Hour, -1, nil)
	tc1.attachStore(ts1)
	state := testOTResume(t, 14)
	id := tc1.reserve()
	tc1.insert(id, state, "m")
	tc1.flush()

	ts2, err := newTicketStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tc2 := newTicketCache(time.Hour, -1, nil)
	tc2.attachStore(ts2)
	st, _ := tc2.stats()
	if st.Loaded != 1 || st.LoadErrors != 0 || st.Tickets != 1 {
		t.Fatalf("restarted cache stats %+v, want one loaded ticket", st)
	}
	got, reject := tc2.redeem(id, "m")
	if reject != "" {
		t.Fatalf("reloaded ticket rejected with %q", reject)
	}
	gotRaw, _ := got.MarshalBinary()
	wantRaw, _ := state.MarshalBinary()
	if !bytes.Equal(gotRaw, wantRaw) {
		t.Fatal("reloaded seed material diverged from the original")
	}
	tc2.flush() // the redeem re-persists the slid expiry in the background
}

// TestTicketCacheLoadRespectsBudget: records loaded at attach are subject
// to the same byte budget as live inserts, and a live entry outranks its
// own stale disk copy.
func TestTicketCacheLoadRespectsBudget(t *testing.T) {
	dir := t.TempDir()
	ts, err := newTicketStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for seed := byte(20); seed < 24; seed++ {
		if err := ts.save(testTicketRecord(t, seed, time.Now().Add(time.Hour))); err != nil {
			t.Fatal(err)
		}
	}
	tc := newTicketCache(time.Hour, 1, nil) // any real state exceeds 1 byte
	tc.attachStore(ts)
	st, _ := tc.stats()
	if st.Loaded != 4 {
		t.Fatalf("loaded %d records, want 4", st.Loaded)
	}
	if st.Tickets != 1 || st.Evicted != 3 {
		t.Fatalf("stats %+v, want budget to keep 1 of the 4 loaded", st)
	}

	// Live entry vs stale disk copy: the resident state wins.
	live := testOTResume(t, 30)
	diskState := testOTResume(t, 31)
	tc2 := newTicketCache(time.Hour, -1, nil)
	id := tc2.reserve()
	tc2.insert(id, live, "m")
	dir2 := t.TempDir()
	ts2, err := newTicketStore(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts2.save(ticketRecord{id: id, expires: time.Now().Add(time.Hour), state: diskState}); err != nil {
		t.Fatal(err)
	}
	tc2.attachStore(ts2)
	got, reject := tc2.redeem(id, "m")
	if reject != "" {
		t.Fatalf("redeem rejected with %q", reject)
	}
	gotRaw, _ := got.MarshalBinary()
	liveRaw, _ := live.MarshalBinary()
	if !bytes.Equal(gotRaw, liveRaw) {
		t.Fatal("stale disk copy displaced the live entry")
	}
	// The evictions and the redeem queue background disk jobs; let them
	// finish before the TempDir cleanups remove the directories.
	tc.flush()
	tc2.flush()
}

// TestTicketExpiryAtExactTTLBoundary is the regression test for the
// sliding-expiry edge: a redeem at exactly t = expiry is a typed
// expired_ticket, not a hit — the ticket is dead AT its expiry instant.
// Before the not-Before fix, redeem used After and the boundary lookup
// resumed from a ticket the insert prune (and the restart load sweep)
// would already have declared dead.
func TestTicketExpiryAtExactTTLBoundary(t *testing.T) {
	tc := newTicketCache(time.Minute, -1, nil)
	base := time.Now().Round(0)
	now := base
	tc.mu.Lock()
	tc.now = func() time.Time { return now }
	tc.mu.Unlock()

	id := tc.reserve()
	tc.insert(id, testOTResume(t, 40), "m")

	// One instant before the boundary: still a hit (and the hit slides the
	// window from this now).
	now = base.Add(time.Minute - time.Nanosecond)
	if _, reject := tc.redeem(id, "m"); reject != "" {
		t.Fatalf("redeem just inside the TTL rejected with %q", reject)
	}

	// Exactly at the slid expiry: dead, typed, and dropped.
	now = now.Add(time.Minute)
	if state, reject := tc.redeem(id, "m"); state != nil || reject != resumeExpiredTicket {
		t.Fatalf("redeem at t=TTL: state=%v reject=%q, want typed %q", state, reject, resumeExpiredTicket)
	}
	st, _ := tc.stats()
	if st.Expired != 1 || st.Tickets != 0 {
		t.Fatalf("stats %+v after boundary expiry, want expired=1 tickets=0", st)
	}
	// And it stays dead: the drop is permanent, not a transient reject.
	if _, reject := tc.redeem(id, "m"); reject != resumeUnknownTicket {
		t.Fatalf("second redeem = %q, want %q (entry dropped)", reject, resumeUnknownTicket)
	}
}
