package fleet

import (
	"encoding/json"
	"errors"
	"testing"

	"privinf/internal/serve"
	"privinf/internal/transport"
)

// wireTagCtrl and wireVersion mirror the serve package's wire constants;
// the test speaks raw bytes on purpose — it plays a peer that is not this
// codebase.
const (
	wireTagCtrl = 0x01
	wireVersion = 5
)

// TestRouterGarbageOpcodeRejected: a connection through the router that
// opens with a well-formed control frame carrying a garbage opcode gets the
// same typed bad_hello rejection a direct connection gets — unwrapping to
// serve.ErrBadFrame — instead of being silently dropped or hanging the
// front tier.
func TestRouterGarbageOpcodeRejected(t *testing.T) {
	_, front := startFleet(t, testModel(t, 51), 1)

	conn, err := front.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := transport.SendPreamble(conn, transport.Preamble{Version: wireVersion}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send([]byte{wireTagCtrl, 0xEE, 'j', 'u', 'n', 'k'}); err != nil {
		t.Fatal(err)
	}
	f, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(f) < 2 || f[0] != wireTagCtrl {
		t.Fatalf("answer frame %v is not a control frame", f)
	}
	var rej struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal(f[2:], &rej); err != nil {
		t.Fatalf("answer body %q is not a rejection: %v", f[2:], err)
	}
	if rej.Code != "bad_hello" {
		t.Fatalf("reject code %q, want bad_hello", rej.Code)
	}
	if !errors.Is(&serve.HandshakeError{Code: rej.Code}, serve.ErrBadFrame) {
		t.Fatal("bad_hello rejection must map to serve.ErrBadFrame")
	}
}

// TestRouterCloseJoinsGoroutines: Close cuts live proxied sessions loose,
// closes its ServePipe fronts, and returns only after every router
// goroutine has exited — a second Dial on the front fails instead of
// leaking a pending handshake.
func TestRouterCloseJoinsGoroutines(t *testing.T) {
	model := testModel(t, 52)
	r := NewRouter(Config{})
	if _, err := r.AddEngine(newEngine(t, model)); err != nil {
		t.Fatal(err)
	}
	front := r.ServePipe()

	conn, err := front.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Park the connection mid-handshake: preamble sent, hello never sent,
	// so the router's handler goroutine is blocked in the peek.
	if err := transport.SendPreamble(conn, transport.Preamble{Version: wireVersion}); err != nil {
		t.Fatal(err)
	}

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := front.Dial(); err == nil {
		t.Fatal("front listener still accepting after Close")
	}
}
