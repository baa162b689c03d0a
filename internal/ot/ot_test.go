package ot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"privinf/internal/transport"
)

type seededReader struct{ rng *rand.Rand }

func newSeeded(seed int64) *seededReader {
	return &seededReader{rng: rand.New(rand.NewSource(seed))}
}

func (s *seededReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(s.rng.Intn(256))
	}
	return len(p), nil
}

func randomPairs(rng *rand.Rand, n int) [][2]Message {
	pairs := make([][2]Message, n)
	for i := range pairs {
		rng.Read(pairs[i][0][:])
		rng.Read(pairs[i][1][:])
	}
	return pairs
}

func randomChoices(rng *rand.Rand, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Intn(2) == 1
	}
	return out
}

func checkTransfer(t *testing.T, pairs [][2]Message, choices []bool, got []Message) {
	t.Helper()
	if len(got) != len(choices) {
		t.Fatalf("got %d messages, want %d", len(got), len(choices))
	}
	for i, c := range choices {
		want := pairs[i][0]
		if c {
			want = pairs[i][1]
		}
		if got[i] != want {
			t.Fatalf("OT %d (choice %v): wrong message", i, c)
		}
		other := pairs[i][1]
		if c {
			other = pairs[i][0]
		}
		if got[i] == other && pairs[i][0] != pairs[i][1] {
			t.Fatalf("OT %d: received the unchosen message", i)
		}
	}
}

func TestBaseOT(t *testing.T) {
	a, b := transport.Pipe()
	rng := rand.New(rand.NewSource(1))
	pairs := randomPairs(rng, 16)
	choices := randomChoices(rng, 16)

	errCh := make(chan error, 1)
	go func() { errCh <- BaseSend(a, pairs, newSeeded(2)) }()
	got, err := BaseReceive(b, choices, newSeeded(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	checkTransfer(t, pairs, choices, got)
}

func TestBaseOTAllChoicePatterns(t *testing.T) {
	for _, pattern := range [][]bool{
		{false, false, false},
		{true, true, true},
		{true, false, true},
	} {
		a, b := transport.Pipe()
		rng := rand.New(rand.NewSource(4))
		pairs := randomPairs(rng, len(pattern))
		errCh := make(chan error, 1)
		go func() { errCh <- BaseSend(a, pairs, newSeeded(5)) }()
		got, err := BaseReceive(b, pattern, newSeeded(6))
		if err != nil {
			t.Fatal(err)
		}
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
		checkTransfer(t, pairs, pattern, got)
	}
}

// recordConn wraps a MsgConn and keeps a copy of every payload it sends.
type recordConn struct {
	transport.MsgConn
	sent [][]byte
}

func (c *recordConn) Send(p []byte) error {
	c.sent = append(c.sent, bytes.Clone(p))
	return c.MsgConn.Send(p)
}

// scriptConn is a MsgConn whose Recv replays scripted frames (io.EOF once
// they run out) and whose Send only records, so one side of a base OT can
// face an arbitrary peer.
type scriptConn struct {
	in   [][]byte
	sent [][]byte
}

func (c *scriptConn) Send(p []byte) error {
	c.sent = append(c.sent, bytes.Clone(p))
	return nil
}

func (c *scriptConn) Recv() ([]byte, error) {
	if len(c.in) == 0 {
		return nil, io.EOF
	}
	f := c.in[0]
	c.in = c.in[1:]
	return f, nil
}

func (c *scriptConn) SentBytes() uint64 { return 0 }
func (c *scriptConn) RecvBytes() uint64 { return 0 }

// seededPoints returns the first n public points a party drawing from
// newSeeded(seed) generates: the sender's A for n = 1, the receiver's
// b_i·G otherwise.
func seededPoints(t testing.TB, seed int64, n int) [][]byte {
	t.Helper()
	scalars, err := drawScalars(newSeeded(seed), n)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, n)
	for i := range scalars {
		k, err := p256.NewPrivateKey(scalars[i][:])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = k.PublicKey().Bytes()
	}
	return out
}

// scalarPoint returns k·G for a small k.
func scalarPoint(t testing.TB, k byte) []byte {
	t.Helper()
	var s [scalarLen]byte
	s[scalarLen-1] = k
	priv, err := p256.NewPrivateKey(s[:])
	if err != nil {
		t.Fatal(err)
	}
	return priv.PublicKey().Bytes()
}

func TestAddPoints(t *testing.T) {
	g, g2, g3 := scalarPoint(t, 1), scalarPoint(t, 2), scalarPoint(t, 3)
	sum, err := addPoints(g, g2)
	if err != nil || !bytes.Equal(sum, g3) {
		t.Fatalf("G + 2G = %x, %v; want 3G", sum, err)
	}
	diff, err := addPoints(g3, negPoint(g))
	if err != nil || !bytes.Equal(diff, g2) {
		t.Fatalf("3G - G = %x, %v; want 2G", diff, err)
	}
	for _, q := range [][]byte{g, negPoint(g)} {
		if _, err := addPoints(g, q); !errors.Is(err, ErrDegenerate) {
			t.Errorf("G + (±G) = %v, want ErrDegenerate", err)
		}
	}
}

// badPoints are 65-byte encodings crypto/ecdh must refuse.
func badPoints(t *testing.T) map[string][]byte {
	g := scalarPoint(t, 1)
	offCurve := bytes.Clone(g)
	offCurve[pointLen-1] ^= 1
	infinity := make([]byte, pointLen)
	compressedTag := bytes.Clone(g)
	compressedTag[0] = 2
	return map[string][]byte{"off-curve": offCurve, "infinity": infinity, "compressed tag": compressedTag}
}

func TestBaseReceiveRejectsBadSenderFlights(t *testing.T) {
	g := scalarPoint(t, 1)
	choices := []bool{true, false}
	bad := badPoints(t)
	bad["infinity (1 byte)"] = []byte{0}
	bad["compressed"] = append([]byte{2 + g[pointLen-1]&1}, g[1:33]...)
	bad["short"] = g[:pointLen-1]
	bad["empty"] = nil
	for name, a := range bad {
		c := &scriptConn{in: [][]byte{a}}
		if _, err := BaseReceive(c, choices, newSeeded(1)); !errors.Is(err, ErrBadFlight) {
			t.Errorf("%s A: err = %v, want ErrBadFlight", name, err)
		}
		if len(c.sent) != 0 {
			t.Errorf("%s A: receiver sent %d frames before rejecting", name, len(c.sent))
		}
	}
	for _, n := range []int{0, 2*KeySize*len(choices) - 1, 2*KeySize*len(choices) + 1} {
		c := &scriptConn{in: [][]byte{g, make([]byte, n)}}
		if _, err := BaseReceive(c, choices, newSeeded(1)); !errors.Is(err, ErrBadFlight) {
			t.Errorf("%d-byte ciphertext flight: err = %v, want ErrBadFlight", n, err)
		}
	}
}

func TestBaseSendRejectsBadReceiverFlights(t *testing.T) {
	g := scalarPoint(t, 1)
	pairs := make([][2]Message, 3)
	valid := bytes.Repeat(g, len(pairs))
	flights := map[string][]byte{
		"empty":      nil,
		"short":      valid[:len(valid)-1],
		"long":       append(bytes.Clone(valid), 4),
		"compressed": bytes.Repeat(append([]byte{2 + g[pointLen-1]&1}, g[1:33]...), len(pairs)),
	}
	for name, p := range badPoints(t) {
		f := bytes.Clone(valid)
		copy(f[2*pointLen:], p) // the last OT: earlier ones must not mask it
		flights[name] = f
	}
	for name, f := range flights {
		c := &scriptConn{in: [][]byte{f}}
		if err := BaseSend(c, pairs, newSeeded(2)); !errors.Is(err, ErrBadFlight) {
			t.Errorf("%s flight: err = %v, want ErrBadFlight", name, err)
		}
		if len(c.sent) != 1 {
			t.Errorf("%s flight: sender sent %d frames, want only A", name, len(c.sent))
		}
	}
}

func TestBaseOTDegenerateSum(t *testing.T) {
	// Sender: a receiver point equal to ±A has no usable B - A.
	const sendSeed = 2
	bigA := seededPoints(t, sendSeed, 1)[0]
	g := scalarPoint(t, 1)
	for name, b := range map[string][]byte{"B = A": bigA, "B = -A": negPoint(bigA)} {
		c := &scriptConn{in: [][]byte{append(bytes.Clone(g), b...)}}
		if err := BaseSend(c, make([][2]Message, 2), newSeeded(sendSeed)); !errors.Is(err, ErrDegenerate) {
			t.Errorf("%s: BaseSend err = %v, want ErrDegenerate", name, err)
		}
	}
	// Receiver: a sender point equal to ±b_0·G has no usable P + A.
	const recvSeed = 3
	p0 := seededPoints(t, recvSeed, 1)[0]
	for name, a := range map[string][]byte{"A = P": p0, "A = -P": negPoint(p0)} {
		c := &scriptConn{in: [][]byte{a}}
		if _, err := BaseReceive(c, []bool{false, true}, newSeeded(recvSeed)); !errors.Is(err, ErrDegenerate) {
			t.Errorf("%s: BaseReceive err = %v, want ErrDegenerate", name, err)
		}
		if len(c.sent) != 0 {
			t.Errorf("%s: receiver sent its flight after a degenerate sum", name)
		}
	}
}

// runRecordedBaseOT runs kappa base OTs with fixed seeds over a pipe and
// returns the messages received plus every payload each side sent.
func runRecordedBaseOT(t *testing.T) ([]Message, [][]byte, [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	pairs := randomPairs(rng, kappa)
	choices := randomChoices(rng, kappa)
	a, b := transport.Pipe()
	snd, rcv := &recordConn{MsgConn: a}, &recordConn{MsgConn: b}
	errCh := make(chan error, 1)
	go func() { errCh <- BaseSend(snd, pairs, newSeeded(22)) }()
	got, err := BaseReceive(rcv, choices, newSeeded(23))
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	checkTransfer(t, pairs, choices, got)
	return got, snd.sent, rcv.sent
}

func TestBaseOTTranscriptIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	got1, snd1, rcv1 := runRecordedBaseOT(t)
	runtime.GOMAXPROCS(2)
	got2, snd2, rcv2 := runRecordedBaseOT(t)
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("OT %d output differs between GOMAXPROCS 1 and 2", i)
		}
	}
	for name, pair := range map[string][2][][]byte{"sender": {snd1, snd2}, "receiver": {rcv1, rcv2}} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s sent %d frames vs %d", name, len(pair[0]), len(pair[1]))
		}
		for i := range pair[0] {
			if !bytes.Equal(pair[0][i], pair[1][i]) {
				t.Errorf("%s frame %d differs between GOMAXPROCS 1 and 2", name, i)
			}
		}
	}
}

// TestBaseOTKnownAnswer pins the protocol's bytes for fixed seeds: the
// point encodings, the transcript each key is hashed over and the message
// masking. A change here is a wire change (bump serve's wireVersion).
func TestBaseOTKnownAnswer(t *testing.T) {
	_, snd, rcv := runRecordedBaseOT(t)
	h := sha256.New()
	for _, f := range append(snd, rcv...) {
		h.Write(f)
	}
	const want = "dabbd37e5b31d5a29994121cd9bd64936e959a0b2ee8ad4bfe58d8a67de61a3f"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("base-OT transcript hash %s, want %s", got, want)
	}
}

func TestBaseOTFlightSizes(t *testing.T) {
	// Sender: A, then two masked messages per OT. Receiver: one point per OT.
	_, snd, rcv := runRecordedBaseOT(t)
	if len(snd) != 2 || len(snd[0]) != pointLen || len(snd[1]) != 2*KeySize*kappa {
		t.Errorf("sender frames %v bytes, want [%d %d]", frameLens(snd), pointLen, 2*KeySize*kappa)
	}
	if len(rcv) != 1 || len(rcv[0]) != pointLen*kappa {
		t.Errorf("receiver frames %v bytes, want [%d]", frameLens(rcv), pointLen*kappa)
	}
}

func frameLens(frames [][]byte) []int {
	out := make([]int, len(frames))
	for i, f := range frames {
		out[i] = len(f)
	}
	return out
}

// FuzzBaseSendReceiverFlight feeds arbitrary bytes to BaseSend as the
// receiver's point flight, the largest input a cold peer controls before
// a session starts. The OT count follows the input length so that lengths
// divisible by 65 reach point parsing. It must error or succeed, never
// panic; on success the sender answered with a full ciphertext flight.
func FuzzBaseSendReceiverFlight(f *testing.F) {
	g, g2 := scalarPoint(f, 1), scalarPoint(f, 2)
	bigA := seededPoints(f, 1, 1)[0]
	f.Add(append(bytes.Clone(g), g2...))
	f.Add(append(bytes.Clone(g), bigA...))
	f.Add(negPoint(bigA))
	f.Add(make([]byte, pointLen))
	f.Add(g[:pointLen-1])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, flight []byte) {
		n := min(max(len(flight)/pointLen, 1), kappa)
		c := &scriptConn{in: [][]byte{flight}}
		err := BaseSend(c, make([][2]Message, n), newSeeded(1))
		if err == nil && (len(c.sent) != 2 || len(c.sent[1]) != 2*KeySize*n) {
			t.Fatalf("accepted flight but sent frames %v", frameLens(c.sent))
		}
		if err != nil && !errors.Is(err, ErrBadFlight) && !errors.Is(err, ErrDegenerate) {
			t.Fatalf("untyped error %v", err)
		}
	})
}

func setupExtension(t *testing.T) (*ExtSender, *ExtReceiver) {
	t.Helper()
	a, b := transport.Pipe()
	sCh := make(chan *ExtSender, 1)
	eCh := make(chan error, 1)
	go func() {
		s, err := NewExtSender(a, newSeeded(7))
		sCh <- s
		eCh <- err
	}()
	r, err := NewExtReceiver(b, newSeeded(8))
	if err != nil {
		t.Fatal(err)
	}
	s := <-sCh
	if err := <-eCh; err != nil {
		t.Fatal(err)
	}
	return s, r
}

func TestExtensionSmall(t *testing.T) {
	s, r := setupExtension(t)
	rng := rand.New(rand.NewSource(9))
	pairs := randomPairs(rng, 10)
	choices := randomChoices(rng, 10)

	errCh := make(chan error, 1)
	go func() { errCh <- s.Send(pairs) }()
	got, err := r.Receive(choices)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	checkTransfer(t, pairs, choices, got)
}

func TestExtensionLargeBatch(t *testing.T) {
	s, r := setupExtension(t)
	rng := rand.New(rand.NewSource(10))
	const n = 5000
	pairs := randomPairs(rng, n)
	choices := randomChoices(rng, n)

	errCh := make(chan error, 1)
	go func() { errCh <- s.Send(pairs) }()
	got, err := r.Receive(choices)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	checkTransfer(t, pairs, choices, got)
}

func TestExtensionMultipleBatches(t *testing.T) {
	// One base-OT setup must amortize over several extension rounds; the
	// PI protocol extends once per inference.
	s, r := setupExtension(t)
	rng := rand.New(rand.NewSource(11))
	for batch := 0; batch < 4; batch++ {
		n := 100 + batch*37 // deliberately not byte-aligned
		pairs := randomPairs(rng, n)
		choices := randomChoices(rng, n)
		errCh := make(chan error, 1)
		go func() { errCh <- s.Send(pairs) }()
		got, err := r.Receive(choices)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		checkTransfer(t, pairs, choices, got)
	}
}

func TestExtensionEmptyBatch(t *testing.T) {
	s, r := setupExtension(t)
	if err := s.Send(nil); err != nil {
		t.Fatal(err)
	}
	got, err := r.Receive(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("empty batch should return no messages")
	}
}

func TestExtensionCommunicationVolume(t *testing.T) {
	// Per OT, the receiver uploads kappa bits (16 B) and the sender sends
	// two masked messages (32 B); this grounds the calib constants.
	a, b := transport.Pipe()
	sCh := make(chan *ExtSender, 1)
	eCh := make(chan error, 1)
	go func() {
		s, err := NewExtSender(a, newSeeded(12))
		sCh <- s
		eCh <- err
	}()
	r, err := NewExtReceiver(b, newSeeded(13))
	if err != nil {
		t.Fatal(err)
	}
	s := <-sCh
	if err := <-eCh; err != nil {
		t.Fatal(err)
	}
	a.ResetCounters()
	b.ResetCounters()

	const n = 4096
	rng := rand.New(rand.NewSource(14))
	pairs := randomPairs(rng, n)
	choices := randomChoices(rng, n)
	errCh := make(chan error, 1)
	go func() { errCh <- s.Send(pairs) }()
	if _, err := r.Receive(choices); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	perOTUp := float64(b.SentBytes()) / n   // receiver -> sender
	perOTDown := float64(a.SentBytes()) / n // sender -> receiver
	if perOTUp < 15.9 || perOTUp > 16.5 {
		t.Errorf("receiver upload %.2f B/OT, want ~16", perOTUp)
	}
	if perOTDown < 31.9 || perOTDown > 32.5 {
		t.Errorf("sender download %.2f B/OT, want ~32", perOTDown)
	}
}

func TestTransposeToBlocks(t *testing.T) {
	rows := make([][]byte, kappa)
	for i := range rows {
		rows[i] = make([]byte, 2) // 16 columns
	}
	// Set bit (row 5, col 3) and (row 127, col 15).
	rows[5][0] = 1 << 3
	rows[127][1] = 1 << 7
	blocks := transposeToBlocks(rows, 16)
	if blocks[3][0]&(1<<5) == 0 {
		t.Error("bit (5,3) not transposed")
	}
	if blocks[15][15]&(1<<7) == 0 {
		t.Error("bit (127,15) not transposed")
	}
	var set int
	for _, b := range blocks {
		for _, v := range b {
			for ; v != 0; v &= v - 1 {
				set++
			}
		}
	}
	if set != 2 {
		t.Errorf("transpose produced %d set bits, want 2", set)
	}
}

func BenchmarkOTExtension(b *testing.B) {
	a, c := transport.Pipe()
	sCh := make(chan *ExtSender, 1)
	go func() {
		s, err := NewExtSender(a, newSeeded(15))
		if err != nil {
			panic(err)
		}
		sCh <- s
	}()
	r, err := NewExtReceiver(c, newSeeded(16))
	if err != nil {
		b.Fatal(err)
	}
	s := <-sCh

	rng := rand.New(rand.NewSource(17))
	const n = 1024
	pairs := randomPairs(rng, n)
	choices := randomChoices(rng, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		errCh := make(chan error, 1)
		go func() { errCh <- s.Send(pairs) }()
		if _, err := r.Receive(choices); err != nil {
			b.Fatal(err)
		}
		if err := <-errCh; err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "OTs/op")
}

func BenchmarkBaseOT(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	pairs := randomPairs(rng, kappa)
	choices := randomChoices(rng, kappa)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := transport.Pipe()
		errCh := make(chan error, 1)
		go func() { errCh <- BaseSend(x, pairs, newSeeded(19)) }()
		if _, err := BaseReceive(y, choices, newSeeded(20)); err != nil {
			b.Fatal(err)
		}
		if err := <-errCh; err != nil {
			b.Fatal(err)
		}
	}
}
