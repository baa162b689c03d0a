// Package ot implements 1-out-of-2 oblivious transfer: κ = 128 public-key
// base OTs extended to millions of fast symmetric-key OTs with the IKNP
// protocol, exactly the structure §2.1.4 of the paper describes. The PI
// protocol uses OT to deliver garbled-circuit input labels for the
// evaluator's share bits.
//
// The base OTs are Chou–Orlandi ("simplest") OT over NIST P-256, which
// gives the 128-bit security the IKNP extension assumes, with each key
// hashed over the OT's transcript (the Hauck–Loss fix). Scalar
// multiplication and ECDH come from the standard library's crypto/ecdh;
// the one point sum the protocol needs is done in affine coordinates on
// public points only. The κ independent OTs are split across GOMAXPROCS
// goroutines after all entropy has been drawn, so transcripts do not
// depend on scheduling.
package ot

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"runtime"
	"sync"

	"privinf/internal/transport"
)

// KeySize is the OT message size in bytes; it matches the garbled-circuit
// label size so labels transfer without re-encryption.
const KeySize = 16

// Message is one OT payload (a wire label).
type Message [KeySize]byte

// pointLen is the size of an uncompressed SEC1 P-256 point (0x04‖x‖y), the
// only encoding a base-OT flight carries; scalarLen is the size of a scalar.
const (
	pointLen  = 65
	scalarLen = 32
)

// ErrBadFlight reports a base-OT flight that is the wrong length or holds
// an encoding that is not a point of P-256: off the curve, the point at
// infinity, or compressed.
var ErrBadFlight = errors.New("ot: malformed base-OT flight")

// ErrDegenerate reports a base-OT point sum that is the identity or needs
// doubling (the two points share an x-coordinate). Honest parties hit it
// with probability about 2^-256; a peer that forces it aborts the OT.
var ErrDegenerate = errors.New("ot: degenerate base-OT point sum")

var (
	p256 = ecdh.P256()
	// p256P is the field prime; p256N the group order, big-endian.
	p256P = mustHexBig("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff")
	p256N = mustHexBig("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551").FillBytes(make([]byte, scalarLen))
)

func mustHexBig(s string) *big.Int {
	v, ok := new(big.Int).SetString(s, 16)
	if !ok {
		panic("ot: bad curve constant")
	}
	return v
}

// drawScalars reads n scalars in [1, N) from src, rejecting out-of-range
// candidates. Drawing serially here, before any fan-out, keeps a seeded
// source's transcript independent of goroutine scheduling.
func drawScalars(src io.Reader, n int) ([][scalarLen]byte, error) {
	out := make([][scalarLen]byte, n)
	var zero [scalarLen]byte
	for i := range out {
		for {
			if _, err := io.ReadFull(src, out[i][:]); err != nil {
				return nil, fmt.Errorf("ot: entropy: %w", err)
			}
			if out[i] != zero && bytes.Compare(out[i][:], p256N) < 0 {
				break
			}
		}
	}
	return out, nil
}

// parsePoint validates one received point: crypto/ecdh accepts only an
// uncompressed encoding of a point on the curve other than the identity
// (P-256 has cofactor 1, so no small-subgroup check is needed).
func parsePoint(b []byte) (*ecdh.PublicKey, error) {
	pk, err := p256.NewPublicKey(b)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFlight, err)
	}
	return pk, nil
}

// addPoints returns the uncompressed encoding of p+q for two points already
// validated on the curve. It runs in math/big, which is not constant-time,
// so it must only ever see public points. Points that share an
// x-coordinate (q = ±p) are reported as degenerate rather than doubled.
func addPoints(p, q []byte) ([]byte, error) {
	x1, y1 := new(big.Int).SetBytes(p[1:33]), new(big.Int).SetBytes(p[33:])
	x2, y2 := new(big.Int).SetBytes(q[1:33]), new(big.Int).SetBytes(q[33:])
	if x1.Cmp(x2) == 0 {
		return nil, ErrDegenerate
	}
	l := new(big.Int).Sub(x2, x1)
	l.ModInverse(l.Mod(l, p256P), p256P)
	l.Mul(l, y2.Sub(y2, y1)).Mod(l, p256P)
	x3 := new(big.Int).Mul(l, l)
	x3.Sub(x3, x1).Sub(x3, x2).Mod(x3, p256P)
	y3 := x1.Sub(x1, x3)
	y3.Mul(y3, l).Sub(y3, y1).Mod(y3, p256P)
	out := make([]byte, pointLen)
	out[0] = 4
	x3.FillBytes(out[1:33])
	y3.FillBytes(out[33:])
	return out, nil
}

// negPoint returns -p, which is (x, P-y); y is never 0 on a prime-order
// curve.
func negPoint(p []byte) []byte {
	out := bytes.Clone(p)
	y := new(big.Int).SetBytes(p[33:])
	y.Sub(p256P, y).FillBytes(out[33:])
	return out
}

// deriveKey hashes one OT's transcript — its index, the sender's point A,
// the receiver's point B and the ECDH secret — into a pad for one message.
func deriveKey(index int, bigA, bigB, secret []byte) Message {
	h := sha256.New()
	var idx [8]byte
	binary.BigEndian.PutUint64(idx[:], uint64(index))
	h.Write(idx[:])
	h.Write(bigA)
	h.Write(bigB)
	h.Write(secret)
	var sum [sha256.Size]byte
	var out Message
	copy(out[:], h.Sum(sum[:0]))
	return out
}

// choiceBit maps a choice to the 0/1 selector crypto/subtle expects.
func choiceBit(c bool) int {
	if c {
		return 1
	}
	return 0
}

func xorMsg(a, b Message) Message {
	var out Message
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// fanOut calls fn(i) for every i in [0, n), split into contiguous chunks
// across GOMAXPROCS goroutines. It returns the error of the lowest failing
// index, so the outcome does not depend on scheduling either.
func fanOut(n int, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	errs := make([]error, max(workers, 1))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w * n / workers; i < (w+1)*n/workers; i++ {
				if errs[w] = fn(i); errs[w] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// BaseSend runs the sender side of n base OTs over conn, transferring
// pairs[i][choice] obliviously. It sends A = a·G, receives one point B_i
// per OT, and sends each pair masked under k0 = H(i‖A‖B_i‖a·B_i) and
// k1 = H(i‖A‖B_i‖a·(B_i−A)). src may be nil (crypto/rand).
func BaseSend(conn transport.MsgConn, pairs [][2]Message, src io.Reader) error {
	if src == nil {
		src = rand.Reader
	}
	scalars, err := drawScalars(src, 1)
	if err != nil {
		return err
	}
	a, err := p256.NewPrivateKey(scalars[0][:])
	if err != nil {
		return fmt.Errorf("ot: base OT key: %w", err)
	}
	bigA := a.PublicKey().Bytes()
	if err := conn.Send(bigA); err != nil {
		return err
	}
	negA := negPoint(bigA)

	raw, err := conn.Recv()
	if err != nil {
		return err
	}
	if len(raw) != pointLen*len(pairs) {
		return fmt.Errorf("%w: receiver sent %d bytes, want %d", ErrBadFlight, len(raw), pointLen*len(pairs))
	}

	out := make([]byte, 2*KeySize*len(pairs))
	err = fanOut(len(pairs), func(i int) error {
		bigB := raw[i*pointLen : (i+1)*pointLen]
		pubB, err := parsePoint(bigB)
		if err != nil {
			return fmt.Errorf("receiver point %d: %w", i, err)
		}
		diff, err := addPoints(bigB, negA)
		if err != nil {
			return fmt.Errorf("%w (B_%d = ±A)", err, i)
		}
		pubDiff, err := parsePoint(diff)
		if err != nil {
			return err
		}
		s0, err := a.ECDH(pubB)
		if err != nil {
			return err
		}
		s1, err := a.ECDH(pubDiff)
		if err != nil {
			return err
		}
		e0 := xorMsg(deriveKey(i, bigA, bigB, s0), pairs[i][0])
		e1 := xorMsg(deriveKey(i, bigA, bigB, s1), pairs[i][1])
		copy(out[i*2*KeySize:], e0[:])
		copy(out[i*2*KeySize+KeySize:], e1[:])
		return nil
	})
	if err != nil {
		return err
	}
	return conn.Send(out)
}

// BaseReceive runs the receiver side of len(choices) base OTs, returning
// the chosen message of each pair. For each OT it draws b_i, computes
// P = b_i·G and T = P + A, sends B_i = T if the choice is 1 and P
// otherwise (a constant-time select; both sums are public), and unmasks
// with H(i‖A‖B_i‖b_i·A).
func BaseReceive(conn transport.MsgConn, choices []bool, src io.Reader) ([]Message, error) {
	if src == nil {
		src = rand.Reader
	}
	scalars, err := drawScalars(src, len(choices))
	if err != nil {
		return nil, err
	}
	bigA, err := conn.Recv()
	if err != nil {
		return nil, err
	}
	pubA, err := parsePoint(bigA)
	if err != nil {
		return nil, fmt.Errorf("sender point: %w", err)
	}

	flight := make([]byte, pointLen*len(choices))
	keys := make([]*ecdh.PrivateKey, len(choices))
	err = fanOut(len(choices), func(i int) error {
		b, err := p256.NewPrivateKey(scalars[i][:])
		if err != nil {
			return fmt.Errorf("ot: base OT key %d: %w", i, err)
		}
		keys[i] = b
		p := b.PublicKey().Bytes()
		t, err := addPoints(p, bigA)
		if err != nil {
			return fmt.Errorf("%w (b_%d·G = ±A)", err, i)
		}
		subtle.ConstantTimeCopy(choiceBit(choices[i]), p, t)
		copy(flight[i*pointLen:], p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := conn.Send(flight); err != nil {
		return nil, err
	}

	// The pads depend only on b_i and A, so they are computed while the
	// sender works on the flight.
	pads := make([]Message, len(choices))
	err = fanOut(len(choices), func(i int) error {
		s, err := keys[i].ECDH(pubA)
		if err != nil {
			return err
		}
		pads[i] = deriveKey(i, bigA, flight[i*pointLen:(i+1)*pointLen], s)
		return nil
	})
	if err != nil {
		return nil, err
	}

	enc, err := conn.Recv()
	if err != nil {
		return nil, err
	}
	if len(enc) != 2*KeySize*len(choices) {
		return nil, fmt.Errorf("%w: sender sent %d bytes, want %d", ErrBadFlight, len(enc), 2*KeySize*len(choices))
	}
	out := make([]Message, len(choices))
	for i, c := range choices {
		var e Message
		off := i * 2 * KeySize
		copy(e[:], enc[off:off+KeySize])
		subtle.ConstantTimeCopy(choiceBit(c), e[:], enc[off+KeySize:off+2*KeySize])
		out[i] = xorMsg(pads[i], e)
	}
	return out, nil
}
