package main

import (
	"crypto/rand"
	"time"

	"privinf/internal/bfv"
	"privinf/internal/ot"
	"privinf/internal/serve"
	"privinf/internal/transport"
)

// probe times one OT-extension base-OT setup, sender and receiver running
// concurrently over an in-process pipe, and one HE key generation at the
// engine's parameters: the parts of a full connect that pi_setup_seconds
// does not split out. It appends the times to b.otProbes and b.kgProbes.
func (b *bench) probe() error {
	x, y := transport.Pipe()
	defer x.Close()
	defer y.Close()
	errc := make(chan error, 1)
	t0 := time.Now()
	go func() {
		_, err := ot.NewExtReceiver(y, rand.Reader)
		errc <- err
	}()
	_, err := ot.NewExtSender(x, rand.Reader)
	if err != nil {
		x.Close() // unblocks the receiver
	}
	rerr := <-errc
	d := time.Since(t0)
	if err != nil {
		return err
	}
	if rerr != nil {
		return rerr
	}
	params, err := bfv.NewParams(bfv.DefaultN, b.model.F.P())
	if err != nil {
		return err
	}
	t0 = time.Now()
	bfv.KeyGen(params, rand.Reader)
	b.kgProbes = append(b.kgProbes, time.Since(t0))
	b.otProbes = append(b.otProbes, d)
	return nil
}

// immediateResumeProbe does n full connects, each closed at once and
// followed straight away by a reconnect on the same preamble, and
// returns the share of reconnects that resumed. A client's connect can
// return before the engine has published the session's ticket; this
// measures how often that race is lost. It neither waits around the
// race nor fails on it.
func (b *bench) immediateResumeProbe(n int) (float64, error) {
	hits := 0
	for range n {
		pre := serve.NewPreamble()
		s, err := b.dial(0, 0, serve.WithPreamble(pre))
		if err != nil {
			return 0, err
		}
		s.c.Close()
		s, err = b.dial(0, 0, serve.WithPreamble(pre))
		if err != nil {
			return 0, err
		}
		if s.c.Resumed() {
			hits++
		}
		s.c.Close()
	}
	return float64(hits) / float64(n), nil
}
