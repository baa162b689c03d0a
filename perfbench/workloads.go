package main

import (
	"fmt"
	"sync"
	"time"

	"privinf"
	"privinf/internal/delphi"
	"privinf/internal/serve"
)

// sizing is how much work a run does besides its measured seconds.
type sizing struct {
	setups int // set-ups per run; setup_s is their median
	beyond int // samples a tail must leave above it
	legs   int // arrival-cnn's resume legs
	// requests is the fewest requests arrival-cnn's open loop sends when
	// it reports tails: its tail comes from the few requests that waited
	// for a refill, and fewer left it swinging from seed to seed.
	requests int
	probes   int // immediate-reconnect probes in a traced run
}

// fullSize is what the benchmark runs; the tests use a tiny one.
var fullSize = sizing{setups: 3, beyond: minBeyond, legs: 40, requests: 150, probes: 5}

// workload is one traffic mix against one engine configuration.
type workload struct {
	name    string
	model   string // "mlp" or "cnn"
	variant delphi.Variant
	// buffer is the engine's per-session pre-compute target; 0 runs
	// every offline phase inline with its inference.
	buffer int
	// preambles is how many logical clients keep a serve.Preamble across
	// sessions; 0 means every session is a brand-new client.
	preambles int
	// firstTail and inferTail are the tail percentiles reported; the run
	// lasts until each leaves enough samples beyond it.
	firstTail, inferTail float64
	// limit is the latency a request must meet to count in slo_share:
	// about 1.5 times the p90 measured when the benchmark was written, so
	// that a slower tail moves the share.
	limit time.Duration
	run   func(b *bench) (*phase, error)
}

func (w workload) engine(model *privinf.Model) serve.Config {
	return serve.Config{
		Variant:          w.variant,
		LPHEWorkers:      len(model.Linear),
		BufferPerSession: w.buffer,
		StorageBudget:    w.buffer,
		OfflineWorkers:   1,
	}
}

var workloads = map[string]workload{
	// A brand-new client per session: base OT and HE keygen run every
	// time and nothing is shared, so replacing the base OT shows here.
	"cold-start": {
		name: "cold-start", model: "mlp", variant: delphi.ClientGarbler,
		firstTail: 0.75, inferTail: 0.75, limit: 1600 * time.Millisecond,
		run: runColdStart,
	},
	// Returning clients: resumed connects, and every inference pays its
	// offline and online phases. Base OT never runs; resumption, HE-key
	// reuse, the per-inference protocol and allocation dominate.
	"warm-resume": {
		name: "warm-resume", model: "mlp", variant: delphi.ServerGarbler,
		preambles: 2, firstTail: 0.9, inferTail: 0.95, limit: 50 * time.Millisecond,
		run: runWarmResume,
	},
	// Requests arriving on a schedule to one session whose two-slot
	// buffer the engine refills in the background: pre-processing competes with
	// online work, and frames are megabytes. Garbling runs on the client
	// and OT online, the opposite roles to warm-resume.
	"arrival-cnn": {
		name: "arrival-cnn", model: "cnn", variant: delphi.ClientGarbler,
		buffer: 2, preambles: 1, firstTail: 0.75, inferTail: 0.9, limit: 115 * time.Millisecond,
		run: runArrivalCNN,
	},
}

// arrivalRate is arrival-cnn's offered load in requests per second.
const arrivalRate = 4

// warmInfers is how many inferences a warm-resume session runs before
// it closes.
const warmInfers = 4

func runColdStart(b *bench) (*phase, error) {
	p := &phase{}
	need := minSamples(b.wl.firstTail, b.size.beyond)
	t0 := time.Now()
	for !b.done(t0, len(p.first), need) {
		b.session(p, nil, 1, b.wl.limit, true)
		if b.tr.on {
			// One probe per traced session, run between sessions, so each
			// splits a connect made under the same load of the machine.
			if err := b.probe(); err != nil {
				return nil, fmt.Errorf("base-OT and keygen probe: %w", err)
			}
		}
	}
	p.elapsed = time.Since(t0)
	return p, nil
}

func runWarmResume(b *bench) (*phase, error) {
	needFirst := minSamples(b.wl.firstTail, b.size.beyond)
	needInfer := minSamples(b.wl.inferTail, b.size.beyond)
	var (
		mu       sync.Mutex
		sessions int
		infers   int
		wg       sync.WaitGroup
	)
	parts := make([]*phase, len(b.pres))
	t0 := time.Now()
	for i, pre := range b.pres {
		parts[i] = &phase{}
		wg.Add(1)
		go func(p *phase, pre *serve.Preamble) {
			defer wg.Done()
			for {
				mu.Lock()
				stop := b.done(t0, sessions, needFirst, infers, needInfer)
				mu.Unlock()
				if stop {
					return
				}
				n0 := p.inferences
				b.session(p, pre, warmInfers, b.wl.limit, false)
				mu.Lock()
				sessions++
				infers += p.inferences - n0
				mu.Unlock()
			}
		}(parts[i], pre)
	}
	wg.Wait()
	p := &phase{elapsed: time.Since(t0)}
	for _, q := range parts {
		p.merge(q)
	}
	return p, nil
}

func runArrivalCNN(b *bench) (*phase, error) {
	pre := b.pres[0]
	// Resume legs: the first verified result of a returning CNN client.
	// Background refills are off meanwhile, so each leg's first request
	// runs its offline phase inline, as on the other workloads, instead of
	// racing the engine's refills of a session about to close.
	b.env.eng.SetStorageBudget(0)
	legs := &phase{}
	for range b.size.legs {
		b.session(legs, pre, 1, b.wl.limit, false)
	}
	b.env.eng.SetStorageBudget(b.wl.buffer)
	p := &phase{first: legs.first, resumed: legs.resumed, full: legs.full,
		setupBytes: legs.setupBytes, resumeTry: legs.resumeTry, resumeHit: legs.resumeHit}

	sid := b.nextSession.Add(1)
	b.tally.attempts.Add(1)
	s, err := b.dial(sid, 0, serve.WithPreamble(pre))
	if err != nil {
		b.tally.errors.Add(1)
		return nil, fmt.Errorf("open-loop connect: %w", err)
	}
	defer s.c.Close()
	if err := settle(s, b.wl.buffer); err != nil {
		return nil, err
	}
	bytes0 := s.bytes()
	n := int(arrivalRate*b.measure.Seconds() + 0.5)
	if b.tails {
		n = max(n, b.size.requests, minSamples(b.wl.inferTail, b.size.beyond))
	}
	sched := arrivals(b.seed, arrivalRate, n)
	t0 := time.Now()
	for i, off := range sched {
		due := t0.Add(off)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
			p.genLate = append(p.genLate, time.Since(due))
		} else {
			p.queueWait = append(p.queueWait, -wait)
		}
		root := b.tr.reserve()
		b.tr.add(sid, root, "load.queue", due, time.Now())
		if i > 0 {
			b.tally.attempts.Add(1)
		}
		p.sent++
		if s.c.Buffered() > 0 {
			p.bufferHits++
		}
		svc, ok := b.infer(s, sid, root)
		p.elapsed += svc
		end := time.Now()
		lat := end.Sub(due)
		b.tr.finish(root, sid, 0, "request", due, end)
		p.slo(lat, b.wl.limit, ok)
		if ok {
			p.infer = append(p.infer, lat)
			p.inferences++
		}
	}
	// Let the background refill top the buffer up again, so the bytes
	// counted are whole pre-computes, one per inference.
	if err := settle(s, b.wl.buffer); err != nil {
		return nil, err
	}
	p.inferBytes = s.bytes() - bytes0
	return p, nil
}

// settle waits until the session's pre-compute buffer is full.
func settle(s *sess, target int) error {
	deadline := time.Now().Add(30 * time.Second)
	for s.c.Buffered() < target {
		if time.Now().After(deadline) {
			return fmt.Errorf("pre-compute buffer stuck at %d of %d", s.c.Buffered(), target)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}
