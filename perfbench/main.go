// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against a live serving engine over TCP loopback in this
// process, checks every private output against plaintext inference, and
// prints each metric by name and unit; the last line of its output is one
// JSON object. See README.md for the workloads and metrics.
//
//	perfbench --workload cold-start --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"privinf"
	"privinf/internal/serve"
)

// value is one metric in the JSON result.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark ends its output with.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: cold-start, warm-resume or arrival-cnn")
	seed := flag.Uint64("seed", 1, "seed for inputs and arrival times")
	seconds := flag.Float64("seconds", 25, "seconds each measured stretch runs at least")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	spans := flag.String("spans", ".bench_build", "directory a traced run writes its spans to")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		size:    fullSize,
	}
	if cfg.traced {
		cfg.spanPath = filepath.Join(*spans, fmt.Sprintf("spans-%s-%d.json", wl.name, *seed))
	}
	res, err := run(wl, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type runConfig struct {
	seed     uint64
	measure  time.Duration
	traced   bool
	size     sizing
	spanPath string // where a traced run writes its spans; "" writes none
}

func loadModel(name string) (*privinf.Model, error) {
	if name == "cnn" {
		return privinf.NewDemoCNN(modelSeed)
	}
	return privinf.NewDemoMLP(modelSeed)
}

// run sets the workload up several times, measures it, and returns the
// end-to-end metrics, or with cfg.traced the per-layer ones. The tables
// it prints go to w.
func run(wl workload, cfg runConfig, w io.Writer) (*result, error) {
	model, err := loadModel(wl.model)
	if err != nil {
		return nil, err
	}
	b := &bench{
		wl: wl, size: cfg.size, seed: cfg.seed, measure: cfg.measure, tails: !cfg.traced,
		model: model, in: makeInputs(model, cfg.seed), tr: newTracer(),
		pres: make([]*serve.Preamble, wl.preambles),
	}
	defer func() {
		if b.env != nil {
			b.env.close()
		}
	}()
	for range cfg.size.setups {
		if err := b.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	fmt.Fprintf(w, "perfbench %s: %s, demo %s, seed %d, %d set-ups, measuring %s\n",
		wl.name, variantName(wl.variant), wl.model, cfg.seed, len(b.setups), cfg.measure)

	var (
		got  map[string]float64
		want = endToEnd
	)
	if cfg.traced {
		// An untraced and a traced stretch of half the time each; their
		// difference is the tracing overhead.
		b.measure /= 2
		plain, err := wl.run(b)
		if err != nil {
			return nil, err
		}
		if got, err = b.traced(plain, cfg, w); err != nil {
			return nil, err
		}
		want = perLayer
	} else {
		p, err := wl.run(b)
		if err != nil {
			return nil, err
		}
		if got, err = b.endToEnd(p, w); err != nil {
			return nil, err
		}
	}
	res := &result{Metrics: map[string]value{}}
	for _, m := range want {
		v, ok := got[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	res.Attempted = b.tally.attempts.Load()
	res.Failed = b.tally.failed()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(w, "attempts %d, errors %d, unverified %d, resume misses %d, error_share %.4g\n",
		res.Attempted, b.tally.errors.Load(), b.tally.mismatches.Load(), b.tally.resumeMisses.Load(), b.tally.errorShare())
	return res, nil
}

// endToEnd computes and prints the user-visible metrics of a measured
// stretch.
func (b *bench) endToEnd(p *phase, w io.Writer) (map[string]float64, error) {
	firstTail, err := quantile(p.first, b.wl.firstTail, b.size.beyond)
	if err != nil {
		return nil, fmt.Errorf("first_result_tail_ms: %w", err)
	}
	inferTail, err := quantile(p.infer, b.wl.inferTail, b.size.beyond)
	if err != nil {
		return nil, fmt.Errorf("infer_tail_ms: %w", err)
	}
	if p.inferences == 0 || p.sloSent == 0 {
		return nil, fmt.Errorf("no verified inferences")
	}
	m := map[string]float64{
		"setup_s":              median(b.setups).Seconds(),
		"first_result_p50_ms":  ms(median(p.first)),
		"first_result_tail_ms": ms(firstTail),
		"infer_p50_ms":         ms(median(p.infer)),
		"infer_tail_ms":        ms(inferTail),
		"throughput_rps":       float64(p.inferences) / p.elapsed.Seconds(),
		"slo_share":            float64(p.sloMet) / float64(p.sloSent),
		"setup_wire_bytes":     meanBytes(p.setupBytes),
		"wire_bytes_per_infer": float64(p.inferBytes) / float64(p.inferences),
		"store_bytes_per_pre":  meanBytes(b.storeBytes),
		"peak_rss_mb":          peakRSSMB(),
	}
	notes := map[string]string{
		"setup_s":              fmt.Sprintf("median of %d set-ups", len(b.setups)),
		"first_result_p50_ms":  fmt.Sprintf("%d sessions", len(p.first)),
		"first_result_tail_ms": fmt.Sprintf("%s of %d sessions", pctName(b.wl.firstTail), len(p.first)),
		"infer_p50_ms":         fmt.Sprintf("%d requests", len(p.infer)),
		"infer_tail_ms":        fmt.Sprintf("%s of %d requests", pctName(b.wl.inferTail), len(p.infer)),
		"throughput_rps":       fmt.Sprintf("%d verified in %.1f s", p.inferences, p.elapsed.Seconds()),
		"slo_share":            fmt.Sprintf("%d of %d within %s", p.sloMet, p.sloSent, b.wl.limit),
		"setup_wire_bytes":     fmt.Sprintf("%d connects", len(p.setupBytes)),
		"store_bytes_per_pre":  fmt.Sprintf("%d pre-computes", len(b.storeBytes)),
	}
	fmt.Fprintln(w, "end-to-end:")
	for _, mt := range endToEnd {
		fmt.Fprintf(w, "  %-22s %14.4f %-6s %s\n", mt.name, m[mt.name], mt.unit, notes[mt.name])
	}
	return m, nil
}

// traced measures the workload again with the benchmark's spans on, runs
// the probes, and returns the per-layer metrics.
func (b *bench) traced(plain *phase, cfg runConfig, w io.Writer) (map[string]float64, error) {
	online0, verified0 := b.onlineBytes.Load(), b.verified.Load()
	b.tr.on = true
	before := takeSnapshot(b.wl.model)
	tp, err := b.wl.run(b)
	win := takeSnapshot(b.wl.model).since(before)
	b.tr.on = false
	if err != nil {
		return nil, err
	}
	infers := float64(b.verified.Load() - verified0)

	// Cold-start probed after each traced session; elsewhere the traced
	// stretch made no full connect and a few probes give the layer's cost.
	for len(b.otProbes) < 3 {
		if err := b.probe(); err != nil {
			return nil, fmt.Errorf("base-OT and keygen probe: %w", err)
		}
	}
	immediate, err := b.immediateResumeProbe(b.size.probes)
	if err != nil {
		return nil, fmt.Errorf("immediate-reconnect probe: %w", err)
	}
	// The i-th probe splits the i-th traced full connect into base OT,
	// keygen and the rest.
	b.tr.on = true
	i := 0
	for _, s := range b.tr.spans {
		if s.Name == "serve.dial.full" && i < len(b.otProbes) {
			end := b.tr.t0.Add(time.Duration(s.End))
			b.tr.nested(s.Trace, s.ID, "ot.base_ot", b.otProbes[i], end)
			b.tr.nested(s.Trace, s.ID, "bfv.keygen", b.kgProbes[i], end.Add(-b.otProbes[i]))
			i++
		}
	}
	b.tr.on = false
	otDur, kgDur := median(b.otProbes), median(b.kgProbes)

	primary := func(p *phase) time.Duration {
		if b.wl.name == "cold-start" {
			return median(p.first)
		}
		return median(p.infer)
	}
	share := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	// Base OT runs only on the sessions that connected in full.
	fullShare := share(float64(len(tp.full)), float64(len(tp.first)))
	m := map[string]float64{
		"ot.base_ot_ms":                    ms(otDur),
		"ot.base_ot_share":                 share(ms(otDur)*fullShare, ms(median(tp.first))),
		"bfv.keygen_ms":                    ms(kgDur),
		"serve.connect_full_ms":            ms(median(slices.Concat(tp.full, b.warmConnects))),
		"serve.connect_resumed_ms":         ms(median(tp.resumed)),
		"serve.ready_gap_ms":               ms(median(b.readyGaps)),
		"serve.setup_full_ms":              win.meanMs("setup.full"),
		"serve.setup_resumed_ms":           win.meanMs("setup.resumed"),
		"serve.resume_hit_share":           share(float64(tp.resumeHit), float64(tp.resumeTry)),
		"serve.immediate_resume_hit_share": immediate,
		"serve.buffer_hit_share":           share(float64(tp.bufferHits), float64(tp.sent)),
		"serve.offline_busy_share":         share(float64(win.sumOf("offline_total.server")), float64(win.dur)),
		"serve.queue_wait_ms":              ms(median(tp.queueWait)),
		"serve.artifact_build_ms":          ms(median(b.builds)),
		"delphi.offline_bytes":             meanBytes(b.offBytes),
		"delphi.online_bytes":              share(float64(b.onlineBytes.Load()-online0), infers),
		"delphi.gc_store_bytes":            meanBytes(b.storeBytes),
		"transport.setup_bytes":            meanBytes(tp.setupBytes),
		"transport.frames_per_infer":       share(float64(win.frames), infers),
		"transport.write_ms":               win.meanMs("wire.write"),
		"transport.read_ms":                win.meanMs("wire.read"),
		"go.alloc_bytes_per_infer":         share(float64(win.allocBytes), infers),
		"go.gc_cycles_per_infer":           share(float64(win.gcCycles), infers),
		"go.gc_pause_ms":                   share(ms(win.gcPause), infers),
		"obs.overhead_share":               share(float64(primary(tp)), float64(primary(plain))) - 1,
		"load.gen_late_ms":                 ms(median(tp.genLate)),
		"unattributed_share":               unattributed(b.tr.spans),
		"error_share":                      b.tally.errorShare(),
	}
	for _, k := range []string{"offline_he", "offline_gc", "offline_ot", "offline_total"} {
		for _, side := range []string{"client", "server"} {
			m["delphi."+k+"_ms."+side] = win.meanMs(k + "." + side)
		}
	}
	m["delphi.online_ms.client"] = win.meanMs("online.client")
	m["delphi.online_ms.server"] = win.meanMs("online.server")
	m["delphi.online_relu_ms"] = win.meanMs("relu.client")

	fmt.Fprintln(w, "per-layer (traced run):")
	for _, mt := range perLayer {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", mt.name, m[mt.name], mt.unit)
	}
	fmt.Fprintln(w, "self time by span (traced run):")
	layers := selfTimes(b.tr.spans)
	var total time.Duration
	for _, lt := range layers {
		total += lt.Self
	}
	for _, lt := range layers {
		fmt.Fprintf(w, "  %-22s %7d spans %12.1f ms self %6.1f%%\n", lt.Name, lt.Count, ms(lt.Self), 100*share(float64(lt.Self), float64(total)))
	}
	if cfg.spanPath != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.spanPath), 0o755); err != nil {
			return nil, err
		}
		if err := b.tr.writeSpans(cfg.spanPath); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "spans written to %s\n", cfg.spanPath)
	}
	return m, nil
}
