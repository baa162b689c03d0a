package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func TestQuantileRefusesThinTail(t *testing.T) {
	xs := make([]time.Duration, 500)
	for i := range xs {
		xs[i] = time.Duration(i+1) * time.Millisecond
	}
	if _, err := quantile(xs, 0.99, minBeyond); err == nil {
		t.Fatal("p99 of 500 samples leaves 5 beyond it; want it refused")
	}
	got, err := quantile(xs, 0.95, minBeyond)
	if err != nil {
		t.Fatal(err)
	}
	if got != 475*time.Millisecond {
		t.Fatalf("p95 of 1..500 ms = %v, want 475ms", got)
	}
	if m := median(xs[:1]); m != time.Millisecond {
		t.Fatalf("median of one sample = %v", m)
	}
}

func TestMinSamplesLeavesEnoughBeyond(t *testing.T) {
	for _, p := range []float64{0.75, 0.9, 0.95, 0.99} {
		n := minSamples(p, minBeyond)
		if n-rank(p, n) < minBeyond {
			t.Errorf("%s: %d samples leave %d beyond", pctName(p), n, n-rank(p, n))
		}
		if m := n - 1; m-rank(p, m) >= minBeyond {
			t.Errorf("%s: %d samples would already do", pctName(p), m)
		}
	}
}

func TestInputsAndArrivalsArePureFunctionsOfSeed(t *testing.T) {
	model, err := loadModel("mlp")
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := makeInputs(model, 7), makeInputs(model, 7), makeInputs(model, 8)
	for i := range a.xs {
		if !slices.Equal(a.xs[i], b.xs[i]) || !slices.Equal(a.want[i], b.want[i]) {
			t.Fatalf("input %d differs between two draws from seed 7", i)
		}
	}
	if slices.Equal(a.xs[0], c.xs[0]) && slices.Equal(a.xs[1], c.xs[1]) {
		t.Fatal("seeds 7 and 8 drew the same inputs")
	}
	s1, s2, s3 := arrivals(7, 6, 100), arrivals(7, 6, 100), arrivals(8, 6, 100)
	if !slices.Equal(s1, s2) {
		t.Fatal("arrival schedules from seed 7 differ")
	}
	if slices.Equal(s1, s3) {
		t.Fatal("seeds 7 and 8 drew the same schedule")
	}
	if !slices.IsSorted(s1) || s1[len(s1)-1] >= 100*time.Second/6 {
		t.Fatal("schedule not sorted within its span")
	}
}

func TestUnattributedCountsWrapperSelfTime(t *testing.T) {
	// A 100 ns session: an Infer wrapper over 0-80 holding 40 ns of
	// online phase, and the oracle check over 80-90. The wrapper's other
	// 40 ns and the last 10 ns are not explained by any layer.
	spans := []span{
		{Trace: 1, ID: 1, Name: "session", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "serve.infer", Start: 0, End: 80},
		{Trace: 1, ID: 3, Parent: 2, Name: "delphi.online", Start: 10, End: 50},
		{Trace: 1, ID: 4, Parent: 1, Name: "bench.verify", Start: 80, End: 90},
	}
	if got := unattributed(spans); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("unattributed = %v, want 0.5", got)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must match.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that it verifies its outputs and prints every metric
// BENCHMARK.json names, with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs live engines")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	tiny := sizing{setups: 1, beyond: 1, legs: 4, probes: 1}
	for _, name := range []string{"cold-start", "warm-resume", "arrival-cnn"} {
		for _, traced := range []bool{false, true} {
			res, err := run(workloads[name], runConfig{seed: 1, measure: time.Second, traced: traced, size: tiny}, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct %v, %d of %d failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
				// slo_share is 0 when every request misses its limit, as
				// under the race detector; every other figure is positive.
				if !traced && got.Value <= 0 && m.Name != "slo_share" {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}
