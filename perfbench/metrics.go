package main

import (
	"runtime"
	"syscall"
	"time"

	"privinf/internal/obs"
)

// metric is one named figure the benchmark prints, with its unit.
type metric struct{ name, unit string }

// endToEnd lists what a user of the system sees, printed by every
// untraced run on every workload. BENCHMARK.json repeats these names.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"first_result_p50_ms", "ms"},
	{"first_result_tail_ms", "ms"},
	{"infer_p50_ms", "ms"},
	{"infer_tail_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"slo_share", "ratio"},
	{"setup_wire_bytes", "bytes"},
	{"wire_bytes_per_infer", "bytes"},
	{"store_bytes_per_pre", "bytes"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the layer figures a traced run prints.
var perLayer = []metric{
	{"ot.base_ot_ms", "ms"},
	{"ot.base_ot_share", "ratio"},
	{"bfv.keygen_ms", "ms"},
	{"serve.connect_full_ms", "ms"},
	{"serve.connect_resumed_ms", "ms"},
	{"serve.ready_gap_ms", "ms"},
	{"serve.setup_full_ms", "ms"},
	{"serve.setup_resumed_ms", "ms"},
	{"serve.resume_hit_share", "ratio"},
	{"serve.immediate_resume_hit_share", "ratio"},
	{"serve.buffer_hit_share", "ratio"},
	{"serve.offline_busy_share", "ratio"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.artifact_build_ms", "ms"},
	{"delphi.offline_he_ms.client", "ms"},
	{"delphi.offline_he_ms.server", "ms"},
	{"delphi.offline_gc_ms.client", "ms"},
	{"delphi.offline_gc_ms.server", "ms"},
	{"delphi.offline_ot_ms.client", "ms"},
	{"delphi.offline_ot_ms.server", "ms"},
	{"delphi.offline_total_ms.client", "ms"},
	{"delphi.offline_total_ms.server", "ms"},
	{"delphi.online_ms.client", "ms"},
	{"delphi.online_ms.server", "ms"},
	{"delphi.online_relu_ms", "ms"},
	{"delphi.offline_bytes", "bytes"},
	{"delphi.online_bytes", "bytes"},
	{"delphi.gc_store_bytes", "bytes"},
	{"transport.setup_bytes", "bytes"},
	{"transport.frames_per_infer", "count"},
	{"transport.write_ms", "ms"},
	{"transport.read_ms", "ms"},
	{"go.alloc_bytes_per_infer", "bytes"},
	{"go.gc_cycles_per_infer", "count"},
	{"go.gc_pause_ms", "ms"},
	{"obs.overhead_share", "ratio"},
	{"load.gen_late_ms", "ms"},
	{"unattributed_share", "ratio"},
	{"error_share", "ratio"},
}

// The program's own instruments, read from outside through the
// process-wide registry. Registering an existing name returns the
// program's instrument; the labels name the model or setup tier.
var (
	reg = obs.Default()

	hServerOfflineHE = reg.HistogramVec("pi_offline_he_seconds", "", "model")
	hServerOfflineGC = reg.HistogramVec("pi_offline_garble_seconds", "", "model")
	hServerOfflineOT = reg.HistogramVec("pi_offline_ot_seconds", "", "model")
	hServerOffline   = reg.HistogramVec("pi_offline_seconds", "", "model")
	hServerOnline    = reg.HistogramVec("pi_online_seconds", "", "model")
	hSetup           = reg.HistogramVec("pi_setup_seconds", "", "tier")

	hClientOfflineHE = reg.Histogram("pi_client_offline_he_seconds", "")
	hClientOfflineGC = reg.Histogram("pi_client_offline_garble_seconds", "")
	hClientOfflineOT = reg.Histogram("pi_client_offline_ot_seconds", "")
	hClientOffline   = reg.Histogram("pi_client_offline_seconds", "")
	hClientOnline    = reg.Histogram("pi_client_online_seconds", "")
	hClientReLU      = reg.Histogram("pi_client_online_layer_seconds", "")

	hWireWrite = reg.Histogram("pi_wire_write_seconds", "")
	hWireRead  = reg.Histogram("pi_wire_read_seconds", "")
	cFrames    = reg.Counter("pi_wire_sent_frames_total", "")
)

// snapshot is the program's instruments and the Go runtime's counters at
// one instant; the difference of two is one window's activity.
type snapshot struct {
	at     time.Time
	hists  map[string]obs.HistogramSnapshot
	frames uint64
	mem    runtime.MemStats
}

func takeSnapshot(model string) snapshot {
	s := snapshot{at: time.Now(), hists: map[string]obs.HistogramSnapshot{
		"offline_he.server":    hServerOfflineHE.With(model).Snapshot(),
		"offline_gc.server":    hServerOfflineGC.With(model).Snapshot(),
		"offline_ot.server":    hServerOfflineOT.With(model).Snapshot(),
		"offline_total.server": hServerOffline.With(model).Snapshot(),
		"online.server":        hServerOnline.With(model).Snapshot(),
		"setup.full":           hSetup.With("full").Snapshot(),
		"setup.resumed":        hSetup.With("resumed").Snapshot(),
		"offline_he.client":    hClientOfflineHE.Snapshot(),
		"offline_gc.client":    hClientOfflineGC.Snapshot(),
		"offline_ot.client":    hClientOfflineOT.Snapshot(),
		"offline_total.client": hClientOffline.Snapshot(),
		"online.client":        hClientOnline.Snapshot(),
		"relu.client":          hClientReLU.Snapshot(),
		"wire.write":           hWireWrite.Snapshot(),
		"wire.read":            hWireRead.Snapshot(),
	}, frames: cFrames.Value()}
	runtime.ReadMemStats(&s.mem)
	return s
}

// window is the activity between two snapshots.
type window struct {
	dur        time.Duration
	hists      map[string]obs.HistogramSnapshot
	frames     uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func (s snapshot) since(prev snapshot) window {
	w := window{
		dur:        s.at.Sub(prev.at),
		hists:      map[string]obs.HistogramSnapshot{},
		frames:     s.frames - prev.frames,
		allocBytes: s.mem.TotalAlloc - prev.mem.TotalAlloc,
		gcCycles:   s.mem.NumGC - prev.mem.NumGC,
		gcPause:    time.Duration(s.mem.PauseTotalNs - prev.mem.PauseTotalNs),
	}
	for k, h := range s.hists {
		w.hists[k] = h.Sub(prev.hists[k])
	}
	return w
}

// meanMs is the mean of one instrument's observations in the window, in
// milliseconds; 0 when it recorded none.
func (w window) meanMs(key string) float64 {
	h := w.hists[key]
	if h.Count == 0 {
		return 0
	}
	return ms(time.Duration(h.Sum / int64(h.Count)))
}

// sumOf is the total time one instrument recorded in the window.
func (w window) sumOf(key string) time.Duration { return time.Duration(w.hists[key].Sum) }

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
