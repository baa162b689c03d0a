package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-side interval around a call into the program.
// Spans of one session share Trace; Parent is 0 for a root.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing, so the untraced runs pay one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID (0 when tracing is off).
func (t *tracer) add(trace, parent uint64, name string, start, end time.Time) uint64 {
	id := t.reserve()
	t.finish(id, trace, parent, name, start, end)
	return id
}

// reserve hands out a span ID before the span ends, so children can name
// their parent while it is still open; finish records it.
func (t *tracer) reserve() uint64 {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) finish(id, trace, parent uint64, name string, start, end time.Time) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
}

// nested records work a report says took d, ending at end, as a child of
// parent: the program reports how long a phase ran, not when it started.
func (t *tracer) nested(trace, parent uint64, name string, d time.Duration, end time.Time) {
	if d <= 0 {
		return
	}
	t.add(trace, parent, name, end.Add(-d), end)
}

// layerTime is one span name's total duration and self time.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes groups spans by name. A span's self time is its duration
// minus the part of it that its children cover.
func selfTimes(spans []span) []layerTime {
	kids := childrenOf(spans)
	by := map[string]*layerTime{}
	for _, s := range spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		dur := time.Duration(s.End - s.Start)
		lt.Count++
		lt.Total += dur
		lt.Self += dur - covered(s, kids[s.ID])
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a < end {
			v.a = end
		}
		if v.b > v.a {
			sum += v.b - v.a
			end = v.b
		}
	}
	return time.Duration(sum)
}

// layerSpans name the spans that stand for a layer: the program's phases
// taken from its reports and the probes, the open loop's queueing, and
// the benchmark's own oracle check.
var layerSpans = map[string]bool{
	"ot.base_ot": true, "bfv.keygen": true, "delphi.offline": true, "delphi.online": true,
	"load.queue": true, "bench.verify": true,
}

// unattributed is the share of root-span time that no layer span under
// the root covers: the self time of the wrapper spans around Dial, Infer
// and Close, which is end-to-end time the layer split does not explain.
func unattributed(spans []span) float64 {
	kids := childrenOf(spans)
	var total, layered time.Duration
	for _, s := range spans {
		if s.Parent == 0 {
			total += time.Duration(s.End - s.Start)
			layered += covered(s, layersUnder(s.ID, kids, nil))
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(layered)/float64(total)
}

// layersUnder appends the layer spans below span id to out, looking
// through wrapper spans but not into layer spans.
func layersUnder(id uint64, kids map[uint64][]span, out []span) []span {
	for _, c := range kids[id] {
		if layerSpans[c.Name] {
			out = append(out, c)
		} else {
			out = layersUnder(c.ID, kids, out)
		}
	}
	return out
}

func childrenOf(spans []span) map[uint64][]span {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// writeSpans writes the recorded spans as JSON.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
