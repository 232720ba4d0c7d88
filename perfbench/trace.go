package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Spans of one operation (an attack, a campaign, a
// request) share Op. A span with Start == -1 is a part: a duration the
// program measured itself (core.StageTiming) and handed back, attributed
// to its parent without a position on the time line; its End holds the
// duration.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 {
	if s.Start < 0 {
		return s.End // a part: End holds its duration
	}
	return s.End - s.Start
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one branch per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(s span) int {
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	return t.add(span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.t0)), End: -1})
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// interval records a span whose start and end the caller measured.
func (t *tracer) interval(name string, op, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{Name: name, Op: op, Parent: parent, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// part attributes a program-measured duration to parent.
func (t *tracer) part(name string, op, parent int, d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	t.add(span{Name: name, Op: op, Parent: parent, Start: -1, End: int64(d)})
}

// selfTimes returns every span's duration minus the time its children
// cover: the union of the timed children's intervals plus the parts.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var covered int64
		var ivs [][2]int64
		for _, k := range kids[i] {
			if spans[k].Start < 0 {
				covered += spans[k].dur()
				continue
			}
			ivs = append(ivs, [2]int64{spans[k].Start, spans[k].End})
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		open := false
		var lo, hi int64
		for _, iv := range ivs {
			if open && iv[0] <= hi {
				if iv[1] > hi {
					hi = iv[1]
				}
				continue
			}
			if open {
				covered += hi - lo
			}
			lo, hi, open = iv[0], iv[1], true
		}
		if open {
			covered += hi - lo
		}
		self[i] = s.dur() - covered
	}
	return self
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += time.Duration(self[i])
	}
	return out
}

// spanCost measures what recording one begin/end pair costs, so the
// traced run can state its own overhead.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("probe", i, -1))
	}
	return time.Since(start) / n
}

// write stores the spans and the run metadata as JSON under dir.
func (t *tracer) write(dir, name string, meta map[string]any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"meta": meta, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
