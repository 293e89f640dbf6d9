package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it invokes.  Spans of one pass share Pass; Parent
// is the enclosing span's ID (0 for a pass root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Pass   string `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span and count in memory; write dumps them once at
// exit.  It is safe for concurrent use (wire clients record from their
// own goroutines).
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]float64{}}
}

// begin opens a span under parent (0 opens a pass root named pass).
func (t *tracer) begin(pass string, parent int, name string) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Pass: pass, Name: name, Start: now, End: -1})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.dur()
}

// record appends an already-closed span measured by other clocks.
func (t *tracer) record(pass string, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Pass: pass, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// add accumulates a count recorded at a layer boundary.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// count reads an accumulated count.
func (t *tracer) count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// totalIn sums the durations of pass's closed spans named name.
func (t *tracer) totalIn(pass, name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Pass == pass && s.Name == name && s.End >= 0 {
			d += s.dur()
		}
	}
	return d
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children.  Children may nest or
// overlap (parallel calls); overlapping coverage counts once, and a
// child reaching outside its parent is clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - coverage(s.Start, s.End, kids[s.ID])
	}
	return out
}

// coverage is the length of the union of the children's intervals,
// clipped to [lo, hi].
func coverage(lo, hi int64, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB - curA
	}
	return time.Duration(covered)
}

// write dumps the spans, their self times and the counts as JSON.
func (t *tracer) write(path string, meta any) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	counts := make(map[string]float64, len(t.counts))
	for k, v := range t.counts {
		counts[k] = v
	}
	t.mu.Unlock()
	self := selfTimes(spans)
	type out struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	rows := make([]out, len(spans))
	for i, s := range spans {
		rows[i] = out{s, self[s.ID].Nanoseconds()}
	}
	b, err := json.MarshalIndent(map[string]any{"meta": meta, "spans": rows, "counts": counts}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
