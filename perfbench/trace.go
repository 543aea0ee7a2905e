package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around the public function it calls. Spans of one build, table
// cell or request share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps every span of a traced run in memory; write puts them in a
// file when the run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name, op string, parent int) int {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: now})
	return id
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
	return r.spans[id-1].dur()
}

// add records an already timed interval as a closed span.
func (r *recorder) add(name, op string, parent int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Op: op,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	return id
}

// timed runs f inside a span.
func (r *recorder) timed(name, op string, parent int, f func() error) error {
	id := r.begin(name, op, parent)
	err := f()
	r.end(id)
	return err
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// totals sums the durations of every span with the given name, in seconds.
func (r *recorder) totals(name string) float64 {
	var d time.Duration
	for _, s := range r.snapshot() {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d.Seconds()
}

// part is one child's share of a parent span.
type part struct {
	Name string
	Dur  time.Duration
}

// breakdown splits span id into its direct children plus an explicit
// "unattributed" part: the parent's self time, its duration minus the union
// of the intervals its children cover. When children do not overlap, the
// parts sum exactly to the parent's duration.
func breakdown(spans []span, id int) (total time.Duration, parts []part) {
	parent := spans[id-1]
	var kids []span
	for _, s := range spans {
		if s.Parent == id {
			kids = append(kids, s)
			parts = append(parts, part{s.Name, s.dur()})
		}
	}
	parts = append(parts, part{"unattributed", parent.dur() - covered(kids, parent)})
	return parent.dur(), parts
}

// covered is the length of the union of the kids' intervals, clipped to the
// parent's interval.
func covered(kids []span, parent span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, hi int64
	hi = parent.Start
	for _, k := range kids {
		lo, end := max(k.Start, hi), min(k.End, parent.End)
		if end > lo {
			total += end - lo
			hi = end
		}
	}
	return time.Duration(total)
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
