package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into the simulator's public surface.
type span struct {
	name       string
	id, parent int // parent -1 for a repetition's root span
	start, end time.Time
}

// tracer keeps spans in memory while enabled and writes them out when the
// benchmark ends. Disabled, begin returns -1 and nothing is recorded, so
// the untraced repetitions pay one mutex acquisition per call.
type tracer struct {
	mu    sync.Mutex
	on    bool
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enable(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// begin opens a span and returns its id, or -1 while disabled.
func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, id: len(t.spans), parent: parent, start: time.Now()})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// add records a span timed elsewhere, such as a request timed from when
// it was due rather than when it was sent.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.on {
		t.spans = append(t.spans, span{name: name, id: len(t.spans), parent: parent, start: start, end: end})
	}
}

// durations returns the closed spans named name, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && !s.end.IsZero() {
			out = append(out, ms(s.end.Sub(s.start)))
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover.
func (t *tracer) selfTimes() []time.Duration {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].start.Before(kids[b].start) })
		covered := time.Duration(0)
		cur := s.start
		for _, k := range kids {
			from, to := k.start, k.end
			if from.Before(cur) {
				from = cur
			}
			if to.After(s.end) {
				to = s.end
			}
			if to.After(from) {
				covered += to.Sub(from)
				cur = to
			}
		}
		self[i] = s.end.Sub(s.start) - covered
	}
	return self
}

// writeFile writes every span as one JSON line: name, id, parent, start
// offset, duration and self time in milliseconds.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := t.selfTimes()
	for i, s := range t.spans {
		fmt.Fprintf(w, "{\"name\":%q,\"id\":%d,\"parent\":%d,\"start_ms\":%.4f,\"dur_ms\":%.4f,\"self_ms\":%.4f}\n",
			s.name, s.id, s.parent, ms(s.start.Sub(t.epoch)), ms(s.end.Sub(s.start)), ms(self[i]))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
