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

// Span tracing recorded by the benchmark around its own calls into the
// program's public entry points. No tracing is added inside the program.
// A nil *tracer is valid and records nothing, so untraced runs pay one nil
// check per call site.

// span is one timed call. All spans of one operation share op; a root span
// has parent 0.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id (0 for a nil tracer).
func (t *tracer) add(op, parent int, name, layer string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name, Layer: layer,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// reserve allocates the id of a span whose end is not known yet (a parent
// whose children are recorded first); finish fills it in.
func (t *tracer) reserve() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1})
	return len(t.spans)
}

func (t *tracer) finish(id, op, parent int, name, layer string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{
		ID: id, Parent: parent, Op: op, Name: name, Layer: layer,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	}
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes is the self time per layer summed over all spans, and the
// summed duration of the root spans (operation time).
type layerTimes struct {
	self   map[string]time.Duration
	opTime time.Duration
}

// selfTimes computes each span's self time — its duration minus the part
// of its interval its children cover — and sums it per layer.
func (t *tracer) selfTimes() layerTimes {
	lt := layerTimes{self: map[string]time.Duration{}}
	if t == nil {
		return lt
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		d := s.End - s.Start
		if s.Parent == 0 {
			lt.opTime += time.Duration(d)
		}
		lt.self[s.Layer] += time.Duration(d - covered(s, children[s.ID]))
	}
	return lt
}

// covered returns how much of parent's interval the union of the children's
// intervals (clipped to the parent) covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			sum += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return sum + curB - curA
}

// share is a layer's self time as a fraction of operation time.
func (lt layerTimes) share(layer string) float64 {
	if lt.opTime <= 0 {
		return 0
	}
	return float64(lt.self[layer]) / float64(lt.opTime)
}

func (lt layerTimes) String() string {
	layers := make([]string, 0, len(lt.self))
	for l := range lt.self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	s := fmt.Sprintf("operation time %.3fs;", lt.opTime.Seconds())
	for _, l := range layers {
		s += fmt.Sprintf(" %s %.1f%%", l, 100*lt.share(l))
	}
	return s
}
