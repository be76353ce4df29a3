package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxKeptSpans caps the spans a run writes out. Self times are
// aggregated as spans end, so spans beyond the cap still count; only
// their records are dropped (plan-zipf opens one span per request).
const maxKeptSpans = 100_000

// span is one timed call into a layer. Spans of one cell (or one set-up
// repetition) share Cell; Parent is 0 for a root span.
type span struct {
	Cell   int    `json:"cell"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a run in memory and writes them out when
// the run ends. A nil *tracer records nothing.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) keep(ss []span, dropped int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropped += dropped
	room := maxKeptSpans - len(t.spans)
	if room < 0 {
		room = 0
	}
	if len(ss) > room {
		t.dropped += int64(len(ss) - room)
		ss = ss[:room]
	}
	t.spans = append(t.spans, ss...)
}

// total returns the number of spans recorded, kept or dropped.
func (t *tracer) total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(len(t.spans)) + t.dropped
}

// write stores the kept spans as JSON lines in dir.
func (t *tracer) write(dir, name string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// lane is one goroutine's view of the tracer: its own stack of open
// spans and its own self-time totals per layer. A nil *lane records
// nothing, so untraced runs pay one nil check per layer call.
type lane struct {
	t     *tracer
	cell  int
	root  int64
	stack []openSpan
	self  map[string]time.Duration
	spans []span
	// dropped counts spans past maxKeptSpans that were not stored.
	dropped int64
}

type openSpan struct {
	id, parent int64
	name       string
	start      time.Time
	children   time.Duration
}

// lane starts a lane for one cell whose spans hang below parent (0 for
// a root lane).
func (t *tracer) lane(cell int, parent int64) *lane {
	if t == nil {
		return nil
	}
	return &lane{t: t, cell: cell, root: parent, self: map[string]time.Duration{}}
}

func (l *lane) begin(name string) {
	if l == nil {
		return
	}
	parent := l.root
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1].id
	}
	l.stack = append(l.stack, openSpan{id: l.t.nextID.Add(1), parent: parent, name: name, start: time.Now()})
}

func (l *lane) end() {
	if l == nil {
		return
	}
	now := time.Now()
	n := len(l.stack) - 1
	o := l.stack[n]
	l.stack = l.stack[:n]
	d := now.Sub(o.start)
	l.self[layerOf(o.name)] += d - o.children
	if n > 0 {
		l.stack[n-1].children += d
	}
	if len(l.spans) >= maxKeptSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{
		Cell: l.cell, ID: o.id, Parent: o.parent, Name: o.name,
		Start: o.start.Sub(l.t.epoch).Nanoseconds(), End: now.Sub(l.t.epoch).Nanoseconds(),
	})
}

// fork starts a lane for another goroutine, with spans below parent.
func (l *lane) fork(parent int64) *lane {
	if l == nil {
		return nil
	}
	return l.t.lane(l.cell, parent)
}

// merge adds the self times of lanes forked from l, which ran for wall
// seconds while l waited, to l's totals: the wait is charged to them,
// not to l's open span.
func (l *lane) merge(selfs []map[string]float64, wall float64) {
	if l == nil {
		return
	}
	for _, self := range selfs {
		for k, s := range self {
			l.self[k] += time.Duration(s * 1e9)
		}
	}
	if n := len(l.stack); n > 0 {
		l.stack[n-1].children += time.Duration(wall * 1e9)
	}
}

// current returns the innermost open span's id, the parent for lanes
// the caller starts on other goroutines.
func (l *lane) current() int64 {
	if l == nil || len(l.stack) == 0 {
		return 0
	}
	return l.stack[len(l.stack)-1].id
}

// flush hands the lane's spans to the tracer and returns its self
// times in seconds, keyed by layer.
func (l *lane) flush() map[string]float64 {
	if l == nil {
		return nil
	}
	if len(l.stack) != 0 {
		panic(fmt.Sprintf("perfbench: lane flushed with %d open spans", len(l.stack)))
	}
	l.t.keep(l.spans, l.dropped)
	l.spans, l.dropped = nil, 0
	out := make(map[string]float64, len(l.self))
	for k, d := range l.self {
		out[k] += d.Seconds()
	}
	return out
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}
