package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's own tracer. Spans are recorded from the benchmark's
// files only, around the public calls into each layer; the program's
// flight recorder stays off (tracing inside the program is a later
// issue). Everything is kept in memory and written out as Chrome
// trace-event JSON when the workload ends.

type spanRec struct {
	name       string
	start, end time.Duration // since tracer epoch
	id, parent uint32
	op         uint32
}

type tracer struct {
	epoch  time.Time
	nextID atomic.Uint32

	mu     sync.Mutex
	tracks []*track
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() uint32 { return t.nextID.Add(1) }

// track is one timeline (a client, the serialized server side, the swap
// store). Recording takes the track's mutex: uncontended for a track
// owned by one goroutine, required for the swap store, which kswapd and
// direct reclaim call concurrently.
type track struct {
	tr   *tracer
	tid  int
	name string

	// open is the id of the span this track's owner currently has in
	// flight, so a span recorded on another goroutine (the server
	// handling this client's request) can name it as its parent.
	open atomic.Uint32

	mu    sync.Mutex
	spans []spanRec
}

func (t *tracer) track(name string) *track {
	t.mu.Lock()
	defer t.mu.Unlock()
	tk := &track{tr: t, tid: len(t.tracks) + 1, name: name}
	t.tracks = append(t.tracks, tk)
	return tk
}

// add records one finished span and returns its id.
func (k *track) add(name string, start, end time.Time, id, parent, op uint32) uint32 {
	if id == 0 {
		id = k.tr.newID()
	}
	k.mu.Lock()
	k.spans = append(k.spans, spanRec{
		name: name, start: start.Sub(k.tr.epoch), end: end.Sub(k.tr.epoch),
		id: id, parent: parent, op: op,
	})
	k.mu.Unlock()
	return id
}

// spanSummary is one span name's aggregate: how often it ran, how long
// in total, and its self time — its duration minus the part its child
// spans cover.
type spanSummary struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	TotalMS   float64 `json:"total_ms"`
	SelfMS    float64 `json:"self_ms"`
	P50US     float64 `json:"p50_us"`
	SelfP50US float64 `json:"self_p50_us"`
}

// analysis is what the per-layer metrics read off a finished trace.
type analysis struct {
	dur, self  map[string]samples // per span name, ns
	spans      int
	rootNS     float64 // summed duration of the operation spans
	rootTracks int     // tracks that carry operation spans
}

// isOpSpan: the spans that stand for one whole operation as its caller
// saw it. Everything else is a layer inside (or beside) one.
func isOpSpan(name string) bool {
	return name == "op" || strings.HasPrefix(name, "op.") || name == "client.rtt"
}

func (t *tracer) analyze() analysis {
	a := analysis{dur: map[string]samples{}, self: map[string]samples{}}
	covered := map[uint32]time.Duration{}
	for _, k := range t.tracks {
		for _, s := range k.spans {
			if s.parent != 0 {
				covered[s.parent] += s.end - s.start
			}
		}
	}
	for _, k := range t.tracks {
		hasOps := false
		for _, s := range k.spans {
			d := s.end - s.start
			self := d - covered[s.id]
			if self < 0 {
				self = 0
			}
			a.dur[s.name] = append(a.dur[s.name], float64(d))
			a.self[s.name] = append(a.self[s.name], float64(self))
			a.spans++
			if isOpSpan(s.name) {
				a.rootNS += float64(d)
				hasOps = true
			}
		}
		if hasOps {
			a.rootTracks++
		}
	}
	return a
}

func (a analysis) summaries() []spanSummary {
	var out []spanSummary
	for name, d := range a.dur {
		s := spanSummary{Name: name, Count: len(d)}
		for _, v := range d {
			s.TotalMS += v / 1e6
		}
		for _, v := range a.self[name] {
			s.SelfMS += v / 1e6
		}
		s.P50US = median(d) / 1e3
		s.SelfP50US = median(a.self[name]) / 1e3
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// ui.perfetto.dev). Each track is a thread; every event carries its
// span id, its parent's id and the operation it belongs to.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	sep := func() {
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.WriteByte('\n')
	}
	for _, k := range t.tracks {
		sep()
		fmt.Fprintf(w, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, k.tid, k.name)
		for _, s := range k.spans {
			sep()
			fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"op":%d}}`,
				s.name, k.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent, s.op)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
