package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// tracer keeps spans in memory; it is used from one goroutine. A span is
// recorded around each call the benchmark makes into a layer's public
// API, and nests under the span that was open when it began, so a
// layer's self time is its duration minus that of its children.
type tracer struct {
	epoch  time.Time
	layers []string // layer names; a span's layer indexes this
	spans  []span
	open   []int32
	// paused drops spans, for calls made outside the measured region
	// (a DES builds its clients by training them once).
	paused bool
}

type span struct {
	layer      int32
	parent     int32 // index into spans; -1 for a root
	start, end time.Duration
}

func newTracer(layers ...string) *tracer {
	return &tracer{epoch: time.Now(), layers: layers}
}

// begin opens a span of the given layer and returns its handle for end.
// A nil tracer records nothing.
func (t *tracer) begin(layer int) int32 {
	if t == nil || t.paused {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{layer: int32(layer), parent: parent, start: time.Since(t.epoch)})
	i := int32(len(t.spans) - 1)
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// layerStat aggregates one layer's spans.
type layerStat struct {
	name        string
	calls       int
	total, self time.Duration
}

// stats returns per-layer call counts, total and self time, in layer
// order. Spans of one goroutine never overlap their siblings, so the
// part of a span its children cover is the sum of their durations.
func (t *tracer) stats() []layerStat {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make([]layerStat, len(t.layers))
	for i, name := range t.layers {
		out[i].name = name
	}
	for i, s := range t.spans {
		d := s.end - s.start
		st := &out[s.layer]
		st.calls++
		st.total += d
		st.self += d - child[i]
	}
	return out
}

// durationsUS returns the durations of one layer's spans in microseconds.
func (t *tracer) durationsUS(layer int) []float64 {
	var out []float64
	for _, s := range t.spans {
		if int(s.layer) == layer {
			out = append(out, float64(s.end-s.start)/float64(time.Microsecond))
		}
	}
	return out
}

// writeTable prints the self-time table; shares are of the root layer's
// total (layer 0).
func writeTable(w io.Writer, title string, stats []layerStat) {
	root := stats[0].total
	fmt.Fprintf(w, "%s\n%-22s %10s %12s %12s %10s\n", title, "layer", "calls", "total_ms", "self_ms", "self_share")
	for _, s := range stats {
		share := 0.0
		if root > 0 {
			share = float64(s.self) / float64(root)
		}
		fmt.Fprintf(w, "%-22s %10d %12.3f %12.3f %10.4f\n", s.name, s.calls,
			float64(s.total)/1e6, float64(s.self)/1e6, share)
	}
}

// writeFiles writes the spans as a Chrome trace-event file
// (<base>.json, viewable in Perfetto) and the self-time table
// (<base>.txt).
func (t *tracer) writeFiles(base, title string) error {
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	f, err := os.Create(base + ".json")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",\n")
		}
		fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f}`,
			t.layers[s.layer], float64(s.start)/1e3, float64(s.end-s.start)/1e3)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	tf, err := os.Create(base + ".txt")
	if err != nil {
		return err
	}
	writeTable(tf, title, t.stats())
	return tf.Close()
}
