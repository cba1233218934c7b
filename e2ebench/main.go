// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed wall-clock budget and prints, as the last
// line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
// measured without spans. With --trace 1 the run measures untraced and
// traced repetitions, wraps the calls into each layer's public API with
// spans, writes the spans and a per-layer self-time table under
// --trace-dir, and reports the per-layer metrics.
//
// Workloads (README.md gives the reasons and the predicted layer/metric
// pairs):
//
//	des-mnist    Spyker in the DES on the MNIST CNN (paper Fig. 5 layout)
//	des-wiki     the same protocol on the char-LSTM (paper Fig. 3)
//	live-ingest  2 live.Servers over loopback TCP, 2 closed-loop clients
//
// Usage:
//
//	e2ebench --workload des-mnist --seed 1 --seconds 36 --trace 0
//
// The live workload runs servers and clients as child processes of this
// binary (the hidden --role flag), one process per server as in a real
// deployment, so that the servers can be closed concurrently and every
// phase of the run can be bounded by a deadline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string

	// Child-process roles of the live workload.
	role    string
	id      int
	addr    string
	outFile string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	fs.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured wall-clock seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", ".bench_build/traces", "where a traced run writes spans and its self-time table")
	fs.StringVar(&o.role, "role", "", "internal: child-process role (server | client)")
	fs.IntVar(&o.id, "id", 0, "internal: server or client ID of a child process")
	fs.StringVar(&o.addr, "addr", "", "internal: server address a client child dials")
	fs.StringVar(&o.outFile, "out", "", "internal: span file a traced client child writes")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if !(o.seconds > 0) {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	switch o.role {
	case "server":
		err = serverChild(o, os.Stdin, stdout)
	case "client":
		err = clientChild(o, os.Stdin, stdout)
	case "":
		var res *result
		res, err = runWorkload(o, stderr)
		if err == nil {
			writeResult(stdout, res)
		}
	default:
		err = fmt.Errorf("unknown --role %q", o.role)
	}
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Host and Extra are printed on the line before the result; they are
	// not part of the result object.
	Host  hostInfo          `json:"-"`
	Extra map[string]Metric `json:"-"`
}

// endToEnd and perLayer list the metric names and units of
// BENCHMARK.json; every workload reports all of them (a layer a workload
// does not exercise reports 0).
var endToEnd = []struct{ name, unit string }{
	{"updates_per_s", "updates/s"},
	{"update_p50_ms", "ms"},
	{"update_p99_ms", "ms"},
	{"setup_s", "s"},
	{"max_rss_mb", "MiB"},
}

var perLayer = []struct{ name, unit string }{
	{"nn.train.share", "ratio"},
	{"nn.train.us_per_call", "us"},
	{"nn.train.calls", "count"},
	{"nn.eval.share", "ratio"},
	{"nn.eval.ms_per_call", "ms"},
	{"nn.eval.calls", "count"},
	{"metrics.observe.self_share", "ratio"},
	{"sim.self_share", "ratio"},
	{"sim.events_per_update", "count"},
	{"geo.bytes_per_update", "bytes"},
	{"transport.send_us_p50", "us"},
	{"transport.reply_wait_us_p50", "us"},
	{"transport.bytes_per_update", "bytes"},
	{"live.syncs_per_kupdate", "count"},
	{"go.alloc_bytes_per_update", "bytes"},
	{"go.gc_cpu_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"update_samples", "count"},
}

// outcome is what a workload measured; runWorkload turns it into a result.
type outcome struct {
	attempted, failed int64
	violations        []string

	// End-to-end measurements, from untraced repetitions.
	work     throughput
	p50, p99 []float64 // latency quantiles in ms, one per repetition
	samples  int       // latency samples behind them
	setups   []float64 // set-up seconds, one per repetition
	maxRSS   float64   // MiB
	summary  map[string]Metric

	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
}

// throughput sums updates and measured seconds over repetitions.
type throughput struct{ updates, seconds float64 }

func (t *throughput) add(updates int, seconds float64) {
	t.updates += float64(updates)
	t.seconds += seconds
}

func (t throughput) rate() float64 { return t.updates / t.seconds }

// addLatency records the quantiles of one repetition's latency samples.
func (oc *outcome) addLatency(latMS []float64) {
	oc.p50 = append(oc.p50, quantile(latMS, 0.50))
	oc.p99 = append(oc.p99, quantile(latMS, 0.99))
	oc.samples += len(latMS)
}

func (oc *outcome) violate(format string, args ...any) {
	oc.violations = append(oc.violations, fmt.Sprintf(format, args...))
}

type workloadFunc func(o options, stderr io.Writer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"des-mnist":   desWorkload(desMNIST),
	"des-wiki":    desWorkload(desWiki),
	"live-ingest": liveWorkload,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func runWorkload(o options, stderr io.Writer) (*result, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown --workload %q (want one of %v)", o.workload, workloadNames())
	}
	oc, err := wl(o, stderr)
	if err != nil {
		return nil, err
	}
	if oc.attempted < 1 {
		return nil, fmt.Errorf("%s attempted no updates", o.workload)
	}
	for _, v := range oc.violations {
		fmt.Fprintln(stderr, "e2ebench: check failed:", v)
	}
	res := &result{
		Correct:   len(oc.violations) == 0 && oc.failed == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   map[string]Metric{},
		Host:      fingerprint(),
		Extra:     oc.summary,
	}
	if o.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = Metric{finite(oc.layers[m.name]), m.unit}
		}
		return res, nil
	}
	// The host's speed drifts between levels that hold for tens of
	// seconds. The rate and the median round trip weigh every repetition
	// alike, where medians over repetitions would jump to whichever level
	// held most of them; the tail is the median of the repetitions' p99s,
	// which keeps a burst in one repetition out of it.
	values := map[string]float64{
		"updates_per_s": oc.work.rate(),
		"update_p50_ms": mean(oc.p50),
		"update_p99_ms": median(oc.p99),
		"setup_s":       median(oc.setups),
		"max_rss_mb":    oc.maxRSS,
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = Metric{finite(values[m.name]), m.unit}
	}
	return res, nil
}

// finite maps NaN and infinities (which JSON cannot carry) to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// writeResult prints the host fingerprint and the workload's extra
// figures on one line, then the result object as the last line.
func writeResult(w io.Writer, res *result) {
	// Marshal cannot fail here: every value is a string or a finite number.
	extra, _ := json.Marshal(map[string]any{"host": res.Host, "extra": res.Extra})
	fmt.Fprintln(w, string(extra))
	line, _ := json.Marshal(res)
	fmt.Fprintln(w, string(line))
}
