package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the live workload's child
// processes, which re-execute the running binary with --role.
// A --hang child stands for a deployment that stops answering.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--role" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "--hang" {
		select {}
	}
	os.Exit(m.Run())
}

// TestChildDeadline checks that a child that stops answering fails the
// read at its deadline and is killed and reaped, instead of hanging the
// benchmark.
func TestChildDeadline(t *testing.T) {
	c, err := startChild("hanging child", -1, "--hang")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var v ack
	err = c.recv(&v, start.Add(200*time.Millisecond))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("recv from a hanging child: %v, want a deadline error", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("recv returned after %v", d)
	}
	c.kill()
	if c.cmd.ProcessState == nil {
		t.Error("killed child was not waited for")
	}
}

// TestStartPinned checks that a child started on a CPU may run only there.
func TestStartPinned(t *testing.T) {
	all, err := getAffinity()
	if err != nil {
		t.Fatal(err)
	}
	want := all.nth(1)
	c, err := startChild("pinned child", 1, "--hang")
	if err != nil {
		t.Fatal(err)
	}
	defer c.kill()
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			if got := strings.TrimSpace(v); got != fmt.Sprint(only(want)) {
				t.Errorf("child may run on CPUs %s, want %d", got, only(want))
			}
			return
		}
	}
	t.Error("no Cpus_allowed_list in the child's status")
}

func TestCPUSetNth(t *testing.T) {
	var s cpuSet
	s[0] = 1<<1 | 1<<3
	s[1] = 1 << 2 // CPU 66
	for n, want := range []int{1, 3, 66, 1} {
		if got := only(s.nth(n)); got != want {
			t.Errorf("nth(%d) = CPU %d, want %d", n, got, want)
		}
	}
}

// only returns the CPU of a set of one, or -1.
func only(s cpuSet) int {
	cpu := -1
	for i := 0; i < len(s)*64; i++ {
		if s[i/64]&(1<<(i%64)) != 0 {
			if cpu >= 0 {
				return -1
			}
			cpu = i
		}
	}
	return cpu
}

// runBench runs one tiny-budget workload and decodes its result line.
func runBench(t *testing.T, workload string, trace bool) map[string]any {
	t.Helper()
	traceFlag := "0"
	if trace {
		traceFlag = "1"
	}
	// des-* run whole repetitions; live-ingest splits this over liveReps.
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.4",
		"--trace", traceFlag, "--trace-dir", t.TempDir()}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v exited %d:\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res map[string]any
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.UseNumber()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if len(res) != 4 {
		t.Errorf("result keys %v, want correct, attempted, failed, metrics", res)
	}
	if res["correct"] != true {
		t.Errorf("correct = %v\n%s", res["correct"], stderr.String())
	}
	if a, _ := res["attempted"].(json.Number).Int64(); a < 1 {
		t.Errorf("attempted = %v", res["attempted"])
	}
	if f, _ := res["failed"].(json.Number).Int64(); f != 0 {
		t.Errorf("failed = %v, want 0 (failed_frac 0)", res["failed"])
	}
	return res["metrics"].(map[string]any)
}

func checkMetrics(t *testing.T, metrics map[string]any, want []struct{ name, unit string }) {
	t.Helper()
	if len(metrics) != len(want) {
		t.Errorf("%d metrics, want %d: %v", len(metrics), len(want), metrics)
	}
	for _, w := range want {
		m, ok := metrics[w.name].(map[string]any)
		if !ok {
			t.Errorf("metric %s missing", w.name)
			continue
		}
		if m["unit"] != w.unit {
			t.Errorf("metric %s unit %v, want %s", w.name, m["unit"], w.unit)
		}
		if _, err := m["value"].(json.Number).Float64(); err != nil {
			t.Errorf("metric %s value %v: %v", w.name, m["value"], err)
		}
	}
}

func TestWorkloads(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			e2e := runBench(t, name, false)
			checkMetrics(t, e2e, endToEnd)
			for _, m := range endToEnd {
				if v, _ := e2e[m.name].(map[string]any)["value"].(json.Number).Float64(); !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, v)
				}
			}
			layers := runBench(t, name, true)
			checkMetrics(t, layers, perLayer)
			for _, m := range exercised[name] {
				if v, _ := layers[m].(map[string]any)["value"].(json.Number).Float64(); !(v > 0) {
					t.Errorf("traced metric %s = %v, want > 0 on %s", m, v, name)
				}
			}
		})
	}
}

// exercised names the per-layer metrics each workload's traced run must
// measure; the layers a workload does not reach report 0.
var exercised = map[string][]string{
	"des-mnist": desExercised,
	"des-wiki":  desExercised,
	"live-ingest": {"transport.send_us_p50", "transport.reply_wait_us_p50",
		"transport.bytes_per_update", "live.syncs_per_kupdate",
		"go.alloc_bytes_per_update", "update_samples"},
}

var desExercised = []string{"nn.train.share", "nn.train.us_per_call", "nn.train.calls",
	"nn.eval.share", "nn.eval.ms_per_call", "nn.eval.calls", "metrics.observe.self_share",
	"sim.self_share", "sim.events_per_update", "geo.bytes_per_update",
	"go.alloc_bytes_per_update", "update_samples"}

// TestTracedDESAttribution checks the split the traced DES reports:
// training and evaluation dominate Sim.Run on the MNIST CNN, and the
// shares of the layers are fractions.
func TestTracedDESAttribution(t *testing.T) {
	m := runBench(t, "des-mnist", true)
	val := func(name string) float64 {
		v, _ := m[name].(map[string]any)["value"].(json.Number).Float64()
		return v
	}
	if nn := val("nn.train.share") + val("nn.eval.share"); nn < 0.8 || nn > 1 {
		t.Errorf("nn.train + nn.eval = %.3f of Sim.Run, want in [0.8, 1]", nn)
	}
	for _, name := range []string{"metrics.observe.self_share", "sim.self_share"} {
		if v := val(name); v < 0 || v > 0.2 {
			t.Errorf("%s = %.3f, want in [0, 0.2]", name, v)
		}
	}
	// The tiny budget traces exactly one repetition.
	if val("nn.eval.calls")*desEvalEvery != float64(desMNIST.budget) {
		t.Errorf("nn.eval.calls = %v, want one per %d updates of one repetition",
			val("nn.eval.calls"), desEvalEvery)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists and workloads in
// step with what the benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark has %s", got, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.25, 2}, {1, 5}, {0.99, 4.96}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
}
