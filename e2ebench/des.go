package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"github.com/spyker-fl/spyker/internal/experiments"
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/geo"
)

// desSpec is a DES workload: Spyker on the paper's layout, run for a
// fixed update budget per repetition.
type desSpec struct {
	name string
	task experiments.Task
	// budget is the client updates of one repetition, a multiple of
	// desEvalEvery so the last evaluation lands on the last update.
	budget int
}

const desEvalEvery = 25

var (
	desMNIST = desSpec{"des-mnist", experiments.TaskMNIST, 1500}
	desWiki  = desSpec{"des-wiki", experiments.TaskWiki, 1000}
)

// Span layers of a traced DES repetition; desRun is the root.
const (
	desRun = iota
	desTrain
	desObserve
	desEval
)

var desLayers = []string{"sim.run", "nn.train", "metrics.observe", "nn.eval"}

func (d desSpec) setup(seed int64) experiments.Setup {
	return experiments.Setup{
		Task:         d.task,
		NumServers:   4,
		NumClients:   100,
		NonIIDLabels: 2,
		EvalEvery:    desEvalEvery,
		MaxUpdates:   d.budget,
		Horizon:      1e9, // the update budget ends the run
		Seed:         seed,
	}
}

// desRep is one repetition's measurements.
type desRep struct {
	setup, elapsed time.Duration
	updates        int
	finalLoss      float64
	lossAt         int // updates at the last evaluation
	latMS          []float64
	events         uint64
	bytes          int
	rt             runtimeSnap
}

// rep builds the environment and runs it to the update budget. A non-nil
// tracer wraps the model factory, the evaluation model and the observer
// with spans.
func (d desSpec) rep(seed int64, tr *tracer) (*desRep, error) {
	runtime.GC() // leave the previous repetition's garbage out of this one
	t0 := time.Now()
	s := d.setup(seed)
	env, rec, err := experiments.BuildEnv(s)
	if err != nil {
		return nil, err
	}
	alg, err := experiments.NewAlgorithm("spyker")
	if err != nil {
		return nil, err
	}
	if tr != nil {
		factory := env.NewModel
		env.NewModel = func(seed int64) fl.Model {
			return tracedModel{Model: factory(seed), tr: tr}
		}
		rec.EvalModel = tracedModel{Model: rec.EvalModel, tr: tr}
		env.Observer = tracedObserver{Observer: env.Observer, tr: tr}
	}
	clientRounds := &rounds{latMS: make([]float64, 0, d.budget)}
	inner := env.NewModel
	env.NewModel = func(seed int64) fl.Model {
		return &roundModel{Model: inner(seed), rounds: clientRounds}
	}
	if err := alg.Build(env); err != nil {
		return nil, fmt.Errorf("build spyker: %w", err)
	}
	r := &desRep{setup: time.Since(t0)}

	rt0 := readRuntime()
	start := time.Now()
	clientRounds.start = start
	root := int32(-1)
	if tr != nil {
		tr.paused = false
		root = tr.begin(desRun)
	}
	env.Sim.Run(s.Horizon)
	if tr != nil {
		tr.end(root)
		tr.paused = true
	}
	r.elapsed = time.Since(start)
	r.rt = readRuntime().sub(rt0)

	r.updates = rec.Updates()
	r.latMS = clientRounds.latMS
	r.events = env.Sim.Processed()
	r.bytes = env.Net.TotalBytes(geo.ClientServer) + env.Net.TotalBytes(geo.ServerServer)
	r.finalLoss = math.NaN()
	if n := len(rec.TraceData); n > 0 {
		r.finalLoss = rec.TraceData[n-1].Loss
		r.lossAt = rec.TraceData[n-1].Updates
	}
	return r, nil
}

// desWorkload measures repetitions of d until the measured time reaches
// --seconds. A traced run spends the first half untraced and the second
// half traced; the difference is the tracing overhead.
func desWorkload(d desSpec) workloadFunc {
	return func(o options, stderr io.Writer) (*outcome, error) {
		oc := &outcome{}
		var tr *tracer
		budgets := []float64{o.seconds}
		if o.trace {
			tr = newTracer(desLayers...)
			tr.paused = true
			budgets = []float64{o.seconds / 2, o.seconds / 2}
		}
		var (
			lossBits   uint64
			haveLoss   bool
			finalLoss  float64
			rt         runtimeSnap
			rtUpdates  int
			first      *desRep
			tracedWork throughput
			tracedReps int
		)
		for phase, budget := range budgets {
			traced := phase == 1
			measured := 0.0
			for measured < budget {
				var phaseTracer *tracer
				if traced {
					phaseTracer = tr
				}
				r, err := d.rep(o.seed, phaseTracer)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", d.name, err)
				}
				measured += r.elapsed.Seconds()
				oc.attempted += int64(d.budget)
				if first == nil {
					first = r
				}

				// Output checks, on every repetition.
				ok := true
				if r.updates != d.budget {
					oc.violate("%d updates aggregated, budget %d", r.updates, d.budget)
					ok = false
				}
				if r.lossAt != d.budget || math.IsNaN(r.finalLoss) || math.IsInf(r.finalLoss, 0) {
					oc.violate("final loss %v at update %d, want a finite loss at update %d",
						r.finalLoss, r.lossAt, d.budget)
					ok = false
				} else if !haveLoss {
					lossBits, haveLoss, finalLoss = math.Float64bits(r.finalLoss), true, r.finalLoss
				} else if math.Float64bits(r.finalLoss) != lossBits {
					oc.violate("final loss %v differs from the first repetition's %v", r.finalLoss, finalLoss)
					ok = false
				}
				if r.events != first.events || r.bytes != first.bytes {
					oc.violate("schedule differs between repetitions: %d events / %d bytes, first %d / %d",
						r.events, r.bytes, first.events, first.bytes)
					ok = false
				}
				if !ok {
					oc.failed += int64(d.budget)
				}

				rate := float64(r.updates) / r.elapsed.Seconds()
				fmt.Fprintf(stderr, "%s rep %d (traced=%v): setup %.3f s, %.1f updates/s, p50 %.3f ms, p99 %.3f ms\n",
					d.name, len(oc.setups), traced, r.setup.Seconds(), rate, quantile(r.latMS, 0.5), quantile(r.latMS, 0.99))
				oc.setups = append(oc.setups, r.setup.Seconds())
				if traced {
					tracedWork.add(r.updates, r.elapsed.Seconds())
					tracedReps++
					continue
				}
				oc.work.add(r.updates, r.elapsed.Seconds())
				oc.addLatency(r.latMS)
				rt = rt.add(r.rt)
				rtUpdates += r.updates
			}
		}
		oc.maxRSS = maxRSSMiB()
		oc.summary = map[string]Metric{
			"final_loss":     {finite(finalLoss), "nats"},
			"failed_frac":    {float64(oc.failed) / float64(oc.attempted), "ratio"},
			"repetitions":    {float64(len(oc.setups)), "count"},
			"update_samples": {float64(oc.samples), "count"},
		}
		if !o.trace {
			return oc, nil
		}

		st := tr.stats()
		root := st[desRun].total.Seconds()
		share := func(v time.Duration) float64 { return v.Seconds() / root }
		perCall := func(s layerStat, unit time.Duration) float64 {
			if s.calls == 0 {
				return 0
			}
			return float64(s.total) / float64(s.calls) / float64(unit)
		}
		updates := float64(first.updates)
		oc.layers = map[string]float64{
			"nn.train.share":             share(st[desTrain].total),
			"nn.train.us_per_call":       perCall(st[desTrain], time.Microsecond),
			"nn.train.calls":             float64(st[desTrain].calls),
			"nn.eval.share":              share(st[desEval].total),
			"nn.eval.ms_per_call":        perCall(st[desEval], time.Millisecond),
			"nn.eval.calls":              float64(st[desEval].calls),
			"metrics.observe.self_share": share(st[desObserve].self),
			"sim.self_share":             share(st[desRun].self),
			"sim.events_per_update":      float64(first.events) / updates,
			"geo.bytes_per_update":       float64(first.bytes) / updates,
			"go.alloc_bytes_per_update":  rt.AllocBytes / float64(rtUpdates),
			"go.gc_cpu_share":            rt.GCCPU / rt.BusyCPU,
			"trace.overhead_share":       1 - tracedWork.rate()/oc.work.rate(),
			"update_samples":             float64(oc.samples),
		}
		base := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d", d.name, o.seed))
		title := fmt.Sprintf("%s seed %d: self time over %d traced repetitions", d.name, o.seed, tracedReps)
		writeTable(stderr, title, st)
		if err := tr.writeFiles(base, title); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		return oc, nil
	}
}

// tracedModel records spans around the calls a DES makes into the nn
// layer: Train on client models and Evaluate on the recorder's
// evaluation model.
type tracedModel struct {
	fl.Model
	tr *tracer
}

func (m tracedModel) Train(shard []int, epochs int, lr float64) {
	i := m.tr.begin(desTrain)
	m.Model.Train(shard, epochs, lr)
	m.tr.end(i)
}

func (m tracedModel) Evaluate() (loss, acc float64) {
	i := m.tr.begin(desEval)
	loss, acc = m.Model.Evaluate()
	m.tr.end(i)
	return loss, acc
}

// tracedObserver records a span around each processed-update callback:
// server-model averaging plus, every desEvalEvery updates, an evaluation.
type tracedObserver struct {
	fl.Observer
	tr *tracer
}

func (o tracedObserver) ClientUpdateProcessed(now float64, server, client int, models func() [][]float64) {
	i := o.tr.begin(desObserve)
	o.Observer.ClientUpdateProcessed(now, server, client, models)
	o.tr.end(i)
}

// roundModel takes the DES's per-update latency samples: the wall time
// between two consecutive trainings of one client, which is the round of
// its update through the emulated network and server until the reply
// starts the next one. Every other event the DES runs meanwhile falls in
// the round, as it would delay a client of the emulation. It costs one
// clock read per training.
type roundModel struct {
	fl.Model
	rounds *rounds
	last   time.Time
}

// rounds collects the samples of all clients of one repetition; trainings
// before start (the DES trains every client once while it builds) begin
// no sample.
type rounds struct {
	start time.Time
	latMS []float64
}

func (m *roundModel) Train(shard []int, epochs int, lr float64) {
	now := time.Now()
	if m.last.After(m.rounds.start) {
		m.rounds.latMS = append(m.rounds.latMS, float64(now.Sub(m.last))/float64(time.Millisecond))
	}
	m.last = now
	m.Model.Train(shard, epochs, lr)
}
