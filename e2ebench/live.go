package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"strconv"
	"time"

	"github.com/spyker-fl/spyker/internal/experiments"
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/live"
	"github.com/spyker-fl/spyker/internal/transport"
)

// The live-ingest deployment: liveServers servers with one closed-loop
// client each, so the client connections equal the 2 CPUs the benchmark
// is sized for. Server i and its client are pinned to CPU i: a pair
// takes turns on its CPU, and the round-trip tail shows the program's
// stalls rather than the scheduler's, which unpinned moves the four
// processes between CPUs and queues them behind each other for
// milliseconds.
const (
	liveServers = 2
	// liveReps fresh deployments share a run's --seconds, so set-up is
	// sampled several times and no repetition inherits another's heap.
	liveReps = 8
	// liveWarmup untimed updates per client let gob exchange its type
	// descriptors and the connection buffers reach their steady size.
	liveWarmup = 200
	// deltaPool seeded deltas, generated during set-up, perturb the
	// received model into each update; deltaScale keeps the server
	// models' random walk small.
	deltaPool  = 16
	deltaScale = 1e-3

	liveSetupTimeout    = 60 * time.Second
	liveRunSlack        = 30 * time.Second
	liveTeardownTimeout = 15 * time.Second
)

// Span layers of a traced client; clientUpdate is the root.
const (
	clientUpdate = iota
	clientSend
	clientWait
)

var clientLayers = []string{"client.update", "transport.send", "transport.reply_wait"}

// liveModel builds the MNIST CNN from the experiments' model factory; its
// parameter count sizes every update, as in spyker-live.
func liveModel(seed int64) (fl.Model, error) {
	env, _, err := experiments.BuildEnv(experiments.Setup{
		Task: experiments.TaskMNIST, NumServers: 1, NumClients: 1, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return env.NewModel(seed), nil
}

// Line messages between the orchestrator and its children.
type (
	command struct {
		Cmd   string   `json:"cmd"` // peers | mark | stop | go
		Peers []string `json:"peers,omitempty"`
	}
	serverHello struct {
		Addr string `json:"addr"`
	}
	ack struct {
		OK bool `json:"ok"`
	}
	serverStats struct {
		Updates     int         `json:"updates"`      // aggregated over the whole run
		WindowUpd   int         `json:"window_upd"`   // aggregated between mark and stop
		Syncs       int         `json:"syncs"`        // synchronizations this server initiated
		Runtime     runtimeSnap `json:"runtime"`      // between mark and stop
		MaxRSSMiB   float64     `json:"max_rss_mib"`  // peak resident set
		FiniteModel bool        `json:"finite_model"` // final model has only finite params
	}
	clientResult struct {
		Updates    int       `json:"updates"`  // updates sent, warm-up included
		Replies    int       `json:"replies"`  // model replies received for them
		Measured   int       `json:"measured"` // round trips in the timed window
		Seconds    float64   `json:"seconds"`  // length of the timed window
		Bytes      int64     `json:"bytes"`    // transport bytes in the timed window
		RTTus      []float64 `json:"rtt_us"`
		SendUS     []float64 `json:"send_us,omitempty"`
		WaitUS     []float64 `json:"wait_us,omitempty"`
		Violations []string  `json:"violations,omitempty"`
		Error      string    `json:"error,omitempty"`
	}
)

// serverChild hosts one live.Server with the library-default
// hyper-parameters; server 0 holds the initial token.
func serverChild(o options, stdin io.Reader, stdout io.Writer) error {
	model, err := liveModel(o.seed)
	if err != nil {
		return err
	}
	cfg := live.ServerConfig(o.id, liveServers, 1, fl.DefaultHyper(liveServers, liveServers))
	srv, err := live.NewServer(o.id, "127.0.0.1:0", cfg, model.Params(), o.id == 0)
	if err != nil {
		return err
	}
	// On an error return the process exits with its sockets open; the
	// orchestrator kills the deployment.
	if err := writeLine(stdout, serverHello{srv.Addr()}); err != nil {
		return err
	}
	in := bufio.NewReader(stdin)
	var c command
	if err := expect(in, &c, "peers"); err != nil {
		return err
	}
	if err := srv.ConnectPeers(c.Peers); err != nil {
		return err
	}
	if err := writeLine(stdout, ack{true}); err != nil {
		return err
	}
	if err := expect(in, &c, "mark"); err != nil {
		return err
	}
	rt0, mark := readRuntime(), srv.Updates()
	if err := expect(in, &c, "stop"); err != nil {
		return err
	}
	st := serverStats{Runtime: readRuntime().sub(rt0), WindowUpd: srv.Updates() - mark}
	srv.Close()
	st.Updates = srv.Updates()
	st.Syncs = srv.SyncsTriggered()
	st.FiniteModel = allFinite(srv.Params())
	st.MaxRSSMiB = maxRSSMiB()
	return writeLine(stdout, st)
}

// expect reads the next command from the orchestrator into c and checks
// that it is want.
func expect(in *bufio.Reader, c *command, want string) error {
	*c = command{}
	if err := readLine(in, c); err != nil {
		return fmt.Errorf("waiting for %q: %w", want, err)
	}
	if c.Cmd != want {
		return fmt.Errorf("got command %q, want %q", c.Cmd, want)
	}
	return nil
}

// clientChild is one closed-loop client: each update is the last model
// reply plus a pooled seeded delta, and the next update is sent only once
// the reply to the previous one is decoded.
func clientChild(o options, stdin io.Reader, stdout io.Writer) error {
	model, err := liveModel(o.seed)
	if err != nil {
		return err
	}
	dim := model.NumParams()
	rng := rand.New(rand.NewSource(o.seed*7919 + int64(o.id)))
	pool := make([][]float64, deltaPool)
	for i := range pool {
		pool[i] = make([]float64, dim)
		for j := range pool[i] {
			pool[i][j] = deltaScale * rng.NormFloat64()
		}
	}

	conn, err := transport.Dial(o.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.Send(&transport.Msg{Kind: transport.KindHello, From: o.id, Bid: live.RoleClient}); err != nil {
		return err
	}
	var in transport.Msg
	if err := conn.RecvInto(&in); err != nil {
		return fmt.Errorf("registration reply: %w", err)
	}
	if v := checkReply(&in, dim); v != "" {
		return fmt.Errorf("registration reply: %s", v)
	}
	if err := writeLine(stdout, ack{true}); err != nil {
		return err
	}
	var c command
	if err := expect(bufio.NewReader(stdin), &c, "go"); err != nil {
		return err
	}

	var tr *tracer
	if o.trace {
		tr = newTracer(clientLayers...)
		tr.paused = true
	}
	res := clientResult{RTTus: make([]float64, 0, 1<<15)}
	out := transport.Msg{Kind: transport.KindClientUpdate, From: o.id, Params: make([]float64, dim)}
	// step makes one round trip and reports whether the loop may go on.
	step := func(timed bool) bool {
		d := pool[res.Updates%len(pool)]
		for j, p := range in.Params {
			out.Params[j] = p + d[j]
		}
		out.Age = in.Age
		res.Updates++
		t0 := time.Now()
		root := tr.begin(clientUpdate)
		s := tr.begin(clientSend)
		if err := conn.Send(&out); err != nil {
			res.Error = err.Error()
			return false
		}
		tr.end(s)
		w := tr.begin(clientWait)
		if err := conn.RecvInto(&in); err != nil {
			res.Error = fmt.Sprintf("transport: recv: %v", err)
			return false
		}
		tr.end(w)
		tr.end(root)
		rtt := time.Since(t0)
		if v := checkReply(&in, dim); v != "" {
			res.Violations = append(res.Violations, fmt.Sprintf("reply %d: %s", res.Updates, v))
			return false
		}
		res.Replies++
		if timed {
			res.Measured++
			res.RTTus = append(res.RTTus, float64(rtt)/float64(time.Microsecond))
		}
		return true
	}

	ok := true
	for i := 0; ok && i < liveWarmup; i++ {
		ok = step(false)
	}
	if ok {
		budget := time.Duration(o.seconds * float64(time.Second))
		before := conn.Stats()
		if tr != nil {
			tr.paused = false
		}
		start := time.Now()
		for ok && time.Since(start) < budget {
			ok = step(true)
		}
		res.Seconds = time.Since(start).Seconds()
		after := conn.Stats()
		res.Bytes = after.BytesSent + after.BytesRecv - before.BytesSent - before.BytesRecv
	}
	_ = conn.Close() // the server sees the client leave before it is stopped
	if tr != nil {
		res.SendUS = tr.durationsUS(clientSend)
		res.WaitUS = tr.durationsUS(clientWait)
		if o.outFile != "" {
			title := fmt.Sprintf("live-ingest client %d: self time over %d round trips", o.id, res.Measured)
			if err := tr.writeFiles(o.outFile, title); err != nil {
				return err
			}
		}
	}
	return writeLine(stdout, res)
}

// checkReply validates one server reply: a model reply of the model's
// dimension with finite parameters. It returns "" for a valid reply.
func checkReply(m *transport.Msg, dim int) string {
	switch {
	case m.Kind != transport.KindModelReply:
		return fmt.Sprintf("kind %v, want %v", m.Kind, transport.KindModelReply)
	case len(m.Params) != dim:
		return fmt.Sprintf("%d params, want %d", len(m.Params), dim)
	case !allFinite(m.Params):
		return "non-finite params"
	}
	return ""
}

func allFinite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// liveRepResult is one deployment's measurements. fail is set when a
// phase failed or overran its deadline; the repetition's updates then
// count as failed.
type liveRepResult struct {
	setup   time.Duration
	clients []clientResult
	servers []serverStats
	fail    string
}

// liveRep sets up one deployment, runs its clients for seconds, and tears
// it down by stopping every server at once. Every child is killed and
// waited for before it returns.
func liveRep(o options, rep int, seconds float64, traced bool) (_ *liveRepResult, err error) {
	var procs []*child
	defer func() {
		for _, c := range procs {
			c.kill()
		}
	}()
	spawn := func(name string, cpu int, args ...string) (*child, error) {
		c, err := startChild(name, cpu, args...)
		if err == nil {
			procs = append(procs, c)
		}
		return c, err
	}

	t0 := time.Now()
	setupBy := t0.Add(liveSetupTimeout)
	seed := strconv.FormatInt(o.seed, 10)
	servers := make([]*child, liveServers)
	addrs := make([]string, liveServers)
	for i := range servers {
		if servers[i], err = spawn(fmt.Sprintf("server %d", i), i,
			"--role", "server", "--id", strconv.Itoa(i), "--seed", seed); err != nil {
			return nil, err
		}
	}
	for i, c := range servers {
		var h serverHello
		if err := c.recv(&h, setupBy); err != nil {
			return nil, err
		}
		addrs[i] = h.Addr
	}
	for _, c := range servers {
		if err := c.send(command{Cmd: "peers", Peers: addrs}); err != nil {
			return nil, err
		}
	}
	for _, c := range servers {
		if err := c.recv(&ack{}, setupBy); err != nil {
			return nil, err
		}
	}
	clients := make([]*child, liveServers)
	for i := range clients {
		args := []string{"--role", "client", "--id", strconv.Itoa(i), "--addr", addrs[i],
			"--seed", seed, "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}
		if traced {
			args = append(args, "--trace", "1", "--out", filepath.Join(o.traceDir,
				fmt.Sprintf("live-ingest-seed%d-rep%d-client%d", o.seed, rep, i)))
		}
		if clients[i], err = spawn(fmt.Sprintf("client %d", i), i, args...); err != nil {
			return nil, err
		}
	}
	for _, c := range clients {
		if err := c.recv(&ack{}, setupBy); err != nil {
			return nil, err
		}
	}
	r := &liveRepResult{setup: time.Since(t0)}

	for _, c := range servers {
		if err := c.send(command{Cmd: "mark"}); err != nil {
			return nil, err
		}
	}
	for _, c := range clients {
		if err := c.send(command{Cmd: "go"}); err != nil {
			return nil, err
		}
	}
	runBy := time.Now().Add(time.Duration(seconds*float64(time.Second)) + liveRunSlack)
	r.clients = make([]clientResult, len(clients))
	for i, c := range clients {
		if err := c.recv(&r.clients[i], runBy); err != nil {
			r.fail = err.Error()
			return r, nil
		}
		if err := c.wait(); err != nil {
			r.fail = err.Error()
			return r, nil
		}
	}
	// Stop every server before waiting for any: a server's Close returns
	// only once its peers have closed their links to it.
	for _, c := range servers {
		if err := c.send(command{Cmd: "stop"}); err != nil {
			r.fail = err.Error()
			return r, nil
		}
	}
	stopBy := time.Now().Add(liveTeardownTimeout)
	r.servers = make([]serverStats, len(servers))
	for i, c := range servers {
		if err := c.recv(&r.servers[i], stopBy); err != nil {
			r.fail = "teardown: " + err.Error()
			return r, nil
		}
		if err := c.wait(); err != nil {
			r.fail = "teardown: " + err.Error()
			return r, nil
		}
	}
	return r, nil
}

// liveWorkload runs liveReps deployments, up to the first that overruns
// a deadline; a traced run traces every second one, and the untraced
// ones give its tracing overhead.
func liveWorkload(o options, stderr io.Writer) (*outcome, error) {
	oc := &outcome{}
	per := o.seconds / liveReps
	var (
		tracedWork           throughput
		sendUS, waitUS       []float64
		bytes                int64
		syncs, serverUpdates int
		rt                   runtimeSnap
		rtUpdates            int
	)
	reps := 0
	for rep := 0; rep < liveReps; rep++ {
		reps++
		traced := o.trace && rep%2 == 1
		r, err := liveRep(o, rep, per, traced)
		if err != nil {
			return nil, fmt.Errorf("live-ingest repetition %d: %w", rep, err)
		}
		before := len(oc.violations)
		// The clients measure concurrently: the deployment's window is
		// their mean, and its rate the sum of theirs.
		sent, replies, measured, window, rate, rss := 0, 0, 0, 0.0, 0.0, 0.0
		for _, c := range r.clients {
			sent += c.Updates
			replies += c.Replies
			measured += c.Measured
			window += c.Seconds / float64(len(r.clients))
			if c.Seconds > 0 {
				rate += float64(c.Measured) / c.Seconds
			}
			if c.Error != "" {
				oc.violate("repetition %d: client error: %s", rep, c.Error)
			}
			for _, v := range c.Violations {
				oc.violate("repetition %d: %s", rep, v)
			}
		}
		aggregated := 0
		for i, s := range r.servers {
			aggregated += s.Updates
			rss += s.MaxRSSMiB
			if !s.FiniteModel {
				oc.violate("repetition %d: server %d model has non-finite params", rep, i)
			}
		}
		ok := r.fail == "" && len(oc.violations) == before
		if r.fail != "" {
			oc.violate("repetition %d: %s", rep, r.fail)
		} else if replies != aggregated {
			oc.violate("repetition %d: clients received %d replies, servers aggregated %d updates",
				rep, replies, aggregated)
			ok = false
		}
		fmt.Fprintf(stderr, "live-ingest rep %d (traced=%v): setup %.3f s, %.1f updates/s\n",
			rep, traced, r.setup.Seconds(), rate)
		if sent == 0 {
			sent = 1 // a repetition that failed before its first update still failed
		}
		oc.attempted += int64(sent)
		if !ok {
			oc.failed += int64(sent)
			if r.fail != "" {
				break // a hung deployment ends the run, which keeps it within its deadline
			}
			continue
		}

		oc.setups = append(oc.setups, r.setup.Seconds())
		oc.maxRSS = math.Max(oc.maxRSS, rss)
		for _, s := range r.servers {
			syncs += s.Syncs
			serverUpdates += s.Updates
		}
		if traced {
			tracedWork.add(measured, window)
			for _, c := range r.clients {
				sendUS = append(sendUS, c.SendUS...)
				waitUS = append(waitUS, c.WaitUS...)
			}
			continue
		}
		oc.work.add(measured, window)
		var latMS []float64
		for _, c := range r.clients {
			for _, us := range c.RTTus {
				latMS = append(latMS, us/1000)
			}
			bytes += c.Bytes
		}
		oc.addLatency(latMS)
		for _, s := range r.servers {
			rt = rt.add(s.Runtime)
			rtUpdates += s.WindowUpd
		}
	}
	oc.summary = map[string]Metric{
		"failed_frac":    {float64(oc.failed) / float64(oc.attempted), "ratio"},
		"repetitions":    {float64(reps), "count"},
		"update_samples": {float64(oc.samples), "count"},
	}
	if !o.trace {
		return oc, nil
	}
	oc.layers = map[string]float64{
		"transport.send_us_p50":       median(sendUS),
		"transport.reply_wait_us_p50": median(waitUS),
		"transport.bytes_per_update":  float64(bytes) / oc.work.updates,
		"live.syncs_per_kupdate":      1000 * float64(syncs) / float64(serverUpdates),
		"go.alloc_bytes_per_update":   rt.AllocBytes / float64(rtUpdates),
		"go.gc_cpu_share":             rt.GCCPU / rt.BusyCPU,
		"trace.overhead_share":        1 - tracedWork.rate()/oc.work.rate(),
		"update_samples":              float64(oc.samples),
	}
	fmt.Fprintf(stderr, "live-ingest seed %d: transport.send p50 %.1f us, reply wait p50 %.1f us over %d traced round trips; spans in %s\n",
		o.seed, oc.layers["transport.send_us_p50"], oc.layers["transport.reply_wait_us_p50"], len(sendUS), o.traceDir)
	return oc, nil
}
