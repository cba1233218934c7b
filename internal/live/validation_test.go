package live

import (
	"math"
	"testing"
	"time"

	"github.com/spyker-fl/spyker/internal/transport"
)

// Regression tests for the validation edge: a faulty or malicious sender
// controls its whole payload, so each probe below sends one bad frame
// over real TCP and then checks that the server survived, its model is
// still finite, and an honest update is still merged.

const edgeDim = 8

// edgeServer starts server 0 of a two-server deployment (server 1 is
// never started; test connections may pose as it). Syncs never trigger
// on their own, and server 0 does not hold the token.
func edgeServer(t *testing.T) *Server {
	t.Helper()
	cfg := clusterServerConfig(0, 2, 4)
	cfg.HInter, cfg.HIntra = 1e18, 1e18
	initial := make([]float64, edgeDim)
	for i := range initial {
		initial[i] = 0.1 * float64(i)
	}
	srv, err := NewServer(0, "127.0.0.1:0", cfg, initial, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// edgeDial opens a raw connection registered under role and id. For a
// client it returns the model reply registration hands back.
func edgeDial(t *testing.T, srv *Server, role, id int) (*transport.Conn, *transport.Msg) {
	t.Helper()
	conn, err := transport.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := conn.Send(&transport.Msg{Kind: transport.KindHello, From: id, Bid: role}); err != nil {
		t.Fatal(err)
	}
	if role != RoleClient {
		return conn, nil
	}
	reply, err := conn.Recv()
	if err != nil || reply.Kind != transport.KindModelReply {
		t.Fatalf("registration reply: %v, %v", reply, err)
	}
	return conn, reply
}

// sendUpdate sends a client update of the given parameters.
func sendUpdate(t *testing.T, conn *transport.Conn, from int, params []float64, age float64) {
	t.Helper()
	if err := conn.Send(&transport.Msg{
		Kind: transport.KindClientUpdate, From: from, Params: params, Age: age,
	}); err != nil {
		t.Fatal(err)
	}
}

// requireHealthy sends an honest update as client id on conn and checks
// that it is merged — as update number wantUpdates — and that the model
// stays finite. Frames on one connection are dispatched in order, so
// once the honest update is merged every earlier frame was handled.
func requireHealthy(t *testing.T, srv *Server, conn *transport.Conn, id int, base *transport.Msg, wantUpdates int) {
	t.Helper()
	honest := append([]float64(nil), base.Params...)
	for i := range honest {
		honest[i] += 0.01
	}
	sendUpdate(t, conn, id, honest, base.Age)
	reply, err := conn.Recv()
	if err != nil {
		t.Fatalf("honest update got no reply: %v", err)
	}
	if reply.Kind != transport.KindModelReply || len(reply.Params) != edgeDim {
		t.Fatalf("honest update reply: %+v", reply)
	}
	// The reply can overtake the server's update counter, so wait for it
	// to reach wantUpdates before requiring it to be exactly that.
	waitFor(t, "the honest update to be counted", 5*time.Second, func() bool {
		return srv.Updates() >= wantUpdates
	})
	if got := srv.Updates(); got != wantUpdates {
		t.Fatalf("server merged %d updates, want %d", got, wantUpdates)
	}
	for i, p := range srv.Params() {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("server model param %d = %v", i, p)
		}
	}
}

// TestEdgeDropsWrongLengthUpdate: before the edge, a client update whose
// length differed from the model dimension panicked the server, and so
// did a server-model broadcast of the wrong length.
func TestEdgeDropsWrongLengthUpdate(t *testing.T) {
	srv := edgeServer(t)
	conn, reply := edgeDial(t, srv, RoleClient, 1)
	for _, n := range []int{0, edgeDim - 1, edgeDim + 1} {
		sendUpdate(t, conn, 1, make([]float64, n), reply.Age)
	}
	requireHealthy(t, srv, conn, 1, reply, 1)

	// A peer's broadcast of the wrong length is dropped too. The second,
	// well-formed broadcast is joined; had the first been accepted, the
	// server would have joined two rounds.
	peer, _ := edgeDial(t, srv, RoleServer, 1)
	for _, b := range []struct{ bid, n int }{{5, edgeDim + 3}, {6, edgeDim}} {
		if err := peer.Send(&transport.Msg{
			Kind: transport.KindServerModel, From: 1, Params: make([]float64, b.n), Age: 1, Bid: b.bid,
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the well-formed broadcast", 5*time.Second, func() bool { return srv.SyncsJoined() > 0 })
	requireHealthy(t, srv, conn, 1, reply, 2)
	if got := srv.SyncsJoined(); got != 1 {
		t.Fatalf("joined %d sync rounds, want 1 (the wrong-length broadcast must be dropped)", got)
	}
}

// TestEdgeRejectsNonFiniteUpdate: before the edge, one NaN in one update
// left the server model NaN for good. The transport now refuses the
// frame and closes the connection; the client may reconnect.
func TestEdgeRejectsNonFiniteUpdate(t *testing.T) {
	srv := edgeServer(t)
	for _, poison := range []struct {
		param, age float64
	}{{math.NaN(), 0}, {math.Inf(-1), 0}, {0, math.Inf(1)}} {
		conn, reply := edgeDial(t, srv, RoleClient, 2)
		bad := append([]float64(nil), reply.Params...)
		bad[3] += poison.param
		sendUpdate(t, conn, 2, bad, reply.Age+poison.age)
		if m, err := conn.Recv(); err == nil {
			t.Fatalf("connection survived a non-finite update; got %v", m.Kind)
		}
	}
	conn, reply := edgeDial(t, srv, RoleClient, 2)
	requireHealthy(t, srv, conn, 2, reply, 1)
}

// TestEdgeDropsSpoofedFrom: before the edge, a connection could submit
// updates under any client ID, not only the one it registered as.
func TestEdgeDropsSpoofedFrom(t *testing.T) {
	srv := edgeServer(t)
	conn, reply := edgeDial(t, srv, RoleClient, 1)
	sendUpdate(t, conn, 2, append([]float64(nil), reply.Params...), reply.Age)
	requireHealthy(t, srv, conn, 1, reply, 1)
	if tel := srv.Telemetry(); tel.Updates != 1 {
		t.Fatalf("telemetry counts %d updates, want 1", tel.Updates)
	}
}

// TestEdgeDropsServerFramesOnClientConn: before the edge, a client
// connection could inject tokens, server models and age announcements.
func TestEdgeDropsServerFramesOnClientConn(t *testing.T) {
	srv := edgeServer(t)
	conn, reply := edgeDial(t, srv, RoleClient, 1)
	for _, m := range []*transport.Msg{
		{Kind: transport.KindToken, From: 1, Bid: 100, Ages: []float64{1e9, 1e9}},
		{Kind: transport.KindServerModel, From: 1, Params: make([]float64, edgeDim), Age: 1e9, Bid: 7},
		{Kind: transport.KindAge, From: 1, Age: 1e9},
	} {
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	requireHealthy(t, srv, conn, 1, reply, 1)
	if srv.HoldsToken() || srv.SyncsJoined() != 0 {
		t.Fatalf("client-injected frames reached the core: token %v, joined %d",
			srv.HoldsToken(), srv.SyncsJoined())
	}
}
