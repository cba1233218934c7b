package perf

import (
	"fmt"
	"math/rand"

	"github.com/spyker-fl/spyker/internal/live"
	"github.com/spyker-fl/spyker/internal/spyker"
	"github.com/spyker-fl/spyker/internal/transport"
)

func init() {
	// Full client-update round trip over real TCP: frame-encode a
	// model-sized update, cross the loopback socket, dispatch through the
	// server's read loop and mutex-serialized core, aggregate, and
	// receive the pooled model reply. This is the live runtime's
	// end-to-end hot path; per-op allocations are process-wide (they
	// include the server goroutines serving the request).
	//
	// Deliberately not in the smoke subset: loopback TCP round trips are
	// the most scheduler-sensitive timing in the suite, and the CI gate
	// wants low-variance scenarios.
	Register(Scenario{
		Name:  "live/update-roundtrip",
		Layer: LayerLive,
		Setup: func() (Instance, error) {
			cfg := spyker.Config{
				ID: 0, NumServers: 1, NumClients: 1,
				EtaServer: 0.6, Phi: 1.5, EtaA: 0.6,
				HInter: 1e18, HIntra: 1e18,
				ClientLR: 0.05,
			}
			rng := rand.New(rand.NewSource(9))
			initial := randVec(rng, modelDim)
			srv, err := live.NewServer(0, "127.0.0.1:0", cfg, initial, true)
			if err != nil {
				return Instance{}, err
			}
			conn, err := transport.Dial(srv.Addr())
			if err != nil {
				srv.Close()
				return Instance{}, err
			}
			cleanup := func() {
				_ = conn.Close()
				srv.Close()
			}
			if err := conn.Send(&transport.Msg{
				Kind: transport.KindHello, From: 0, Bid: live.RoleClient,
			}); err != nil {
				cleanup()
				return Instance{}, err
			}
			// Registration hands back the initial model; consume it so
			// the timed loop starts from a quiet connection.
			var reply transport.Msg
			if err := conn.RecvInto(&reply); err != nil {
				cleanup()
				return Instance{}, err
			}
			if reply.Kind != transport.KindModelReply {
				cleanup()
				return Instance{}, fmt.Errorf("handshake reply kind %v", reply.Kind)
			}

			update := randVec(rng, modelDim)
			age := 0.0
			rtts := 0
			return Instance{
				Step: func() {
					if err := conn.Send(&transport.Msg{
						Kind: transport.KindClientUpdate, From: 0,
						Params: update, Age: age,
					}); err != nil {
						panic(fmt.Sprintf("perf: live send: %v", err))
					}
					if err := conn.RecvInto(&reply); err != nil {
						panic(fmt.Sprintf("perf: live recv: %v", err))
					}
					age = reply.Age
					rtts++
				},
				Extras: func() map[string]float64 {
					st := conn.Stats()
					return map[string]float64{
						"round_trips": float64(rtts),
						"wire_bytes_per_rtt": float64(st.BytesSent+st.BytesRecv) /
							float64(st.FramesSent),
					}
				},
				Cleanup: cleanup,
			}, nil
		},
	})
}
