package perf

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"

	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/transport"
)

// loopConn is an in-memory net.Conn whose reads return what was written
// to it: a socket-free loopback, so a scenario times the frame codec and
// nothing of the kernel's TCP path. The embedded nil net.Conn leaves the
// address and deadline methods unimplemented; the codec never calls
// them.
type loopConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *loopConn) Read(p []byte) (int, error)  { return c.buf.Read(p) }
func (c *loopConn) Write(p []byte) (int, error) { return c.buf.Write(p) }
func (c *loopConn) Close() error                { return nil }

// codecRoundtrip builds the transport/codec-roundtrip step: one
// model-sized client update sent through a Conn and received back into a
// reused Msg. Once the connection's frame buffers and the Msg have grown
// to the frame, a step allocates nothing.
func codecRoundtrip() (Instance, error) {
	rng := rand.New(rand.NewSource(11))
	update := &transport.Msg{
		Kind: transport.KindClientUpdate, From: 3,
		Params: randVec(rng, modelDim), Age: 42,
		Trace: transport.Trace{UID: obs.UpdateUID(3, 1)},
	}
	conn := transport.NewConn(&loopConn{})
	var in transport.Msg
	return Instance{
		Step: func() {
			if err := conn.Send(update); err != nil {
				panic(fmt.Sprintf("perf: codec send: %v", err))
			}
			if err := conn.RecvInto(&in); err != nil {
				panic(fmt.Sprintf("perf: codec recv: %v", err))
			}
		},
		Extras: func() map[string]float64 {
			return map[string]float64{"frame_bytes": float64(transport.MsgWireBytes(update))}
		},
	}, nil
}

func init() {
	// Encode plus decode of a model-sized update through transport.Conn
	// over an in-memory loopback: the codec half of
	// live/update-roundtrip, without the socket and the server. Not in
	// the smoke subset, so the CI gate and its baseline are unchanged.
	Register(Scenario{
		Name:  "transport/codec-roundtrip",
		Layer: LayerTransport,
		Setup: codecRoundtrip,
	})
}
