package live

import (
	"fmt"
	"time"

	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/transport"
)

// Client is one live federated client: it connects to its server, and
// then loops — receive model, train on its local shard, send the update
// back — until the server tells it to shut down or the connection drops.
type Client struct {
	ID     int
	Model  fl.Model
	Shard  []int
	Epochs int

	updates int
}

// Updates reports how many local trainings this client completed.
func (c *Client) Updates() int { return c.updates }

// Run connects to serverAddr and participates until shutdown. It returns
// nil on an orderly shutdown and the transport error otherwise.
func (c *Client) Run(serverAddr string) error {
	_, err := c.runOnce(serverAddr)
	return err
}

// RunLoop participates like Run but survives server crashes: whenever the
// connection drops without an orderly KindShutdown frame, it waits retry
// and redials addrOf() — which may return a different address after the
// server restarted, or "" to skip this round. It returns after a
// shutdown frame, or once stop closes (checked between attempts).
func (c *Client) RunLoop(addrOf func() string, retry time.Duration, stop <-chan struct{}) {
	for {
		if addr := addrOf(); addr != "" {
			if shutdown, _ := c.runOnce(addr); shutdown {
				return
			}
		}
		select {
		case <-stop:
			return
		case <-time.After(retry):
		}
	}
}

// runOnce is one connection's worth of participation. shutdown reports
// whether the server ended it with an explicit KindShutdown frame — a
// dropped connection (server crash or teardown) returns false with a nil
// error, which is what lets RunLoop distinguish "redial" from "done".
func (c *Client) runOnce(serverAddr string) (shutdown bool, _ error) {
	conn, err := transport.Dial(serverAddr)
	if err != nil {
		return false, err
	}
	defer func() { _ = conn.Close() }()

	if err := conn.Send(&transport.Msg{Kind: transport.KindHello, From: c.ID, Bid: RoleClient}); err != nil {
		return false, err
	}
	// Both frames are reused across iterations: RecvInto recycles the
	// inbound Params buffer, and the outbound update serializes straight
	// from the model's parameter view — Send encodes synchronously, so the
	// borrow never outlives the call and the loop allocates nothing per
	// round.
	var in, out transport.Msg
	for {
		if err := conn.RecvInto(&in); err != nil {
			// The server closing the connection during teardown is an
			// orderly end of participation.
			return false, nil
		}
		switch in.Kind {
		case transport.KindShutdown:
			return true, nil
		case transport.KindModelReply:
			c.Model.SetParams(in.Params)
			c.Model.Train(c.Shard, c.Epochs, in.LR)
			c.updates++
			// Mint the update's causal ID at its origin — the same scheme
			// the simulator uses, so a live trace and a sim trace yield the
			// same lineage structure.
			out = transport.Msg{
				Kind:   transport.KindClientUpdate,
				From:   c.ID,
				Params: c.Model.ParamsView(),
				Age:    in.Age,
				Trace:  transport.Trace{UID: obs.UpdateUID(c.ID, int64(c.updates))},
			}
			if err := conn.Send(&out); err != nil {
				return false, nil
			}
		default:
			return false, fmt.Errorf("live: client %d got unexpected %v", c.ID, in.Kind)
		}
	}
}
