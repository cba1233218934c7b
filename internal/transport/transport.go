// Package transport implements the wire protocol of the live (non
// simulated) Spyker runtime: length-prefixed binary frames over TCP. It
// carries exactly the message vocabulary of the Spyker protocol — client
// updates, model replies, server-model broadcasts, age announcements, the
// token, and the elastic-membership join handshake.
//
// # Frame layout
//
// A frame is a fixed 82-byte header followed by the variable sections the
// header sizes. Integers are little-endian; floats travel as their
// IEEE-754 bits, little-endian.
//
//	offset  size  field
//	     0     4  size: bytes after this word (header rest + sections)
//	     4     1  version (1)
//	     5     1  Kind
//	     6     8  From              int64
//	    14     8  Age               float64
//	    22     8  LR                float64
//	    30     8  Bid               int64
//	    38     8  Epoch             int64
//	    46     8  Trace.UID         int64
//	    54     4  len(Params)       float64 count
//	    58     4  len(Ages)         float64 count
//	    62     4  len(Trace.Front)  int64 count
//	    66     4  len(Members)      int64 count
//	    70     4  len(Addrs)        entry count
//	    74     4  Addrs section     byte count
//	    78     4  len(Blob)         byte count
//	    82        Params, Ages, Trace.Front, Members (8 bytes per element),
//	              Addrs (per entry: u32 length, then the bytes), Blob
//
// The receiving Conn is the validation edge for everything a frame can
// get wrong by itself: an unknown version or kind, a size over the 64 MiB
// frame cap (checked before any buffer is sized from it), section
// lengths that do not add up to the frame size, and non-finite floats in
// Params, Ages, Age or LR. Any of these closes the connection. Checks that
// need protocol state (model dimension, sender identity, which kinds a
// connection may carry) belong to the receiver, internal/live.
package transport

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"github.com/spyker-fl/spyker/internal/obs"
)

// Kind discriminates protocol messages.
type Kind int

// Protocol message kinds.
const (
	// KindHello registers a client with its server (From = client ID).
	KindHello Kind = iota + 1
	// KindClientUpdate carries a trained model from client to server.
	KindClientUpdate
	// KindModelReply carries the new server model back to a client.
	KindModelReply
	// KindServerModel is a server-to-server model broadcast.
	KindServerModel
	// KindAge announces a server's model age.
	KindAge
	// KindToken passes the synchronization token.
	KindToken
	// KindShutdown tells a client to stop training and disconnect.
	KindShutdown
	// KindJoinRequest asks a running server to sponsor the sender into
	// the ring (From is unset; Addrs[0] is the joiner's listen address).
	KindJoinRequest
	// KindJoinReply answers a join request: Bid carries the assigned
	// server ID, Epoch/Members/Addrs the post-admission membership and
	// address book, and Blob a gob-encoded spyker.State snapshot re-keyed
	// for the newcomer.
	KindJoinReply
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindClientUpdate:
		return "client-update"
	case KindModelReply:
		return "model-reply"
	case KindServerModel:
		return "server-model"
	case KindAge:
		return "age"
	case KindToken:
		return "token"
	case KindShutdown:
		return "shutdown"
	case KindJoinRequest:
		return "join-request"
	case KindJoinReply:
		return "join-reply"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Trace is the causal provenance context riding on a frame. UID identifies
// the client update (KindClientUpdate) or sync-round broadcast
// (KindServerModel, KindToken) the frame carries; Front is the sender's
// merged-updates frontier snapshot (KindServerModel only). A zero Trace is
// "untraced".
type Trace struct {
	UID   obs.UID
	Front []int64
}

// Msg is one protocol frame. Which fields are meaningful depends on Kind.
type Msg struct {
	Kind   Kind
	From   int       // sender ID (client or server, per Kind)
	Params []float64 // model parameters
	Age    float64   // model age
	LR     float64   // next client learning rate (KindModelReply)
	Bid    int       // synchronization ID (KindServerModel, KindToken)
	Ages   []float64 // token age vector (KindToken)
	Trace  Trace     // causal provenance context (optional)

	// Elastic-membership header. Epoch/Members version the sender's view
	// of the server ring (server-to-server kinds); Addrs carries the
	// sender's address book aligned with Members so receivers can dial
	// newly admitted peers; Blob is an opaque payload (KindJoinReply
	// carries a gob-encoded state snapshot in it).
	Epoch   int
	Members []int
	Addrs   []string
	Blob    []byte
}

// Reset clears the message for reuse as a receive target. Params and
// Trace.Front keep their backing arrays (truncated to length 0), so
// repeated decodes on a connection reuse one buffer each: receivers
// consume both before the next decode. Ages, Members, Addrs and Blob are
// dropped instead, and every decode allocates them afresh, because
// receivers retain them past the frame — spyker.ServerCore.HandleToken
// stores the token's Ages and Members, and the address book and join
// snapshot outlive it — so a later decode must never write into them.
func (m *Msg) Reset() {
	m.Kind = 0
	m.From = 0
	m.Params = m.Params[:0]
	m.Age = 0
	m.LR = 0
	m.Bid = 0
	m.Ages = nil
	m.Trace.UID = 0
	m.Trace.Front = m.Trace.Front[:0]
	m.Epoch = 0
	m.Members = nil
	m.Addrs = nil
	m.Blob = nil
}

// ConnStats is a snapshot of a connection's frame and byte accounting.
// Bytes are whole frame lengths (MsgWireBytes), which is every byte the
// connection writes or reads.
type ConnStats struct {
	FramesSent, FramesRecv int64
	BytesSent, BytesRecv   int64
}

// Sender is the writable half of a connection — what outboxes and fault
// injectors need. *Conn implements it; internal/fault wraps one to
// interpose drop/delay/sever faults between a server and the wire.
type Sender interface {
	Send(m *Msg) error
	Close() error
}

// Conn is a framed connection. Send is safe for concurrent use; Recv and
// RecvInto must be driven from a single reader goroutine. Each direction
// owns one reused frame buffer, grown to the largest frame seen.
type Conn struct {
	raw  net.Conn
	mu   sync.Mutex
	wbuf []byte //spyker:guardedby(mu)

	// Reader-goroutine state: the header of the frame being read and the
	// body buffer.
	hdr  [headerLen]byte
	rbuf []byte

	framesSent, framesRecv atomic.Int64
	bytesSent, bytesRecv   atomic.Int64
}

// NewConn wraps an established net.Conn.
func NewConn(raw net.Conn) *Conn { return &Conn{raw: raw} }

// Dial connects to addr over TCP.
func Dial(addr string) (*Conn, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewConn(raw), nil
}

// Send encodes m into the connection's frame buffer and writes the frame
// with a single Write. m is only read during the call, so callers may
// reuse or return its slices once Send returns.
//
//spyker:noalloc
func (c *Conn) Send(m *Msg) error {
	n := MsgWireBytes(m)
	if !validKind(m.Kind) {
		return sendError(m.Kind, errKind)
	}
	if n > maxFrameBytes {
		return sendError(m.Kind, errTooLarge)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wbuf = grow(c.wbuf, n)
	encode(c.wbuf, m)
	if _, err := c.raw.Write(c.wbuf); err != nil {
		return sendError(m.Kind, err)
	}
	c.framesSent.Add(1)
	c.bytesSent.Add(int64(n))
	return nil
}

// sendError names the frame kind a failed Send was writing. Out of line
// so its allocation stays off Send's escape-gated body.
//
//go:noinline
func sendError(k Kind, err error) error {
	return fmt.Errorf("transport: send %v: %w", k, err)
}

// Recv decodes the next message into a fresh Msg.
func (c *Conn) Recv() (*Msg, error) {
	var m Msg
	if err := c.RecvInto(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// RecvInto reads the next frame into m. m is Reset first, so any Msg
// (including one holding a previous frame) is a valid target, and its
// Params and Trace.Front arrays are reused when large enough: a
// long-lived reader loop decoding same-sized frames allocates nothing.
// A frame that fails validation closes the connection and returns the
// framing error; I/O errors are returned as they are. After an error m
// holds no usable frame.
//
//spyker:noalloc
func (c *Conn) RecvInto(m *Msg) error {
	m.Reset()
	if _, err := io.ReadFull(c.raw, c.hdr[:]); err != nil {
		return err
	}
	h, err := parseHeader(m, c.hdr[:])
	if err != nil {
		return c.reject(err)
	}
	c.rbuf, err = readBody(c.raw, c.rbuf, h.size-headerLen)
	if err != nil {
		return err
	}
	if err := decodeBody(m, &h, c.rbuf); err != nil {
		return c.reject(err)
	}
	c.framesRecv.Add(1)
	c.bytesRecv.Add(int64(h.size))
	return nil
}

// reject closes the connection after a framing error and returns it.
func (c *Conn) reject(err error) error {
	_ = c.raw.Close()
	return err
}

// Stats reports the connection's cumulative frame/byte accounting. Safe
// for concurrent use with Send and Recv.
func (c *Conn) Stats() ConnStats {
	return ConnStats{
		FramesSent: c.framesSent.Load(),
		FramesRecv: c.framesRecv.Load(),
		BytesSent:  c.bytesSent.Load(),
		BytesRecv:  c.bytesRecv.Load(),
	}
}

// Close closes the underlying connection; pending Recv calls fail.
func (c *Conn) Close() error { return c.raw.Close() }

// RemoteAddr reports the peer address.
func (c *Conn) RemoteAddr() string { return c.raw.RemoteAddr().String() }

// Listener accepts framed connections.
type Listener struct {
	l net.Listener
}

// Listen opens a TCP listener on addr ("127.0.0.1:0" for an ephemeral
// test port).
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Listener{l: l}, nil
}

// Addr reports the bound address.
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Accept waits for the next connection.
func (l *Listener) Accept() (*Conn, error) {
	raw, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return NewConn(raw), nil
}

// Close stops the listener; pending Accept calls fail.
func (l *Listener) Close() error { return l.l.Close() }
