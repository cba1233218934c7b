package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"testing"

	"github.com/spyker-fl/spyker/internal/obs"
)

// memConn is an in-memory net.Conn whose reads return what was written
// to it, so codec tests drive the real Send/RecvInto paths without a
// socket. The embedded nil net.Conn leaves the address and deadline
// methods unimplemented; the codec never calls them.
type memConn struct {
	net.Conn
	buf    bytes.Buffer
	closed bool
}

func (c *memConn) Read(p []byte) (int, error)  { return c.buf.Read(p) }
func (c *memConn) Write(p []byte) (int, error) { return c.buf.Write(p) }
func (c *memConn) Close() error                { c.closed = true; return nil }

// frameOf returns m's encoded frame, as Send writes it.
func frameOf(t testing.TB, m *Msg) []byte {
	t.Helper()
	mc := &memConn{}
	if err := NewConn(mc).Send(m); err != nil {
		t.Fatal(err)
	}
	return mc.buf.Bytes()
}

// randMsg fills every field of a kind-k message with random content;
// vector lengths include zero so empty sections are covered too.
func randMsg(rng *rand.Rand, k Kind) *Msg {
	floats := func() []float64 {
		v := make([]float64, rng.Intn(6))
		for i := range v {
			switch rng.Intn(4) {
			case 0:
				v[i] = math.Copysign(0, -1)
			case 1:
				v[i] = math.MaxFloat64 * (rng.Float64() - 0.5)
			default:
				v[i] = rng.NormFloat64()
			}
		}
		return v
	}
	m := &Msg{
		Kind: k, From: rng.Intn(1000) - 500, Params: floats(),
		Age: rng.NormFloat64() * 1e6, LR: rng.Float64(), Bid: rng.Intn(1 << 40),
		Ages:  floats(),
		Trace: Trace{UID: obs.UID(rng.Int63() - rng.Int63())},
		Epoch: rng.Intn(50),
	}
	for i := rng.Intn(4); i > 0; i-- {
		m.Trace.Front = append(m.Trace.Front, rng.Int63()-rng.Int63())
		m.Members = append(m.Members, rng.Intn(1<<20)-5)
	}
	for i := rng.Intn(4); i > 0; i-- {
		a := make([]byte, rng.Intn(24))
		rng.Read(a)
		m.Addrs = append(m.Addrs, string(a))
	}
	if rng.Intn(2) == 0 {
		m.Blob = make([]byte, rng.Intn(300))
		rng.Read(m.Blob)
	}
	return m
}

// canon maps empty slices to nil: the wire cannot tell them apart.
func canon(m Msg) Msg {
	if len(m.Params) == 0 {
		m.Params = nil
	}
	if len(m.Ages) == 0 {
		m.Ages = nil
	}
	if len(m.Trace.Front) == 0 {
		m.Trace.Front = nil
	}
	if len(m.Members) == 0 {
		m.Members = nil
	}
	if len(m.Addrs) == 0 {
		m.Addrs = nil
	}
	if len(m.Blob) == 0 {
		m.Blob = nil
	}
	return m
}

// TestCodecRoundTripProperty sends random messages of every kind, with
// every field populated, through one connection and decodes them into
// one reused Msg: each must come back field-for-field identical (floats
// bit-for-bit, -0 included), and its frame must be exactly
// MsgWireBytes long.
func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mc := &memConn{}
	c := NewConn(mc)
	var got Msg
	for iter := 0; iter < 200; iter++ {
		for k := KindHello; k <= KindJoinReply; k++ {
			want := randMsg(rng, k)
			if err := c.Send(want); err != nil {
				t.Fatal(err)
			}
			if n := mc.buf.Len(); n != MsgWireBytes(want) {
				t.Fatalf("%v: frame is %d bytes, MsgWireBytes says %d", k, n, MsgWireBytes(want))
			}
			if err := c.RecvInto(&got); err != nil {
				t.Fatalf("%v: %v", k, err)
			}
			g, w := canon(got), canon(*want)
			for i := range w.Params {
				if math.Float64bits(g.Params[i]) != math.Float64bits(w.Params[i]) {
					t.Fatalf("%v: param %d bits differ", k, i)
				}
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%v round trip:\n got %+v\nwant %+v", k, g, w)
			}
		}
	}
	if st := c.Stats(); st.BytesSent != st.BytesRecv || st.FramesSent != st.FramesRecv {
		t.Fatalf("asymmetric stats over a loopback: %+v", st)
	}
}

// TestDecodeKeepsRetainedSlices pins the Reset contract receivers rely
// on: Ages, Members, Addrs and Blob taken from one decode survive the
// next decode into the same Msg (spyker.ServerCore.HandleToken stores
// the token's slices), while Params keeps one reused array.
func TestDecodeKeepsRetainedSlices(t *testing.T) {
	mc := &memConn{}
	c := NewConn(mc)
	first := &Msg{Kind: KindToken, From: 1, Bid: 3, Params: []float64{1, 2},
		Ages: []float64{4, 5}, Members: []int{0, 1}, Addrs: []string{"a:1", "b:2"},
		Blob: []byte("snap")}
	second := &Msg{Kind: KindToken, From: 2, Bid: 4, Params: []float64{7, 8},
		Ages: []float64{9, 9}, Members: []int{8, 8}, Addrs: []string{"x:9", "y:9"},
		Blob: []byte("XXXX")}
	var m Msg
	if err := c.Send(first); err != nil {
		t.Fatal(err)
	}
	if err := c.RecvInto(&m); err != nil {
		t.Fatal(err)
	}
	ages, members, addrs, blob, params := m.Ages, m.Members, m.Addrs, m.Blob, m.Params
	if err := c.Send(second); err != nil {
		t.Fatal(err)
	}
	if err := c.RecvInto(&m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ages, first.Ages) || !reflect.DeepEqual(members, first.Members) ||
		!reflect.DeepEqual(addrs, first.Addrs) || !bytes.Equal(blob, first.Blob) {
		t.Fatalf("retained slices overwritten by the next decode: %v %v %v %q", ages, members, addrs, blob)
	}
	if !reflect.DeepEqual(m.Ages, second.Ages) || !reflect.DeepEqual(m.Members, second.Members) {
		t.Fatalf("second decode wrong: %+v", m)
	}
	if &m.Params[0] != &params[0] {
		t.Fatal("Params backing array was not reused across decodes")
	}
}

// header field offsets, for the corruption cases below.
const (
	offSize, offVersion, offKind, offAge, offLR = 0, 4, 5, 14, 22
	offNParams, offNAddrs, offAddrBytes         = 54, 70, 74
)

// TestDecodeRejects corrupts a valid frame one way at a time: every
// corruption must be refused with its framing error, close the
// connection, and size no buffer from an oversized claim.
func TestDecodeRejects(t *testing.T) {
	valid := &Msg{Kind: KindServerModel, From: 1, Params: []float64{1, 2, 3},
		Age: 4, LR: 0.5, Ages: []float64{1, 1}, Members: []int{0, 1},
		Addrs: []string{"a:1", "b:2"}}
	nan := math.Float64bits(math.NaN())
	inf := math.Float64bits(math.Inf(1))
	le := binary.LittleEndian
	cases := []struct {
		name    string
		corrupt func(b []byte)
		want    error
	}{
		{"version", func(b []byte) { b[offVersion] = 2 }, errVersion},
		{"kind zero", func(b []byte) { b[offKind] = 0 }, errKind},
		{"kind unknown", func(b []byte) { b[offKind] = byte(KindJoinReply) + 1 }, errKind},
		{"over cap", func(b []byte) { le.PutUint32(b[offSize:], maxFrameBytes) }, errTooLarge},
		{"size disagrees", func(b []byte) { le.PutUint32(b[offSize:], le.Uint32(b[offSize:])+8) }, errSections},
		{"params count", func(b []byte) { le.PutUint32(b[offNParams:], 4) }, errSections},
		{"addr count", func(b []byte) { le.PutUint32(b[offNAddrs:], 5) }, errSections},
		{"addr length", func(b []byte) { le.PutUint32(b[headerLen+8*7:], 200) }, errSections},
		{"addr bytes short", func(b []byte) { le.PutUint32(b[offAddrBytes:], 6) }, errSections},
		{"nan param", func(b []byte) { le.PutUint64(b[headerLen+8:], nan) }, errNonFinite},
		{"inf param", func(b []byte) { le.PutUint64(b[headerLen:], inf) }, errNonFinite},
		{"nan age vector", func(b []byte) { le.PutUint64(b[headerLen+8*3:], nan) }, errNonFinite},
		{"inf age", func(b []byte) { le.PutUint64(b[offAge:], inf) }, errNonFinite},
		{"nan lr", func(b []byte) { le.PutUint64(b[offLR:], nan) }, errNonFinite},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := frameOf(t, valid)
			tc.corrupt(b)
			mc := &memConn{}
			mc.buf.Write(b)
			c := NewConn(mc)
			var m Msg
			if err := c.RecvInto(&m); !errors.Is(err, tc.want) {
				t.Fatalf("RecvInto = %v, want %v", err, tc.want)
			}
			if !mc.closed {
				t.Fatal("framing error left the connection open")
			}
			if cap(c.rbuf) > len(b) {
				t.Fatalf("read buffer grew to %d for a %d-byte frame", cap(c.rbuf), len(b))
			}
		})
	}
}

// TestSendRejectsUnknownKind: a kind outside the vocabulary would be
// refused by every receiver, so Send refuses it up front.
func TestSendRejectsUnknownKind(t *testing.T) {
	mc := &memConn{}
	if err := NewConn(mc).Send(&Msg{Kind: 0}); !errors.Is(err, errKind) {
		t.Fatalf("Send(kind 0) = %v, want %v", err, errKind)
	}
	if mc.buf.Len() != 0 {
		t.Fatal("refused frame was written")
	}
}

// TestLyingSizeDoesNotReserveClaim: a header announcing a frame just
// under the cap, followed by a few bytes and EOF, grows the read buffer
// only in step with the bytes that actually arrived.
func TestLyingSizeDoesNotReserveClaim(t *testing.T) {
	b := frameOf(t, &Msg{Kind: KindClientUpdate, Params: make([]float64, 1)})
	params := (maxFrameBytes - headerLen) / 8
	binary.LittleEndian.PutUint32(b[offSize:], uint32(headerLen+8*params-4))
	binary.LittleEndian.PutUint32(b[offNParams:], uint32(params))
	mc := &memConn{}
	mc.buf.Write(b)
	c := NewConn(mc)
	var m Msg
	if err := c.RecvInto(&m); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("RecvInto = %v, want unexpected EOF", err)
	}
	if cap(c.rbuf) > bodyChunk {
		t.Fatalf("read buffer grew to %d bytes on a %d-byte stream", cap(c.rbuf), len(b))
	}
}

// TestRejectClosesTCPConnection: over a real socket, the peer of a
// connection that received a malformed frame observes the close.
func TestRejectClosesTCPConnection(t *testing.T) {
	client, server := pipePair(t)
	b := frameOf(t, &Msg{Kind: KindClientUpdate, From: 1, Params: []float64{1}})
	binary.LittleEndian.PutUint64(b[headerLen:], math.Float64bits(math.NaN()))
	if _, err := client.raw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := server.RecvInto(&Msg{}); !errors.Is(err, errNonFinite) {
		t.Fatalf("RecvInto = %v, want %v", err, errNonFinite)
	}
	if _, err := client.Recv(); err == nil {
		t.Fatal("peer still readable after the receiver rejected its frame")
	}
}

// FuzzDecode feeds arbitrary byte streams to a connection's receive
// path. Decoding must never panic; the read buffer may grow only in step
// with the bytes that arrived (never towards a merely claimed size); and
// every accepted frame must re-encode to exactly the bytes it came from.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		mc := &readerConn{r: r}
		c := NewConn(mc)
		var m Msg
		for {
			start := len(data) - r.Len()
			err := c.RecvInto(&m)
			if cap(c.rbuf) > max(bodyChunk, 2*len(data)) {
				t.Fatalf("read buffer grew to %d on a %d-byte stream", cap(c.rbuf), len(data))
			}
			if err != nil {
				return
			}
			frame := data[start : len(data)-r.Len()]
			if got := frameOf(t, &m); !bytes.Equal(got, frame) {
				t.Fatalf("accepted frame re-encodes differently:\n in %x\nout %x", frame, got)
			}
		}
	})
}

// readerConn is a read-only net.Conn over an io.Reader.
type readerConn struct {
	net.Conn
	r io.Reader
}

func (c *readerConn) Read(p []byte) (int, error) { return c.r.Read(p) }
func (c *readerConn) Close() error               { return nil }
