package transport

import (
	"sync"
	"testing"

	"github.com/spyker-fl/spyker/internal/obs"
)

func pipePair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	type res struct {
		c   *Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	client, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = r.c.Close()
	})
	return client, r.c
}

func TestRoundTripAllKinds(t *testing.T) {
	client, server := pipePair(t)
	msgs := []*Msg{
		{Kind: KindHello, From: 3, Bid: 1},
		{Kind: KindClientUpdate, From: 3, Params: []float64{1.5, -2.5}, Age: 7},
		{Kind: KindModelReply, From: 0, Params: []float64{0.1}, Age: 8, LR: 0.05},
		{Kind: KindServerModel, From: 1, Params: []float64{9}, Age: 100.5, Bid: 4},
		{Kind: KindAge, From: 2, Age: 55},
		{Kind: KindToken, From: 0, Bid: 9, Ages: []float64{1, 2, 3}},
		{Kind: KindShutdown, From: 0},
	}
	go func() {
		for _, m := range msgs {
			if err := client.Send(m); err != nil {
				return
			}
		}
	}()
	for _, want := range msgs {
		got, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != want.Kind || got.From != want.From || got.Age != want.Age ||
			got.LR != want.LR || got.Bid != want.Bid {
			t.Fatalf("got %+v, want %+v", got, want)
		}
		if len(got.Params) != len(want.Params) || len(got.Ages) != len(want.Ages) {
			t.Fatalf("payload lengths differ: %+v vs %+v", got, want)
		}
		for i := range want.Params {
			if got.Params[i] != want.Params[i] {
				t.Fatal("params corrupted")
			}
		}
	}
}

func TestConcurrentSendsDoNotInterleave(t *testing.T) {
	client, server := pipePair(t)
	const n = 200
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				m := &Msg{Kind: KindAge, From: g, Age: float64(i)}
				if err := client.Send(m); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	next := make(map[int]float64)
	for i := 0; i < 4*n; i++ {
		m, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind != KindAge {
			t.Fatalf("corrupted frame: %+v", m)
		}
		// Per-sender FIFO: ages from one goroutine arrive in order.
		if m.Age != next[m.From] {
			t.Fatalf("sender %d out of order: got %v want %v", m.From, m.Age, next[m.From])
		}
		next[m.From]++
	}
	wg.Wait()
}

func TestRecvAfterCloseFails(t *testing.T) {
	client, server := pipePair(t)
	_ = client.Close()
	if _, err := server.Recv(); err == nil {
		t.Error("Recv on closed peer should fail")
	}
}

func TestDialUnreachable(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dialing a closed port should fail")
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{KindHello, KindClientUpdate, KindModelReply,
		KindServerModel, KindAge, KindToken, KindShutdown,
		KindJoinRequest, KindJoinReply}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("Kind %d has empty name", int(k))
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind String")
	}
}

// TestLargeModelPayload pushes a realistic full-size model frame (100k
// float64 parameters, ~800 KB) through the framing: larger than the read
// buffer's first growth step, so the body arrives in several chunks.
func TestLargeModelPayload(t *testing.T) {
	client, server := pipePair(t)
	params := make([]float64, 100_000)
	for i := range params {
		params[i] = float64(i) * 0.001
	}
	go func() {
		_ = client.Send(&Msg{Kind: KindServerModel, From: 1, Params: params, Age: 5, Bid: 2})
	}()
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Params) != len(params) {
		t.Fatalf("payload truncated: %d of %d", len(got.Params), len(params))
	}
	for _, i := range []int{0, 1, 50_000, 99_999} {
		if got.Params[i] != params[i] {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
}

// TestMsgWireBytes pins the exact frame length: the 82-byte header, 8
// bytes per vector element, a 4-byte prefix per address, and the blob.
func TestMsgWireBytes(t *testing.T) {
	cases := []struct {
		m    Msg
		want int
	}{
		{Msg{Kind: KindHello, From: 3}, 82},
		{Msg{Kind: KindClientUpdate, Params: make([]float64, 10)}, 82 + 80},
		{Msg{Kind: KindToken, Ages: make([]float64, 4)}, 82 + 32},
		{Msg{Kind: KindServerModel, Params: make([]float64, 5), Ages: make([]float64, 2)}, 82 + 56},
		{Msg{Kind: KindServerModel, Params: make([]float64, 5),
			Trace: Trace{Front: make([]int64, 4)}}, 82 + 40 + 32},
		{Msg{Kind: KindJoinReply, Members: []int{0, 1}, Addrs: []string{"a:1", ""},
			Blob: make([]byte, 9)}, 82 + 16 + (4 + 3) + 4 + 9},
	}
	for _, c := range cases {
		if got := MsgWireBytes(&c.m); got != c.want {
			t.Errorf("MsgWireBytes(%v) = %d, want %d", c.m.Kind, got, c.want)
		}
	}
}

// TestTraceRoundTrip checks that the causal trace context survives the
// framing, that Reset clears it between decodes (no leakage from a
// traced frame into an untraced one), and that untraced frames decode
// with a zero Trace.
func TestTraceRoundTrip(t *testing.T) {
	client, server := pipePair(t)
	msgs := []*Msg{
		{Kind: KindClientUpdate, From: 3, Params: []float64{1, 2}, Age: 7,
			Trace: Trace{UID: obs.UpdateUID(3, 9)}},
		{Kind: KindServerModel, From: 1, Params: []float64{9}, Age: 5, Bid: 4,
			Trace: Trace{UID: obs.RoundUID(1, 4), Front: []int64{12, 7, 0}}},
		{Kind: KindAge, From: 2, Age: 55}, // untraced
	}
	go func() {
		for _, m := range msgs {
			if err := client.Send(m); err != nil {
				return
			}
		}
	}()
	var m Msg
	for _, want := range msgs {
		if err := server.RecvInto(&m); err != nil {
			t.Fatal(err)
		}
		if m.Trace.UID != want.Trace.UID {
			t.Fatalf("%v: trace uid = %v, want %v", want.Kind, m.Trace.UID, want.Trace.UID)
		}
		if len(m.Trace.Front) != len(want.Trace.Front) {
			t.Fatalf("%v: trace front = %v, want %v (Reset must clear it between frames)",
				want.Kind, m.Trace.Front, want.Trace.Front)
		}
		for i := range want.Trace.Front {
			if m.Trace.Front[i] != want.Trace.Front[i] {
				t.Fatalf("%v: trace front corrupted: %v", want.Kind, m.Trace.Front)
			}
		}
	}
}

func TestResetClearsTrace(t *testing.T) {
	m := Msg{
		Kind: KindServerModel, From: 1, Params: []float64{1}, Bid: 2,
		Trace: Trace{UID: obs.RoundUID(1, 2), Front: []int64{5, 5}},
	}
	m.Reset()
	if m.Trace.UID != 0 || len(m.Trace.Front) != 0 {
		t.Fatalf("Reset left trace context: %+v", m.Trace)
	}
	// The Front backing array must be retained for reuse (like Params).
	if cap(m.Trace.Front) == 0 {
		t.Fatal("Reset dropped the Front backing array")
	}
}

// TestConnStats checks that Send/Recv maintain the frame and byte
// counters symmetrically on both ends of a connection, counting exact
// frame lengths.
func TestConnStats(t *testing.T) {
	client, server := pipePair(t)
	msgs := []*Msg{
		{Kind: KindHello, From: 1},
		{Kind: KindClientUpdate, From: 1, Params: make([]float64, 16), Age: 2},
		{Kind: KindToken, From: 0, Ages: make([]float64, 3)},
	}
	const wantBytes = 82 + (82 + 8*16) + (82 + 8*3)
	for _, m := range msgs {
		if err := client.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := server.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	cs, ss := client.Stats(), server.Stats()
	if cs.FramesSent != int64(len(msgs)) || cs.BytesSent != wantBytes {
		t.Errorf("client sent stats = %+v, want %d frames / %d bytes", cs, len(msgs), wantBytes)
	}
	if ss.FramesRecv != int64(len(msgs)) || ss.BytesRecv != wantBytes {
		t.Errorf("server recv stats = %+v, want %d frames / %d bytes", ss, len(msgs), wantBytes)
	}
	if cs.FramesRecv != 0 || ss.FramesSent != 0 {
		t.Errorf("unused directions should be zero: client %+v server %+v", cs, ss)
	}
}
