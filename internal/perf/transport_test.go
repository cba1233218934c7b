package perf

import "testing"

// TestCodecRoundtripZeroAlloc pins the transport/codec-roundtrip
// scenario at 0 allocs/op: a steady-state Send plus RecvInto of a
// model-sized frame reuses the connection's buffers and the Msg.
func TestCodecRoundtripZeroAlloc(t *testing.T) {
	inst, err := codecRoundtrip()
	if err != nil {
		t.Fatal(err)
	}
	inst.Step() // first frame grows the buffers
	if allocs := testing.AllocsPerRun(100, inst.Step); allocs != 0 {
		t.Fatalf("transport/codec-roundtrip: %.1f allocs/op, want 0", allocs)
	}
}
