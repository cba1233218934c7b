package transport

import (
	"encoding/binary"
	"errors"
	"io"
	"math"

	"github.com/spyker-fl/spyker/internal/obs"
)

// Frame geometry; the byte layout is tabulated in the package doc.
const (
	frameVersion = 1
	headerLen    = 82

	// maxFrameBytes caps a whole frame (header included). Both ends
	// enforce it: Send refuses larger frames, and RecvInto rejects a
	// header claiming more before sizing any buffer from it. 64 MiB holds
	// an 8M-parameter model.
	maxFrameBytes = 64 << 20

	// bodyChunk is the first growth step of a connection's read buffer;
	// larger frames grow it by doubling as their bytes arrive.
	bodyChunk = 64 << 10
)

// Framing errors. Any of them closes the receiving connection: the
// stream can no longer be trusted to be in step.
var (
	errVersion   = errors.New("transport: unknown frame version")
	errKind      = errors.New("transport: unknown message kind")
	errTooLarge  = errors.New("transport: frame exceeds size cap")
	errSections  = errors.New("transport: section lengths disagree with frame length")
	errNonFinite = errors.New("transport: non-finite float in frame")
)

// header holds the section lengths of a validated frame header, and the
// whole frame's size.
type header struct {
	params, ages, front, members int
	addrs, addrBytes, blob, size int
}

// validKind reports whether k belongs to the message vocabulary.
func validKind(k Kind) bool { return k >= KindHello && k <= KindJoinReply }

// finite reports whether the float64 with these bits is neither NaN nor
// infinite (its exponent is not all ones).
func finite(bits uint64) bool { return bits&0x7ff0000000000000 != 0x7ff0000000000000 }

// MsgWireBytes is the exact length in bytes of m's frame on the wire,
// header included.
func MsgWireBytes(m *Msg) int {
	n := headerLen + 8*(len(m.Params)+len(m.Ages)+len(m.Trace.Front)+len(m.Members)) + len(m.Blob)
	for _, a := range m.Addrs {
		n += 4 + len(a)
	}
	return n
}

// encode writes m's frame into b, which is exactly MsgWireBytes(m) long.
func encode(b []byte, m *Msg) {
	le := binary.LittleEndian
	addrBytes := 0
	for _, a := range m.Addrs {
		addrBytes += 4 + len(a)
	}
	le.PutUint32(b[0:], uint32(len(b)-4))
	b[4] = frameVersion
	b[5] = byte(m.Kind)
	le.PutUint64(b[6:], uint64(m.From))
	le.PutUint64(b[14:], math.Float64bits(m.Age))
	le.PutUint64(b[22:], math.Float64bits(m.LR))
	le.PutUint64(b[30:], uint64(m.Bid))
	le.PutUint64(b[38:], uint64(m.Epoch))
	le.PutUint64(b[46:], uint64(m.Trace.UID))
	le.PutUint32(b[54:], uint32(len(m.Params)))
	le.PutUint32(b[58:], uint32(len(m.Ages)))
	le.PutUint32(b[62:], uint32(len(m.Trace.Front)))
	le.PutUint32(b[66:], uint32(len(m.Members)))
	le.PutUint32(b[70:], uint32(len(m.Addrs)))
	le.PutUint32(b[74:], uint32(addrBytes))
	le.PutUint32(b[78:], uint32(len(m.Blob)))
	p := b[headerLen:]
	for _, x := range m.Params {
		le.PutUint64(p, math.Float64bits(x))
		p = p[8:]
	}
	for _, x := range m.Ages {
		le.PutUint64(p, math.Float64bits(x))
		p = p[8:]
	}
	for _, x := range m.Trace.Front {
		le.PutUint64(p, uint64(x))
		p = p[8:]
	}
	for _, x := range m.Members {
		le.PutUint64(p, uint64(x))
		p = p[8:]
	}
	for _, a := range m.Addrs {
		le.PutUint32(p, uint32(len(a)))
		p = p[4+copy(p[4:], a):]
	}
	copy(p, m.Blob)
}

// parseHeader validates a frame header — version, kind, the size cap,
// finite Age and LR, and section lengths adding up to exactly the
// announced frame size — and stores its scalar fields into m. It reads
// nothing past b[:headerLen] and sizes nothing.
func parseHeader(m *Msg, b []byte) (header, error) {
	le := binary.LittleEndian
	var h header
	if b[4] != frameVersion {
		return h, errVersion
	}
	if !validKind(Kind(b[5])) {
		return h, errKind
	}
	size := uint64(le.Uint32(b[0:])) + 4
	if size > maxFrameBytes {
		return h, errTooLarge
	}
	ageBits, lrBits := le.Uint64(b[14:]), le.Uint64(b[22:])
	if !finite(ageBits) || !finite(lrBits) {
		return h, errNonFinite
	}
	params, ages := uint64(le.Uint32(b[54:])), uint64(le.Uint32(b[58:]))
	front, members := uint64(le.Uint32(b[62:])), uint64(le.Uint32(b[66:]))
	addrs, addrBytes := uint64(le.Uint32(b[70:])), uint64(le.Uint32(b[74:]))
	blob := uint64(le.Uint32(b[78:]))
	if headerLen+8*(params+ages+front+members)+addrBytes+blob != size || addrBytes < 4*addrs {
		return h, errSections
	}
	h.params, h.ages, h.front, h.members = int(params), int(ages), int(front), int(members)
	h.addrs, h.addrBytes, h.blob, h.size = int(addrs), int(addrBytes), int(blob), int(size)
	m.Kind = Kind(b[5])
	m.From = int(int64(le.Uint64(b[6:])))
	m.Age = math.Float64frombits(ageBits)
	m.LR = math.Float64frombits(lrBits)
	m.Bid = int(int64(le.Uint64(b[30:])))
	m.Epoch = int(int64(le.Uint64(b[38:])))
	m.Trace.UID = obs.UID(le.Uint64(b[46:]))
	return h, nil
}

// decodeBody fills m's vector sections from the frame body (the frame
// after its header), as sized by the validated header h. Params and Trace.Front
// reuse m's backing arrays; Ages, Members, Addrs and Blob are freshly
// allocated, because receivers retain them past the next decode.
func decodeBody(m *Msg, h *header, body []byte) error {
	le := binary.LittleEndian
	var ok bool
	if m.Params, ok = getFloats(m.Params, body[:8*h.params]); !ok {
		return errNonFinite
	}
	body = body[8*h.params:]
	if m.Ages, ok = getFloats(nil, body[:8*h.ages]); !ok {
		return errNonFinite
	}
	body = body[8*h.ages:]
	m.Trace.Front = grow(m.Trace.Front, h.front)
	for i := range m.Trace.Front {
		m.Trace.Front[i] = int64(le.Uint64(body[8*i:]))
	}
	body = body[8*h.front:]
	if h.members > 0 {
		m.Members = make([]int, h.members)
		for i := range m.Members {
			m.Members[i] = int(int64(le.Uint64(body[8*i:])))
		}
	}
	body = body[8*h.members:]
	addrs := body[:h.addrBytes]
	if h.addrs > 0 {
		m.Addrs = make([]string, h.addrs)
		for i := range m.Addrs {
			if len(addrs) < 4 {
				return errSections
			}
			n := uint64(le.Uint32(addrs))
			if n > uint64(len(addrs)-4) {
				return errSections
			}
			m.Addrs[i] = string(addrs[4 : 4+n])
			addrs = addrs[4+n:]
		}
	}
	if len(addrs) != 0 {
		return errSections
	}
	if h.blob > 0 {
		m.Blob = append([]byte(nil), body[h.addrBytes:]...)
	}
	return nil
}

// getFloats decodes len(b)/8 little-endian float64s into dst's backing
// array (grown if too small); ok is false if any value is non-finite.
func getFloats(dst []float64, b []byte) (_ []float64, ok bool) {
	dst = grow(dst, len(b)/8)
	for i := range dst {
		bits := binary.LittleEndian.Uint64(b[8*i:])
		if !finite(bits) {
			return dst, false
		}
		dst[i] = math.Float64frombits(bits)
	}
	return dst, true
}

// readBody reads the n-byte frame body from r into buf's backing array.
// When the frame is larger than buf, the buffer grows by doubling as the
// body's bytes arrive, so a peer announcing a large frame and sending
// little of it cannot make the receiver reserve the whole claim.
func readBody(r io.Reader, buf []byte, n int) ([]byte, error) {
	have := 0
	for {
		end := n
		if end > cap(buf) {
			end = max(2*cap(buf), bodyChunk)
			end = min(end, n)
			buf = grow(buf[:have], end)
		}
		buf = buf[:end]
		if _, err := io.ReadFull(r, buf[have:end]); err != nil {
			return buf[:0], err
		}
		if end == n {
			return buf, nil
		}
		have = end
	}
}

// grow returns a slice of length n that starts with s's contents,
// reusing s's array when it is large enough. Growth is the only
// allocation on the steady-state frame paths and happens once per new
// high-water mark; keeping it out of line pins the allocation here for
// the escape gate instead of inside Send/RecvInto.
//
//go:noinline
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	ns := make([]T, n)
	copy(ns, s)
	return ns
}
