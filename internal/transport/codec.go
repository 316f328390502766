// Package transport provides the authenticated reliable point-to-point
// channels the paper assumes as a primitive (§3): an in-memory transport
// for single-process clusters and a TCP transport with per-message
// HMAC-SHA256 authentication for real multi-socket deployments. Messages
// are fixed-size binary frames; tampered or replayed frames are rejected at
// the link layer, never reaching the protocol.
package transport

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"sync"
)

// Message is one protocol message: a round-stamped vote (or an explicit
// omission marker, the synchronous-round encoding of deliberate silence).
type Message struct {
	Round    int
	From, To int
	Value    float64
	Omitted  bool
	// Instance identifies which agreement instance the message belongs to
	// when many run over one mesh (the service layer's demux key). A
	// single-instance deployment leaves it 0.
	Instance uint32
	// Seq is the sender-chosen per-(round,to) sequence number used for
	// replay rejection; the protocol sends exactly one message per round
	// and destination, so Seq is 0 in normal operation. The service layer
	// stamps it with the instance registration epoch so frames from a
	// retired incarnation of a reused instance id never alias fresh ones.
	Seq uint32
}

// Frame layout (big-endian), version 2:
//
//	magic(2) version(1) flags(1) round(8) from(4) to(4) instance(4) seq(4) value(8) mac(32)
//
// Version 1 lacked the instance field; v1 frames are rejected with a typed
// *VersionError rather than silently misparsed.
const (
	frameMagic   = 0x4d42 // "MB"
	frameVersion = 2

	flagOmitted = 1 << 0

	macSize   = sha256.Size
	headerLen = 2 + 1 + 1 + 8 + 4 + 4 + 4 + 4 + 8
	// FrameSize is the fixed wire size of every message.
	FrameSize = headerLen + macSize
)

// Codec errors.
var (
	ErrShortFrame = errors.New("transport: short frame")
	ErrBadMagic   = errors.New("transport: bad magic")
	ErrBadVersion = errors.New("transport: unsupported frame version")
	ErrBadMAC     = errors.New("transport: HMAC verification failed")
	ErrBadValue   = errors.New("transport: NaN value on the wire")
)

// VersionError reports a frame whose version byte does not match the codec's.
// It wraps ErrBadVersion, so errors.Is(err, ErrBadVersion) keeps working for
// callers that only care about the class.
type VersionError struct {
	Got  byte // version byte on the wire
	Want byte // version this codec speaks
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("transport: unsupported frame version %d (want %d)", e.Got, e.Want)
}

// Unwrap ties VersionError to the ErrBadVersion sentinel.
func (e *VersionError) Unwrap() error { return ErrBadVersion }

// Codec encodes and authenticates messages with a shared symmetric key.
// The zero value is unusable; construct with NewCodec. A Codec is safe for
// concurrent use: each call borrows a keyed HMAC state from a pool and
// resets it, so the steady state allocates nothing per frame.
type Codec struct {
	key  []byte
	macs sync.Pool // *macState keyed with key
}

// macState is one keyed HMAC-SHA256 with scratch for its input and output.
// Frame bytes are copied into hdr before hashing, so neither a caller's
// buffer nor a stack array is handed to the hash.Hash interface (which
// would move it to the heap).
type macState struct {
	mac hash.Hash
	hdr [headerLen]byte
	sum [macSize]byte
}

// NewCodec returns a Codec using the given shared key. The key is copied.
// An empty key is rejected: unauthenticated channels would silently void
// the paper's model assumptions.
func NewCodec(key []byte) (*Codec, error) {
	if len(key) == 0 {
		return nil, errors.New("transport: empty authentication key")
	}
	c := &Codec{key: append([]byte(nil), key...)}
	c.macs.New = func() any { return &macState{mac: hmac.New(sha256.New, c.key)} }
	return c, nil
}

// sign writes the HMAC of a frame header into sum.
func (c *Codec) sign(header []byte, sum *[macSize]byte) {
	st := c.macs.Get().(*macState)
	copy(st.hdr[:], header)
	st.mac.Reset()
	st.mac.Write(st.hdr[:])
	st.mac.Sum(st.sum[:0])
	*sum = st.sum
	c.macs.Put(st)
}

// checkValue rejects the one message no frame may carry: a NaN vote.
func checkValue(m Message) error {
	if math.IsNaN(m.Value) && !m.Omitted {
		return ErrBadValue
	}
	return nil
}

// Encode serializes and signs a message into a new FrameSize-byte frame.
func (c *Codec) Encode(m Message) ([]byte, error) {
	frame, err := c.AppendEncode(make([]byte, 0, FrameSize), m)
	if err != nil {
		return nil, err
	}
	return frame, nil
}

// AppendEncode appends m's signed FrameSize-byte frame to dst and returns
// the extended slice; it allocates only if dst lacks the capacity. On
// error dst is returned unchanged.
func (c *Codec) AppendEncode(dst []byte, m Message) ([]byte, error) {
	if err := checkValue(m); err != nil {
		return dst, err
	}
	start := len(dst)
	dst = append(dst, make([]byte, FrameSize)...)
	buf := dst[start:]
	binary.BigEndian.PutUint16(buf[0:2], frameMagic)
	buf[2] = frameVersion
	var flags byte
	if m.Omitted {
		flags |= flagOmitted
	}
	buf[3] = flags
	binary.BigEndian.PutUint64(buf[4:12], uint64(m.Round))
	binary.BigEndian.PutUint32(buf[12:16], uint32(m.From))
	binary.BigEndian.PutUint32(buf[16:20], uint32(m.To))
	binary.BigEndian.PutUint32(buf[20:24], m.Instance)
	binary.BigEndian.PutUint32(buf[24:28], m.Seq)
	value := m.Value
	if m.Omitted {
		value = 0 // canonical encoding: omissions carry no value
	}
	binary.BigEndian.PutUint64(buf[28:36], math.Float64bits(value))
	c.sign(buf[:headerLen], (*[macSize]byte)(buf[headerLen:FrameSize]))
	return dst, nil
}

// Decode verifies and parses a frame. It allocates nothing on success or
// on a MAC failure.
func (c *Codec) Decode(frame []byte) (Message, error) {
	if len(frame) < FrameSize {
		return Message{}, fmt.Errorf("%w: %d bytes", ErrShortFrame, len(frame))
	}
	if binary.BigEndian.Uint16(frame[0:2]) != frameMagic {
		return Message{}, ErrBadMagic
	}
	if frame[2] != frameVersion {
		return Message{}, &VersionError{Got: frame[2], Want: frameVersion}
	}
	var sum [macSize]byte
	c.sign(frame[:headerLen], &sum)
	if !hmac.Equal(sum[:], frame[headerLen:FrameSize]) {
		return Message{}, ErrBadMAC
	}
	m := Message{
		Round:    int(binary.BigEndian.Uint64(frame[4:12])),
		From:     int(binary.BigEndian.Uint32(frame[12:16])),
		To:       int(binary.BigEndian.Uint32(frame[16:20])),
		Instance: binary.BigEndian.Uint32(frame[20:24]),
		Seq:      binary.BigEndian.Uint32(frame[24:28]),
		Value:    math.Float64frombits(binary.BigEndian.Uint64(frame[28:36])),
	}
	if frame[3]&flagOmitted != 0 {
		m.Omitted = true
		m.Value = 0
	}
	if math.IsNaN(m.Value) {
		return Message{}, ErrBadValue
	}
	return m, nil
}
