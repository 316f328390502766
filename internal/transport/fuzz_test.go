package transport

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// refDecode is a one-shot reference for Codec.Decode: the same checks in
// the same order (length, magic, version, MAC, NaN), with a fresh
// hmac.New per call instead of a pooled, reset state.
func refDecode(key, frame []byte) (Message, error) {
	if len(frame) < FrameSize {
		return Message{}, ErrShortFrame
	}
	if binary.BigEndian.Uint16(frame) != frameMagic {
		return Message{}, ErrBadMagic
	}
	if frame[2] != frameVersion {
		return Message{}, ErrBadVersion
	}
	mac := hmac.New(sha256.New, key)
	mac.Write(frame[:headerLen])
	if !hmac.Equal(mac.Sum(nil), frame[headerLen:FrameSize]) {
		return Message{}, ErrBadMAC
	}
	m := Message{
		Round:    int(binary.BigEndian.Uint64(frame[4:])),
		From:     int(binary.BigEndian.Uint32(frame[12:])),
		To:       int(binary.BigEndian.Uint32(frame[16:])),
		Instance: binary.BigEndian.Uint32(frame[20:]),
		Seq:      binary.BigEndian.Uint32(frame[24:]),
		Value:    math.Float64frombits(binary.BigEndian.Uint64(frame[28:])),
		Omitted:  frame[3]&flagOmitted != 0,
	}
	if m.Omitted {
		m.Value = 0
	}
	if math.IsNaN(m.Value) {
		return Message{}, ErrBadValue
	}
	return m, nil
}

// FuzzDecode feeds arbitrary bytes to the frame decoder: it must never
// panic, it must agree with the one-shot reference decoder on every input —
// decoded twice in a row, so HMAC state leaking from one frame into the
// next fails — and whatever it accepts must re-encode to the identical
// frame (decode∘encode is the identity on valid frames).
func FuzzDecode(f *testing.F) {
	key := []byte("fuzz-key")
	codec, err := NewCodec(key)
	if err != nil {
		f.Fatal(err)
	}
	// Seed corpus: a valid frame, a truncated one, garbage.
	valid, err := codec.Encode(Message{Round: 3, From: 1, To: 2, Value: 1.5})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:10])
	f.Add(bytes.Repeat([]byte{0xAA}, FrameSize))
	// Chaos-style corruptions, mirroring what Chaos.mangle and a lossy wire
	// produce: single bit flips across every region of a signed frame
	// (magic, version, header fields, instance id, seq, value, MAC), a
	// one-byte truncation, and a frame with trailing garbage (stream framing
	// must take exactly FrameSize).
	for _, off := range []int{0, 2, 4, 12, 16, 20, 24, 28, headerLen, FrameSize - 1} {
		flipped := bytes.Clone(valid)
		flipped[off] ^= 1 << (off % 8)
		f.Add(flipped)
	}
	f.Add(valid[:FrameSize-1])
	f.Add(append(bytes.Clone(valid), 0xFF, 0x00, 0xAA))
	// Version-byte mutations: the pre-instance-id v1 layout, a from-the-
	// future version, and version zero must all be rejected typed, never
	// misparsed under the current layout.
	for _, v := range []byte{0, 1, frameVersion + 1, 0xFF} {
		downgraded := bytes.Clone(valid)
		downgraded[2] = v
		f.Add(downgraded)
	}
	// Instance-id mutations: a multiplexed frame with every instance byte
	// set, and a flipped low instance byte on an otherwise valid frame.
	muxed, err := codec.Encode(Message{Round: 3, From: 1, To: 2, Value: 1.5, Instance: 0xFFFFFFFF, Seq: 7})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(muxed)
	instFlip := bytes.Clone(muxed)
	instFlip[23] ^= 0x01
	f.Add(instFlip)
	// Header fields mangled wholesale: round/from/to/instance/seq set to
	// all-ones so the unsigned-width aliasing paths in Decode see extreme
	// values.
	mangled := bytes.Clone(valid)
	for i := 4; i < 28; i++ {
		mangled[i] = 0xFF
	}
	f.Add(mangled)

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := refDecode(key, data)
		var m Message
		for pass := 0; pass < 2; pass++ {
			m, err = codec.Decode(data)
			if (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, wantErr)) {
				t.Fatalf("pass %d: Decode err = %v, reference err = %v", pass, err, wantErr)
			}
			if m != want {
				t.Fatalf("pass %d: Decode = %+v, reference = %+v", pass, m, want)
			}
		}
		if err != nil {
			return // rejected by both: fine
		}
		// Accepted frames must round-trip exactly.
		re, err := codec.Encode(m)
		if err != nil {
			t.Fatalf("accepted message failed to re-encode: %+v: %v", m, err)
		}
		if !bytes.Equal(re, data[:FrameSize]) {
			t.Fatalf("re-encoded frame differs:\n in: %x\nout: %x", data[:FrameSize], re)
		}
	})
}

// FuzzEncodeDecode drives the codec with arbitrary message fields.
func FuzzEncodeDecode(f *testing.F) {
	codec, err := NewCodec([]byte("fuzz-key-2"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(0, 0, 0, 1.0, false, uint32(0), uint32(0))
	f.Add(1<<40, 3, 7, math.Inf(-1), true, uint32(12345), uint32(99))

	f.Fuzz(func(t *testing.T, round, from, to int, value float64, omitted bool, instance, seq uint32) {
		m := Message{Round: round, From: from, To: to, Value: value, Omitted: omitted, Instance: instance, Seq: seq}
		frame, err := codec.Encode(m)
		if err != nil {
			if math.IsNaN(value) && !omitted {
				return // the documented rejection
			}
			t.Fatalf("encode rejected %+v: %v", m, err)
		}
		prefix := []byte{0xAA, 0x55, 0x01}
		appended, err := codec.AppendEncode(bytes.Clone(prefix), m)
		if err != nil || !bytes.Equal(appended, append(prefix, frame...)) {
			t.Fatalf("AppendEncode = %x, %v; want prefix + %x", appended, err, frame)
		}
		got, err := codec.Decode(frame)
		if err != nil {
			t.Fatalf("decode rejected own frame: %v", err)
		}
		// Round/from/to travel as fixed-width unsigned fields: negative
		// values alias, which the protocol never produces; only compare
		// when in range.
		if round >= 0 && from >= 0 && to >= 0 && round < 1<<62 && from < 1<<31 && to < 1<<31 {
			want := m
			if omitted {
				want.Value = 0
			}
			if got != want {
				t.Fatalf("roundtrip: got %+v, want %+v", got, want)
			}
		}
	})
}

// FuzzReplayFilter checks the filter never admits an exact duplicate,
// regardless of the interleaving of senders, instances and epochs.
func FuzzReplayFilter(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 2, 1, 1, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		filter := newReplayFilter()
		type key struct {
			from, round   int
			instance, seq uint32
		}
		admitted := make(map[key]bool)
		for i := 0; i+3 < len(data); i += 4 {
			k := key{
				from:     int(data[i] % 4),
				instance: uint32(data[i+1] % 4),
				round:    int(data[i+2] % 16),
				seq:      uint32(data[i+3] % 4),
			}
			ok := filter.admit(k.from, k.instance, k.round, k.seq)
			if ok && admitted[k] {
				t.Fatalf("duplicate admitted: %+v", k)
			}
			if ok {
				admitted[k] = true
			}
		}
	})
}
