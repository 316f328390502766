package transport

import "testing"

// Allocation-regression guards for the frame path. Every frame is
// HMAC-signed on send and verified on receive, so a per-frame allocation
// here is paid n² times a round: the codec reuses pooled keyed HMAC states,
// encodes straight into caller buffers, and decodes in place. These tests
// pin that.
//
// They are skipped under -short: testing.AllocsPerRun disables parallelism
// and runs the body repeatedly, which is not worth the time in quick
// iteration loops. They are skipped under the race detector too, which
// adds allocations of its own (see race_test.go).

// raceDetector is set when the tests are built with -race.
var raceDetector bool

func skipAllocGuard(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("alloc guards skipped under -short")
	}
	if raceDetector {
		t.Skip("alloc guards skipped under the race detector")
	}
}

var allocMsg = Message{Round: 12, From: 3, To: 7, Value: 3.14159, Instance: 9, Seq: 2}

func TestCodecDecodeAllocFree(t *testing.T) {
	skipAllocGuard(t)
	codec, err := NewCodec(testKey)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := codec.Encode(allocMsg)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), frame...)
	tampered[30] ^= 0xff
	if got := testing.AllocsPerRun(200, func() {
		if m, err := codec.Decode(frame); err != nil || m != allocMsg {
			t.Fatalf("Decode = %+v, %v", m, err)
		}
		if _, err := codec.Decode(tampered); err != ErrBadMAC {
			t.Fatalf("tampered Decode err = %v, want ErrBadMAC", err)
		}
	}); got != 0 {
		t.Fatalf("Decode allocates %.0f per valid+tampered pair, want 0", got)
	}
}

func TestCodecAppendEncodeAllocFree(t *testing.T) {
	skipAllocGuard(t)
	codec, err := NewCodec(testKey)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 4*FrameSize)
	if got := testing.AllocsPerRun(200, func() {
		out := dst[:0]
		for i := 0; i < 4; i++ {
			if out, err = codec.AppendEncode(out, allocMsg); err != nil {
				t.Fatal(err)
			}
		}
	}); got != 0 {
		t.Fatalf("AppendEncode allocates %.0f per 4 frames into spare capacity, want 0", got)
	}
	var stack [FrameSize]byte
	if got := testing.AllocsPerRun(200, func() {
		if _, err := codec.AppendEncode(stack[:0], allocMsg); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("AppendEncode allocates %.0f into a stack frame, want 0", got)
	}
}

func TestCodecEncodeAllocsOnlyFrame(t *testing.T) {
	skipAllocGuard(t)
	codec, err := NewCodec(testKey)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := codec.Encode(allocMsg); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Fatalf("Encode allocates %.0f per frame, want ≤ 1 (the returned frame)", got)
	}
}

// TestTCPSendBatchAllocFree drives the whole steady-state batched path —
// encode into the peer buffer, socket write, buffered read, decode, replay
// filter, inbox — and requires it to allocate nothing per frame.
// AllocsPerRun truncates its average, so the bound it enforces is fewer
// than one allocation per 16-frame batch, counted across every goroutine.
func TestTCPSendBatchAllocFree(t *testing.T) {
	skipAllocGuard(t)
	nodes, err := NewTCPMesh(2, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(t, nodes)

	const batchLen = 16
	batch := make([]Message, batchLen)
	round := 0
	sendRound := func() {
		for i := range batch {
			batch[i] = Message{To: 1, Round: round, Seq: uint32(i), Value: float64(round)}
		}
		round++
		if err := nodes[0].SendBatch(batch); err != nil {
			t.Fatal(err)
		}
		for range batch {
			<-nodes[1].Recv()
		}
	}
	for i := 0; i < 50; i++ { // dial, grow the buffers, register the flows
		sendRound()
	}
	perRun := testing.AllocsPerRun(200, sendRound)
	if perFrame := perRun / batchLen; perFrame != 0 {
		t.Fatalf("steady-state SendBatch allocates %.2f per frame (%.0f per %d-frame batch), want 0",
			perFrame, perRun, batchLen)
	}
}
