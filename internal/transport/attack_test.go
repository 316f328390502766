package transport

import (
	"net"
	"testing"
	"time"
)

// dialRaw connects to a node like an attacker on the network would.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// expectNoDelivery asserts nothing reaches the node's inbox within the
// grace period.
func expectNoDelivery(t *testing.T, nd *TCPNode) {
	t.Helper()
	select {
	case m := <-nd.Recv():
		t.Fatalf("attack frame delivered: %+v", m)
	case <-time.After(100 * time.Millisecond):
	}
}

// waitCounter polls an atomic counter getter until it reaches want.
func waitCounter(t *testing.T, get func() int64, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if get() >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s = %d, want ≥ %d", what, get(), want)
}

func TestTCPRejectsTamperedFrame(t *testing.T) {
	nodes, err := NewTCPMesh(2, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(t, nodes)

	codec, _ := NewCodec(testKey)
	frame, err := codec.Encode(Message{Round: 0, From: 0, To: 1, Value: 666})
	if err != nil {
		t.Fatal(err)
	}
	frame[30] ^= 0xff // corrupt the value in flight

	conn := dialRaw(t, nodes[1].Addr())
	defer func() { _ = conn.Close() }()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, nodes[1].AuthFailures, 1, "AuthFailures")
	expectNoDelivery(t, nodes[1])
}

func TestTCPRejectsWrongKeyAttacker(t *testing.T) {
	nodes, err := NewTCPMesh(2, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(t, nodes)

	evilCodec, _ := NewCodec([]byte("attacker-key"))
	frame, err := evilCodec.Encode(Message{Round: 0, From: 0, To: 1, Value: 666})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialRaw(t, nodes[1].Addr())
	defer func() { _ = conn.Close() }()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, nodes[1].AuthFailures, 1, "AuthFailures")
	expectNoDelivery(t, nodes[1])
}

func TestTCPRejectsReplay(t *testing.T) {
	nodes, err := NewTCPMesh(2, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(t, nodes)

	// A legitimate frame, captured and replayed by the attacker.
	codec, _ := NewCodec(testKey)
	frame, err := codec.Encode(Message{Round: 0, From: 0, To: 1, Value: 42})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialRaw(t, nodes[1].Addr())
	defer func() { _ = conn.Close() }()
	for i := 0; i < 3; i++ {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	// Exactly one copy is delivered.
	got := <-nodes[1].Recv()
	if got.Value != 42 {
		t.Errorf("delivered %+v", got)
	}
	waitCounter(t, nodes[1].ReplayDrops, 2, "ReplayDrops")
	expectNoDelivery(t, nodes[1])
}

func TestTCPDropsMisdirectedFrame(t *testing.T) {
	nodes, err := NewTCPMesh(3, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(t, nodes)

	codec, _ := NewCodec(testKey)
	// Authenticated frame addressed to node 2, delivered to node 1's
	// socket (a rerouting attack).
	frame, err := codec.Encode(Message{Round: 0, From: 0, To: 2, Value: 13})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialRaw(t, nodes[1].Addr())
	defer func() { _ = conn.Close() }()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, nodes[1].MisdirectDrops, 1, "MisdirectDrops")
	expectNoDelivery(t, nodes[1])
}

// TestTCPRejectsCrossRoundReplay: after legitimate traffic advanced the
// sender's high-water round, a captured frame from a long-gone round is
// rejected as a replay even though its exact round was never delivered on
// the flow — old rounds are dead by construction, which is what stops an
// attacker from reinjecting recorded history into a live deployment. Note
// the replay must carry the flow's real (instance, seq) — the HMAC covers
// both, so an attacker cannot mint a fresh flow to dodge the window.
func TestTCPRejectsCrossRoundReplay(t *testing.T) {
	nodes, err := NewTCPMesh(2, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(t, nodes)

	codec, _ := NewCodec(testKey)
	// The "captured" frame: round 1, which the legitimate sender below
	// skips, so only the cross-round window — not exact-duplicate
	// detection — can reject it.
	stale, err := codec.Encode(Message{Round: 1, From: 0, To: 1, Value: 666})
	if err != nil {
		t.Fatal(err)
	}
	// Legitimate traffic advances node 0's high-water round past the
	// replay window.
	for r := 0; r <= 6; r++ {
		if r == 1 {
			continue
		}
		if err := nodes[0].Send(Message{To: 1, Round: r, Value: float64(r)}); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r <= 6; r++ {
		if r == 1 {
			continue
		}
		if got := <-nodes[1].Recv(); got.Round != r {
			t.Fatalf("legit round %d delivered as %d (per-link order violated)", r, got.Round)
		}
	}

	conn := dialRaw(t, nodes[1].Addr())
	defer func() { _ = conn.Close() }()
	if _, err := conn.Write(stale); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, nodes[1].ReplayDrops, 1, "ReplayDrops")
	expectNoDelivery(t, nodes[1])
}

// TestTCPDeliversReorderedRounds: frames arriving out of round order within
// the replay window are all delivered — reordering tolerance is the
// protocol layer's job (the cluster node buffers early rounds), not the
// transport's, which must only filter duplicates.
func TestTCPDeliversReorderedRounds(t *testing.T) {
	nodes, err := NewTCPMesh(2, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(t, nodes)

	codec, _ := NewCodec(testKey)
	conn := dialRaw(t, nodes[1].Addr())
	defer func() { _ = conn.Close() }()
	for _, r := range []int{2, 1, 0} {
		frame, err := codec.Encode(Message{Round: r, From: 0, To: 1, Value: float64(r)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	var got []int
	for i := 0; i < 3; i++ {
		select {
		case m := <-nodes[1].Recv():
			got = append(got, m.Round)
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d of 3 reordered frames delivered: %v", i, got)
		}
	}
	want := []int{2, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reordered delivery = %v, want %v", got, want)
		}
	}
	if drops := nodes[1].ReplayDrops(); drops != 0 {
		t.Errorf("reordered (non-duplicate) frames counted as %d replays", drops)
	}
}

func TestTCPSurvivesGarbageConnection(t *testing.T) {
	nodes, err := NewTCPMesh(2, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(t, nodes)

	conn := dialRaw(t, nodes[1].Addr())
	junk := make([]byte, FrameSize)
	junk[0] = 0x99
	if _, err := conn.Write(junk); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()

	// The node must still accept legitimate traffic afterwards.
	if err := nodes[0].Send(Message{To: 1, Round: 0, Value: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-nodes[1].Recv():
		if m.Value != 1 {
			t.Errorf("got %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("legitimate frame not delivered after garbage connection")
	}
}

// TestTCPBufferedReaderFraming checks the multi-frame read path: one write
// carrying a tampered, a valid, a misdirected and a valid frame, then one
// valid frame split across two writes with a pause between them. Every
// frame in a read must go through every check (the pooled MAC state is
// reused right after a failed verification), and the split frame's partial
// tail must be carried into the next read, not dropped or misaligned.
func TestTCPBufferedReaderFraming(t *testing.T) {
	nodes, err := NewTCPMesh(2, testKey)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(t, nodes)

	codec, _ := NewCodec(testKey)
	encode := func(m Message) []byte {
		t.Helper()
		frame, err := codec.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	tampered := encode(Message{Round: 0, From: 0, To: 1, Value: 666})
	tampered[30] ^= 0xff
	var burst []byte
	burst = append(burst, tampered...)
	burst = append(burst, encode(Message{Round: 0, From: 0, To: 1, Value: 10})...)
	burst = append(burst, encode(Message{Round: 1, From: 0, To: 0, Value: 666})...)
	burst = append(burst, encode(Message{Round: 1, From: 0, To: 1, Value: 11})...)
	split := encode(Message{Round: 2, From: 0, To: 1, Value: 12})

	conn := dialRaw(t, nodes[1].Addr())
	defer func() { _ = conn.Close() }()
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(split[:FrameSize/2-3]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := conn.Write(split[FrameSize/2-3:]); err != nil {
		t.Fatal(err)
	}

	for want := 0; want < 3; want++ {
		select {
		case m := <-nodes[1].Recv():
			if m.Round != want || m.Value != float64(10+want) {
				t.Fatalf("delivery %d = %+v, want round %d value %d", want, m, want, 10+want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d of 3 valid frames delivered", want)
		}
	}
	if got := nodes[1].AuthFailures(); got != 1 {
		t.Errorf("AuthFailures = %d, want 1", got)
	}
	if got := nodes[1].MisdirectDrops(); got != 1 {
		t.Errorf("MisdirectDrops = %d, want 1", got)
	}
	expectNoDelivery(t, nodes[1])
}
