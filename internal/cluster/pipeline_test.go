package cluster

import (
	"context"
	"math"
	"testing"
	"time"

	"mbfaa/internal/transport"
)

// pipelineConfigs is chaosConfigs with a pipeline depth applied.
func pipelineConfigs(n, rounds, depth int, timeout time.Duration) []Config {
	cfgs := chaosConfigs(n, rounds, timeout)
	for i := range cfgs {
		cfgs[i].PipelineDepth = depth
	}
	return cfgs
}

// TestPipelineDepthValidate pins the config bounds: negative depths and
// depths past MaxPipelineDepth are rejected, the extremes are accepted.
func TestPipelineDepthValidate(t *testing.T) {
	for _, tc := range []struct {
		depth int
		ok    bool
	}{{-1, false}, {0, true}, {2, true}, {MaxPipelineDepth, true}, {MaxPipelineDepth + 1, false}} {
		cfg := chaosConfigs(4, 3, time.Second)[0]
		cfg.PipelineDepth = tc.depth
		err := cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("depth %d rejected: %v", tc.depth, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("depth %d accepted, want error", tc.depth)
		}
	}
}

// TestPipelineAdmitWindow unit-tests the pipelined admission path against
// the round window [current, current+k]: in-window frames land in their
// ring slot, duplicates and replays are told apart from stale drops, ring
// slots recycle clean, and Reset clears all pipelined state.
func TestPipelineAdmitWindow(t *testing.T) {
	const n, k = 4, 2
	hub, err := transport.NewChannel(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	cfg := pipelineConfigs(n, 6, k, time.Second)[0]
	nd, err := NewNode(cfg, hub.Link(0))
	if err != nil {
		t.Fatal(err)
	}

	// In-window frames record into their own slot; a second copy is a
	// duplicate.
	nd.admit(transport.Message{From: 1, Round: 0, Value: 1}, 0)
	nd.admit(transport.Message{From: 1, Round: 0, Value: 1}, 0)
	nd.admit(transport.Message{From: 1, Round: k, Value: 1}, 0) // window edge
	if nd.stats.Received != 2 || nd.stats.Duplicates != 1 {
		t.Fatalf("received=%d duplicates=%d, want 2/1", nd.stats.Received, nd.stats.Duplicates)
	}
	if st := nd.slot(0); st.count != 1 || !st.seen[1] {
		t.Fatalf("slot 0 count=%d seen[1]=%v, want 1/true", st.count, st.seen[1])
	}

	// Beyond the window: dropped and counted stale, but still liveness
	// evidence (lastSeen advances).
	nd.admit(transport.Message{From: 1, Round: k + 1, Value: 1}, 0)
	if nd.stats.StaleRounds != 1 || nd.lastSeen[1] != k+1 {
		t.Fatalf("staleRounds=%d lastSeen[1]=%d, want 1/%d", nd.stats.StaleRounds, nd.lastSeen[1], k+1)
	}

	// Below the window: a recorded (sender, round) replays as a duplicate,
	// an unrecorded one fell out of the window — stale.
	nd.admit(transport.Message{From: 1, Round: 0, Value: 1}, 1) // recorded above
	nd.admit(transport.Message{From: 2, Round: 0, Value: 1}, 1) // never recorded
	if nd.stats.Duplicates != 2 || nd.stats.StaleRounds != 2 {
		t.Fatalf("duplicates=%d staleRounds=%d, want 2/2", nd.stats.Duplicates, nd.stats.StaleRounds)
	}

	// Out-of-range and non-neighbor senders are rejected outright.
	nd.admit(transport.Message{From: -1, Round: 0}, 0)
	nd.admit(transport.Message{From: n, Round: 0}, 0)
	if nd.stats.Rejected != 2 {
		t.Fatalf("rejected=%d, want 2", nd.stats.Rejected)
	}

	// Ring slots recycle in place: round k+1 maps onto round 0's slot and
	// must come up empty.
	if st := nd.slot(k + 1); st.round != k+1 || st.count != 0 || st.seen[1] {
		t.Fatalf("recycled slot: round=%d count=%d seen[1]=%v, want %d/0/false", st.round, st.count, st.seen[1], k+1)
	}

	// Reset clears every piece of pipelined state for pool reuse.
	nd.misses[1] = 7
	nd.stalled[1] = true
	nd.Reset(1, 1, 6, hub.Link(0))
	for s := 0; s < n; s++ {
		if nd.lastSeen[s] != -1 || nd.stalled[s] || nd.misses[s] != 0 {
			t.Fatalf("Reset left sender %d dirty: lastSeen=%d stalled=%v misses=%d", s, nd.lastSeen[s], nd.stalled[s], nd.misses[s])
		}
	}
	for i := range nd.ring {
		if nd.ring[i].round != -1 || nd.ring[i].count != 0 {
			t.Fatalf("Reset left ring slot %d dirty: %+v", i, nd.ring[i])
		}
	}
}

// TestSyncRoundsStallEvidenceAtClose pins the replayable stall evidence of
// chaos deployments: under SyncRounds a frame for a later round proves its
// sender alive only once that round closes here, never while an earlier
// round is still open — its arrival before this node's deadline is a
// scheduling race, and counting it made StallEvents differ between
// same-seed runs.
func TestSyncRoundsStallEvidenceAtClose(t *testing.T) {
	const n, k = 4, 2
	hub, err := transport.NewChannel(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	cfg := pipelineConfigs(n, 6, k, 5*time.Millisecond)[0]
	cfg.SyncRounds = true
	nd, err := NewNode(cfg, hub.Link(0))
	if err != nil {
		t.Fatal(err)
	}
	nd.admit(transport.Message{From: 1, Round: 1, Value: 1}, 0) // a round early
	nd.admit(transport.Message{From: 2, Round: 0, Value: 1}, 0)
	if nd.lastSeen[1] != -1 || nd.lastSeen[2] != 0 {
		t.Fatalf("lastSeen = %v while round 0 is open, want sender 1 at -1 and sender 2 at 0", nd.lastSeen)
	}
	for round := 0; round < 2; round++ {
		if _, _, err := nd.collectPipelined(context.Background(), round); err != nil {
			t.Fatal(err)
		}
	}
	if nd.lastSeen[1] != 1 {
		t.Fatalf("lastSeen[1] = %d after round 1 closed, want 1", nd.lastSeen[1])
	}
}

// TestPipelineCleanRun: on clean in-memory links with no faults the
// pipelined cluster completes at every depth, decides inside the input
// range (validity), and still shrinks the decision spread — the quorum
// close may legitimately rule a momentarily-slower peer's frame an
// omission, so depth > 0 is not held to lockstep's exact values, only to
// the protocol's guarantees.
func TestPipelineCleanRun(t *testing.T) {
	const n, rounds = 4, 6
	for _, depth := range []int{0, 2, 8} {
		hub, err := transport.NewChannel(n, 8+2*depth)
		if err != nil {
			t.Fatal(err)
		}
		links := make([]transport.Link, n)
		for i := range links {
			links[i] = hub.Link(i)
		}
		outcomes, down, err := RunClusterDeadline(context.Background(), pipelineConfigs(n, rounds, depth, 300*time.Millisecond), links, 30*time.Second)
		_ = hub.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(down) != 0 {
			t.Fatalf("depth %d: down = %v, want none", depth, down)
		}
		lo, hi := outcomes[0].Value, outcomes[0].Value
		for i, o := range outcomes {
			lo, hi = math.Min(lo, o.Value), math.Max(hi, o.Value)
			if o.Value < 0 || o.Value > float64(n-1) {
				t.Errorf("depth %d node %d decided %g outside the input range [0,%d]", depth, i, o.Value, n-1)
			}
			if depth == 0 && (o.Stats.StaleRounds != 0 || o.Stats.StallEvents != 0 || o.Stats.PeerMisses != nil) {
				t.Errorf("depth 0 node %d carries pipelined counters: %+v", i, o.Stats)
			}
		}
		// Six averaging rounds shrink the n-1 initial spread far below 1
		// even when quorum closes drop the odd frame.
		if hi-lo >= 1 {
			t.Errorf("depth %d: decision spread %g did not contract (initial %d)", depth, hi-lo, n-1)
		}
	}
}

// TestPipelineWedgedPeerStall wedges one peer completely: the node must
// stall-flag it (one transition), score every missed round against it, and
// keep closing rounds early instead of burning a deadline per round — one
// wedged peer must not wedge the cluster. Only node 0 is real; the test
// plays peer 1 (prompt) and peer 2 (silent) over the hub's raw links.
func TestPipelineWedgedPeerStall(t *testing.T) {
	const n, k, rounds = 3, 2, 4
	const timeout = 100 * time.Millisecond
	hub, err := transport.NewChannel(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	cfg := pipelineConfigs(n, rounds, k, timeout)[0]
	nd, err := NewNode(cfg, hub.Link(0))
	if err != nil {
		t.Fatal(err)
	}

	// Peer 1 echoes a frame back for every round it sees node 0 send; peer 2
	// stays wedged. With k=2 the node closes round 0 early (peer 2 still has
	// pipeline credit), burns exactly one deadline on round 1 (the brake
	// blocks on peer 2's silence), stall-flags peer 2 after that close, and
	// closes every later round early against peer 1 alone.
	peer1 := hub.Link(1)
	go func() {
		for m := range peer1.Recv() {
			if m.From != 0 {
				continue
			}
			_ = peer1.Send(transport.Message{Round: m.Round, To: 0, Value: float64(m.Round)})
		}
	}()

	type result struct {
		v   float64
		err error
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		v, err := nd.RunContext(context.Background())
		done <- result{v, err}
	}()
	var res result
	select {
	case res = <-done:
	case <-time.After(time.Duration(rounds) * timeout):
		t.Fatal("cluster wedged: run did not finish inside the per-round deadline budget")
	}
	elapsed := time.Since(start)
	if res.err != nil {
		t.Fatal(res.err)
	}
	if math.IsNaN(res.v) {
		t.Fatal("wedged-peer run decided NaN")
	}
	// Exactly one round waits out its deadline; the rest close early. Allow
	// generous scheduling slack but stay far under rounds×timeout.
	if elapsed >= time.Duration(rounds)*timeout {
		t.Fatalf("run took %v — every round burned its deadline; early close never fired", elapsed)
	}

	st := nd.Stats()
	if st.StallEvents != 1 {
		t.Errorf("StallEvents = %d, want 1 (peer 2 stalls once and never recovers)", st.StallEvents)
	}
	if len(st.PeerMisses) != n || st.PeerMisses[2] != rounds || st.PeerMisses[1] != 0 {
		t.Errorf("PeerMisses = %v, want [0 0 %d]", st.PeerMisses, rounds)
	}
	if st.Omissions != rounds {
		t.Errorf("Omissions = %d, want %d (one per round from the wedged peer)", st.Omissions, rounds)
	}
	if st.Received != 2*rounds {
		t.Errorf("Received = %d, want %d (self + peer 1 per round)", st.Received, 2*rounds)
	}
}
