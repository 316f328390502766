// Package cluster runs the MSR approximate-agreement protocol as a real
// distributed deployment: one Node per process, communicating over a
// transport.Link (in-memory channels or authenticated TCP sockets), in
// synchronous rounds with deadline-based omission detection — strict
// lockstep by default, or pipelined up to Config.PipelineDepth rounds ahead
// of the slowest live peer — the synchronous system of paper §3 realised
// over actual message passing. A Topology
// restricts communication to a neighbor graph (full mesh by default; rings,
// random-regular and arbitrary connected graphs for the partially-connected
// regimes of Li, Hurfin & Wang 2012).
//
// Fault injection is schedule-driven: a FaultSchedule deterministically
// marks which nodes the mobile agents occupy in each round, and occupied
// nodes execute the adversarial send behaviour themselves (a compromised
// machine is the attacker). The schedule reproduces the mobile models'
// state machine: occupied → byzantine sends; just-released → the model's
// cured behaviour.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"mbfaa/internal/mobile"
	"mbfaa/internal/msr"
	"mbfaa/internal/transport"
)

// FaultSchedule decides which nodes the agents occupy in a given round.
// Implementations must be deterministic pure functions so every node
// derives the same schedule (the test harness plays the omniscient
// adversary; in production nothing implements this — it exists to attack
// your own deployment).
type FaultSchedule interface {
	// Occupied returns the node ids hosting agents in round r.
	Occupied(round int) []int
}

// SizedSchedule is implemented by schedules that know the cluster size they
// were built for; Config.Validate uses it to reject a schedule that
// disagrees with the deployment (the historical source of out-of-range
// "occupied" ids).
type SizedSchedule interface {
	FaultSchedule
	// ValidateFor reports whether the schedule is well-formed for an n-node
	// cluster.
	ValidateFor(n int) error
}

// NoFaults is the empty schedule.
type NoFaults struct{}

// Occupied implements FaultSchedule.
func (NoFaults) Occupied(int) []int { return nil }

// RotatingFaults sweeps f agents across n nodes, shifting by f every
// round — the cluster counterpart of mobile.Rotating.
type RotatingFaults struct {
	N, F int
}

// Occupied implements FaultSchedule.
func (s RotatingFaults) Occupied(round int) []int {
	if s.F <= 0 || s.N <= 0 {
		return nil
	}
	out := make([]int, 0, s.F)
	start := (round * s.F) % s.N
	for i := 0; i < s.F && i < s.N; i++ {
		out = append(out, (start+i)%s.N)
	}
	return out
}

// ValidateFor implements SizedSchedule.
func (s RotatingFaults) ValidateFor(n int) error {
	switch {
	case s.N != n:
		return fmt.Errorf("cluster: rotating schedule built for n=%d, deployment has n=%d", s.N, n)
	case s.F > n:
		return fmt.Errorf("cluster: rotating schedule occupies f=%d of only n=%d nodes", s.F, n)
	}
	return nil
}

// CrashFaults marks the same rotation as RotatingFaults but nodes omit
// instead of lying (benign control).
type CrashFaults struct {
	N, F int
}

// Occupied implements FaultSchedule.
func (s CrashFaults) Occupied(round int) []int {
	return RotatingFaults(s).Occupied(round)
}

// ValidateFor implements SizedSchedule.
func (s CrashFaults) ValidateFor(n int) error { return RotatingFaults(s).ValidateFor(n) }

// PingPongFaults alternates the agents between nodes [0, F) and [F, 2F)
// each round — the cluster counterpart of the splitter's maximum-pressure
// schedule (every round has F occupied and F just-released nodes). N is the
// cluster size; the second camp is clamped to it, so the schedule never
// emits node ids ≥ N (deployments with 2F > N are rejected by ValidateFor —
// the ping-pong needs two disjoint camps).
type PingPongFaults struct {
	N, F int
}

// Occupied implements FaultSchedule.
func (s PingPongFaults) Occupied(round int) []int {
	if s.F <= 0 {
		return nil
	}
	start := 0
	if round%2 == 1 {
		start = s.F
	}
	end := start + s.F
	if s.N > 0 && end > s.N {
		end = s.N
	}
	if end <= start {
		return nil
	}
	out := make([]int, 0, end-start)
	for id := start; id < end; id++ {
		out = append(out, id)
	}
	return out
}

// ValidateFor implements SizedSchedule.
func (s PingPongFaults) ValidateFor(n int) error {
	switch {
	case s.N != n:
		return fmt.Errorf("cluster: ping-pong schedule built for n=%d, deployment has n=%d", s.N, n)
	case 2*s.F > n:
		return fmt.Errorf("cluster: ping-pong schedule needs two disjoint camps: 2f=%d > n=%d", 2*s.F, n)
	}
	return nil
}

// Config parameterizes one cluster node.
type Config struct {
	// ID and N identify the node and the cluster size; F is the agent
	// count the deployment must tolerate.
	ID, N, F int
	// Model selects the mobile fault model (drives τ and cured behaviour).
	Model mobile.Model
	// Algorithm is the MSR voting function.
	Algorithm msr.Algorithm
	// Input is this node's initial value.
	Input float64
	// InputRange is the a-priori spread of correct inputs (e.g. the sensor
	// spec range); with Epsilon and the algorithm's contraction guarantee
	// it fixes the round count every node computes locally — the
	// Dolev-style halting rule without an omniscient observer.
	InputRange float64
	// Epsilon is the agreement tolerance.
	Epsilon float64
	// RoundTimeout is the receive-phase deadline after which missing
	// senders are treated as omissions (benign).
	RoundTimeout time.Duration
	// Schedule injects mobile faults; NoFaults{} for honest runs. The
	// schedule must be identical on every node of a test deployment.
	Schedule FaultSchedule
	// Topology restricts communication to a neighbor graph; nil means the
	// full mesh of paper §3. All nodes of a deployment must share the same
	// topology (undirected, connected), and the node exchanges values only
	// with its neighbors (plus itself).
	Topology Topology
	// AllowSubBound skips the n > bound(f) resilience check. The
	// lower-bound experiments run deliberately under-provisioned systems;
	// every other deployment should fail fast instead of silently
	// diverging.
	AllowSubBound bool
	// Crash selects omission behaviour (instead of Byzantine values) for
	// occupied nodes.
	Crash bool
	// CampBoundary, when positive, switches occupied nodes to the
	// splitter's camp attack: AttackLo to node ids below the boundary,
	// AttackHi to the rest. This is how the lower-bound freeze is
	// reproduced over real links.
	CampBoundary       int
	AttackLo, AttackHi float64
	// FixedRounds overrides the computed round count when positive.
	FixedRounds int
	// SyncRounds makes every round last the full RoundTimeout instead of
	// closing as soon as all expected senders reported — the paper's
	// fixed-duration synchronous round. Early exit is an optimization that
	// assumes reliable channels: under injected loss it lets fast nodes
	// run a full deadline ahead of lagging peers, and whether a skewed
	// frame counts as Received or Late becomes a scheduling race. Chaos
	// deployments set this so per-node stats replay bit-for-bit.
	SyncRounds bool
	// LossyLinks declares that the transport may drop or corrupt frames
	// (the chaos layer). A full-mesh contraction of 0 ("identical
	// multisets agree exactly in one round") assumes every correct value
	// arrives; under loss the computed round horizon floors the
	// contraction at 1/2, exactly as a partial topology does. Chaos
	// deployments set this alongside SyncRounds.
	LossyLinks bool
	// PipelineDepth (k), when positive, lets the node run up to k rounds
	// ahead of its slowest live peer instead of strict lockstep: frames
	// for rounds [current, current+k] are buffered in a bounded per-round
	// receive ring, a round closes as soon as its quorum-or-deadline
	// condition is met (every expected sender reported; or a majority
	// reported and advancing keeps the node within k rounds of the slowest
	// non-stalled peer; or the deadline fired), and frames outside the
	// window are dropped and counted (NodeStats.StaleRounds). Peers
	// persistently more than k rounds behind are flagged stalled
	// (NodeStats.StallEvents) and excluded from the pacing brake, so one
	// wedged peer cannot wedge the cluster; every round a peer misses
	// raises its NodeStats.PeerMisses score. Depth 0 is strict lockstep,
	// bit-identical to the engine before pipelining existed. SyncRounds
	// overrides early close at any depth — chaos rounds keep their full
	// fixed duration per round index, so seeded replay holds. At most
	// MaxPipelineDepth.
	PipelineDepth int
}

// MaxPipelineDepth bounds Config.PipelineDepth: the replay windows behind
// the pipeline are one 64-bit word wide (transport.MaxRoundWindow), and the
// depth plus reordering slack must fit inside them.
const MaxPipelineDepth = 32

// Validate checks the node configuration. Deployments at or below the
// model's Table 2 replica bound are rejected with the same typed
// *mobile.BoundError the core engine's CheckSystem returns, unless
// AllowSubBound opts into the lower-bound regime. A SizedSchedule that
// disagrees with the cluster size is rejected here, before any message
// flows.
func (c Config) Validate() error {
	switch {
	case c.N <= 0 || c.ID < 0 || c.ID >= c.N:
		return fmt.Errorf("cluster: id %d / n %d invalid", c.ID, c.N)
	case c.F < 0:
		return fmt.Errorf("cluster: negative f")
	case !c.Model.Valid():
		return fmt.Errorf("cluster: invalid model")
	case c.Algorithm == nil:
		return fmt.Errorf("cluster: nil algorithm")
	case c.Epsilon <= 0 && c.FixedRounds <= 0:
		return fmt.Errorf("cluster: need positive epsilon or fixed rounds")
	case c.InputRange <= 0 && c.FixedRounds <= 0:
		return fmt.Errorf("cluster: need positive input range or fixed rounds")
	case c.RoundTimeout <= 0:
		return fmt.Errorf("cluster: need a positive round timeout")
	case c.Schedule == nil:
		return fmt.Errorf("cluster: nil schedule (use NoFaults{})")
	case c.PipelineDepth < 0 || c.PipelineDepth > MaxPipelineDepth:
		return fmt.Errorf("cluster: pipeline depth %d out of range [0, %d]", c.PipelineDepth, MaxPipelineDepth)
	}
	if !c.AllowSubBound {
		if err := mobile.CheckSystem(c.Model, c.N, c.F); err != nil {
			return err
		}
	}
	if sized, ok := c.Schedule.(SizedSchedule); ok {
		if err := sized.ValidateFor(c.N); err != nil {
			return err
		}
	}
	if c.Topology != nil {
		if c.Topology.Size() != c.N {
			return fmt.Errorf("cluster: topology has %d nodes, deployment has n=%d", c.Topology.Size(), c.N)
		}
		tau := c.Model.Trim(c.F)
		for id := 0; id < c.N; id++ {
			if deg := len(c.Topology.Neighbors(id)); deg+1 <= 2*tau {
				return fmt.Errorf("cluster: node %d has degree %d; trimming 2τ=%d values needs degree+1 > 2τ",
					id, deg, 2*tau)
			}
		}
		if !ConnectedOf(c.Topology) {
			return fmt.Errorf("cluster: disconnected topology; global agreement needs a connected graph")
		}
	}
	return nil
}

// Rounds returns the number of rounds the node will run: FixedRounds if
// set, otherwise ⌈log(ε/range)/log(C)⌉ from the algorithm's guaranteed
// contraction. On a partial topology the multiset a node votes on has only
// MinDegree+1 entries and information needs Diameter hops to cross the
// graph, so the horizon becomes sweeps × Diameter: the per-sweep count is
// computed at the reduced multiset size with the contraction floored at
// 1/2, because a full-mesh contraction of 0 ("identical multisets agree
// exactly in one round") assumes full information and does not hold when
// neighborhoods differ; LossyLinks applies the same floor, since dropped
// or corrupted frames break the premise too. This is an engineering
// horizon — the paper's
// contraction theorem covers the full mesh only — but it is deterministic
// from the shared config, so every node halts together, and the harness
// reports the measured verdict either way. It returns an error when the
// algorithm offers no guarantee (Median) and no FixedRounds was given.
func (c Config) Rounds() (int, error) {
	if c.FixedRounds > 0 {
		return c.FixedRounds, nil
	}
	m := c.N
	stretch := 1
	t, partial := c.partialTopology()
	if partial {
		m = MinDegreeOf(t) + 1
		stretch = DiameterOf(t)
		if stretch < 1 {
			return 0, errors.New("cluster: disconnected topology")
		}
	}
	if c.Model == mobile.M1Garay {
		m -= c.F
	}
	contraction, ok := c.Algorithm.Contraction(m, c.Model.Trim(c.F), c.Model.AsymmetricSenders(c.F))
	if !ok {
		return 0, errors.New("cluster: algorithm has no contraction guarantee; set FixedRounds")
	}
	if (partial || c.LossyLinks) && contraction < 0.5 {
		contraction = 0.5
	}
	r, err := msr.RequiredRounds(c.InputRange, c.Epsilon, contraction)
	if err != nil {
		return 0, err
	}
	if r < 1 {
		r = 1
	}
	return r * stretch, nil
}

// partialTopology returns the configured topology when it is a genuine
// restriction (not nil and not the full mesh). It works on the Topology
// interface so custom implementations get the same partial-graph horizon
// as the built-in Graph.
func (c Config) partialTopology() (Topology, bool) {
	if c.Topology == nil {
		return nil, false
	}
	if MinDegreeOf(c.Topology) == c.N-1 {
		return nil, false // full mesh in disguise
	}
	return c.Topology, true
}

// NodeStats counts one node's transport-level activity over a run: the
// observability surface of a deployment (the distributed system has no
// omniscient observer, so per-node counters are what operators get).
type NodeStats struct {
	// Sent and Received count protocol messages handed to, and accepted
	// from, the link (including the self-delivered value).
	Sent, Received int64
	// Omissions counts missing values: explicit omission markers plus
	// senders missing at the round deadline.
	Omissions int64
	// Rejected counts frames dropped before reaching the protocol:
	// messages from non-neighbor senders here, plus the link layer's
	// authentication, replay and misdirection drops on TCP links.
	Rejected int64
	// Duplicates counts frames dropped by the node's replay window: a
	// second frame for an already-recorded (sender, round), or a frame
	// older than the window — the chaos layer's duplication shows up here.
	Duplicates int64
	// Late counts frames that arrived for a round the node had already
	// closed by deadline without recording that sender: genuinely late
	// originals (latency, a lagging peer catching up after a crash).
	// Lockstep mode only; pipelined mode counts StaleRounds instead.
	Late int64
	// StaleRounds counts pipelined-mode frames dropped outside the round
	// window [current, current+PipelineDepth]: unrecorded frames for
	// rounds already closed, and frames from a peer running further ahead
	// than the window tracks. Always zero at depth 0.
	StaleRounds int64
	// StallEvents counts transitions of a peer into the stalled state —
	// its newest observed frame persistently more than PipelineDepth
	// rounds behind this node. A peer that recovers and stalls again
	// counts again. Always zero at depth 0.
	StallEvents int64
	// PeerMisses scores the peers: PeerMisses[s] is how many rounds this
	// node closed without sender s's frame — the per-peer reliability
	// score behind the stall detector. Nil at depth 0.
	PeerMisses []int64
	// Corrupt counts inbound frames the chaos layer corrupted and the
	// codec rejected on this node's behalf (folded from the link).
	Corrupt int64
	// Partitioned counts inbound frames dropped by chaos partition cuts
	// and crash windows addressed to this node (folded from the link).
	Partitioned int64
	// Overflow counts inbound frames dropped because this node's inbox (or
	// per-instance route, under the service demux) was full — the receiver
	// sees them as omissions (folded from the link).
	Overflow int64
	// Reconnects counts outbound connections the transport's self-healing
	// writers re-established after a write or dial failure (folded from the
	// link; always zero on the in-memory transport).
	Reconnects int64
	// DialRetries counts failed outbound dial attempts, each retried or
	// given up under the transport's retry policy (folded from the link).
	DialRetries int64
	// PeerDownEvents counts peers that exhausted the retry budget and
	// transitioned into the down state (folded from the link).
	PeerDownEvents int64
	// PeerDownDrops counts outbound frames absorbed as drops because their
	// peer was down — omission-style losses, not errors: the receiving side
	// scores them via Omissions/PeerMisses like any silent sender (folded
	// from the link).
	PeerDownDrops int64
}

// linkCounters is implemented by transports that count their own drops
// (TCPNode); the node folds them into its Rejected stat.
type linkCounters interface {
	AuthFailures() int64
	ReplayDrops() int64
	MisdirectDrops() int64
}

// chaosCounters is implemented by chaos-wrapped links; the node folds the
// chaos losses addressed to it into its Corrupt and Partitioned stats.
type chaosCounters interface {
	IncomingCorrupt() int64
	IncomingPartitioned() int64
}

// overflowCounter is implemented by links whose inbound path can drop
// frames on a full buffer (the in-memory hub, the service demux routes);
// the node folds the count into its Overflow stat.
type overflowCounter interface {
	InboundOverflow() int64
}

// healthCounters is implemented by self-healing transports (TCPNode); the
// node folds the reconnect and peer-health counters into its NodeStats.
type healthCounters interface {
	Reconnects() int64
	DialRetries() int64
	PeerDownEvents() int64
	PeerDownDrops() int64
}

// linkUnwrapper is implemented by wrapping links (the chaos layer) so
// stats folding can reach the inner transport's counters too.
type linkUnwrapper interface {
	Unwrap() transport.Link
}

// Node is one cluster member.
type Node struct {
	cfg    Config
	link   transport.Link
	tau    int
	vote   float64
	dests  []int                       // send targets in ascending order (neighbors + self)
	inNbr  []bool                      // expected senders (neighbors + self)
	expect int                         // len(dests)
	buffer map[int][]transport.Message // round → early messages (lockstep mode)

	// win is the node's replay window: per sender, a sliding bitmap
	// (transport.RoundWindow) of rounds whose frame was recorded — the
	// same primitive the TCP replay filter runs per flow. A second frame
	// for a recorded (sender, round) — or one below the window — is a
	// duplicate; an unrecorded frame for a closed round is late (lockstep)
	// or stale (pipelined). All are dropped, counted, and keep a
	// recovering peer's catch-up traffic from ever corrupting a closed
	// round.
	win []transport.RoundWindow

	// Pipelined-mode state, allocated only at PipelineDepth > 0: ring
	// holds the k+1 in-flight rounds' receive states, lastSeen the newest
	// round observed from each sender (stale frames included — they are
	// liveness evidence the stall detector and pacing brake feed on),
	// stalled the current stall classification, misses the per-peer score.
	ring     []roundState
	lastSeen []int
	stalled  []bool
	misses   []int64

	stats NodeStats

	// Per-round scratch, recycled across rounds so the protocol loop does
	// not allocate per round: out is the send phase's message batch,
	// slots[s] holds the message of sender s (seen[s] marks arrival).
	// The computation phase runs through the base+patch kernel: the
	// deterministic schedule tells every node which senders are
	// asymmetric this round (occupied nodes, and M3-cured poisoned
	// queues), so received values split into a symmetric base and an
	// O(f) patch — on a partial topology the base is naturally restricted
	// to the node's neighbors+self, since only their values arrive. The
	// kernel sorts both sides and merges them (msr.Kernel.Vote), which
	// may reorder the buffers.
	out    []transport.Message
	slots  []transport.Message
	seen   []bool
	isAsym []bool
	base   []float64
	patch  []float64
	kern   msr.Kernel

	// dirVals/dirOmit are the node's per-round send directives, indexed
	// like dests: the deployment analogue of the simulator's bulk
	// Directives block. planSend derives the whole round's script from the
	// schedule in one pass; the transport batch below merely materializes
	// it into messages.
	dirVals []float64
	dirOmit []bool
}

// NewNode wires a node to its link.
func NewNode(cfg Config, link transport.Link) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if link == nil {
		return nil, errors.New("cluster: nil link")
	}
	nd := &Node{
		cfg:    cfg,
		link:   link,
		tau:    cfg.Model.Trim(cfg.F),
		vote:   cfg.Input,
		buffer: make(map[int][]transport.Message),
		inNbr:  make([]bool, cfg.N),
		slots:  make([]transport.Message, cfg.N),
		seen:   make([]bool, cfg.N),
		isAsym: make([]bool, cfg.N),
		win:    make([]transport.RoundWindow, cfg.N),
	}
	if cfg.PipelineDepth > 0 {
		nd.ring = make([]roundState, cfg.PipelineDepth+1)
		for i := range nd.ring {
			nd.ring[i] = roundState{
				round: -1,
				seen:  make([]bool, cfg.N),
				slots: make([]transport.Message, cfg.N),
			}
		}
		nd.lastSeen = make([]int, cfg.N)
		for i := range nd.lastSeen {
			nd.lastSeen[i] = -1
		}
		nd.stalled = make([]bool, cfg.N)
		nd.misses = make([]int64, cfg.N)
	}
	if cfg.Topology != nil {
		nbrs := cfg.Topology.Neighbors(cfg.ID)
		nd.dests = make([]int, 0, len(nbrs)+1)
		placed := false
		for _, j := range nbrs {
			if !placed && j > cfg.ID {
				nd.dests = append(nd.dests, cfg.ID)
				placed = true
			}
			nd.dests = append(nd.dests, j)
		}
		if !placed {
			nd.dests = append(nd.dests, cfg.ID)
		}
	} else {
		nd.dests = make([]int, cfg.N)
		for i := range nd.dests {
			nd.dests[i] = i
		}
	}
	nd.expect = len(nd.dests)
	for _, j := range nd.dests {
		nd.inNbr[j] = true
	}
	nd.out = make([]transport.Message, 0, nd.expect)
	nd.base = make([]float64, 0, nd.expect)
	nd.patch = make([]float64, 0, nd.expect)
	nd.dirVals = make([]float64, nd.expect)
	nd.dirOmit = make([]bool, nd.expect)
	return nd, nil
}

// Reset rewires a finished node for a fresh run with a new input, input
// range, round count and link, keeping everything derived from the validated
// config — topology arrays, kernel scratch, directive buffers — allocated.
// This is the service layer's pooling hook: one node set is constructed and
// validated per pool slot, then recycled across agreement instances.
// fixedRounds must be positive (the service resolves the horizon up front so
// all nodes of an instance halt together); input and inputRange are not
// re-validated here — the caller owns input hygiene.
func (nd *Node) Reset(input, inputRange float64, fixedRounds int, link transport.Link) {
	nd.cfg.Input = input
	nd.cfg.InputRange = inputRange
	nd.cfg.FixedRounds = fixedRounds
	nd.link = link
	nd.vote = input
	nd.stats = NodeStats{}
	for r := range nd.buffer {
		delete(nd.buffer, r)
	}
	for i := range nd.win {
		nd.win[i].Reset()
	}
	for i := range nd.ring {
		nd.ring[i].round = -1
		nd.ring[i].count = 0
		for j := range nd.ring[i].seen {
			nd.ring[i].seen[j] = false
		}
	}
	for i := range nd.lastSeen {
		nd.lastSeen[i] = -1
	}
	for i := range nd.stalled {
		nd.stalled[i] = false
	}
	for i := range nd.misses {
		nd.misses[i] = 0
	}
}

// Stats returns the node's transport counters so far (valid after Run; not
// synchronized with a concurrently executing Run). Link-layer counters are
// folded in through every wrapping layer: a chaos wrapper contributes the
// corrupt/partition losses addressed to this node, the transport below it
// its authentication, replay and misdirection drops.
func (nd *Node) Stats() NodeStats {
	s := nd.stats
	if nd.misses != nil {
		s.PeerMisses = append([]int64(nil), nd.misses...)
	}
	for link := nd.link; link != nil; {
		if lc, ok := link.(linkCounters); ok {
			s.Rejected += lc.AuthFailures() + lc.ReplayDrops() + lc.MisdirectDrops()
		}
		if cc, ok := link.(chaosCounters); ok {
			s.Corrupt += cc.IncomingCorrupt()
			s.Partitioned += cc.IncomingPartitioned()
		}
		if oc, ok := link.(overflowCounter); ok {
			s.Overflow += oc.InboundOverflow()
		}
		if hc, ok := link.(healthCounters); ok {
			s.Reconnects += hc.Reconnects()
			s.DialRetries += hc.DialRetries()
			s.PeerDownEvents += hc.PeerDownEvents()
			s.PeerDownDrops += hc.PeerDownDrops()
		}
		u, ok := link.(linkUnwrapper)
		if !ok {
			break
		}
		link = u.Unwrap()
	}
	return s
}

// Run executes the protocol and returns this node's decision, as
// RunContext without cancellation.
func (nd *Node) Run() (float64, error) { return nd.RunContext(context.Background()) }

// RunContext executes the protocol and returns this node's decision. It
// blocks until the locally computed round count has elapsed or ctx is
// cancelled; the caller runs one goroutine per node and joins them.
//
// The round loop is a scheduler over receive states: at depth 0 one state
// exists (the current round's — strict lockstep, collect), at depth k > 0
// the ring holds up to k+1 in-flight rounds and the node advances as soon
// as the current round's quorum-or-deadline condition is met
// (collectPipelined).
func (nd *Node) RunContext(ctx context.Context) (float64, error) {
	rounds, err := nd.cfg.Rounds()
	if err != nil {
		return 0, err
	}
	var prevOcc []int
	for r := 0; r < rounds; r++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		occ := nd.cfg.Schedule.Occupied(r)
		occupied := contains(occ, nd.cfg.ID)
		cured := contains(prevOcc, nd.cfg.ID) && !occupied
		nd.classifySenders(occ, prevOcc)

		if err := nd.send(r, occupied, cured); err != nil {
			return 0, err
		}
		var base, patch []float64
		if nd.cfg.PipelineDepth > 0 {
			base, patch, err = nd.collectPipelined(ctx, r)
		} else {
			base, patch, err = nd.collect(ctx, r)
		}
		if err != nil {
			return 0, err
		}
		if len(base)+len(patch) > 0 {
			v, err := nd.kern.Vote(nd.cfg.Algorithm, nd.tau, base, patch)
			if err != nil {
				return 0, fmt.Errorf("cluster: node %d round %d: %w", nd.cfg.ID, r, err)
			}
			nd.vote = v
		}
		if occupied && nd.cfg.Model != mobile.M4Buhrman {
			// The agent leaves a corrupted value behind; under M2 the
			// node will broadcast it while cured. Under M4 the agent
			// departs with the message, before the computation phase,
			// so the released host's recomputed state is clean.
			if nd.cfg.CampBoundary > 0 {
				nd.vote = nd.cfg.AttackHi // the splitter's LeaveBehind
			} else {
				nd.vote = nd.vote + nd.cfg.InputRange
			}
		}
		prevOcc = occ
	}
	return nd.vote, nil
}

// classifySenders marks which senders are asymmetric this round, from the
// shared deterministic schedule: nodes the agents occupy, plus — under M3 —
// the just-released nodes whose poisoned queues send per-receiver garbage.
// Every other sender is symmetric and feeds the kernel's base (M2-cured
// nodes broadcast one corrupted value to everybody — symmetric by
// definition; M1-cured nodes are silent and contribute nothing either way).
func (nd *Node) classifySenders(occ, prevOcc []int) {
	for i := range nd.isAsym {
		nd.isAsym[i] = false
	}
	for _, id := range occ {
		if id >= 0 && id < nd.cfg.N {
			nd.isAsym[id] = true
		}
	}
	if nd.cfg.Model == mobile.M3Sasaki {
		for _, id := range prevOcc {
			if id >= 0 && id < nd.cfg.N && !contains(occ, id) {
				nd.isAsym[id] = true
			}
		}
	}
}

// planSend derives this round's complete send script from the node's
// schedule-given role in one pass, filling the per-destination directive
// buffers. The role is fixed for the whole round — occupied, cured, or
// correct — so the (value, omit) decision is a pure function of the role
// and the destination, mirroring the simulator's once-per-round batched
// adversary consultation.
func (nd *Node) planSend(occupied, cured bool) {
	for i, to := range nd.dests {
		v, omit := nd.vote, false
		switch {
		case occupied && nd.cfg.Crash:
			omit = true
		case occupied && nd.cfg.CampBoundary > 0:
			// Splitter-style camp attack: hold the two halves apart.
			if to < nd.cfg.CampBoundary {
				v = nd.cfg.AttackLo
			} else {
				v = nd.cfg.AttackHi
			}
		case occupied:
			// Byzantine: per-receiver split values at the spec extremes.
			if to%2 == 0 {
				v = nd.vote - nd.cfg.InputRange
			} else {
				v = nd.vote + nd.cfg.InputRange
			}
		case cured:
			switch nd.cfg.Model {
			case mobile.M1Garay:
				omit = true // aware: stays silent one round
			case mobile.M3Sasaki:
				// Poisoned queue: per-receiver garbage (camp-targeted
				// when the camp attack is on — the departing agent
				// loaded the queue).
				switch {
				case nd.cfg.CampBoundary > 0 && to < nd.cfg.CampBoundary:
					v = nd.cfg.AttackLo
				case nd.cfg.CampBoundary > 0:
					v = nd.cfg.AttackHi
				case to%2 == 0:
					v = nd.vote - nd.cfg.InputRange/2
				default:
					v = nd.vote + nd.cfg.InputRange/2
				}
			default:
				// M2: broadcasts the corrupted stored value (symmetric);
				// M4: cured nodes behave correctly.
			}
		}
		nd.dirVals[i] = v
		nd.dirOmit[i] = omit
	}
}

// send materializes the round's planned directives into messages and hands
// the whole batch to the link in a single call when it supports batching
// (one lock/write cycle per round instead of one per message on the TCP
// path).
func (nd *Node) send(round int, occupied, cured bool) error {
	nd.planSend(occupied, cured)
	nd.out = nd.out[:0]
	for i, to := range nd.dests {
		nd.out = append(nd.out, transport.Message{
			Round:   round,
			To:      to,
			Value:   nd.dirVals[i],
			Omitted: nd.dirOmit[i],
		})
	}
	var err error
	if bs, ok := nd.link.(transport.BatchSender); ok {
		err = bs.SendBatch(nd.out)
	} else {
		for _, m := range nd.out {
			if err = nd.link.Send(m); err != nil {
				break
			}
		}
	}
	if err != nil {
		return fmt.Errorf("cluster: node %d send round %d: %w", nd.cfg.ID, round, err)
	}
	nd.stats.Sent += int64(len(nd.out))
	return nil
}

// collect gathers this round's values until all expected senders reported
// or the deadline passed, splitting them into the kernel's symmetric base
// and asymmetric patch per the round's sender classification. Early
// messages for future rounds are buffered; stale messages are dropped;
// messages from senders outside the node's neighborhood are rejected.
func (nd *Node) collect(ctx context.Context, round int) (base, patch []float64, err error) {
	count := 0
	for i := range nd.seen {
		nd.seen[i] = false
	}
	record := func(m transport.Message) {
		// The transport layer validates sender ids at send time; drop
		// anything out of range — or outside the neighbor graph —
		// defensively rather than trusting it.
		if m.From < 0 || m.From >= nd.cfg.N || !nd.inNbr[m.From] {
			nd.stats.Rejected++
			return
		}
		if nd.seen[m.From] {
			// Second frame for a (sender, round) we already hold: a chaos
			// duplicate. First frame wins.
			nd.stats.Duplicates++
			return
		}
		count++
		nd.stats.Received++
		nd.seen[m.From] = true
		nd.slots[m.From] = m
		nd.win[m.From].Record(m.Round)
	}
	for _, m := range nd.buffer[round] {
		record(m)
	}
	delete(nd.buffer, round)

	deadline := time.NewTimer(nd.cfg.RoundTimeout)
	defer deadline.Stop()
	// SyncRounds keeps collecting until the deadline even when every sender
	// already reported, so all nodes stay on one shared round clock.
	for nd.cfg.SyncRounds || count < nd.expect {
		select {
		case m, ok := <-nd.link.Recv():
			if !ok {
				return nil, nil, errors.New("cluster: link closed mid-round")
			}
			switch {
			case m.Round == round:
				record(m)
			case m.Round > round:
				nd.buffer[m.Round] = append(nd.buffer[m.Round], m)
			default:
				// Stale: that round already ended by deadline. The replay
				// window tells a chaos duplicate of a recorded frame apart
				// from a genuinely late original.
				if m.From >= 0 && m.From < nd.cfg.N && nd.win[m.From].Recorded(m.Round) {
					nd.stats.Duplicates++
				} else {
					nd.stats.Late++
				}
			}
		case <-deadline.C:
			// Missing senders become detected omissions (benign).
			nd.stats.Omissions += int64(nd.expect - count)
			goto done
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
done:
	base, patch = nd.base[:0], nd.patch[:0]
	for s := range nd.slots {
		if !nd.seen[s] {
			continue
		}
		if m := nd.slots[s]; !m.Omitted && !math.IsNaN(m.Value) {
			if nd.isAsym[s] {
				patch = append(patch, m.Value)
			} else {
				base = append(base, m.Value)
			}
		} else {
			nd.stats.Omissions++
		}
	}
	return base, patch, nil
}

// roundState is one in-flight round's receive state in the pipeline ring:
// which round owns the slot (-1: free), how many expected senders reported,
// and their messages. Slots recycle in place — the window [current,
// current+k] spans at most k+1 rounds, and a slot's previous owner round
// closed before its successor (k+1 rounds later) could enter the window.
type roundState struct {
	round int
	count int
	seen  []bool
	slots []transport.Message
}

// slot returns round's receive state, activating (and recycling) its ring
// entry on first touch.
func (nd *Node) slot(round int) *roundState {
	st := &nd.ring[round%len(nd.ring)]
	if st.round != round {
		st.round = round
		st.count = 0
		for i := range st.seen {
			st.seen[i] = false
		}
	}
	return st
}

// collectPipelined is collect's pipelined-mode counterpart: the
// round-scheduler closes round r against the ring's per-round receive
// states. Frames for rounds (r, r+k] are recorded into their own slot
// instead of a map, so later rounds fill while r is still open; frames
// outside the window are dropped and counted. Round r closes on the first
// of: every expected sender reported; the early-close quorum held (a
// majority reported, and advancing keeps this node within k rounds of the
// slowest non-stalled peer); all still-missing senders are stall-flagged;
// or the deadline fired. Missing senders become omissions on every close
// path — exactly the deadline's ruling, reached sooner.
func (nd *Node) collectPipelined(ctx context.Context, round int) (base, patch []float64, err error) {
	st := nd.slot(round)
	deadline := time.NewTimer(nd.cfg.RoundTimeout)
	defer deadline.Stop()
	for {
		// Drain everything already delivered before consulting the close
		// rule: an early close must never discard a frame that has arrived.
		for st.count < nd.expect {
			select {
			case m, ok := <-nd.link.Recv():
				if !ok {
					return nil, nil, errors.New("cluster: link closed mid-round")
				}
				nd.admit(m, round)
				continue
			default:
			}
			break
		}
		if nd.closeable(st, round) {
			break
		}
		select {
		case m, ok := <-nd.link.Recv():
			if !ok {
				return nil, nil, errors.New("cluster: link closed mid-round")
			}
			nd.admit(m, round)
		case <-deadline.C:
			goto closed
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
closed:
	if st.count < nd.expect {
		// Missing senders become detected omissions (benign), and raise
		// the per-peer miss score the stall classification feeds on.
		nd.stats.Omissions += int64(nd.expect - st.count)
		for _, s := range nd.dests {
			if !st.seen[s] && s != nd.cfg.ID {
				nd.misses[s]++
			}
		}
	}
	if nd.cfg.SyncRounds {
		// admit held back these frames' liveness evidence until now.
		for s := range st.slots {
			if st.seen[s] && nd.lastSeen[s] < round {
				nd.lastSeen[s] = round
			}
		}
	}
	// Refresh the stall classification for the next round: a peer whose
	// newest observed frame trails the round this node is advancing to by
	// more than k is stalled; it recovers as soon as its frames catch back
	// up within the window.
	k := nd.cfg.PipelineDepth
	for _, s := range nd.dests {
		if s == nd.cfg.ID {
			continue
		}
		stalled := round+1-nd.lastSeen[s] > k
		if stalled && !nd.stalled[s] {
			nd.stats.StallEvents++
		}
		nd.stalled[s] = stalled
	}
	base, patch = nd.base[:0], nd.patch[:0]
	for s := range st.slots {
		if !st.seen[s] {
			continue
		}
		if m := st.slots[s]; !m.Omitted && !math.IsNaN(m.Value) {
			if nd.isAsym[s] {
				patch = append(patch, m.Value)
			} else {
				base = append(base, m.Value)
			}
		} else {
			nd.stats.Omissions++
		}
	}
	return base, patch, nil
}

// admit routes one inbound frame against the pipeline window [round,
// round+k]. Any frame from an expected sender — stale ones included —
// refreshes lastSeen: even a too-old frame proves the peer alive, which the
// stall detector and pacing brake feed on. Under SyncRounds a frame for a
// later round counts only once its round closes: every node closes at its
// own deadline, so whether a peer's next-round frame lands before this
// node's close is a scheduling race, and counting it would make
// StallEvents differ between same-seed runs.
func (nd *Node) admit(m transport.Message, round int) {
	if m.From < 0 || m.From >= nd.cfg.N || !nd.inNbr[m.From] {
		nd.stats.Rejected++
		return
	}
	if m.Round > nd.lastSeen[m.From] && (!nd.cfg.SyncRounds || m.Round <= round) {
		nd.lastSeen[m.From] = m.Round
	}
	switch {
	case m.Round < round:
		// That round closed. A recorded (sender, round) is a chaos
		// duplicate; an unrecorded one fell out of the window: stale.
		if nd.win[m.From].Recorded(m.Round) {
			nd.stats.Duplicates++
		} else {
			nd.stats.StaleRounds++
		}
	case m.Round > round+nd.cfg.PipelineDepth:
		// Beyond the window: the sender ran further ahead than the ring
		// tracks (it has stall-flagged this node). Dropped and counted;
		// its absence surfaces as an omission when this round is reached.
		nd.stats.StaleRounds++
	default:
		st := nd.slot(m.Round)
		if st.seen[m.From] {
			nd.stats.Duplicates++
			return
		}
		st.seen[m.From] = true
		st.slots[m.From] = m
		st.count++
		nd.stats.Received++
		nd.win[m.From].Record(m.Round)
	}
}

// closeable reports whether round's receive state can close now. With
// SyncRounds (chaos deployments) rounds always last their full deadline at
// any depth — early close would reintroduce the cross-node round skew the
// shared round clock exists to remove, breaking seeded replay — so only
// the deadline closes them.
func (nd *Node) closeable(st *roundState, round int) bool {
	if nd.cfg.SyncRounds {
		return false
	}
	if st.count == nd.expect {
		return true
	}
	// Quorum: a majority reported, and advancing keeps this node within k
	// rounds of the slowest peer still considered live. The missing
	// minority becomes omissions — exactly what the deadline would rule,
	// reached as soon as the ruling cannot change the quorum.
	if 2*st.count > nd.expect && nd.withinBrake(round) {
		return true
	}
	// Every still-missing sender is stall-flagged: waiting out the
	// deadline buys nothing — their round-r frames are already beyond the
	// window on their side.
	return nd.missingAllStalled(st)
}

// withinBrake reports whether advancing past round keeps this node within
// PipelineDepth rounds of the slowest non-stalled peer's newest observed
// frame. Stalled peers are excluded — the stall detector's point is that
// one wedged peer must not wedge the cluster — and with no live peer at
// all the brake holds (the all-stalled close and the deadline pace the
// node instead).
func (nd *Node) withinBrake(round int) bool {
	min, live := 0, false
	for _, s := range nd.dests {
		if s == nd.cfg.ID || nd.stalled[s] {
			continue
		}
		if !live || nd.lastSeen[s] < min {
			min, live = nd.lastSeen[s], true
		}
	}
	if !live {
		return false
	}
	return round+1-min <= nd.cfg.PipelineDepth
}

// missingAllStalled reports whether every expected sender still missing
// from the round is currently stall-flagged. The node itself is never
// flagged, so a round with nothing received (not even the self frame)
// stays open.
func (nd *Node) missingAllStalled(st *roundState) bool {
	if st.count == 0 {
		return false
	}
	for _, s := range nd.dests {
		if !st.seen[s] && !nd.stalled[s] {
			return false
		}
	}
	return true
}

// contains reports whether xs includes x.
func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// HonestAtEnd returns which nodes are NOT occupied by an agent in the final
// round of an R-round run — the nodes whose decisions count, mirroring the
// simulator's Decided semantics (a node the agent controls at decision time
// outputs whatever the agent wants).
func HonestAtEnd(s FaultSchedule, rounds, n int) []bool {
	honest := make([]bool, n)
	for i := range honest {
		honest[i] = true
	}
	if rounds <= 0 {
		return honest
	}
	for _, id := range s.Occupied(rounds - 1) {
		if id >= 0 && id < n {
			honest[id] = false
		}
	}
	return honest
}

// Outcome is one node's result in a RunCluster deployment.
type Outcome struct {
	Value float64
	Stats NodeStats
}

// RunCluster is the test/demo harness: it builds n nodes over the given
// links, runs them concurrently, and returns their decisions. The links
// slice must come from one mesh (transport.Channel.Link or NewTCPMesh).
// Cancelling ctx aborts every node at its next receive or round boundary.
func RunCluster(ctx context.Context, cfgs []Config, links []transport.Link) ([]float64, error) {
	outcomes, err := RunClusterOutcomes(ctx, cfgs, links)
	if err != nil {
		return nil, err
	}
	decisions := make([]float64, len(outcomes))
	for i, o := range outcomes {
		decisions[i] = o.Value
	}
	return decisions, nil
}

// RunClusterOutcomes is RunCluster with per-node transport stats included.
func RunClusterOutcomes(ctx context.Context, cfgs []Config, links []transport.Link) ([]Outcome, error) {
	outcomes, down, err := RunClusterDeadline(ctx, cfgs, links, 0)
	if err != nil {
		return nil, err
	}
	if len(down) > 0 {
		// Unreachable with horizon 0, but keep the invariant explicit.
		return nil, fmt.Errorf("cluster: nodes %v down", down)
	}
	return outcomes, nil
}

// downGrace is how long the watchdog waits, after cancelling the run, for
// the surviving nodes to notice and report their partial state. A variable
// so tests can shorten the wedged-node path.
var downGrace = 2 * time.Second

// RunClusterDeadline is RunClusterOutcomes with a watchdog: if the whole
// run has not completed within horizon (> 0), the remaining nodes are
// cancelled, given a short grace period to surface their partial outcomes,
// and reported in the down list — the deployment-facing answer to "a node
// stayed dead past its timeout horizon" that previously hung the caller.
// Nodes cancelled by the watchdog (or wedged past the grace period) appear
// in down with a zero/partial Outcome; nodes that failed for any other
// reason surface through err as before. horizon <= 0 disables the watchdog.
func RunClusterDeadline(ctx context.Context, cfgs []Config, links []transport.Link, horizon time.Duration) ([]Outcome, []int, error) {
	if len(cfgs) != len(links) {
		return nil, nil, fmt.Errorf("cluster: %d configs for %d links", len(cfgs), len(links))
	}
	nodes := make([]*Node, len(cfgs))
	for i := range cfgs {
		node, err := NewNode(cfgs[i], links[i])
		if err != nil {
			return nil, nil, err
		}
		nodes[i] = node
	}
	return RunNodes(ctx, nodes, horizon)
}

// RunNodes is RunClusterDeadline over already-constructed nodes: it runs
// them concurrently under the same watchdog semantics and returns their
// outcomes and the down list. This is the service layer's entry point — a
// pooled node set is Reset with a new instance's inputs and links, then
// handed here, skipping per-instance construction and validation.
func RunNodes(ctx context.Context, nodes []*Node, horizon time.Duration) ([]Outcome, []int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(nodes)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		id    int
		value float64
		err   error
	}
	results := make(chan result, n)
	for i, node := range nodes {
		go func(id int, nd *Node) {
			v, err := nd.RunContext(runCtx)
			results <- result{id: id, value: v, err: err}
		}(i, node)
	}

	var watchdog <-chan time.Time
	if horizon > 0 {
		t := time.NewTimer(horizon)
		defer t.Stop()
		watchdog = t.C
	}
	outcomes := make([]Outcome, n)
	isDown := make([]bool, n)
	for id := range isDown {
		isDown[id] = true // cleared as each node reports a real outcome
	}
	var firstErr error
	expired := false
	record := func(o result) {
		switch {
		case o.err == nil:
			isDown[o.id] = false
		case expired && errors.Is(o.err, context.Canceled):
			// The watchdog's own cancellation, not a node failure: the node
			// never reached a decision and stays in the down list.
		default:
			isDown[o.id] = false
			if firstErr == nil {
				firstErr = fmt.Errorf("node %d: %w", o.id, o.err)
			}
		}
		outcomes[o.id] = Outcome{Value: o.value, Stats: nodes[o.id].Stats()}
	}
	remaining := n
collect:
	for remaining > 0 {
		select {
		case o := <-results:
			record(o)
			remaining--
		case <-watchdog:
			expired = true
			cancel()
			grace := time.NewTimer(downGrace)
			for remaining > 0 {
				select {
				case o := <-results:
					record(o)
					remaining--
				case <-grace.C:
					// Wedged past cancellation: leave the outcome zeroed —
					// its goroutine may still be touching node state, so
					// not even Stats is safe to read.
					break collect
				}
			}
			grace.Stop()
		}
	}
	var down []int
	for id, d := range isDown {
		if d {
			down = append(down, id)
		}
	}
	if firstErr != nil {
		return outcomes, down, firstErr
	}
	return outcomes, down, nil
}
