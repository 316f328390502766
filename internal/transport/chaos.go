package transport

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mbfaa/internal/prng"
)

// ChaosSpec is the JSON-serializable description of a deterministic fault
// injection campaign. Every fault the chaos layer injects is drawn from a
// PRNG stream derived from (Seed, from, to, per-link message index), so the
// same spec reproduces the same fault trace bit-for-bit regardless of
// goroutine scheduling: replaying a failure is copying one seed.
//
// Rates are per-message probabilities on each directed link; windows are
// indexed by the *message round* (not wall-clock), which keeps partitions
// and crash-recover schedules deterministic too.
type ChaosSpec struct {
	// Seed derives every per-link fault stream. Two runs with the same
	// seed (and the same message sequence per link) inject identical
	// faults.
	Seed uint64 `json:"seed"`
	// DropRate silently loses a frame (the receiver sees an omission at
	// its round deadline).
	DropRate float64 `json:"drop_rate,omitempty"`
	// DupRate delivers a frame twice; the duplicate is dropped by the
	// receiving node's replay window and counted there.
	DupRate float64 `json:"dup_rate,omitempty"`
	// CorruptRate mangles the encoded frame. The chaos layer runs the
	// mangled bytes through the real codec so the HMAC rejection path
	// fires; a corrupted frame is counted and dropped, never delivered
	// wrong.
	CorruptRate float64 `json:"corrupt_rate,omitempty"`
	// ReorderRate holds a frame back until the next send on the same link
	// (bounded reordering, window 1): the held frame arrives after its
	// successor, exercising the receiver's cross-round buffer. Because the
	// held frame crosses a round boundary, whether the receiver still
	// counts it (Received) or has already closed the round (Late) races
	// the round deadline: the injected-fault trace stays deterministic,
	// but per-node attribution does not. For bit-identical NodeStats
	// replay, drive a campaign with drops, duplication and corruption
	// only.
	ReorderRate float64 `json:"reorder_rate,omitempty"`
	// LatencyMax adds a uniform per-frame delivery delay in
	// [0, LatencyMax). Keep it well below the protocol's round deadline:
	// the *fault trace* stays deterministic either way, but a delay that
	// races the deadline makes the protocol outcome timing-dependent.
	LatencyMax time.Duration `json:"latency_max,omitempty"`
	// ResetRate injects a mid-stream connection reset before the frame is
	// handed on: on transports that hold real per-peer connections (TCP)
	// the sender's live connection to the destination is closed, and the
	// self-healing writer retains and resends over a fresh one. The reset
	// decision rides the same per-frame stream as the other rates, so the
	// fault trace stays a pure function of the seed; on connectionless
	// transports it is recorded but has no effect.
	ResetRate float64 `json:"reset_rate,omitempty"`
	// DialFailRate fails an outbound dial attempt with this probability,
	// opening a window of DialFailBurst consecutive failures per trigger —
	// connection churn the transport's retry policy must ride out. The
	// decision stream is seeded per (link, attempt index); the attempt
	// index itself advances with real reconnect timing, so dial faults are
	// counted (ChaosStats.DialFails) but kept out of the ordered frame
	// trace.
	DialFailRate float64 `json:"dial_fail_rate,omitempty"`
	// DialFailBurst is how many consecutive dial attempts fail once
	// DialFailRate triggers (0 and 1 both mean a single attempt).
	DialFailBurst int `json:"dial_fail_burst,omitempty"`
	// Partitions are scheduled network splits with heal times.
	Partitions []PartitionWindow `json:"partitions,omitempty"`
	// Crashes are per-node crash-recover windows: a crashed node's
	// outbound and inbound frames are dropped for the window's rounds.
	Crashes []CrashWindow `json:"crashes,omitempty"`
}

// PartitionWindow isolates node set A from the rest of the cluster for the
// rounds [Start, End): frames crossing the cut in either direction are
// dropped. End is the heal round.
type PartitionWindow struct {
	Start int   `json:"start"`
	End   int   `json:"end"`
	A     []int `json:"a"`
}

// CrashWindow marks node Node as crashed for the rounds [Start, End): every
// frame it sends or should receive in those rounds is dropped, modelling a
// process that is down and recovers with an empty inbox. End <= 0 means the
// node never recovers.
type CrashWindow struct {
	Node  int `json:"node"`
	Start int `json:"start"`
	End   int `json:"end,omitempty"`
}

// Active reports whether the spec injects any fault at all. A zero-rate,
// window-free spec makes Chaos a pure pass-through.
func (s *ChaosSpec) Active() bool {
	if s == nil {
		return false
	}
	return s.DropRate > 0 || s.DupRate > 0 || s.CorruptRate > 0 ||
		s.ReorderRate > 0 || s.LatencyMax > 0 ||
		s.ResetRate > 0 || s.DialFailRate > 0 ||
		len(s.Partitions) > 0 || len(s.Crashes) > 0
}

// Validate checks the spec for an n-node cluster: rates must be
// probabilities, windows well-formed with ids in [0, n).
func (s *ChaosSpec) Validate(n int) error {
	for _, r := range []struct {
		name string
		rate float64
	}{
		{"drop_rate", s.DropRate},
		{"dup_rate", s.DupRate},
		{"corrupt_rate", s.CorruptRate},
		{"reorder_rate", s.ReorderRate},
		{"reset_rate", s.ResetRate},
		{"dial_fail_rate", s.DialFailRate},
	} {
		if r.rate < 0 || r.rate > 1 || math.IsNaN(r.rate) {
			return fmt.Errorf("transport: chaos %s %v outside [0,1]", r.name, r.rate)
		}
	}
	if s.LatencyMax < 0 {
		return fmt.Errorf("transport: chaos latency_max %v negative", s.LatencyMax)
	}
	if s.DialFailBurst < 0 {
		return fmt.Errorf("transport: chaos dial_fail_burst %d negative", s.DialFailBurst)
	}
	for i, w := range s.Partitions {
		if w.Start < 0 || w.End <= w.Start {
			return fmt.Errorf("transport: chaos partition %d window [%d,%d) empty or negative", i, w.Start, w.End)
		}
		if len(w.A) == 0 || len(w.A) >= n {
			return fmt.Errorf("transport: chaos partition %d isolates %d of %d nodes; need a proper non-empty subset", i, len(w.A), n)
		}
		for _, id := range w.A {
			if id < 0 || id >= n {
				return fmt.Errorf("transport: chaos partition %d names node %d outside [0,%d)", i, id, n)
			}
		}
	}
	for i, w := range s.Crashes {
		if w.Node < 0 || w.Node >= n {
			return fmt.Errorf("transport: chaos crash %d names node %d outside [0,%d)", i, w.Node, n)
		}
		if w.Start < 0 || (w.End > 0 && w.End <= w.Start) {
			return fmt.Errorf("transport: chaos crash %d window [%d,%d) empty or negative", i, w.Start, w.End)
		}
	}
	return nil
}

// CrashedAt reports whether the spec marks node as crashed in round.
func (s *ChaosSpec) CrashedAt(node, round int) bool {
	if s == nil {
		return false
	}
	for _, w := range s.Crashes {
		if w.Node == node && round >= w.Start && (w.End <= 0 || round < w.End) {
			return true
		}
	}
	return false
}

// partitionedAt reports whether a frame from→to in round crosses an active
// partition cut.
func (s *ChaosSpec) partitionedAt(from, to, round int) bool {
	for _, w := range s.Partitions {
		if round < w.Start || round >= w.End {
			continue
		}
		inA := func(id int) bool {
			for _, a := range w.A {
				if a == id {
					return true
				}
			}
			return false
		}
		if inA(from) != inA(to) {
			return true
		}
	}
	return false
}

// FaultBudget is a conservative estimate of the extra per-round,
// per-receiver faults the spec injects on an n-node cluster, in units the
// Table 2 resilience bounds understand: the expected lossy frames across
// the n-1 inbound links (drops and corruptions both surface as omissions),
// plus the worst number of concurrently crashed nodes, plus the largest
// partition minority (an isolated node loses every sender on the far side).
// Deployments validate schedule f + FaultBudget against the model bound.
// Connection-level faults (ResetRate, DialFailRate) are deliberately not
// budgeted: the transport's retry policy heals them — frames are retained
// and resent, not lost — so they cost latency within the round, not
// omissions.
func (s *ChaosSpec) FaultBudget(n int) int {
	if s == nil || n <= 1 {
		return 0
	}
	budget := int(math.Ceil((s.DropRate + s.CorruptRate) * float64(n-1)))
	maxCrashed := 0
	for _, w := range s.Crashes {
		// Evaluate concurrency at each window's start round: overlap
		// counts can only change at a boundary.
		crashed := 0
		for _, v := range s.Crashes {
			if w.Start >= v.Start && (v.End <= 0 || w.Start < v.End) {
				crashed++
			}
		}
		if crashed > maxCrashed {
			maxCrashed = crashed
		}
	}
	budget += maxCrashed
	maxCut := 0
	for _, w := range s.Partitions {
		cut := len(w.A)
		if rest := n - cut; rest < cut {
			cut = rest
		}
		if cut > maxCut {
			maxCut = cut
		}
	}
	return budget + maxCut
}

// HealSpan returns the total number of rounds covered by heal-bounded
// windows (partitions plus finite crash windows): rounds during which parts
// of the cluster make no cross-cut progress, which a run horizon must sit
// out on top of its contraction-derived round count.
func (s *ChaosSpec) HealSpan() int {
	if s == nil {
		return 0
	}
	span := 0
	for _, w := range s.Partitions {
		span += w.End - w.Start
	}
	for _, w := range s.Crashes {
		if w.End > w.Start {
			span += w.End - w.Start
		}
	}
	return span
}

// FaultKind labels one injected fault in the trace.
type FaultKind uint8

// The injected fault kinds, in the order the per-message pipeline decides
// them.
const (
	FaultCrash FaultKind = iota + 1
	FaultPartition
	FaultDrop
	FaultCorrupt
	FaultDup
	FaultReorder
	FaultDelay
	FaultReset
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultPartition:
		return "partition"
	case FaultDrop:
		return "drop"
	case FaultCorrupt:
		return "corrupt"
	case FaultDup:
		return "dup"
	case FaultReorder:
		return "reorder"
	case FaultDelay:
		return "delay"
	case FaultReset:
		return "reset"
	default:
		return fmt.Sprintf("fault(%d)", uint8(k))
	}
}

// FaultEvent is one injected fault: the Index-th frame on the directed link
// From→To (a message of round Round) suffered Kind. Delay is set for
// FaultDelay events. The trace of a run is the concatenation of every
// link's events, a pure function of (ChaosSpec, per-link message sequence).
type FaultEvent struct {
	From, To int
	Index    uint64
	Round    int
	Kind     FaultKind
	Delay    time.Duration
}

// ChaosStats aggregates the injected-fault counters of one Chaos instance.
type ChaosStats struct {
	Drops, Corrupted, Duplicated, Reordered, Delayed int64
	PartitionDrops, CrashDrops                       int64
	Resets, DialFails                                int64
}

// Total returns the number of injected fault events.
func (s ChaosStats) Total() int64 {
	return s.Drops + s.Corrupted + s.Duplicated + s.Reordered + s.Delayed +
		s.PartitionDrops + s.CrashDrops + s.Resets + s.DialFails
}

// chaosKey authenticates the frames the corruption path mangles. The value
// is irrelevant — the point is that a bit-flipped frame must fail the real
// codec's HMAC verification, which any key demonstrates.
var chaosKey = []byte("mbfaa-chaos-corruption-probe")

// Chaos injects deterministic, seeded faults between a sender and its
// transport: per-link drops, duplication, bounded reordering, latency
// jitter, frame corruption (exercised through the real codec so the HMAC
// rejection path fires — a corrupted frame is counted and dropped, never
// delivered wrong), scheduled partitions with heal times, and per-node
// crash-recover windows.
//
// Every fault decision for the k-th frame on link from→to is drawn from
// prng.New(spec.Seed).Derive(from, to, k): deterministic, independent of
// goroutine interleaving across links, so the injected-fault trace is
// bit-for-bit reproducible from the seed (see Trace).
//
// Chaos wraps either a whole Transport hub (NewChaos with a non-nil inner;
// Send/SendBatch/Inbox/Close implement Transport + BatchSender, Link(id)
// yields per-node views — the in-memory deployment path) or individual
// Links (WrapLink — the TCP deployment path, one shared Chaos across all
// nodes of a process-local mesh).
type Chaos struct {
	inner  Transport // nil when used purely via WrapLink
	n      int
	spec   ChaosSpec
	master *prng.Source
	codec  *Codec

	links []chaosLinkState // n×n directed link states, indexed from*n+to

	closed chan struct{}
	wg     sync.WaitGroup // in-flight delayed deliveries

	mu   sync.Mutex
	down bool

	drops, corrupts, dups, reorders, delays atomic.Int64
	partDrops, crashDrops                   atomic.Int64
	resets, dialFails                       atomic.Int64

	// Per-destination counters let the receiving node attribute chaos
	// losses in its own stats (corrupt-rejected, partition/crash drops).
	corruptTo []atomic.Int64
	partTo    []atomic.Int64
}

// chaosLinkState is the per-directed-link mutable state: the message
// counter driving the fault stream, the reorder hold-back slot, and the
// link's slice of the fault trace.
type chaosLinkState struct {
	mu        sync.Mutex
	count     uint64
	held      *heldFrame
	events    []FaultEvent
	dialBurst int // remaining injected dial failures of an open window
}

// heldFrame is a reordered frame waiting for its successor on the link.
type heldFrame struct {
	m       Message
	deliver func(Message) error
}

// NewChaos builds a chaos layer for an n-node cluster. inner is the
// transport hub faults are injected in front of (its Inbox/Close are
// forwarded); pass nil when wrapping per-node links with WrapLink instead.
func NewChaos(inner Transport, n int, spec ChaosSpec) (*Chaos, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: chaos n=%d must be positive", n)
	}
	if err := spec.Validate(n); err != nil {
		return nil, err
	}
	codec, err := NewCodec(chaosKey)
	if err != nil {
		return nil, err
	}
	return &Chaos{
		inner:     inner,
		n:         n,
		spec:      spec,
		master:    prng.New(spec.Seed),
		codec:     codec,
		links:     make([]chaosLinkState, n*n),
		closed:    make(chan struct{}),
		corruptTo: make([]atomic.Int64, n),
		partTo:    make([]atomic.Int64, n),
	}, nil
}

// Spec returns the spec the chaos layer was built from.
func (c *Chaos) Spec() ChaosSpec { return c.spec }

// Send implements Transport: the caller must have set m.From (Link views
// stamp it). The message runs the fault pipeline before reaching the inner
// transport.
func (c *Chaos) Send(m Message) error {
	if c.inner == nil {
		return fmt.Errorf("transport: chaos has no inner transport (use WrapLink)")
	}
	return c.process(m, c.inner.Send, nil)
}

// SendBatch implements BatchSender: each message runs the pipeline
// independently (fault decisions are per-frame).
func (c *Chaos) SendBatch(ms []Message) error {
	if c.inner == nil {
		return fmt.Errorf("transport: chaos has no inner transport (use WrapLink)")
	}
	for _, m := range ms {
		if err := c.process(m, c.inner.Send, nil); err != nil {
			return err
		}
	}
	return nil
}

// Inbox implements Transport.
func (c *Chaos) Inbox(id int) <-chan Message { return c.inner.Inbox(id) }

// Close flushes reorder hold-backs, waits for delayed deliveries to settle,
// and closes the inner transport (when it owns one). Safe to call more than
// once.
func (c *Chaos) Close() error {
	c.mu.Lock()
	if c.down {
		c.mu.Unlock()
		return nil
	}
	c.down = true
	close(c.closed)
	c.mu.Unlock()
	// Release every held frame: a hold-back waiting for a successor that
	// never came is delivered late rather than lost silently.
	for i := range c.links {
		ls := &c.links[i]
		ls.mu.Lock()
		held := ls.held
		ls.held = nil
		ls.mu.Unlock()
		if held != nil {
			_ = held.deliver(held.m)
		}
	}
	c.wg.Wait()
	if c.inner != nil {
		return c.inner.Close()
	}
	return nil
}

// Stats returns the injected-fault counters so far.
func (c *Chaos) Stats() ChaosStats {
	return ChaosStats{
		Drops:          c.drops.Load(),
		Corrupted:      c.corrupts.Load(),
		Duplicated:     c.dups.Load(),
		Reordered:      c.reorders.Load(),
		Delayed:        c.delays.Load(),
		PartitionDrops: c.partDrops.Load(),
		CrashDrops:     c.crashDrops.Load(),
		Resets:         c.resets.Load(),
		DialFails:      c.dialFails.Load(),
	}
}

// dialStreamSalt separates the dial-failure decision stream from the
// per-frame fault streams in the Derive label space (node ids stay far
// below it).
const dialStreamSalt = ^uint64(0)

// FailDial implements the transport's DialFaultInjector hook: attempt k on
// the directed link from→to fails when the seeded dial stream opens a
// failure window there — DialFailRate per attempt, each trigger failing
// DialFailBurst consecutive attempts. Decisions are a pure function of
// (seed, link, attempt index); the attempt index itself advances with real
// reconnect timing, so injected dial faults are counted in ChaosStats but
// not part of the ordered frame trace.
func (c *Chaos) FailDial(from, to int, attempt uint64) bool {
	if c.spec.DialFailRate <= 0 || from < 0 || from >= c.n || to < 0 || to >= c.n {
		return false
	}
	ls := &c.links[from*c.n+to]
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.dialBurst > 0 {
		ls.dialBurst--
		c.dialFails.Add(1)
		return true
	}
	var src prng.Source
	c.master.DeriveInto(&src, dialStreamSalt, uint64(from), uint64(to), attempt)
	if !src.Bool(c.spec.DialFailRate) {
		return false
	}
	if burst := c.spec.DialFailBurst; burst > 1 {
		ls.dialBurst = burst - 1
	}
	c.dialFails.Add(1)
	return true
}

// Trace returns the injected-fault trace: every link's events concatenated
// in (from, to) order, each link's events in message-index order. For a
// fixed per-link message sequence the trace is a pure function of the seed
// — the replay contract the soak harness prints seeds for.
func (c *Chaos) Trace() []FaultEvent {
	var out []FaultEvent
	for i := range c.links {
		ls := &c.links[i]
		ls.mu.Lock()
		out = append(out, ls.events...)
		ls.mu.Unlock()
	}
	return out
}

// CorruptDropsTo returns how many frames destined to node id the corruption
// path rejected; PartitionDropsTo counts the frames to id dropped by
// partition cuts and crash windows. The cluster node folds both into its
// NodeStats.
func (c *Chaos) CorruptDropsTo(id int) int64   { return c.corruptTo[id].Load() }
func (c *Chaos) PartitionDropsTo(id int) int64 { return c.partTo[id].Load() }

// process runs one frame through the fault pipeline, forwarding survivors
// via deliver. The draw order per frame is fixed (drop, corrupt, dup,
// reorder, delay, reset) so the stream consumption — and with it the whole
// fault trace — is reproducible from the seed alone; the reset draw sits
// last so zero-reset specs keep their historical per-frame streams.
// disrupt, when non-nil, enacts an injected connection reset on the
// sender's link to m.To (the TCP wrap path); elsewhere a reset is recorded
// but has nothing to sever.
func (c *Chaos) process(m Message, deliver func(Message) error, disrupt func(int)) error {
	if m.From < 0 || m.From >= c.n || m.To < 0 || m.To >= c.n {
		return fmt.Errorf("transport: chaos send %d->%d out of range [0,%d)", m.From, m.To, c.n)
	}
	ls := &c.links[m.From*c.n+m.To]
	ls.mu.Lock()
	k := ls.count
	ls.count++
	var src prng.Source
	c.master.DeriveInto(&src, uint64(m.From), uint64(m.To), k)
	drop := src.Bool(c.spec.DropRate)
	corrupt := src.Bool(c.spec.CorruptRate)
	dup := src.Bool(c.spec.DupRate)
	reorder := src.Bool(c.spec.ReorderRate)
	var delay time.Duration
	if c.spec.LatencyMax > 0 {
		delay = time.Duration(src.Range(0, float64(c.spec.LatencyMax)))
	}
	reset := src.Bool(c.spec.ResetRate)
	// The current frame settles first; a reorder hold-back from the
	// previous send on this link is released after it (the swap that makes
	// the reordering bounded to a window of one frame).
	held := ls.held
	ls.held = nil

	record := func(kind FaultKind, d time.Duration) {
		ls.events = append(ls.events, FaultEvent{
			From: m.From, To: m.To, Index: k, Round: m.Round, Kind: kind, Delay: d,
		})
	}

	if reset {
		// A mid-stream connection reset, severed before the frame is handed
		// on: the frame itself survives — the transport's healing writer
		// retains and resends it over a fresh connection — so a reset is
		// connection churn, not an omission.
		record(FaultReset, 0)
		c.resets.Add(1)
		if disrupt != nil {
			disrupt(m.To)
		}
	}

	var err error
	switch {
	case c.spec.CrashedAt(m.From, m.Round) || c.spec.CrashedAt(m.To, m.Round):
		record(FaultCrash, 0)
		c.crashDrops.Add(1)
		c.partTo[m.To].Add(1)
	case c.spec.partitionedAt(m.From, m.To, m.Round):
		record(FaultPartition, 0)
		c.partDrops.Add(1)
		c.partTo[m.To].Add(1)
	case drop:
		record(FaultDrop, 0)
		c.drops.Add(1)
	case corrupt:
		record(FaultCorrupt, 0)
		c.corrupts.Add(1)
		c.corruptTo[m.To].Add(1)
		c.mangle(m, &src)
	default:
		if reorder {
			// Hold the frame for the next send on this link (or Close).
			record(FaultReorder, 0)
			c.reorders.Add(1)
			ls.held = &heldFrame{m: m, deliver: deliver}
		} else if delay > 0 {
			record(FaultDelay, delay)
			c.delays.Add(1)
			c.deliverLater(m, delay, deliver)
		} else {
			err = deliver(m)
		}
		if dup && err == nil {
			// The duplicate travels unharmed and immediately: the
			// receiver's replay window is what must drop it.
			record(FaultDup, 0)
			c.dups.Add(1)
			err = deliver(m)
		}
	}
	ls.mu.Unlock()
	if held != nil {
		if derr := held.deliver(held.m); derr != nil && err == nil {
			err = derr
		}
	}
	return err
}

// mangle exercises the real rejection path for a corrupted frame: encode,
// flip a deterministically chosen bit, decode — and verify the codec
// refused it. The frame is dropped either way; corruption is counted, never
// silently delivered wrong.
func (c *Chaos) mangle(m Message, src *prng.Source) {
	var buf [FrameSize]byte
	frame, err := c.codec.AppendEncode(buf[:0], m)
	if err != nil {
		return // unencodable (NaN): dropping it is the chaos outcome anyway
	}
	frame[src.Intn(FrameSize)] ^= 1 << src.Intn(8)
	if _, err := c.codec.Decode(frame); err == nil {
		// A bit flip that survives HMAC verification means the codec is
		// broken; refuse to continue silently.
		panic("transport: chaos-corrupted frame passed codec verification")
	}
}

// deliverLater schedules a delayed delivery. Deliveries racing Close are
// abandoned (the run is over; the frame is as good as dropped).
func (c *Chaos) deliverLater(m Message, d time.Duration, deliver func(Message) error) {
	c.wg.Add(1)
	timer := time.NewTimer(d)
	go func() {
		defer c.wg.Done()
		select {
		case <-timer.C:
			_ = deliver(m)
		case <-c.closed:
			timer.Stop()
		}
	}()
}

// Link returns node id's view of the chaos-wrapped hub transport, the
// counterpart of Channel.Link. It implements Link and BatchSender.
func (c *Chaos) Link(id int) Link { return &chaosLink{c: c, id: id} }

// WrapLink wraps one node's existing Link (e.g. a TCPNode) with this chaos
// layer: outbound frames run the fault pipeline before reaching the inner
// link. All nodes of a deployment must share one Chaos so partitions and
// crash windows are consistent. Closing the returned Link closes the inner
// one; the Chaos itself must be Closed separately (before the inner links,
// so hold-backs flush into live sockets).
func (c *Chaos) WrapLink(inner Link, id int) Link {
	return &chaosLink{c: c, id: id, inner: inner}
}

// chaosLink is a per-node Link view over a shared Chaos: hub mode
// (inner == nil, forwarding to c.inner) or wrap mode (forwarding to the
// wrapped Link).
type chaosLink struct {
	c     *Chaos
	id    int
	inner Link // nil in hub mode
}

// ConnDisruptor is implemented by links whose transport holds real per-peer
// connections the chaos layer can reset mid-stream (TCPNode).
type ConnDisruptor interface {
	DisruptOutbound(to int)
}

// deliver forwards a surviving frame to the wrapped link (or the hub). It
// prefers the inner link's batched path: on TCP that is the self-healing
// per-peer writer, so an injected reset degrades into a retained-and-resent
// frame instead of a synchronous write error aborting the run.
func (l *chaosLink) deliver(m Message) error {
	if l.inner != nil {
		if bs, ok := l.inner.(BatchSender); ok {
			return bs.SendBatch([]Message{m})
		}
		return l.inner.Send(m)
	}
	return l.c.inner.Send(m)
}

// disrupt enacts an injected connection reset on transports with real
// connections; elsewhere the reset is a recorded no-op.
func (l *chaosLink) disrupt(to int) {
	if d, ok := l.inner.(ConnDisruptor); ok {
		d.DisruptOutbound(to)
	}
}

// Send implements Link, stamping the local identity like every Link does.
func (l *chaosLink) Send(m Message) error {
	m.From = l.id
	return l.c.process(m, l.deliver, l.disrupt)
}

// SendBatch implements BatchSender.
func (l *chaosLink) SendBatch(ms []Message) error {
	for i := range ms {
		ms[i].From = l.id
		if err := l.c.process(ms[i], l.deliver, l.disrupt); err != nil {
			return err
		}
	}
	return nil
}

// Recv implements Link.
func (l *chaosLink) Recv() <-chan Message {
	if l.inner != nil {
		return l.inner.Recv()
	}
	return l.c.inner.Inbox(l.id)
}

// Close implements Link: hub mode is a no-op (the Chaos owns the hub), wrap
// mode closes the wrapped link.
func (l *chaosLink) Close() error {
	if l.inner != nil {
		return l.inner.Close()
	}
	return nil
}

// Unwrap exposes the wrapped link so stats folding can reach the inner
// transport's counters (TCP auth/replay/misdirect drops).
func (l *chaosLink) Unwrap() Link { return l.inner }

// IncomingCorrupt and IncomingPartitioned expose the chaos losses addressed
// to this node; the cluster node folds them into its NodeStats.
func (l *chaosLink) IncomingCorrupt() int64     { return l.c.CorruptDropsTo(l.id) }
func (l *chaosLink) IncomingPartitioned() int64 { return l.c.PartitionDropsTo(l.id) }

// InboundOverflow surfaces the hub's dropped-on-full counter in hub mode,
// where Unwrap returns nil and stats folding cannot reach the inner
// transport itself. In wrap mode it reports 0: the wrapped link's own
// counter is folded through the Unwrap chain instead.
func (l *chaosLink) InboundOverflow() int64 {
	if l.inner != nil {
		return 0
	}
	if hub, ok := l.c.inner.(interface{ OverflowDrops(int) int64 }); ok {
		return hub.OverflowDrops(l.id)
	}
	return 0
}

var (
	_ Transport   = (*Chaos)(nil)
	_ BatchSender = (*Chaos)(nil)
	_ Link        = (*chaosLink)(nil)
	_ BatchSender = (*chaosLink)(nil)
)
