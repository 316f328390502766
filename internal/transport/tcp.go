package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Link is a single node's view of the network: it can send authenticated
// messages to peers and receive its own inbound stream. Channel (in-memory)
// and TCPNode (sockets) both provide it.
type Link interface {
	// Send delivers m to peer m.To. The implementation stamps m.From with
	// the local identity — a node cannot forge another sender, which is
	// the transport half of the paper's authenticated-channel assumption
	// (the cryptographic half is the frame HMAC).
	Send(m Message) error
	// Recv returns the inbound message stream. It is closed on Close.
	Recv() <-chan Message
	// Close releases the link's resources.
	Close() error
}

// Link returns node id's Link view of the in-memory transport.
func (c *Channel) Link(id int) Link { return &channelLink{hub: c, id: id} }

type channelLink struct {
	hub *Channel
	id  int
}

func (l *channelLink) Send(m Message) error {
	m.From = l.id
	return l.hub.Send(m)
}

// SendBatch implements BatchSender, stamping the local identity on every
// message in place before the single hub delivery.
func (l *channelLink) SendBatch(ms []Message) error {
	for i := range ms {
		ms[i].From = l.id
	}
	return l.hub.SendBatch(ms)
}

func (l *channelLink) Recv() <-chan Message { return l.hub.Inbox(l.id) }

// InboundOverflow reports how many frames destined to this node the hub
// dropped on a full inbox (Channel.OverflowDrops); the cluster layer folds
// it into NodeStats.Overflow.
func (l *channelLink) InboundOverflow() int64 { return l.hub.OverflowDrops(l.id) }

// Close on a channelLink is a no-op: the hub owns the resources.
func (l *channelLink) Close() error { return nil }

// TCPNode is one protocol node communicating over real TCP connections with
// HMAC-authenticated frames. Inbound frames that fail authentication, carry
// the wrong destination, or replay an already-seen (from, instance, round,
// seq) tuple are counted and dropped before reaching the protocol.
type TCPNode struct {
	id    int
	n     int
	codec *Codec
	addrs []string
	ln    net.Listener

	inbox  chan Message
	closed chan struct{}
	wg     sync.WaitGroup

	mu         sync.Mutex
	conns      map[int]net.Conn  // outgoing synchronous Sends, keyed by peer id
	outs       map[int]*peerOut  // outgoing batched/pipelined writers, keyed by peer id
	accepted   map[net.Conn]bool // inbound, owned until their readLoop exits
	sendFrame  [FrameSize]byte   // synchronous Send's encode scratch
	down       bool
	retry      RetryPolicy       // reconnect policy the batch writers heal under
	dialFaults DialFaultInjector // optional seeded dial-failure injection (chaos)

	dialSeq []atomic.Uint64 // per-peer monotonic dial attempt counters

	authFailures   atomic.Int64
	replayDrops    atomic.Int64
	misdirectDrops atomic.Int64
	framesSent     atomic.Int64
	framesRecv     atomic.Int64
	batchWrites    atomic.Int64
	reconnects     atomic.Int64
	dialRetries    atomic.Int64
	peerDownEvents atomic.Int64
	peerDownDrops  atomic.Int64
	downPeers      atomic.Int64 // peers currently PeerDown, gates resurrection probes

	filterMu sync.Mutex
	filter   *replayFilter
}

// NewTCPNode starts node id listening on ln; addrs[j] is peer j's dialable
// address (addrs[id] describes ln itself). All peers must share key.
func NewTCPNode(id, n int, ln net.Listener, addrs []string, key []byte) (*TCPNode, error) {
	if id < 0 || id >= n {
		return nil, fmt.Errorf("transport: id %d out of range [0,%d)", id, n)
	}
	if len(addrs) != n {
		return nil, fmt.Errorf("transport: %d addrs for n=%d", len(addrs), n)
	}
	codec, err := NewCodec(key)
	if err != nil {
		return nil, err
	}
	nd := &TCPNode{
		id:       id,
		n:        n,
		codec:    codec,
		addrs:    append([]string(nil), addrs...),
		ln:       ln,
		inbox:    make(chan Message, 4*n),
		closed:   make(chan struct{}),
		conns:    make(map[int]net.Conn, n),
		outs:     make(map[int]*peerOut, n),
		accepted: make(map[net.Conn]bool),
		retry:    DefaultRetryPolicy(),
		dialSeq:  make([]atomic.Uint64, n),
		filter:   newReplayFilter(),
	}
	nd.wg.Add(1)
	go nd.acceptLoop()
	return nd, nil
}

// NewTCPMesh starts an n-node fully connected mesh on loopback ports chosen
// by the OS, for tests and single-machine demos.
func NewTCPMesh(n int, key []byte) ([]*TCPNode, error) {
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				_ = listeners[j].Close()
			}
			return nil, fmt.Errorf("transport: mesh listen: %w", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*TCPNode, n)
	for i := 0; i < n; i++ {
		nd, err := NewTCPNode(i, n, listeners[i], addrs, key)
		if err != nil {
			for j := 0; j < i; j++ {
				_ = nodes[j].Close()
			}
			for j := i; j < n; j++ {
				_ = listeners[j].Close()
			}
			return nil, err
		}
		nodes[i] = nd
	}
	return nodes, nil
}

// DialFaultInjector is consulted before every outbound dial attempt; the
// chaos layer implements it to open seeded dial-failure windows. attempt is
// the directed link's monotonic dial counter.
type DialFaultInjector interface {
	FailDial(from, to int, attempt uint64) bool
}

// errDialFault marks a dial attempt failed by injection rather than the OS.
var errDialFault = errors.New("transport: injected dial failure")

// Send implements Link. Connections are dialed lazily — outside nd.mu and
// under a bounded timeout, so an unreachable peer blocks neither Close nor
// concurrent Sends to healthy peers — and reused.
func (nd *TCPNode) Send(m Message) error {
	if m.To < 0 || m.To >= nd.n {
		return fmt.Errorf("transport: destination %d out of range [0,%d)", m.To, nd.n)
	}
	m.From = nd.id
	if err := checkValue(m); err != nil {
		return err
	}
	nd.mu.Lock()
	if nd.down {
		nd.mu.Unlock()
		return ErrClosed
	}
	conn, ok := nd.conns[m.To]
	if !ok {
		nd.mu.Unlock()
		c, derr := nd.dialPeer(m.To)
		if derr != nil {
			return fmt.Errorf("transport: dial node %d: %w", m.To, derr)
		}
		nd.mu.Lock()
		switch {
		case nd.down:
			nd.mu.Unlock()
			_ = c.Close()
			return ErrClosed
		case nd.conns[m.To] != nil:
			// A concurrent Send won the dial race; keep its connection.
			_ = c.Close()
			conn = nd.conns[m.To]
		default:
			nd.conns[m.To] = c
			conn = c
		}
	}
	// Encoding and the write stay under nd.mu: Sends share the frame
	// scratch, and concurrent Sends to one peer must not interleave frame
	// bytes on the shared connection.
	frame, err := nd.codec.AppendEncode(nd.sendFrame[:0], m)
	if err != nil {
		nd.mu.Unlock()
		return err
	}
	if _, err := conn.Write(frame); err != nil {
		_ = conn.Close()
		delete(nd.conns, m.To)
		nd.mu.Unlock()
		return fmt.Errorf("transport: write to node %d: %w", m.To, err)
	}
	nd.framesSent.Add(1)
	nd.mu.Unlock()
	// A successful synchronous send is fresh evidence of the peer: it
	// resurrects a pipeline the batch writers had given up on.
	if nd.downPeers.Load() > 0 {
		nd.resurrect(m.To)
	}
	return nil
}

// dialPeer dials peer to under the transport's bounded timeout, consulting
// the dial-fault injector first so chaos campaigns can fail attempts by
// seed. Every failed attempt is counted in DialRetries.
func (nd *TCPNode) dialPeer(to int) (net.Conn, error) {
	seq := nd.dialSeq[to].Add(1) - 1
	nd.mu.Lock()
	inj := nd.dialFaults
	nd.mu.Unlock()
	if inj != nil && inj.FailDial(nd.id, to, seq) {
		nd.dialRetries.Add(1)
		return nil, errDialFault
	}
	c, err := net.DialTimeout("tcp", nd.addrs[to], peerDialTimeout)
	if err != nil {
		nd.dialRetries.Add(1)
		return nil, err
	}
	return c, nil
}

// SendBatch implements BatchSender: the whole send phase is handed over in
// one call. Each frame is encoded straight into its destination's outbound
// buffer, drained by one writer goroutine per peer — so the caller never
// blocks on a socket, and when the protocol pipelines into the next round
// before a writer drains, consecutive rounds' frames to the same peer
// coalesce into a single write (one write per (round, peer) batch instead
// of one per message, fewer under load).
//
// Messages are stamped with the local identity in place. A lost connection
// does not surface here: the peer's writer retains the frames and heals
// under the node's RetryPolicy, and a peer that exhausted its retry budget
// absorbs frames as counted drops (PeerDownDrops) — omission faults the
// cluster layer already tolerates — rather than erroring the batch.
func (nd *TCPNode) SendBatch(ms []Message) error {
	for i := range ms {
		if ms[i].To < 0 || ms[i].To >= nd.n {
			return fmt.Errorf("transport: destination %d out of range [0,%d)", ms[i].To, nd.n)
		}
		ms[i].From = nd.id
	}
	for i := range ms {
		if err := checkValue(ms[i]); err != nil {
			return err
		}
		out, err := nd.peer(ms[i].To)
		if err != nil {
			return err
		}
		if err := out.enqueue(ms[i]); err != nil {
			return fmt.Errorf("transport: batch write to node %d: %w", ms[i].To, err)
		}
		nd.framesSent.Add(1)
	}
	return nil
}

// peer returns the batched-write pipeline for destination to, starting its
// writer goroutine on first use.
func (nd *TCPNode) peer(to int) (*peerOut, error) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.down {
		return nil, ErrClosed
	}
	out, ok := nd.outs[to]
	if !ok {
		out = &peerOut{nd: nd, to: to}
		out.cond.L = &out.mu
		nd.outs[to] = out
		nd.wg.Add(1)
		go out.writeLoop()
	}
	return out, nil
}

// Recv implements Link.
func (nd *TCPNode) Recv() <-chan Message { return nd.inbox }

// Close implements Link: stops the accept loop, closes every connection,
// waits for the reader goroutines and then closes the inbox.
func (nd *TCPNode) Close() error {
	nd.mu.Lock()
	if nd.down {
		nd.mu.Unlock()
		return nil
	}
	nd.down = true
	close(nd.closed)
	err := nd.ln.Close()
	for _, c := range nd.conns {
		_ = c.Close()
	}
	// Batched writers flush what they already hold, then exit.
	for _, out := range nd.outs {
		out.close()
	}
	// Inbound connections must be closed too: their reader goroutines
	// otherwise block in Read until the remote peer closes, which
	// deadlocks whichever mesh node closes first.
	for c := range nd.accepted {
		_ = c.Close()
	}
	nd.mu.Unlock()
	nd.wg.Wait()
	close(nd.inbox)
	return err
}

// Addr returns the node's listen address (dialable by peers and, in tests,
// by attackers).
func (nd *TCPNode) Addr() string { return nd.ln.Addr().String() }

// AuthFailures returns how many inbound frames failed HMAC verification.
func (nd *TCPNode) AuthFailures() int64 { return nd.authFailures.Load() }

// ReplayDrops returns how many authenticated frames were dropped as
// replays.
func (nd *TCPNode) ReplayDrops() int64 { return nd.replayDrops.Load() }

// MisdirectDrops returns how many authenticated frames named a different
// destination.
func (nd *TCPNode) MisdirectDrops() int64 { return nd.misdirectDrops.Load() }

// FramesSent returns how many frames this node handed to the network
// (synchronous Sends plus batched sends).
func (nd *TCPNode) FramesSent() int64 { return nd.framesSent.Load() }

// FramesReceived returns how many inbound frames passed authentication,
// destination and replay checks and reached the inbox.
func (nd *TCPNode) FramesReceived() int64 { return nd.framesRecv.Load() }

// BatchWrites returns how many socket writes the batched path performed.
// Compare with FramesSent: the ratio is the coalescing factor the pipeline
// achieved (frames per write).
func (nd *TCPNode) BatchWrites() int64 { return nd.batchWrites.Load() }

// Reconnects returns how many times a batch writer re-established its
// connection after a write or dial failure.
func (nd *TCPNode) Reconnects() int64 { return nd.reconnects.Load() }

// DialRetries returns how many outbound dial attempts failed (each retried
// or given up under the retry policy).
func (nd *TCPNode) DialRetries() int64 { return nd.dialRetries.Load() }

// PeerDownEvents returns how many times a peer exhausted the retry budget
// and transitioned into the down state.
func (nd *TCPNode) PeerDownEvents() int64 { return nd.peerDownEvents.Load() }

// PeerDownDrops returns how many outbound frames were absorbed as counted
// drops — never errors — because their peer was down.
func (nd *TCPNode) PeerDownDrops() int64 { return nd.peerDownDrops.Load() }

// SetRetryPolicy replaces the node's reconnect policy (the default is
// DefaultRetryPolicy; zero fields inherit its values). Call it before
// traffic flows: writers snapshot the policy as each outage starts.
func (nd *TCPNode) SetRetryPolicy(p RetryPolicy) {
	nd.mu.Lock()
	nd.retry = p.withDefaults()
	nd.mu.Unlock()
}

func (nd *TCPNode) retryPolicy() RetryPolicy {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.retry
}

// SetDialFaults installs a dial-fault injector consulted before every
// outbound dial (nil removes it); the chaos layer uses it to fail attempts
// from a seeded stream. Call it before traffic flows.
func (nd *TCPNode) SetDialFaults(inj DialFaultInjector) {
	nd.mu.Lock()
	nd.dialFaults = inj
	nd.mu.Unlock()
}

// DisruptOutbound closes the node's live outbound connections to peer to —
// a mid-stream connection reset, the chaos layer's connection-level fault.
// Batched frames are not lost: the writer discovers the reset on its next
// write, retains the unwritten tail from the last frame boundary, and
// resends it over a fresh connection under the retry policy.
func (nd *TCPNode) DisruptOutbound(to int) {
	nd.mu.Lock()
	if c, ok := nd.conns[to]; ok {
		_ = c.Close()
		delete(nd.conns, to)
	}
	out := nd.outs[to]
	nd.mu.Unlock()
	if out == nil {
		return
	}
	out.mu.Lock()
	if out.conn != nil {
		// The writer owns the cleanup: it sees the failed write and heals.
		_ = out.conn.Close()
	}
	out.mu.Unlock()
}

// PeerState returns the health of the outbound pipeline to peer to
// (PeerLive before the pipeline's first use).
func (nd *TCPNode) PeerState(to int) PeerState {
	nd.mu.Lock()
	out := nd.outs[to]
	nd.mu.Unlock()
	if out == nil {
		return PeerLive
	}
	out.mu.Lock()
	defer out.mu.Unlock()
	return out.health
}

// resurrect returns peer's outbound pipeline to live on fresh evidence the
// peer is reachable again — an accepted inbound frame from it, or a
// successful synchronous dial. The next batch resumes delivery under a
// fresh retry budget.
func (nd *TCPNode) resurrect(peer int) {
	nd.mu.Lock()
	out := nd.outs[peer]
	nd.mu.Unlock()
	if out == nil {
		return
	}
	out.mu.Lock()
	if out.health == PeerDown && !out.closed {
		out.health = PeerLive
		nd.downPeers.Add(-1)
		out.cond.Signal()
	}
	out.mu.Unlock()
}

// SetReplayWindow widens the replay filter's per-flow round window to
// tolerate w rounds of skew behind a flow's newest frame (default 4, which
// covers lockstep). Pipelined deployments, where a node legitimately runs
// PipelineDepth rounds ahead of a peer, must widen it to depth plus slack
// or a lagging peer's catch-up frames read as replays. Call it before
// traffic flows: flows already tracked keep the width they were created
// with. w is clamped to [1, MaxRoundWindow-1].
func (nd *TCPNode) SetReplayWindow(w int) {
	if w < 1 {
		w = 1
	}
	if w > MaxRoundWindow-1 {
		w = MaxRoundWindow - 1
	}
	nd.filterMu.Lock()
	nd.filter.window = w
	nd.filterMu.Unlock()
}

func (nd *TCPNode) acceptLoop() {
	defer nd.wg.Done()
	for {
		conn, err := nd.ln.Accept()
		if err != nil {
			return // listener closed
		}
		nd.mu.Lock()
		if nd.down {
			nd.mu.Unlock()
			_ = conn.Close()
			return
		}
		nd.accepted[conn] = true
		nd.mu.Unlock()
		nd.wg.Add(1)
		go nd.readLoop(conn)
	}
}

// readBufFrames bounds each inbound connection's read buffer: one read
// takes up to this many frames (about 1 KB), all decoded in place. It
// covers the few frames a coalesced peer write carries; a larger buffer
// only grows the resident heap across the mesh's n² connections.
const readBufFrames = 16

// readLoop consumes fixed-size frames from one inbound connection, as many
// per read as have arrived. A partial frame at the end of a read is kept
// for the next one, and dropped with the connection when it closes: the
// sender resends an interrupted frame whole over its next connection.
// Frames are fixed-width, so a tampered frame does not desynchronize the
// stream.
func (nd *TCPNode) readLoop(conn net.Conn) {
	defer nd.wg.Done()
	defer func() {
		_ = conn.Close()
		nd.mu.Lock()
		delete(nd.accepted, conn)
		nd.mu.Unlock()
	}()
	buf := make([]byte, readBufFrames*FrameSize)
	have := 0
	for {
		n, err := conn.Read(buf[have:])
		have += n
		off := 0
		for ; have-off >= FrameSize; off += FrameSize {
			if !nd.receive(buf[off : off+FrameSize]) {
				return
			}
		}
		have = copy(buf, buf[off:have])
		if err != nil {
			return
		}
	}
}

// receive runs one inbound frame through authentication, destination and
// replay checks, in that order, and hands a survivor to the inbox. It
// reports false when the connection must be dropped: a frame malformed
// beyond authentication, or the node closing.
func (nd *TCPNode) receive(frame []byte) bool {
	m, err := nd.codec.Decode(frame)
	switch {
	case errors.Is(err, ErrBadMAC):
		nd.authFailures.Add(1)
		return true
	case err != nil:
		// Malformed beyond authentication: drop the connection; a
		// correct peer never produces such frames.
		return false
	}
	if m.To != nd.id {
		nd.misdirectDrops.Add(1)
		return true
	}
	nd.filterMu.Lock()
	fresh := nd.filter.admit(m.From, m.Instance, m.Round, m.Seq)
	nd.filterMu.Unlock()
	if !fresh {
		nd.replayDrops.Add(1)
		return true
	}
	// An authenticated, fresh frame is proof its sender is back: let it
	// resurrect an outbound pipeline that had gone down.
	if nd.downPeers.Load() > 0 {
		nd.resurrect(m.From)
	}
	select {
	case nd.inbox <- m:
		nd.framesRecv.Add(1)
		return true
	case <-nd.closed:
		return false
	}
}

// PeerState classifies one outbound peer pipeline's health: PeerLive while
// the connection works (and before first use), PeerDegraded while the
// writer redials a lost connection under backoff, PeerDown once an outage
// exhausted the retry budget. A down peer absorbs frames as counted drops
// (PeerDownDrops) — graceful degradation to the omission faults the
// protocol tolerates — until fresh evidence of the peer (an accepted
// inbound frame, a successful synchronous dial) resurrects it to PeerLive.
type PeerState int32

// The peer health states, in degradation order.
const (
	PeerLive PeerState = iota
	PeerDegraded
	PeerDown
)

// String implements fmt.Stringer.
func (s PeerState) String() string {
	switch s {
	case PeerLive:
		return "live"
	case PeerDegraded:
		return "degraded"
	case PeerDown:
		return "down"
	default:
		return fmt.Sprintf("peerstate(%d)", int32(s))
	}
}

// peerOut is the outbound pipeline to one peer: callers encode frames
// straight onto pending under mu; a dedicated writer goroutine swaps the
// buffer out and writes it in one call. pending and spare double-buffer so the
// steady state allocates nothing. The writer self-heals: a write or dial
// failure degrades the pipeline and triggers backoff-governed redialing
// rather than a terminal error.
type peerOut struct {
	nd *TCPNode
	to int

	mu      sync.Mutex
	cond    sync.Cond // waits on mu; signalled on enqueue, resurrect and close
	pending []byte
	conn    net.Conn  // writer's dialed connection, tracked so close/disrupt can reach it
	health  PeerState // live → degraded → down; resurrect returns it to live
	closed  bool

	spare []byte // writer-owned: the previously written buffer, recycled
}

// Dial and post-close flush bounds for the batch writers: Close must never
// wait unboundedly on a peer that stopped reading or an address that
// drops SYNs.
const (
	peerDialTimeout = 5 * time.Second
	peerCloseGrace  = 2 * time.Second
)

// enqueue encodes m onto the pending buffer for the writer to pick up.
// Frames to a down peer are counted drops, never errors: the cluster layer
// already scores a silent peer as per-round omissions, so a dead connection
// degrades the link instead of erroring the run.
func (p *peerOut) enqueue(m Message) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if p.health == PeerDown {
		p.nd.peerDownDrops.Add(1)
		return nil
	}
	pending, err := p.nd.codec.AppendEncode(p.pending, m)
	if err != nil {
		return err
	}
	p.pending = pending
	p.cond.Signal()
	return nil
}

// close asks the writer to flush what is pending and exit. A write already
// in flight (or a final flush) is bounded by a connection deadline, so the
// node's Close never blocks behind a peer that stopped reading.
func (p *peerOut) close() {
	p.mu.Lock()
	p.closed = true
	if p.conn != nil {
		_ = p.conn.SetDeadline(time.Now().Add(peerCloseGrace))
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// writeLoop dials the peer lazily and drains the pending buffer, one write
// per accumulated batch. On a write or dial failure it heals instead of
// dying: the connection is closed, the unwritten frames are retained from
// the last frame boundary (frames are fixed-size and self-contained, and
// the receiver's replay filter dedupes retransmits, so resending over a
// fresh connection is safe), and the peer is redialed under the node's
// retry policy. An outage that exhausts the policy budget marks the peer
// down; until resurrection its frames become counted drops.
func (p *peerOut) writeLoop() {
	defer p.nd.wg.Done()
	var conn net.Conn
	var carry []byte       // unwritten tail of a failed write, resent first
	var everConnected bool // distinguishes first connects from reconnects
	defer func() {
		if conn != nil {
			_ = conn.Close()
		}
	}()
	for {
		p.mu.Lock()
		for len(p.pending) == 0 && len(carry) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed && len(p.pending) == 0 && len(carry) == 0 {
			p.mu.Unlock()
			return
		}
		if p.health == PeerDown {
			// Down: everything queued (including a retained tail) is a
			// counted drop. Park until resurrection or close.
			if n := (len(p.pending) + len(carry)) / FrameSize; n > 0 {
				p.nd.peerDownDrops.Add(int64(n))
			}
			p.pending = p.pending[:0]
			carry = carry[:0]
			if p.closed {
				p.mu.Unlock()
				return
			}
			p.mu.Unlock()
			continue
		}
		buf := p.pending
		p.pending = p.spare[:0]
		// spare must not be reattached across a failure, or the retained
		// copy and a fresh pending batch would share a backing array.
		p.spare = nil
		p.mu.Unlock()

		if conn == nil {
			c, ok := p.redial()
			if !ok {
				select {
				case <-p.nd.closed:
					return
				default:
				}
				p.markDown((len(carry) + len(buf)) / FrameSize)
				carry = carry[:0]
				continue
			}
			if everConnected {
				p.nd.reconnects.Add(1)
			}
			everConnected = true
			conn = c
			p.adopt(c)
		}
		if len(carry) > 0 {
			n, err := conn.Write(carry)
			if err != nil {
				conn = p.dropConn(conn)
				carry = retainFrames(carry, n, buf)
				continue
			}
			p.nd.batchWrites.Add(1)
			carry = carry[:0]
		}
		if len(buf) == 0 {
			p.spare = buf
			continue
		}
		n, err := conn.Write(buf)
		if err != nil {
			conn = p.dropConn(conn)
			carry = retainFrames(buf, n, nil)
			continue
		}
		p.nd.batchWrites.Add(1)
		p.spare = buf // safe: only the writer touches spare, after the write
	}
}

// retainFrames builds the frames still owed to the peer after a failed
// write: the unwritten part of buf from its last complete frame boundary (a
// partially written frame is resent whole — the receiver's broken-stream
// read discards the partial, and the replay filter dedupes a doubled
// boundary frame), followed by rest.
func retainFrames(buf []byte, written int, rest []byte) []byte {
	from := (written / FrameSize) * FrameSize
	out := make([]byte, 0, len(buf)-from+len(rest))
	out = append(out, buf[from:]...)
	return append(out, rest...)
}

// dropConn closes a failed connection and records the degradation; the
// writer redials on its next pass.
func (p *peerOut) dropConn(conn net.Conn) net.Conn {
	_ = conn.Close()
	p.mu.Lock()
	p.conn = nil
	if p.health == PeerLive {
		p.health = PeerDegraded
	}
	p.mu.Unlock()
	return nil
}

// adopt publishes the writer's fresh connection so close and disrupt can
// reach it, and returns a degraded pipeline to live.
func (p *peerOut) adopt(c net.Conn) {
	p.mu.Lock()
	p.conn = c
	if p.health == PeerDegraded {
		p.health = PeerLive
	}
	if p.closed {
		_ = c.SetDeadline(time.Now().Add(peerCloseGrace))
	}
	p.mu.Unlock()
}

// redial re-establishes the peer connection under the node's retry policy:
// the first attempt is immediate, later ones back off exponentially with
// seeded jitter. It gives up — ok=false — once the outage's cumulative
// retry time would exceed the policy budget, or when the node is closing.
func (p *peerOut) redial() (net.Conn, bool) {
	policy := p.nd.retryPolicy()
	deadline := time.Now().Add(policy.Budget)
	backoff := policy.Base
	for attempt := uint64(0); ; attempt++ {
		p.mu.Lock()
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return nil, false
		}
		c, err := p.nd.dialPeer(p.to)
		if err == nil {
			return c, true
		}
		p.degrade()
		wait := policy.jitter(p.nd.id, p.to, attempt, backoff)
		if time.Now().Add(wait).After(deadline) {
			return nil, false
		}
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-p.nd.closed:
			t.Stop()
			return nil, false
		}
		if backoff *= 2; backoff > policy.Max {
			backoff = policy.Max
		}
	}
}

func (p *peerOut) degrade() {
	p.mu.Lock()
	if p.health == PeerLive {
		p.health = PeerDegraded
	}
	p.mu.Unlock()
}

// markDown records an exhausted outage: the peer enters the down state and
// its frames still owed become counted drops.
func (p *peerOut) markDown(frames int) {
	p.mu.Lock()
	if p.health != PeerDown {
		p.health = PeerDown
		p.conn = nil
		p.nd.peerDownEvents.Add(1)
		p.nd.downPeers.Add(1)
	}
	p.mu.Unlock()
	if frames > 0 {
		p.nd.peerDownDrops.Add(int64(frames))
	}
}

var (
	_ Link        = (*TCPNode)(nil)
	_ Link        = (*channelLink)(nil)
	_ BatchSender = (*TCPNode)(nil)
	_ BatchSender = (*channelLink)(nil)
	_ BatchSender = (*Channel)(nil)
)

// replayFilter remembers rounds per (sender, instance, seq) flow within a
// sliding RoundWindow and rejects duplicates — admission is effectively
// keyed (from, instance, round, seq). The window tolerates the round skew
// the protocol can exhibit: one round in lockstep, up to the pipeline depth
// plus slack in pipelined deployments (TCPNode.SetReplayWindow widens it).
// Keying flows by instance (and by seq, which the service layer stamps with
// the registration epoch) matters under multiplexing: every instance — and
// every incarnation of a reused instance id — starts at round 0, so a
// per-sender high-water mark shared across them would reject a fresh
// instance's opening rounds as stale replays of an older one. A replayed
// frame from a retired incarnation still lands in its original flow and is
// rejected there; if that flow was already evicted, the frame passes here
// but carries the old epoch, which the service demux drops.
type replayFilter struct {
	window int
	limit  int // max tracked flows; oldest are evicted beyond it
	flows  map[replayKey]*RoundWindow
	// order is a ring buffer over the tracked flows in insertion order;
	// head indexes the oldest once the ring is full. A plain slice
	// re-sliced on eviction would pin every evicted key's memory for the
	// filter's lifetime; the ring reuses its limit-bounded backing array.
	order []replayKey
	head  int
}

type replayKey struct {
	from     int
	instance uint32
	seq      uint32
}

func newReplayFilter() *replayFilter {
	return &replayFilter{
		window: 4,
		// One flow per (sender, live instance incarnation); retired
		// incarnations keep a dormant entry until evicted. The cap bounds
		// memory for long-lived service nodes — evicting a dormant flow
		// only forgets replay history the demux's epoch check still covers.
		limit: 1 << 14,
		flows: make(map[replayKey]*RoundWindow),
	}
}

// admit reports whether round is fresh for its (sender, instance, seq)
// flow, recording it if so. Rounds that fell below the flow's window — more
// than `window` rounds behind its newest — read as already recorded and are
// rejected as replays outright.
func (f *replayFilter) admit(from int, instance uint32, round int, seq uint32) bool {
	id := replayKey{from: from, instance: instance, seq: seq}
	fl, ok := f.flows[id]
	if !ok {
		if len(f.flows) >= f.limit {
			// Evict the oldest flow and reuse its ring slot for the new
			// key: the slot at head becomes the newest entry and head
			// advances to the next-oldest.
			delete(f.flows, f.order[f.head])
			f.order[f.head] = id
			f.head = (f.head + 1) % len(f.order)
		} else {
			f.order = append(f.order, id)
		}
		// The window spans the newest round plus `window` rounds behind it.
		w := NewRoundWindow(f.window + 1)
		fl = &w
		f.flows[id] = fl
	}
	if fl.Recorded(round) {
		return false
	}
	fl.Record(round)
	return true
}
