// Package netsim models the physical network fabric: nodes with a shared
// CPU, and duplex links with finite rate, propagation delay, MTU, drop-tail
// queues, and optional random loss.
//
// Frames are opaque byte slices; the IP layer above is responsible for all
// header interpretation. Every cost in the model is charged in virtual time
// on the simulation scheduler, so a node with a slow CPU (the paper's 486
// redirector) becomes a bottleneck exactly as it would on the testbed.
package netsim

import (
	"fmt"
	"time"

	"hydranet/internal/frame"
	"hydranet/internal/obs"
	"hydranet/internal/sim"
)

// FrameHandler receives frames delivered to a node, tagged with the index
// of the interface they arrived on. The frame bytes belong to the fabric:
// they are valid only for the duration of the call, and anything retained
// afterwards must be copied (the underlying buffer is recycled as soon as
// HandleFrame returns).
type FrameHandler interface {
	HandleFrame(ifindex int, frame []byte)
}

// FrameTap observes every frame the fabric accepts for transmission, on
// every link and in both directions. It runs synchronously at the instant
// the frame clears the sender's transmit queue (post loss/queue-drop, so a
// tap sees exactly the frames that will reach the far end). The data slice
// aliases a pooled frame buffer owned by the fabric: it is valid only for
// the duration of the call, and a tap that retains bytes must copy them.
type FrameTap func(from, to *Node, data []byte)

// Network is a collection of nodes and links sharing one scheduler, or —
// after SetDomains — partitioned across several per-domain schedulers that
// a sim.Group advances in conservative parallel windows, with
// ExchangeHandoffs moving cross-domain frames at each barrier.
type Network struct {
	sched *sim.Scheduler
	nodes []*Node
	links []*Link
	bus   *obs.Bus
	pool  *frame.Pool
	tap   FrameTap

	base *domainRT   // the single domain every node starts in
	doms []*domainRT // non-nil once SetDomains has partitioned the fabric

	exchange []handoff // ExchangeHandoffs scratch, reused per barrier
}

// New returns an empty network driven by the given scheduler.
func New(sched *sim.Scheduler) *Network {
	n := &Network{sched: sched, pool: frame.NewPool()}
	n.base = &domainRT{net: n, id: 0, sched: sched, pool: n.pool} //hydralint:domainsafe constructor; no domains or workers exist yet
	return n
}

// Pool returns the network's frame-buffer pool. Layers above the fabric
// allocate transmit buffers here and hand them to Node.SendFrame; the
// scheduler is single-threaded, so the pool is unsynchronized by design.
func (n *Network) Pool() *frame.Pool { return n.pool }

// SetBus attaches an observability event bus; the fabric emits frame-drop
// and crash/restart events on it. A nil bus (the default) disables all
// emission.
func (n *Network) SetBus(b *obs.Bus) {
	n.bus = b
	n.base.bus = b
	for _, d := range n.doms {
		d.bus = b
	}
}

// SetDomainBus overrides the bus a single domain emits on. In parallel mode
// the facade installs per-domain bus views here so worker-context emission
// never touches shared subscriber state directly.
func (n *Network) SetDomainBus(id int, b *obs.Bus) { n.doms[id].bus = b }

// SetFrameTap installs (or, with nil, removes) the network-wide frame tap.
// The disabled cost is a single pointer test on the link transmit path.
func (n *Network) SetFrameTap(t FrameTap) { n.tap = t }

// Scheduler returns the scheduler driving this network.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// Nodes returns a copy of the nodes added so far, in creation order. It
// allocates; iteration-heavy callers (snapshots run once per sampling
// interval) should use NumNodes/NodeAt or ForEachNode instead.
func (n *Network) Nodes() []*Node { return append([]*Node(nil), n.nodes...) }

// NumNodes returns the number of nodes in the network.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NodeAt returns the i'th node in creation order.
func (n *Network) NodeAt(i int) *Node { return n.nodes[i] }

// ForEachNode calls fn for every node in creation order, without
// allocating.
func (n *Network) ForEachNode(fn func(*Node)) {
	for _, nd := range n.nodes {
		fn(nd)
	}
}

// NodeConfig describes a node's processing characteristics.
type NodeConfig struct {
	// Name identifies the node in traces and errors.
	Name string
	// ProcDelay is the CPU cost charged per frame, on both transmit and
	// receive. The node's CPU is a serial resource: frames queue behind
	// each other, which is what makes slow hosts bottlenecks.
	ProcDelay time.Duration
	// ProcPerByte is an additional CPU cost per frame byte, modelling
	// copy and checksum costs that scale with packet size (dominant on
	// the paper's 486-class machines).
	ProcPerByte time.Duration
}

// AddNode creates a node in the network.
func (n *Network) AddNode(cfg NodeConfig) *Node {
	node := &Node{
		net:         n,
		dom:         n.base,
		index:       len(n.nodes),
		name:        cfg.Name,
		procDelay:   cfg.ProcDelay,
		procPerByte: cfg.ProcPerByte,
		alive:       true,
	}
	n.nodes = append(n.nodes, node)
	return node
}

// LinkConfig describes one duplex link.
type LinkConfig struct {
	// Rate is the transmission rate in bits per second. Zero means
	// infinitely fast (no serialization delay).
	Rate int64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// MTU is the maximum frame size in bytes. Larger frames are dropped;
	// the IP layer must fragment. Zero means 1500.
	MTU int
	// QueueBytes bounds the per-direction transmit backlog (drop-tail).
	// Zero means 64 KiB.
	QueueBytes int
	// Loss is the independent probability in [0,1] that a frame is lost.
	Loss float64
	// Jitter adds a uniformly random extra propagation delay in
	// [0, Jitter] per frame. Frames with different jitter can overtake
	// each other, producing out-of-order delivery.
	Jitter time.Duration
}

const (
	defaultMTU   = 1500
	defaultQueue = 64 * 1024
)

// Connect joins two nodes with a duplex link and returns it. Each endpoint
// gains a new interface; the interface indices are returned in node order.
func (n *Network) Connect(a, b *Node, cfg LinkConfig) *Link {
	if cfg.MTU == 0 {
		cfg.MTU = defaultMTU
	}
	if cfg.QueueBytes == 0 {
		cfg.QueueBytes = defaultQueue
	}
	l := &Link{net: n, cfg: cfg}
	l.ends[0] = endpoint{node: a, ifindex: len(a.ifaces)}
	l.ends[1] = endpoint{node: b, ifindex: len(b.ifaces)}
	a.ifaces = append(a.ifaces, iface{link: l, side: 0})
	b.ifaces = append(b.ifaces, iface{link: l, side: 1})
	n.links = append(n.links, l)
	return l
}

// Node is a host or router with a serial CPU and a set of interfaces. All
// of a node's execution happens in its synchronization domain: every field
// here is read and written only by events on nd.dom.sched (or by
// coordinator-context code between windows).
type Node struct {
	net         *Network
	dom         *domainRT
	index       int
	name        string
	procDelay   time.Duration
	procPerByte time.Duration
	ifaces      []iface
	handler     FrameHandler
	alive       bool
	cpuFree     time.Duration // virtual time the CPU becomes idle

	// Stats
	sent, received, dropped uint64
}

type iface struct {
	link *Link
	side int
}

// Name returns the node's configured name.
func (nd *Node) Name() string { return nd.name }

// Pool returns the frame pool of the node's synchronization domain, for
// layers that marshal directly into transmit buffers. Before SetDomains
// this is the network-wide pool.
func (nd *Node) Pool() *frame.Pool { return nd.dom.pool }

// Scheduler returns the scheduler of the node's synchronization domain.
// Layers above the fabric (IP, TCP, daemons) must schedule their events
// here rather than on Network.Scheduler, so a partitioned run keeps every
// node's protocol work inside its own domain.
func (nd *Node) Scheduler() *sim.Scheduler { return nd.dom.sched }

// NumInterfaces returns how many links are attached.
func (nd *Node) NumInterfaces() int { return len(nd.ifaces) }

// SetHandler installs the frame sink (normally the node's IP stack).
func (nd *Node) SetHandler(h FrameHandler) { nd.handler = h }

// Alive reports whether the node is running.
func (nd *Node) Alive() bool { return nd.alive }

// Crash fail-stops the node: it silently discards all traffic and performs
// no further processing, matching the fail-stop model in the paper.
func (nd *Node) Crash() {
	nd.alive = false
	if b := nd.dom.bus; b.Enabled(obs.KindNodeCrash) {
		b.Publish(obs.Event{Kind: obs.KindNodeCrash, Node: nd.name})
	}
}

// Restart brings a crashed node back (higher layers must re-register state).
func (nd *Node) Restart() {
	nd.alive = true
	if b := nd.dom.bus; b.Enabled(obs.KindNodeRestart) {
		b.Publish(obs.Event{Kind: obs.KindNodeRestart, Node: nd.name})
	}
}

// SetProc changes the node's CPU cost model mid-run — the gray-failure
// injection knob: a large per-frame delay models a replica that is alive
// (it answers, eventually) but pathologically slow, the "degraded, not
// dead" case the paper's fail-stop detector cannot distinguish.
func (nd *Node) SetProc(procDelay, procPerByte time.Duration) {
	nd.procDelay = procDelay
	nd.procPerByte = procPerByte
}

// ProcBacklog reports how far the node's serial CPU is running behind
// frame arrival: the time until a frame delivered right now would actually
// be processed. Zero on an idle or keeping-up node; on a gray-failing one
// it grows with every queued frame. This is the host-local ingress-queue
// depth a node's own telemetry agent can always export, even when the
// node looks alive from the network.
func (nd *Node) ProcBacklog() time.Duration {
	if b := nd.cpuFree - nd.dom.sched.Now(); b > 0 {
		return b
	}
	return 0
}

// Stats returns cumulative frames sent, received and dropped at this node.
func (nd *Node) Stats() (sent, received, dropped uint64) {
	return nd.sent, nd.received, nd.dropped
}

// MTU returns the MTU of the link on interface ifindex.
func (nd *Node) MTU(ifindex int) int {
	return nd.ifaces[ifindex].link.cfg.MTU
}

// Peer returns the node on the far side of interface ifindex.
func (nd *Node) Peer(ifindex int) *Node {
	ifc := nd.ifaces[ifindex]
	return ifc.link.ends[1-ifc.side].node
}

// Send transmits a copy of frame out interface ifindex. The caller keeps
// ownership of the slice. This is the compatibility path; the zero-copy
// fast path is SendFrame.
func (nd *Node) Send(ifindex int, frame []byte) {
	if !nd.alive {
		return
	}
	fb := nd.dom.pool.Get(len(frame))
	copy(fb.Bytes(), frame)
	nd.SendFrame(ifindex, fb)
}

// SendFrame transmits a pooled frame out interface ifindex, taking
// ownership of fb: the fabric guarantees exactly one Release on every
// outcome — delivery, MTU drop, queue drop, random loss, or a crashed
// node. The frame is charged the node's CPU cost, then the link's queueing,
// serialization and propagation delays.
func (nd *Node) SendFrame(ifindex int, fb *frame.Buf) {
	if !nd.alive {
		fb.Release()
		return
	}
	if ifindex < 0 || ifindex >= len(nd.ifaces) {
		fb.Release()
		panic(fmt.Sprintf("netsim: node %q has no interface %d", nd.name, ifindex))
	}
	ifc := nd.ifaces[ifindex]
	if fb.Len() > ifc.link.cfg.MTU {
		nd.dropped++
		if b := nd.dom.bus; b.Enabled(obs.KindMTUDrop) {
			b.Publish(obs.Event{
				Kind: obs.KindMTUDrop, Node: nd.name, Size: fb.Len(),
				Detail: fmt.Sprintf("mtu %d", ifc.link.cfg.MTU),
			})
		}
		fb.Release()
		return
	}
	nd.sent++
	nd.cpu(fb.Len(), func() {
		if !nd.alive {
			fb.Release()
			return
		}
		ifc.link.transmit(ifc.side, fb)
	})
}

// cpu runs fn after the node's serial CPU has spent the frame's processing
// cost (fixed plus per-byte). fn always runs, even if the node crashed in
// the meantime: callbacks that carry pooled frames must get the chance to
// release them, so liveness checks belong inside fn.
func (nd *Node) cpu(size int, fn func()) {
	s := nd.dom.sched
	start := s.Now()
	if nd.cpuFree > start {
		start = nd.cpuFree
	}
	nd.cpuFree = start + nd.procDelay + time.Duration(size)*nd.procPerByte
	s.At(nd.cpuFree, fn)
}

// deliver is called by a link when a frame arrives at this node. It owns fb
// and releases it after the handler returns (or on any drop path).
func (nd *Node) deliver(ifindex int, fb *frame.Buf) {
	if !nd.alive {
		fb.Release()
		return
	}
	nd.cpu(fb.Len(), func() {
		if !nd.alive {
			fb.Release()
			return
		}
		nd.received++
		if nd.handler != nil {
			nd.handler.HandleFrame(ifindex, fb.Bytes())
		}
		fb.Release()
	})
}

type endpoint struct {
	node    *Node
	ifindex int
}

// Link is a duplex point-to-point link. Each direction has an independent
// transmitter and drop-tail queue.
type Link struct {
	net  *Network
	cfg  LinkConfig
	ends [2]endpoint

	txFree  [2]time.Duration // when the direction's transmitter frees up
	backlog [2]int           // queued bytes per direction

	// Stats per direction (index = sending side).
	txFrames  [2]uint64
	lost      [2]uint64
	queueDrop [2]uint64
}

// Config returns the link's configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// SetLoss changes the link's random loss probability (both directions).
func (l *Link) SetLoss(p float64) { l.cfg.Loss = p }

// Stats returns, per direction, frames transmitted, frames lost to random
// loss, and frames dropped at the queue.
func (l *Link) Stats() (tx, lost, queueDrop [2]uint64) {
	return l.txFrames, l.lost, l.queueDrop
}

// Backlogs returns the bytes currently queued in each direction (index =
// sending side) — the instantaneous queue depths a telemetry sampler reads.
func (l *Link) Backlogs() (ab, ba int) {
	return l.backlog[0], l.backlog[1]
}

func (l *Link) serialization(size int) time.Duration {
	if l.cfg.Rate <= 0 {
		return 0
	}
	bits := int64(size) * 8
	return time.Duration(bits * int64(time.Second) / l.cfg.Rate)
}

// transmit queues a frame for transmission from the given side. It owns fb:
// drop paths release it, and delivery hands it to the destination node.
//
// The whole path runs in the sending node's domain: each direction's
// transmitter state (txFree, backlog, stats) is touched only by that side's
// domain, so the two directions of a cross-domain link never race. Delivery
// to a node in another domain goes into the sender's hand-off outbox, which
// the next barrier exchanges, instead of a direct scheduler insertion.
func (l *Link) transmit(side int, fb *frame.Buf) {
	sd := l.ends[side].node.dom
	s := sd.sched
	size := fb.Len()
	if l.backlog[side]+size > l.cfg.QueueBytes {
		l.queueDrop[side]++
		if b := sd.bus; b.Enabled(obs.KindQueueDrop) {
			b.Publish(obs.Event{
				Kind: obs.KindQueueDrop, Node: l.ends[side].node.name, Size: size,
				Detail: "→" + l.ends[1-side].node.name,
			})
		}
		fb.Release()
		return
	}
	if l.cfg.Loss > 0 && s.Rand().Float64() < l.cfg.Loss {
		l.lost[side]++
		if b := sd.bus; b.Enabled(obs.KindPacketLoss) {
			b.Publish(obs.Event{
				Kind: obs.KindPacketLoss, Node: l.ends[side].node.name, Size: size,
				Detail: "→" + l.ends[1-side].node.name,
			})
		}
		fb.Release()
		return
	}
	l.backlog[side] += size
	start := s.Now()
	if l.txFree[side] > start {
		start = l.txFree[side]
	}
	done := start + l.serialization(size)
	l.txFree[side] = done
	dst := l.ends[1-side]
	l.txFrames[side]++
	if tap := l.net.tap; tap != nil {
		tap(l.ends[side].node, dst.node, fb.Bytes())
	}
	// The frame leaves the transmit queue once serialized; propagation
	// happens "on the wire" and does not hold queue space.
	s.At(done, func() { l.backlog[side] -= size })
	arrive := done + l.cfg.Delay
	if l.cfg.Jitter > 0 {
		arrive += time.Duration(s.Rand().Int63n(int64(l.cfg.Jitter) + 1))
	}
	if dst.node.dom != sd {
		sd.handoffFrame(arrive, dst, fb)
		return
	}
	s.At(arrive, func() { dst.node.deliver(dst.ifindex, fb) })
}
