package netsim

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"hydranet/internal/frame"
	"hydranet/internal/obs"
	"hydranet/internal/sim"
)

// domainRT is the per-domain execution state of a partitioned network: a
// private scheduler and frame pool, plus an outbox of the timestamped
// cross-domain frame hand-offs this domain sent during the current window.
//
// Concurrency contract (enforced by the sim.Group phase structure and
// checked by the hydralint domainfence analyzer):
//
//   - During a window, a domain's worker touches only its own state,
//     outbox included. Nothing here is shared and nothing is locked.
//   - At the barrier, with every worker parked, the coordinator runs
//     Network.ExchangeHandoffs: it copies each outbox frame into the
//     destination's pool, releases the original to the sender's pool, and
//     schedules delivery with the original birth, so the event lands
//     exactly where a single serial scheduler would have placed it. After
//     every barrier each hand-off is an ordinary pending event in its
//     destination's scheduler.
type domainRT struct {
	net   *Network
	id    int
	sched *sim.Scheduler
	pool  *frame.Pool
	bus   *obs.Bus // per-domain emission target (a view in parallel mode)

	outbox  []handoff // hand-offs sent this window; worker-local
	arrFree []*pendingArrival

	handoffs  uint64   // frames handed across domains
	handoffTo []uint64 // frames handed to each destination domain
	ties      uint64   // ambiguous cross-domain merge ties (see MergeTies)
}

// handoff is one cross-domain frame in flight: it arrives on node's
// interface ifindex at virtual time arrive, and was sent by an event in
// domain src executing at virtual time birth.
type handoff struct {
	arrive  time.Duration
	birth   time.Duration
	depth   uint64 // sender event's causal depth (0 unless profiling)
	src     int32
	ifindex int32
	node    *Node
	fb      *frame.Buf
}

// pendingArrival is a recycled delivery record: its cached fire closure
// keeps the exchange path allocation-free in steady state.
type pendingArrival struct {
	dom     *domainRT
	node    *Node
	ifindex int
	fb      *frame.Buf
	fireFn  func()
}

func (pa *pendingArrival) fire() {
	node, ifindex, fb := pa.node, pa.ifindex, pa.fb
	pa.node = nil
	pa.fb = nil
	d := pa.dom
	d.arrFree = append(d.arrFree, pa)
	node.deliver(ifindex, fb)
}

func (d *domainRT) getArrival() *pendingArrival {
	if k := len(d.arrFree); k > 0 {
		pa := d.arrFree[k-1]
		d.arrFree[k-1] = nil
		d.arrFree = d.arrFree[:k-1]
		return pa
	}
	pa := &pendingArrival{dom: d}
	pa.fireFn = pa.fire
	return pa
}

// SetDomains partitions the network for conservative parallel execution:
// assign maps each node (by creation index) to a domain, and scheds[i] is
// domain i's scheduler (scheds[0] is conventionally the network's original
// scheduler, so single-domain state carries over). It returns the
// partition's lookahead: the minimum propagation delay over cross-domain
// links, which bounds how far any domain may run ahead of the others.
//
// Constraints: the topology must be final, no events may be pending on the
// base scheduler, and every cross-domain link needs a positive propagation
// delay — a zero-delay link provides no lookahead and must stay internal.
// With no cross-domain links at all the domains are fully independent and
// the returned lookahead is sim.KeyMax (callers cap their window size).
func (n *Network) SetDomains(assign []int, scheds []*sim.Scheduler) (time.Duration, error) {
	if n.doms != nil {
		return 0, fmt.Errorf("netsim: network already partitioned")
	}
	if len(assign) != len(n.nodes) {
		return 0, fmt.Errorf("netsim: partition covers %d of %d nodes", len(assign), len(n.nodes))
	}
	if len(scheds) < 1 {
		return 0, fmt.Errorf("netsim: partition needs at least one scheduler")
	}
	if n.sched.Pending() > 0 {
		return 0, fmt.Errorf("netsim: partition with %d events already pending", n.sched.Pending())
	}
	for i, d := range assign {
		if d < 0 || d >= len(scheds) {
			return 0, fmt.Errorf("netsim: node %q assigned to domain %d of %d", n.nodes[i].name, d, len(scheds))
		}
	}
	lookahead := time.Duration(sim.KeyMax)
	for _, l := range n.links {
		da, db := assign[l.ends[0].node.index], assign[l.ends[1].node.index]
		if da == db {
			continue
		}
		if l.cfg.Delay <= 0 {
			return 0, fmt.Errorf("netsim: cross-domain link %s-%s has no propagation delay (no lookahead)",
				l.ends[0].node.name, l.ends[1].node.name)
		}
		if l.cfg.Delay < lookahead {
			lookahead = l.cfg.Delay
		}
	}
	doms := make([]*domainRT, len(scheds))
	for i, s := range scheds {
		d := &domainRT{net: n, id: i, sched: s, pool: frame.NewPool(), bus: n.bus}
		d.handoffTo = make([]uint64, len(scheds))
		doms[i] = d
	}
	// Domain 0 inherits the base pool so buffers already handed out (none
	// in steady use before traffic, but tests may hold some) stay valid.
	doms[0].pool = n.pool
	for i, nd := range n.nodes {
		nd.dom = doms[assign[i]]
	}
	n.doms = doms
	return lookahead, nil
}

// Domains returns the number of domains (1 before SetDomains).
func (n *Network) Domains() int {
	if n.doms == nil {
		return 1
	}
	return len(n.doms)
}

// DomainOf returns the domain a node belongs to.
func (n *Network) DomainOf(nd *Node) int { return nd.dom.id }

// Handoffs returns the total number of frames handed across domains.
func (n *Network) Handoffs() uint64 {
	var total uint64
	for _, d := range n.doms {
		total += d.handoffs
	}
	return total
}

// HandoffMatrix fills dst — length Domains()² , indexed src*Domains()+to —
// with the cumulative cross-domain hand-off counts and reports whether the
// network is partitioned. Coordinator context only (a barrier or between
// runs): workers append hand-offs during windows, and the window WaitGroup
// orders those writes before any coordinator read.
func (n *Network) HandoffMatrix(dst []uint64) bool {
	if n.doms == nil {
		return false
	}
	k := len(n.doms)
	for _, d := range n.doms {
		for to, c := range d.handoffTo {
			dst[d.id*k+to] = c
		}
	}
	return true
}

// MergeTies returns how many cross-domain merge decisions were ambiguous:
// two hand-offs from different source domains carrying identical
// (arrive, birth) keys, where the serial tie-break (global insertion order)
// is not reconstructible from timestamps. Runs with zero ties are
// bit-identical to the serial scheduler; a nonzero count means the
// partition's outputs are still deterministic, but may order those specific
// simultaneous events differently than a serial run would.
func (n *Network) MergeTies() uint64 {
	var total uint64
	for _, d := range n.doms {
		total += d.ties
	}
	return total
}

// PoolOutstanding counts in-flight frame buffers net-wide. Every hand-off
// is exchanged at the barrier that closes its window, so outside a window
// each logical frame is held by exactly one pool, and the sum equals a
// serial run's occupancy at the same virtual instant: a telemetry sampler
// reads the same gauge under any partition. Coordinator context (a barrier
// or between runs) only.
func (n *Network) PoolOutstanding() int {
	if n.doms == nil {
		return n.pool.Outstanding()
	}
	total := 0
	for _, d := range n.doms {
		total += d.pool.Outstanding()
	}
	return total
}

// PoolMisses sums cumulative allocation misses across domain pools. Unlike
// PoolOutstanding this is allocator telemetry, not a simulation observable:
// each domain pool warms its own free lists, so the sum depends on the
// partition (though not on the worker count).
func (n *Network) PoolMisses() uint64 {
	if n.doms == nil {
		_, _, misses := n.pool.Stats()
		return misses
	}
	var total uint64
	for _, d := range n.doms {
		_, _, misses := d.pool.Stats()
		total += misses
	}
	return total
}

// ExchangeHandoffs delivers every hand-off sent during the window just
// closed. It is the first step of the sim.Group barrier hook: coordinator
// context, every worker parked, before observation replay and before any
// global event at this barrier fires, so a global that schedules domain
// work sorts after the hand-offs a serial run would already have queued.
//
// The outboxes are gathered in source-domain order and stable-sorted on
// (destination, arrive, birth, src): stability preserves per-source send
// order, which equals the source domain's execution order — the same FIFO
// tie-break the serial scheduler's sequence counter applies. Each frame is
// copied into the destination's pool, the original goes back to the
// sender's pool, and delivery is scheduled with the sender's birth.
func (n *Network) ExchangeHandoffs() {
	all := n.exchange[:0]
	for _, d := range n.doms {
		all = append(all, d.outbox...)
		clear(d.outbox)
		d.outbox = d.outbox[:0]
	}
	slices.SortStableFunc(all, func(a, b handoff) int {
		if c := cmp.Compare(a.node.dom.id, b.node.dom.id); c != 0 {
			return c
		}
		if c := cmp.Compare(a.arrive, b.arrive); c != 0 {
			return c
		}
		if c := cmp.Compare(a.birth, b.birth); c != 0 {
			return c
		}
		return cmp.Compare(a.src, b.src)
	})
	for i := range all {
		e := &all[i]
		dd := e.node.dom
		if i > 0 {
			p := &all[i-1]
			if p.node.dom == dd && p.arrive == e.arrive && p.birth == e.birth && p.src != e.src {
				dd.ties++
			}
		}
		pa := dd.getArrival()
		pa.node = e.node
		pa.ifindex = int(e.ifindex)
		pa.fb = dd.pool.GetCopy(e.fb.Bytes())
		e.fb.Release()
		// AtBirthFrom carries the sender event's causal depth across the
		// domain boundary, so a profiled run's critical path matches the
		// chain a serial scheduler would have recorded.
		dd.sched.AtBirthFrom(e.arrive, e.birth, e.depth, pa.fireFn)
	}
	clear(all)
	n.exchange = all[:0]
}

// handoffFrame queues fb for delivery in the destination's domain. Called
// from Link.transmit in the sender's worker context; sd is the sender-side
// domain, whose pool keeps fb until the barrier's exchange releases it.
func (sd *domainRT) handoffFrame(arrive time.Duration, dst endpoint, fb *frame.Buf) {
	sd.outbox = append(sd.outbox, handoff{
		arrive:  arrive,
		birth:   sd.sched.Now(),
		depth:   sd.sched.CurrentDepth(),
		src:     int32(sd.id),
		ifindex: int32(dst.ifindex),
		node:    dst.node,
		fb:      fb,
	})
	sd.handoffs++
	sd.handoffTo[dst.node.dom.id]++
}
