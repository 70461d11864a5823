package hydranet

// Parallel execution: Net.SetWorkers partitions the fabric into per-domain
// synchronization domains (internal/netsim) advanced by a conservative
// window scheduler (internal/sim.Group), and this file supplies the facade
// glue that keeps every observable byte-identical to the serial scheduler:
//
//   - One barrier hook. It first exchanges the closed window's cross-domain
//     hand-offs into their destination schedulers (netsim's
//     ExchangeHandoffs), then replays the spooled observations below; any
//     global event at that barrier fires after both, so it sees the same
//     pending deliveries a serial run would.
//   - Per-domain bus views. Worker-context code (TCP stacks, redirectors,
//     the fabric itself) emits on a private obs.Bus per domain whose
//     subscription mask mirrors the real bus, so Enabled() answers — and
//     therefore the simulation's control flow — are unchanged. Emitted
//     events are spooled with the emitting event's (time, birth) key and
//     replayed into the real bus at the next barrier in merged key order,
//     exactly the order a serial run would have delivered them.
//   - Spooled taps. Frame taps and redirector encap taps observe pooled
//     buffers that are recycled when the emitting event returns, so the
//     spool copies the bytes into a per-domain arena and replays them at
//     the barrier. Because pcap captures stamp records with Net.Now, and
//     Net.Now follows the replay clock, captures of a partitioned run are
//     byte-identical to serial ones.
//   - Global events. Net.At, scripted fault injection and telemetry
//     samplers become sim.Group global events: they run at barriers with
//     all workers parked, positioned by (time, birth) exactly where the
//     serial scheduler would have run them.
//
// The partition is derived from the topology alone (SetWorkers cuts the
// largest propagation-delay class), never from the worker count, so any
// worker count ≥ 2 produces identical output; workers == 1 keeps the
// serial scheduler untouched.

import (
	"fmt"
	"time"

	"hydranet/internal/ipv4"
	"hydranet/internal/netsim"
	"hydranet/internal/obs"
	"hydranet/internal/sim"
)

// maxLookahead caps the window size when the partition has no cross-domain
// links at all (netsim reports an unbounded lookahead): windows beyond this
// gain nothing, and an unbounded edge would overflow the clock arithmetic.
const maxLookahead = time.Hour

// parallelRT is the facade's parallel runtime, attached to a Net by
// SetWorkers/Partition.
type parallelRT struct {
	n      *Net
	group  *sim.Group
	scheds []*sim.Scheduler

	views    []*obs.Bus // per-domain emission targets mirroring n.bus
	viewMask uint64     // n.bus.Mask() the views were built against
	spools   []spool    // per-domain deferred observations
	cursors  []int      // merge cursors, reused per barrier

	tapped      bool // spoolFrame installed as the fabric tap
	encapTapped bool // spoolEncap installed on every redirector

	// Replay/coordinator context, only touched with all workers parked.
	running   bool // inside group.Run/RunUntil
	replaying bool
	replayNow time.Duration
	inGlobal  bool
	globalKey sim.Key
}

// direct reports whether an observation should bypass the spool: barrier
// replay and global events are already at their merged position, and
// coordinator-context emission between runs (Crash/Restart from test code)
// happens with every prior observation drained, so publishing immediately
// preserves the serial order — and cannot wait for a barrier that may never
// come if the harness stops running.
func (p *parallelRT) direct() bool { return p.inGlobal || p.replaying || !p.running }

// recKind discriminates spooled observation records.
type recKind uint8

const (
	recBus   recKind = iota // obs event for the real bus
	recFrame                // fabric frame tap
	recEncap                // redirector pre-encapsulation tap
)

// spoolRec is one deferred observation: its key is the (time, birth) of the
// domain event that emitted it, which positions it in the merged replay
// exactly where a serial scheduler would have delivered it.
type spoolRec struct {
	key      sim.Key
	kind     recKind
	ev       obs.Event
	from, to *netsim.Node
	host     Addr
	off, end int // byte range in the spool arena (frame/encap records)
}

// spool is one domain's deferred observations for the current window. Only
// that domain's worker appends; the coordinator drains at the barrier.
type spool struct {
	recs  []spoolRec
	bytes []byte // arena for copied frame/wire bytes
}

// SetWorkers partitions the network for parallel execution across the given
// number of worker threads. The partition is derived from the topology: the
// largest propagation-delay class is cut (those links become the
// cross-domain hand-off boundaries and set the lookahead window), and
// everything joined by faster links stays in one domain. The worker count
// only sets parallelism — the output is bit-identical for every count ≥ 2,
// and workers <= 1 leaves the serial scheduler untouched entirely.
//
// Call after the topology is final (hosts, links, AutoRoute) and before
// deploying services, dialing connections, or attaching captures and
// samplers. When the topology has no delay structure to cut (a single
// domain would remain), the network stays serial and SetWorkers returns nil.
func (n *Net) SetWorkers(workers int) error {
	if workers <= 1 {
		return nil
	}
	groups := n.autoPartition()
	if len(groups) <= 1 {
		return nil
	}
	return n.Partition(groups, workers)
}

// autoPartition groups hosts into synchronization domains by cutting every
// link in the topology's largest propagation-delay class and merging the
// rest (union-find). Groups are ordered by first host creation index, so
// domain 0 always contains host 0 and the partition is deterministic.
func (n *Net) autoPartition() [][]*Host {
	var cut time.Duration
	for _, li := range n.links {
		if d := li.underlying.Config().Delay; d > cut {
			cut = d
		}
	}
	if cut <= 0 {
		return nil
	}
	parent := make([]int, len(n.hosts))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	idx := make(map[*Host]int, len(n.hosts))
	for i, h := range n.hosts {
		idx[h] = i
	}
	for _, li := range n.links {
		if li.underlying.Config().Delay >= cut {
			continue
		}
		ra, rb := find(idx[li.a]), find(idx[li.b])
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	order := make(map[int]int) // root -> group index, by first occurrence
	var groups [][]*Host
	for i, h := range n.hosts {
		r := find(i)
		g, ok := order[r]
		if !ok {
			g = len(groups)
			order[r] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], h)
	}
	return groups
}

// Partition explicitly assigns hosts to synchronization domains (groups[d]
// lists domain d's hosts; every host must appear exactly once) and runs them
// across the given worker count. Most callers want SetWorkers; Partition is
// for harnesses that need a specific cut. The same call-ordering rules
// apply: topology final, nothing deployed, dialed or attached yet.
func (n *Net) Partition(groups [][]*Host, workers int) error {
	if n.par != nil {
		return fmt.Errorf("hydranet: network already partitioned")
	}
	if n.profiler != nil {
		return fmt.Errorf("hydranet: partition after StartProfile — attach the profiler after SetWorkers")
	}
	if len(groups) == 0 {
		return fmt.Errorf("hydranet: empty partition")
	}
	idx := make(map[*Host]int, len(n.hosts))
	for i, h := range n.hosts {
		idx[h] = i
	}
	assign := make([]int, len(n.hosts))
	for i := range assign {
		assign[i] = -1
	}
	for d, g := range groups {
		for _, h := range g {
			i, ok := idx[h]
			if !ok {
				return fmt.Errorf("hydranet: partition names a host not in this network")
			}
			if assign[i] != -1 {
				return fmt.Errorf("hydranet: host %q appears in two domains", h.name)
			}
			assign[i] = d
		}
	}
	for i, d := range assign {
		if d == -1 {
			return fmt.Errorf("hydranet: host %q missing from the partition", n.hosts[i].name)
		}
	}
	for _, h := range n.hosts {
		if h.mgr != nil || h.dmn != nil {
			return fmt.Errorf("hydranet: partition after deploying services (host %q)", h.name)
		}
		if len(h.tcp.Conns()) > 0 {
			return fmt.Errorf("hydranet: partition with live connections on %q", h.name)
		}
	}
	for _, r := range n.redirectors {
		if r.dmn != nil {
			return fmt.Errorf("hydranet: partition after starting redirector daemon %q", r.Host.name)
		}
	}

	scheds := make([]*sim.Scheduler, len(groups))
	scheds[0] = n.sched
	for i := 1; i < len(scheds); i++ {
		// Distinct deterministic seed per domain; the partition is derived
		// from the topology, so equal-seed runs draw identical streams.
		scheds[i] = sim.NewScheduler(n.cfg.Seed + int64(i)*1_000_003)
	}
	lookahead, err := n.fab.SetDomains(assign, scheds)
	if err != nil {
		return err
	}
	if lookahead > maxLookahead {
		lookahead = maxLookahead
	}
	// Move every host's protocol timers onto its domain scheduler.
	for i, h := range n.hosts {
		ds := scheds[assign[i]]
		h.ip.Rebind(ds)
		h.tcp.Rebind(ds)
		h.icmp.Rebind(ds)
	}
	p := &parallelRT{
		n:       n,
		scheds:  scheds,
		views:   make([]*obs.Bus, len(scheds)),
		spools:  make([]spool, len(scheds)),
		cursors: make([]int, len(scheds)),
	}
	p.group = sim.NewGroup(scheds, lookahead, workers)
	p.group.SetBarrier(func() {
		n.fab.ExchangeHandoffs()
		p.barrier()
	})
	n.par = p
	p.refresh()
	return nil
}

// Parallel reports the partition: domains and worker threads (1, 1 for a
// serial network).
func (n *Net) Parallel() (domains, workers int) {
	if n.par == nil {
		return 1, 1
	}
	return len(n.par.scheds), n.par.group.Workers()
}

// MergeTies returns how many cross-domain merge decisions were ambiguous
// (see netsim.Network.MergeTies); zero means the run is bit-identical to
// the serial scheduler.
func (n *Net) MergeTies() uint64 { return n.fab.MergeTies() }

// Handoffs returns the number of frames handed across domains (0 when
// serial or when no cross-domain traffic flowed).
func (n *Net) Handoffs() uint64 { return n.fab.Handoffs() }

// EventsFired returns the total number of executed simulation events,
// summed across domains in a partitioned run.
func (n *Net) EventsFired() uint64 {
	if n.par != nil {
		return n.par.group.Fired()
	}
	return n.sched.Fired()
}

// eventsPending counts queued simulation events: scheduler heaps plus, in a
// partitioned run, global events. Cross-domain hand-offs are already queued
// in their destination heaps by the barrier that precedes any reader.
func (n *Net) eventsPending() int {
	if n.par != nil {
		return n.par.group.Pending()
	}
	return n.sched.Pending()
}

// hostView returns the bus view of the host's domain.
func (p *parallelRT) hostView(h *Host) *obs.Bus {
	return p.views[p.n.fab.DomainOf(h.node)]
}

// emitBus returns the bus a host-side emitter should publish on: the real
// bus in serial runs, the host's domain view in parallel runs.
func (h *Host) emitBus() *obs.Bus {
	if p := h.net.par; p != nil {
		return p.hostView(h)
	}
	return h.net.bus
}

// Bus returns the bus callbacks running on this host (accept handlers,
// OnReadable measurement probes) should publish on. In a serial network it
// is Net.Bus; in a partitioned one it is the host's domain view, so
// worker-context publication stays inside the domain and is merged
// deterministically at the next barrier.
func (h *Host) Bus() *obs.Bus { return h.emitBus() }

// Scheduler returns the scheduler driving this host — its domain scheduler
// in a partitioned run. Harness code pacing per-host traffic (ttcp
// transmitters, scripted sends from one host) must schedule here rather
// than on Net.Scheduler.
func (h *Host) Scheduler() *sim.Scheduler { return h.node.Scheduler() }

// refresh rebuilds the per-domain bus views when the real bus's
// subscription mask changed (a capture or probe attached since the last
// run) and installs the spooling taps once facade taps exist. Runs in
// coordinator context at partition time and at every run entry.
func (p *parallelRT) refresh() {
	n := p.n
	if mask := n.bus.Mask(); mask != p.viewMask || p.views[0] == nil {
		p.viewMask = mask
		for d := range p.views {
			view := obs.NewBus(p.scheds[d].Now)
			dd := d
			view.SubscribeMask(func(ev obs.Event) { p.spoolEvent(dd, ev) }, mask)
			p.views[d] = view
			n.fab.SetDomainBus(d, view)
		}
		for _, h := range n.hosts {
			v := p.hostView(h)
			h.tcp.SetBus(v)
			if h.mgr != nil {
				h.mgr.SetBus(v)
			}
		}
		for _, r := range n.redirectors {
			v := p.hostView(r.Host)
			r.rd.SetBus(v)
			if r.dmn != nil {
				r.dmn.SetBus(v, r.Host.name)
			}
		}
	}
	p.installTaps()
}

// installTaps routes the facade's frame and encap taps through the spools.
func (p *parallelRT) installTaps() {
	n := p.n
	if len(n.frameTaps) > 0 && !p.tapped {
		p.tapped = true
		n.fab.SetFrameTap(p.spoolFrame)
	}
	if len(n.encapTaps) > 0 && !p.encapTapped {
		p.encapTapped = true
		for _, r := range n.redirectors {
			d := n.fab.DomainOf(r.Host.node)
			r.rd.SetEncapTap(func(inner *ipv4.Packet, host Addr) {
				p.spoolEncap(d, inner, host)
			})
		}
	}
}

// keyFor returns the merge key of the observation being emitted: the
// executing event's (time, birth) in worker context, the global event's key
// at a barrier, or the group clock for coordinator-context emission between
// runs (Crash/Restart called from test code).
func (p *parallelRT) keyFor(d int) sim.Key {
	if p.inGlobal {
		return p.globalKey
	}
	k, _ := p.scheds[d].CurrentKey()
	if now := p.group.Now(); k.At < now {
		k = sim.Key{At: now, Birth: now}
	}
	return k
}

// spoolEvent is the per-domain view subscriber: defer the event for merged
// replay into the real bus. Coordinator-context emission (global events,
// setup code between runs) is already at its correct point in the merged
// order and publishes through immediately.
func (p *parallelRT) spoolEvent(d int, ev obs.Event) {
	if p.direct() {
		p.n.bus.Publish(ev)
		return
	}
	sp := &p.spools[d]
	sp.recs = append(sp.recs, spoolRec{key: p.keyFor(d), kind: recBus, ev: ev})
}

// spoolFrame is the fabric tap in parallel mode: the frame bytes alias a
// pooled buffer valid only for this call, so they are copied into the
// domain arena and the registered taps run at the barrier.
func (p *parallelRT) spoolFrame(from, to *netsim.Node, data []byte) {
	if p.direct() {
		for _, tap := range p.n.frameTaps {
			tap(from, to, data)
		}
		return
	}
	d := p.n.fab.DomainOf(from)
	sp := &p.spools[d]
	off := len(sp.bytes)
	sp.bytes = append(sp.bytes, data...)
	sp.recs = append(sp.recs, spoolRec{
		key: p.keyFor(d), kind: recFrame, from: from, to: to, off: off, end: len(sp.bytes),
	})
}

// spoolEncap is the per-redirector encap tap in parallel mode: the inner
// packet's wire bytes are copied and re-parsed at the barrier. Packets
// without wire bytes are skipped, matching the pcap consumer, which is the
// only inner-copy subscriber and ignores them too.
func (p *parallelRT) spoolEncap(d int, inner *ipv4.Packet, host Addr) {
	wire := inner.Wire()
	if len(wire) == 0 {
		return
	}
	if p.direct() {
		for _, tap := range p.n.encapTaps {
			tap(inner, host)
		}
		return
	}
	sp := &p.spools[d]
	off := len(sp.bytes)
	sp.bytes = append(sp.bytes, wire...)
	sp.recs = append(sp.recs, spoolRec{
		key: p.keyFor(d), kind: recEncap, host: host, off: off, end: len(sp.bytes),
	})
}

// barrier is the second step of the sim.Group barrier hook, after the
// hand-off exchange: k-way merge the domain spools by key and replay each
// observation at its original virtual instant. Equal
// keys from different domains replay in domain order — the same ambiguity
// class netsim counts as merge ties; within a domain, spool order is
// execution order and is preserved.
func (p *parallelRT) barrier() {
	total := 0
	for d := range p.spools {
		p.cursors[d] = 0
		total += len(p.spools[d].recs)
	}
	if total == 0 {
		return
	}
	n := p.n
	p.replaying = true
	for ; total > 0; total-- {
		best := -1
		for d := range p.spools {
			if p.cursors[d] >= len(p.spools[d].recs) {
				continue
			}
			if best < 0 || p.spools[d].recs[p.cursors[d]].key.Less(p.spools[best].recs[p.cursors[best]].key) {
				best = d
			}
		}
		sp := &p.spools[best]
		r := &sp.recs[p.cursors[best]]
		p.cursors[best]++
		p.replayNow = r.key.At
		switch r.kind {
		case recBus:
			n.bus.Publish(r.ev)
		case recFrame:
			data := sp.bytes[r.off:r.end]
			for _, tap := range n.frameTaps {
				tap(r.from, r.to, data)
			}
		case recEncap:
			if pkt, err := ipv4.Unmarshal(sp.bytes[r.off:r.end]); err == nil {
				for _, tap := range n.encapTaps {
					tap(pkt, r.host)
				}
			}
		}
	}
	p.replaying = false
	for d := range p.spools {
		sp := &p.spools[d]
		for i := range sp.recs {
			sp.recs[i] = spoolRec{}
		}
		sp.recs = sp.recs[:0]
		sp.bytes = sp.bytes[:0]
	}
}

// now is the parallel virtual clock: the replayed observation's instant
// during barrier replay, the group clock otherwise.
func (p *parallelRT) now() time.Duration {
	if p.replaying {
		return p.replayNow
	}
	return p.group.Now()
}

// run/runUntil drive the group, refreshing views first so subscriptions
// made since the last run take effect.
func (p *parallelRT) run() {
	p.refresh()
	p.running = true
	p.group.Run()
	p.running = false
}

func (p *parallelRT) runUntil(t time.Duration) {
	p.refresh()
	p.running = true
	p.group.RunUntil(t)
	p.running = false
}

// at schedules fn as a global event positioned exactly where a serial
// scheduler would have run an event inserted now: barrier context, with the
// global key exported so anything fn emits merges at the right instant.
func (p *parallelRT) at(t time.Duration, fn func()) {
	birth := p.group.Now()
	p.group.Schedule(t, birth, func() {
		p.inGlobal = true
		p.globalKey = sim.Key{At: t, Birth: birth}
		fn()
		p.inGlobal = false
	})
}

// groupTicker is the parallel analogue of a series.Sampler's timer: a
// self-rearming global event with the same (fire, birth) key sequence the
// serial sim.Timer would produce, so sampled series are byte-identical.
type groupTicker struct {
	p       *parallelRT
	every   time.Duration
	fn      func(now time.Duration)
	ticks   uint64
	ev      sim.GlobalEvent
	stopped bool
}

// startTicker arms a recurring barrier tick; the first fires one cadence
// from now, like Sampler.Start.
func (p *parallelRT) startTicker(every time.Duration, fn func(now time.Duration)) *groupTicker {
	g := &groupTicker{p: p, every: every, fn: fn}
	g.arm(p.group.Now()+every, p.group.Now())
	return g
}

func (g *groupTicker) arm(at, birth time.Duration) {
	g.ev = g.p.group.Schedule(at, birth, func() {
		if g.stopped {
			return
		}
		g.ticks++
		p := g.p
		p.inGlobal = true
		p.globalKey = sim.Key{At: at, Birth: birth}
		g.fn(at)
		p.inGlobal = false
		g.arm(at+g.every, at)
	})
}

// Stop disarms the ticker.
func (g *groupTicker) Stop() {
	g.stopped = true
	g.ev.Cancel()
}
