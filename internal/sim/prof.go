package sim

import "time"

// Profiling support for the simulation core. Two collectors exist:
//
//   - SchedProf attaches to one Scheduler and tracks the causal structure of
//     its event stream: every event's depth in the parent→child scheduling
//     DAG (an event's parent is the event whose execution scheduled it), the
//     maximum depth observed at fire time — the critical path — and a
//     sampled ring of parent→child edges for inspection. The critical path
//     bounds parallel speedup: with unit event cost no schedule can finish
//     in fewer steps than the longest causal chain, so
//     fired / maxDepth is the scenario's ideal speedup.
//   - GroupProf attaches to a Group and accounts wall-clock time per domain
//     per window: event execution (RunToKey) and barrier stall (the gap
//     between a domain finishing its window and the window's slowest domain
//     finishing), plus the coordinator's barrier time, hand-off exchange
//     included.
//
// Both are strictly passive and nil-gated on the hot paths: a detached
// scheduler or group pays a single pointer test and allocates nothing
// (pinned by TestProfZeroCostWhenDetached and the hydralint zeroalloc
// fence). Attached collectors preallocate their rings, so the steady state
// stays allocation-free too.
//
// Depth bookkeeping and determinism: an event scheduled during another
// event's execution gets depth parent+1; an event scheduled from
// coordinator context (setup code between runs, barrier-hosted global
// callbacks) roots a new chain at depth zero. Cross-domain hand-offs carry
// the sender's depth through AtBirthFrom, so the causal DAG — and therefore
// the critical path — is identical for a serial run and any partition of
// it, as long as no barrier-hosted samplers are attached (a serial sampler
// chains its own re-arms on the heap; its barrier-hosted twin roots each
// tick at depth zero).

// ProfEdge is one sampled parent→child scheduling edge: the parent's
// (at, birth) key is the executing event's, the child's is the newly
// scheduled event's, and Depth is the child's causal depth.
type ProfEdge struct {
	ParentAt    time.Duration
	ParentBirth time.Duration
	ChildAt     time.Duration
	ChildBirth  time.Duration
	Depth       uint64
}

// SchedProf collects causal critical-path data for one Scheduler. Attach
// with Scheduler.EnableProfile; all state is owned by the scheduler's
// domain, so reads belong in coordinator context (between runs or at a
// barrier).
type SchedProf struct {
	maxDepth uint64        // longest causal chain among fired events
	deepAt   time.Duration // virtual instant the deepest event fired
	every    uint64        // record every Nth scheduling edge
	seen     uint64        // edges considered for sampling
	recorded uint64        // edges recorded (may exceed the ring capacity)
	ring     []ProfEdge    // preallocated sample ring
	next     int           // ring write cursor
}

// NewSchedProf returns a collector whose edge ring holds ringCap samples,
// recording every everyth scheduling edge (minimums of 16 and 1 apply).
func NewSchedProf(ringCap, every int) *SchedProf {
	if ringCap < 16 {
		ringCap = 16
	}
	if every < 1 {
		every = 1
	}
	return &SchedProf{every: uint64(every), ring: make([]ProfEdge, 0, ringCap)}
}

// noteEdge is called from AtBirth on the scheduling hot path: count the
// edge and, every everyth time, overwrite the oldest ring slot. The ring is
// capacity-bounded and append never exceeds it, so steady state is
// allocation-free.
func (p *SchedProf) noteEdge(parentAt, parentBirth, childAt, childBirth time.Duration, depth uint64) {
	p.seen++
	if p.seen%p.every != 0 {
		return
	}
	p.recorded++
	e := ProfEdge{
		ParentAt:    parentAt,
		ParentBirth: parentBirth,
		ChildAt:     childAt,
		ChildBirth:  childBirth,
		Depth:       depth,
	}
	if len(p.ring) < cap(p.ring) {
		p.ring = append(p.ring, e)
		return
	}
	p.ring[p.next] = e
	p.next++
	if p.next == len(p.ring) {
		p.next = 0
	}
}

// MaxDepth returns the longest causal chain among events fired so far.
// Cancelled events never contribute: depth is assigned at scheduling time
// but only folded into the maximum when the event actually fires, so a
// Timer.Reset orphaning thousands of deadlines cannot inflate the path.
func (p *SchedProf) MaxDepth() uint64 { return p.maxDepth }

// DeepestAt returns the virtual instant the deepest event fired.
func (p *SchedProf) DeepestAt() time.Duration { return p.deepAt }

// SampleEvery returns the edge sampling stride.
func (p *SchedProf) SampleEvery() uint64 { return p.every }

// EdgesSeen returns how many scheduling edges were considered.
func (p *SchedProf) EdgesSeen() uint64 { return p.seen }

// EdgesRecorded returns how many edges were written to the ring (the ring
// keeps only the most recent len(ring) of them).
func (p *SchedProf) EdgesRecorded() uint64 { return p.recorded }

// Edges appends the retained edge samples to dst in recording order
// (oldest first) and returns the extended slice.
func (p *SchedProf) Edges(dst []ProfEdge) []ProfEdge {
	if len(p.ring) < cap(p.ring) {
		return append(dst, p.ring...)
	}
	dst = append(dst, p.ring[p.next:]...)
	return append(dst, p.ring[:p.next]...)
}

// ProfDomainTotals is one domain's cumulative window accounting.
type ProfDomainTotals struct {
	ExecNs  int64  // RunToKey: executing the domain's events
	StallNs int64  // waiting for the window's slowest domain
	Events  uint64 // events executed inside windows
}

// ProfWindowDomain is one domain's share of one window.
type ProfWindowDomain struct {
	ExecNs  int64
	StallNs int64
	DoneNs  int64 // wall offset (from the profiler epoch) the domain finished at
	Events  uint64
}

// ProfWindow is one recorded window: its bound key, wall-clock extent,
// per-domain breakdown, the barrier time that followed it, and the
// cross-domain hand-off counts produced during it (src*domains+dst).
type ProfWindow struct {
	Seq        uint64
	BoundAt    time.Duration
	BoundBirth time.Duration
	Global     bool // window edge set by a global event, not the lookahead
	StartNs    int64
	EndNs      int64
	BarrierNs  int64
	Domains    []ProfWindowDomain
	Flows      []uint64
}

// GroupProf collects per-domain, per-window wall-clock accounting for a
// Group. Attach with Group.EnableProfile. Workers write only their own
// domain's slot of the current window; the coordinator opens and closes
// windows with all workers parked (the Group's own barrier discipline), so
// no additional synchronization is needed.
type GroupProf struct {
	epoch time.Time // wall-clock origin; all Ns fields are offsets from it

	totals       []ProfDomainTotals
	windowWallNs int64  // Σ (EndNs - StartNs) over every window run
	windows      uint64 // windows run (recorded or evicted)
	dropped      uint64 // windows evicted from the ring
	barrierNs    int64  // Σ coordinator barrier time
	barriers     uint64

	ring  []ProfWindow
	count int // live records
	next  int // eviction cursor once full

	cur  *ProfWindow // window being recorded; nil outside runWindow
	last *ProfWindow // most recently completed window (barrier attribution)

	// flowSample fills a domains² matrix with cumulative hand-off counts;
	// endWindow turns consecutive samples into per-window deltas.
	flowSample func(dst []uint64)
	flowPrev   []uint64
	flowCur    []uint64
}

// NewGroupProf returns a collector for a group of domains whose window ring
// retains ringCap windows (minimum 64). Every ring slot's per-domain and
// flow sub-records are preallocated, so recording is allocation-free.
func NewGroupProf(domains, ringCap int) *GroupProf {
	if ringCap < 64 {
		ringCap = 64
	}
	p := &GroupProf{
		totals:   make([]ProfDomainTotals, domains),
		ring:     make([]ProfWindow, ringCap),
		flowPrev: make([]uint64, domains*domains),
		flowCur:  make([]uint64, domains*domains),
	}
	for i := range p.ring {
		p.ring[i].Domains = make([]ProfWindowDomain, domains)
		p.ring[i].Flows = make([]uint64, domains*domains)
	}
	//hydralint:nondeterministic profiler wall-clock epoch: accounting output only, never fed back into the simulation
	p.epoch = time.Now()
	return p
}

// SetFlowSampler installs the cumulative hand-off matrix reader (the
// network fabric's HandoffMatrix in practice). Coordinator context, before
// the first window.
func (p *GroupProf) SetFlowSampler(fn func(dst []uint64)) { p.flowSample = fn }

// wallNs reads the host clock as a nanosecond offset from the profiler
// epoch. Worker-safe: the epoch is written once before any window runs.
func (p *GroupProf) wallNs() int64 {
	//hydralint:nondeterministic profiler wall-clock reads: accounting output only, never fed back into the simulation
	return time.Now().Sub(p.epoch).Nanoseconds()
}

// beginWindow opens the next window record, evicting the oldest once the
// ring is full. Coordinator context.
func (p *GroupProf) beginWindow(bound Key) {
	var w *ProfWindow
	if p.count < len(p.ring) {
		w = &p.ring[p.count]
		p.count++
	} else {
		w = &p.ring[p.next]
		p.next++
		if p.next == len(p.ring) {
			p.next = 0
		}
		p.dropped++
	}
	w.Seq = p.windows
	p.windows++
	w.BoundAt = bound.At
	w.BoundBirth = bound.Birth
	w.Global = bound.Birth != KeyMin && bound.Birth != KeyMax
	w.BarrierNs = 0
	for i := range w.Domains {
		w.Domains[i] = ProfWindowDomain{}
	}
	for i := range w.Flows {
		w.Flows[i] = 0
	}
	w.StartNs = p.wallNs()
	w.EndNs = w.StartNs
	p.cur = w
}

// noteDomain records domain d's window execution: t0..t1 bracket RunToKey
// and ran is the event count. Called by d's worker — each domain writes a
// distinct slot.
func (p *GroupProf) noteDomain(d int, t0, t1 int64, ran int) {
	wd := &p.cur.Domains[d]
	wd.ExecNs = t1 - t0
	wd.DoneNs = t1
	wd.Events = uint64(ran)
}

// endWindow closes the current window with all workers parked: stall is the
// gap between each domain's finish and the window's wall end, totals
// accumulate, and the flow sampler's delta is taken. Coordinator context.
func (p *GroupProf) endWindow() {
	w := p.cur
	p.cur = nil
	end := p.wallNs()
	w.EndNs = end
	p.windowWallNs += end - w.StartNs
	for d := range w.Domains {
		wd := &w.Domains[d]
		wd.StallNs = end - wd.DoneNs
		tt := &p.totals[d]
		tt.ExecNs += wd.ExecNs
		tt.StallNs += wd.StallNs
		tt.Events += wd.Events
	}
	if p.flowSample != nil {
		p.flowSample(p.flowCur)
		for i, v := range p.flowCur {
			w.Flows[i] = v - p.flowPrev[i]
		}
		p.flowPrev, p.flowCur = p.flowCur, p.flowPrev
	}
	p.last = w
}

// noteBarrier accounts coordinator barrier time (hand-off exchange plus
// observation replay), attributing it to the window it sealed. Barriers can
// run without a preceding window (the final deadline alignment), hence the
// nil guard.
func (p *GroupProf) noteBarrier(ns int64) {
	p.barrierNs += ns
	p.barriers++
	if p.last != nil {
		p.last.BarrierNs += ns
	}
}

// Totals appends each domain's cumulative accounting to dst.
func (p *GroupProf) Totals(dst []ProfDomainTotals) []ProfDomainTotals {
	return append(dst, p.totals...)
}

// Domains returns the domain count the collector was built for.
func (p *GroupProf) Domains() int { return len(p.totals) }

// WindowsRun returns how many windows executed (recorded or evicted).
func (p *GroupProf) WindowsRun() uint64 { return p.windows }

// WindowsDropped returns how many window records the ring evicted.
func (p *GroupProf) WindowsDropped() uint64 { return p.dropped }

// WindowWallNs returns the summed wall extent of every window run.
func (p *GroupProf) WindowWallNs() int64 { return p.windowWallNs }

// BarrierNs returns the summed coordinator barrier time.
func (p *GroupProf) BarrierNs() int64 { return p.barrierNs }

// Barriers returns how many coordinator barriers ran.
func (p *GroupProf) Barriers() uint64 { return p.barriers }

// ForEachWindow visits the retained window records oldest-first.
func (p *GroupProf) ForEachWindow(fn func(w *ProfWindow)) {
	if p.count < len(p.ring) {
		for i := 0; i < p.count; i++ {
			fn(&p.ring[i])
		}
		return
	}
	for i := p.next; i < len(p.ring); i++ {
		fn(&p.ring[i])
	}
	for i := 0; i < p.next; i++ {
		fn(&p.ring[i])
	}
}
