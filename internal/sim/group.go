package sim

import (
	"fmt"
	"sync"
	"time"
)

// Group advances a set of per-domain Schedulers in conservative parallel
// windows. It is the synchronization spine of the parallel simulation core:
//
//   - Every domain owns a private Scheduler (clock, heap, PRNG, pools above
//     it). Domains may only influence each other through timestamped
//     hand-offs whose delivery time lies at least Lookahead beyond the
//     moment of the send — in the network model that bound is the minimum
//     propagation delay of any cross-domain link.
//   - The Group repeatedly picks a window edge no further than Lookahead
//     past the earliest pending work, runs every domain's events strictly
//     below that edge in parallel, and then rendezvous at a barrier where
//     the barrier hook, with every worker parked, exchanges the hand-offs
//     produced during the window into their destination schedulers and
//     replays deferred observations.
//   - Global events — callbacks that read or mutate state spanning domains,
//     such as telemetry samplers and scripted fault injection — run at the
//     barrier, single-threaded, positioned in the event order by their
//     (time, birth) key exactly where a single serial scheduler would have
//     run them.
//
// Within one window no domain can observe another (hand-offs sent during
// the window arrive at or after its edge), so the parallel execution is
// order-equivalent to the serial one per domain; the (time, birth) keys
// restore the cross-domain interleaving wherever it is observable. The
// result does not depend on the worker count, only on the partition.
type Group struct {
	scheds    []*Scheduler
	lookahead time.Duration
	workers   int
	now       time.Duration

	barrier func() // coordinator context, after every window

	mu      sync.Mutex // guards globals (Schedule may be called from hooks)
	globals []*globalEvent
	gseq    uint64
	gfired  uint64 // executed global events (coordinator-only access)

	prof *GroupProf // window/barrier profiler; nil (zero-cost) unless attached
}

// globalEvent is a barrier-scheduled callback with a cancellation flag.
type globalEvent struct {
	at, birth time.Duration
	seq       uint64
	fn        func()
	cancelled bool
}

// GlobalEvent is a cancellable handle to a Group-scheduled callback.
type GlobalEvent struct{ g *globalEvent }

// Cancel prevents the callback from running. Safe on the zero handle.
func (e GlobalEvent) Cancel() {
	if e.g != nil {
		e.g.cancelled = true
	}
}

// NewGroup builds a Group over the given domain schedulers. lookahead must
// be positive: it is the guarantee that makes windows safe, and a
// zero-lookahead partition would serialize every event anyway.
func NewGroup(scheds []*Scheduler, lookahead time.Duration, workers int) *Group {
	if len(scheds) == 0 {
		panic("sim: NewGroup with no schedulers")
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: NewGroup with non-positive lookahead %v", lookahead))
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(scheds) {
		workers = len(scheds)
	}
	return &Group{scheds: scheds, lookahead: lookahead, workers: workers}
}

// SetBarrier installs the barrier hook. It runs on the coordinator with all
// workers parked, after every window and before any global event at that
// barrier fires. It must leave every hand-off of the closed window queued in
// its destination scheduler: the Group finds pending work, and skips idle
// stretches, by reading the scheduler heaps alone.
func (g *Group) SetBarrier(fn func()) { g.barrier = fn }

// Now returns the Group's clock: the edge of the last completed window.
func (g *Group) Now() time.Duration { return g.now }

// Lookahead returns the window bound.
func (g *Group) Lookahead() time.Duration { return g.lookahead }

// Workers returns the number of worker goroutines windows fan out across.
func (g *Group) Workers() int { return g.workers }

// Fired sums executed events across all domains, plus executed global
// events (a serial scheduler would count those as ordinary heap events).
func (g *Group) Fired() uint64 {
	n := g.gfired
	for _, s := range g.scheds {
		n += s.Fired()
	}
	return n
}

// Pending sums live queued events across all domains, plus live global
// events (a serial scheduler would count those as ordinary heap entries).
func (g *Group) Pending() int {
	n := 0
	for _, s := range g.scheds {
		n += s.Pending()
	}
	g.mu.Lock()
	for _, ge := range g.globals {
		if !ge.cancelled {
			n++
		}
	}
	g.mu.Unlock()
	return n
}

// Schedule registers fn to run at the barrier crossing virtual time at,
// ordered among simulation events by (at, birth): fn runs after every
// domain event whose key is strictly below (at, birth) and before every
// event at or beyond it, exactly where a serial scheduler would have run an
// event inserted at virtual time birth. Only coordinator context (setup
// code between runs, or another global callback) may call Schedule.
func (g *Group) Schedule(at, birth time.Duration, fn func()) GlobalEvent {
	if at < g.now {
		panic(fmt.Sprintf("sim: scheduling global event at %v before now %v", at, g.now))
	}
	if birth > at {
		birth = at
	}
	g.mu.Lock()
	ge := &globalEvent{at: at, birth: birth, seq: g.gseq, fn: fn}
	g.gseq++
	g.globals = append(g.globals, ge)
	g.mu.Unlock()
	return GlobalEvent{g: ge}
}

// peekGlobal returns the earliest live global event, pruning cancelled ones.
func (g *Group) peekGlobal() *globalEvent {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		var best *globalEvent
		bi := -1
		for i, ge := range g.globals {
			if best == nil || ge.at < best.at ||
				(ge.at == best.at && (ge.birth < best.birth ||
					(ge.birth == best.birth && ge.seq < best.seq))) {
				best, bi = ge, i
			}
		}
		if best == nil {
			return nil
		}
		if best.cancelled {
			g.globals[bi] = g.globals[len(g.globals)-1]
			g.globals = g.globals[:len(g.globals)-1]
			continue
		}
		return best
	}
}

func (g *Group) removeGlobal(ge *globalEvent) {
	g.mu.Lock()
	for i, e := range g.globals {
		if e == ge {
			g.globals[i] = g.globals[len(g.globals)-1]
			g.globals = g.globals[:len(g.globals)-1]
			break
		}
	}
	g.mu.Unlock()
}

// earliestWork returns the smallest timestamp of any pending domain event,
// or ok=false when the whole fabric is idle. The barrier hook has queued
// every hand-off by the time this runs, so the heaps are the whole story.
func (g *Group) earliestWork() (time.Duration, bool) {
	var best time.Duration
	ok := false
	for _, s := range g.scheds {
		if k, has := s.NextKey(); has && (!ok || k.At < best) {
			best, ok = k.At, true
		}
	}
	return best, ok
}

// EnableProfile attaches (nil detaches) the window profiler. Coordinator
// context only, never mid-window. Detached, runWindow and syncBarrier pay a
// single nil test each and allocate nothing.
func (g *Group) EnableProfile(p *GroupProf) { g.prof = p }

// Profile returns the attached window profiler, nil when detached.
func (g *Group) Profile() *GroupProf { return g.prof }

// runWindow executes one parallel phase: every domain runs its events with
// keys strictly below bound. The call returns after all domains finish.
func (g *Group) runWindow(bound Key) {
	gp := g.prof
	if gp != nil {
		gp.beginWindow(bound)
	}
	run := func(d int) {
		if gp != nil {
			// Profiled path: bracket the execution with wall reads. Each
			// domain's worker writes only its own slot, and the coordinator
			// closes the window after the WaitGroup, so the accounting is
			// race-free by the same discipline as the window protocol itself.
			t0 := gp.wallNs()
			ran := g.scheds[d].RunToKey(bound)
			gp.noteDomain(d, t0, gp.wallNs(), ran)
			return
		}
		g.scheds[d].RunToKey(bound)
	}
	if g.workers == 1 || len(g.scheds) == 1 {
		for d := range g.scheds {
			run(d)
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(g.workers)
		for w := 0; w < g.workers; w++ {
			//hydralint:nondeterministic window workers: domain-to-worker striding is fixed, domains share no state inside a window, and outputs merge at barriers in deterministic key order
			go func(w int) {
				defer wg.Done()
				for d := w; d < len(g.scheds); d += g.workers {
					run(d)
				}
			}(w)
		}
		wg.Wait()
	}
	if gp != nil {
		gp.endWindow()
	}
}

// RunUntil advances the whole group to the absolute virtual instant
// deadline: every domain event with timestamp <= deadline executes, every
// clock ends at deadline. Equivalent to Scheduler.RunUntil on a single
// serial scheduler.
func (g *Group) RunUntil(deadline time.Duration) {
	for {
		base, busy := g.earliestWork()
		ge := g.peekGlobal()
		if ge != nil && ge.at <= deadline && (!busy || ge.at < base+g.lookahead) {
			// The global event is the next window edge: run every domain
			// strictly below its key, fire it at the barrier, continue.
			bound := Key{At: ge.at, Birth: ge.birth}
			g.runWindow(bound)
			g.advance(ge.at)
			g.syncBarrier()
			g.removeGlobal(ge)
			if !ge.cancelled {
				g.gfired++
				ge.fn()
			}
			continue
		}
		if !busy || base > deadline {
			break
		}
		edge := base + g.lookahead
		if edge > deadline {
			// Final window, in two phases: everything strictly before the
			// deadline, a barrier so hand-offs landing exactly at the
			// deadline are queued, then the events at the deadline itself
			// (whose own hand-offs arrive strictly beyond it).
			g.runWindow(Key{At: deadline, Birth: KeyMin})
			g.advance(deadline)
			g.syncBarrier()
			g.runWindow(Key{At: deadline, Birth: KeyMax})
			g.syncBarrier()
			continue
		}
		g.runWindow(Key{At: edge, Birth: KeyMin})
		g.advance(edge)
		g.syncBarrier()
	}
	g.advance(deadline)
	g.syncBarrier()
}

// Run advances the group until every domain is idle and no global events
// remain — the parallel analogue of Scheduler.Run.
func (g *Group) Run() {
	for {
		base, busy := g.earliestWork()
		ge := g.peekGlobal()
		if !busy && ge == nil {
			return
		}
		edge := base + g.lookahead
		if ge != nil && (!busy || ge.at < edge) {
			bound := Key{At: ge.at, Birth: ge.birth}
			g.runWindow(bound)
			g.advance(ge.at)
			g.syncBarrier()
			g.removeGlobal(ge)
			if !ge.cancelled {
				g.gfired++
				ge.fn()
			}
			continue
		}
		g.runWindow(Key{At: edge, Birth: KeyMin})
		g.advance(edge)
		g.syncBarrier()
	}
}

// advance aligns the group and every domain clock with t.
func (g *Group) advance(t time.Duration) {
	if t > g.now {
		g.now = t
	}
	for _, s := range g.scheds {
		s.AdvanceTo(g.now)
	}
}

// syncBarrier runs the coordinator barrier hook, timing it when profiled.
func (g *Group) syncBarrier() {
	if g.barrier == nil {
		return
	}
	if gp := g.prof; gp != nil {
		t0 := gp.wallNs()
		g.barrier()
		gp.noteBarrier(gp.wallNs() - t0)
		return
	}
	g.barrier()
}
