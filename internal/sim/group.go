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
//     such as telemetry samplers — are ordinary events on one more
//     Scheduler, the coordinator. A coordinator event closes the window at
//     its (time, birth) key and fires at that barrier, single-threaded,
//     exactly where a single serial scheduler would have run it.
//
// Within one window no domain can observe another (hand-offs sent during
// the window arrive at or after its edge), so the parallel execution is
// order-equivalent to the serial one per domain; the (time, birth) keys
// restore the cross-domain interleaving wherever it is observable. The
// result does not depend on the worker count, only on the partition.
// Workers and the coordinator never run at once, so the Group holds no
// lock: the window's WaitGroup is the only synchronization.
type Group struct {
	scheds    []*Scheduler
	coord     *Scheduler // global events; its clock is the Group's clock
	lookahead time.Duration
	workers   int
	inWindow  bool // a window is executing on the workers

	barrier func() // coordinator context, after every window

	prof *GroupProf // window/barrier profiler; nil (zero-cost) unless attached
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
	return &Group{scheds: scheds, coord: NewScheduler(0), lookahead: lookahead, workers: workers}
}

// SetBarrier installs the barrier hook. It runs on the coordinator with all
// workers parked, after every window and before any global event at that
// barrier fires. It must leave every hand-off of the closed window queued in
// its destination scheduler: the Group finds pending work, and skips idle
// stretches, by reading the scheduler heaps alone.
func (g *Group) SetBarrier(fn func()) { g.barrier = fn }

// Coordinator returns the scheduler of global events. An event scheduled
// on it runs at a barrier, with every worker parked, after every domain
// event whose key is strictly below its (at, birth) and before every event
// at or beyond it: exactly where a serial scheduler would have run it. Its
// clock is the Group's, so At and After stamp the birth a serial run would.
// Only coordinator context (setup code between runs, a barrier hook, or
// another global event) may schedule on it.
func (g *Group) Coordinator() *Scheduler { return g.coord }

// Now returns the Group's clock: the edge of the last completed window.
func (g *Group) Now() time.Duration { return g.coord.Now() }

// InWindow reports whether a window is executing on the workers. Outside
// a window (barrier hooks, global events, code between runs) the caller is
// the coordinator and every worker is parked.
func (g *Group) InWindow() bool { return g.inWindow }

// Lookahead returns the window bound.
func (g *Group) Lookahead() time.Duration { return g.lookahead }

// Workers returns the number of worker goroutines windows fan out across.
func (g *Group) Workers() int { return g.workers }

// Fired sums executed events across all domains and the coordinator.
func (g *Group) Fired() uint64 {
	n := g.coord.Fired()
	for _, s := range g.scheds {
		n += s.Fired()
	}
	return n
}

// Pending sums live queued events across all domains and the coordinator.
func (g *Group) Pending() int {
	n := g.coord.Pending()
	for _, s := range g.scheds {
		n += s.Pending()
	}
	return n
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
	g.inWindow = true
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
	g.inWindow = false
	if gp != nil {
		gp.endWindow()
	}
}

// RunUntil advances the whole group to the absolute virtual instant
// deadline: every domain and coordinator event with timestamp <= deadline
// executes, every clock ends at deadline. Equivalent to Scheduler.RunUntil
// on a single serial scheduler.
func (g *Group) RunUntil(deadline time.Duration) {
	g.run(deadline)
	g.advance(deadline)
	g.syncBarrier()
}

// Run advances the group until every domain and the coordinator are idle —
// the parallel analogue of Scheduler.Run.
func (g *Group) Run() { g.run(KeyMax) }

// run executes every event with timestamp <= deadline, window by window.
func (g *Group) run(deadline time.Duration) {
	for {
		base, busy := g.earliestWork()
		if k, ok := g.coord.NextKey(); ok && k.At <= deadline && (!busy || k.At < base+g.lookahead) {
			// The global event is the next window edge: run every domain
			// strictly below its key, then fire it at the barrier. The
			// barrier hook may have cancelled it, so the head is re-read.
			g.runWindow(k)
			g.advance(k.At)
			g.syncBarrier()
			if next, ok := g.coord.NextKey(); ok && next == k {
				g.coord.Step()
			}
			continue
		}
		if !busy || base > deadline {
			return
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
}

// advance aligns the group clock, and with it every domain clock, with t.
func (g *Group) advance(t time.Duration) {
	g.coord.AdvanceTo(t)
	for _, s := range g.scheds {
		s.AdvanceTo(g.coord.Now())
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
