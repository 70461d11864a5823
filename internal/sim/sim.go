// Package sim provides a deterministic discrete-event simulation engine.
//
// All HydraNet-FT components run on a single virtual clock owned by a
// Scheduler. Events execute in strict timestamp order; ties are broken by
// insertion order, so a run with a given seed and topology is exactly
// reproducible. The engine is intentionally single-threaded: protocol
// endpoints are event-driven state machines, not goroutines, which removes
// scheduling nondeterminism from measurements.
//
// The scheduler is allocation-free in steady state: event nodes live on an
// internal free list and are recycled after they fire or are cancelled, and
// the pending queue is a specialized min-heap rather than container/heap
// (whose any-typed Push/Pop would box every node). Handles returned by At
// and After are generation-checked values, so holding a handle past its
// event's lifetime is always safe: Cancel on a stale handle is a no-op even
// if the underlying node has been recycled for an unrelated event.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// eventNode is the scheduler-owned representation of a pending callback.
// Nodes are recycled through the scheduler's free list; gen increments on
// every recycle so stale Event handles cannot reach a new occupant.
type eventNode struct {
	fn        func()
	at        time.Duration
	birth     time.Duration // virtual time the event was scheduled at
	seq       uint64
	gen       uint64
	depth     uint64 // causal depth (parent's depth + 1); 0 unless profiling
	s         *Scheduler
	index     int32 // heap index; -1 once removed
	cancelled bool
}

// Event is a handle to a scheduled callback. The callback runs exactly once
// unless the event is cancelled first. The zero Event is inert: Cancel is a
// no-op and Cancelled reports true.
type Event struct {
	n   *eventNode
	gen uint64
}

// live reports whether the handle still refers to a pending, uncancelled
// event.
func (e *Event) live() bool {
	return e != nil && e.n != nil && e.n.gen == e.gen && !e.n.cancelled
}

// At returns the virtual time the event is scheduled for, or 0 if the event
// has already fired or been cancelled.
func (e *Event) At() time.Duration {
	if !e.live() {
		return 0
	}
	return e.n.at
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op, even if the scheduler has recycled the
// underlying node for a different event.
func (e *Event) Cancel() {
	if !e.live() {
		return
	}
	n := e.n
	n.cancelled = true
	n.fn = nil
	n.s.dead++
	n.s.maybeCompact()
}

// Cancelled reports whether the event will no longer fire: it was cancelled,
// or it has already run.
func (e *Event) Cancelled() bool { return !e.live() }

// Scheduler owns the virtual clock and the pending-event queue.
type Scheduler struct {
	now      time.Duration
	curBirth time.Duration // birth of the event currently executing
	curSeq   uint64        // sequence of the event currently executing
	heap     []*eventNode
	free     []*eventNode
	dead     int // cancelled nodes still sitting in heap (lazy deletion)
	nextSeq  uint64
	rng      *rand.Rand
	fired    uint64
	running  bool

	prof     *SchedProf // causal profiler; nil (zero-cost) unless attached
	curDepth uint64     // causal depth of the event currently executing
}

// NewScheduler returns a scheduler with its clock at zero and a PRNG seeded
// with the given seed.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Rand returns the scheduler's deterministic PRNG. All randomness in a
// simulation (loss decisions, jitter) must come from this source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Fired returns the number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending returns the number of live events waiting in the queue. Cancelled
// events awaiting lazy removal are not counted.
func (s *Scheduler) Pending() int { return len(s.heap) - s.dead }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would reorder causality.
//
//hydralint:zeroalloc
func (s *Scheduler) At(t time.Duration, fn func()) Event {
	return s.AtBirth(t, s.now, fn)
}

// AtBirth schedules fn at absolute virtual time t with an explicit birth
// time: the virtual instant the event was (logically) created. At uses the
// current clock; cross-scheduler merges (see Group and the netsim hand-off
// exchange) pass the birth recorded in the source domain, so an injected
// event sorts exactly where the serial scheduler would have placed it.
// birth must not exceed t, and t must not precede the clock.
//
//hydralint:zeroalloc
func (s *Scheduler) AtBirth(t, birth time.Duration, fn func()) Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if birth > t {
		panic(fmt.Sprintf("sim: event birth %v after its deadline %v", birth, t))
	}
	var n *eventNode
	if k := len(s.free); k > 0 {
		n = s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
	} else {
		n = &eventNode{s: s}
	}
	n.at = t
	n.birth = birth
	n.seq = s.nextSeq
	n.fn = fn
	n.cancelled = false
	if p := s.prof; p != nil {
		// Child depth: one past the executing parent. Coordinator-context
		// scheduling (between runs, or a barrier-hosted global callback —
		// the scheduler is not running) roots a fresh chain at depth zero,
		// which keeps depths identical for a serial run and any partition.
		d := uint64(0)
		if s.running {
			d = s.curDepth + 1
		}
		n.depth = d
		p.noteEdge(s.now, s.curBirth, t, birth, d)
	} else {
		n.depth = 0
	}
	s.nextSeq++
	n.index = int32(len(s.heap))
	s.heap = append(s.heap, n)
	s.siftUp(int(n.index))
	return Event{n: n, gen: n.gen}
}

// AtBirthFrom schedules like AtBirth but carries an explicit causal depth
// for the scheduling parent: cross-scheduler hand-off merges (see the
// netsim hand-off exchange) pass the depth recorded in the source domain, so
// the critical-path profiler sees the same parent→child chain a single
// serial scheduler would have recorded. Without a profiler attached the
// depth is ignored entirely.
//
//hydralint:zeroalloc
func (s *Scheduler) AtBirthFrom(t, birth time.Duration, parentDepth uint64, fn func()) Event {
	ev := s.AtBirth(t, birth, fn)
	if s.prof != nil {
		ev.n.depth = parentDepth + 1
	}
	return ev
}

// After schedules fn to run d after the current virtual time.
//
//hydralint:zeroalloc
func (s *Scheduler) After(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It returns false when the queue is empty.
//
//hydralint:zeroalloc
func (s *Scheduler) Step() bool {
	for len(s.heap) > 0 {
		n := s.popRoot()
		if n.cancelled {
			s.dead--
			s.recycle(n)
			continue
		}
		s.now = n.at
		s.curBirth = n.birth
		s.curSeq = n.seq
		s.fired++
		if p := s.prof; p != nil {
			// The maximum folds in at fire time, not schedule time, so
			// cancelled events (Timer.Reset orphans) never stretch the path.
			s.curDepth = n.depth
			if n.depth > p.maxDepth {
				p.maxDepth = n.depth
				p.deepAt = n.at
			}
		}
		fn := n.fn
		s.recycle(n)
		fn()
		return true
	}
	return false
}

// Run executes events until the queue drains.
func (s *Scheduler) Run() {
	s.running = true
	for s.running && s.Step() {
	}
	s.running = false
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline. Events scheduled beyond the deadline remain queued.
func (s *Scheduler) RunUntil(deadline time.Duration) {
	s.running = true
	for s.running {
		n := s.peek()
		if n == nil || n.at > deadline {
			break
		}
		s.Step()
	}
	s.running = false
	if s.now < deadline {
		s.now = deadline
	}
}

// Stop makes a Run or RunUntil in progress return after the current event.
func (s *Scheduler) Stop() { s.running = false }

// Key is a point in the scheduler's total event order: events execute in
// ascending (At, Birth) order, with the per-scheduler sequence counter
// breaking exact ties. A Key with Birth = KeyMax bounds every event at the
// same timestamp (inclusive bound); Birth = KeyMin bounds none of them
// (exclusive bound).
type Key struct {
	At    time.Duration
	Birth time.Duration
}

// Key bounds for inclusive/exclusive window edges.
const (
	KeyMin time.Duration = -1 << 62
	KeyMax time.Duration = 1<<63 - 1
)

// Less orders keys lexicographically, matching the heap order.
func (k Key) Less(o Key) bool {
	if k.At != o.At {
		return k.At < o.At
	}
	return k.Birth < o.Birth
}

// NextKey returns the ordering key of the earliest pending event, or
// ok=false when the queue is empty.
func (s *Scheduler) NextKey() (Key, bool) {
	n := s.peek()
	if n == nil {
		return Key{}, false
	}
	return Key{At: n.at, Birth: n.birth}, true
}

// CurrentKey returns the ordering key and sequence number of the event
// currently executing (or most recently executed). Outside event execution
// it reflects the last event that ran; a scheduler that has fired nothing
// reports the zero key. Deferred-observation spools use it to tag records
// with the exact point in the event order they were emitted from.
//
//hydralint:zeroalloc
func (s *Scheduler) CurrentKey() (key Key, seq uint64) {
	return Key{At: s.now, Birth: s.curBirth}, s.curSeq
}

// CurrentDepth returns the causal depth of the event currently executing
// (or most recently executed). Always 0 with no profiler attached; hand-off
// producers read it to stamp cross-scheduler work with the sender's depth.
//
//hydralint:zeroalloc
func (s *Scheduler) CurrentDepth() uint64 { return s.curDepth }

// EnableProfile attaches (nil detaches) the causal profiler and resets the
// depth baseline, so chains rooted after the call start at depth zero. A
// detached scheduler pays one nil test per schedule/fire and allocates
// nothing. Coordinator context only (never from inside an event).
func (s *Scheduler) EnableProfile(p *SchedProf) {
	s.prof = p
	s.curDepth = 0
}

// Profile returns the attached causal profiler, nil when detached.
func (s *Scheduler) Profile() *SchedProf { return s.prof }

// RunToKey executes every pending event whose key is strictly below bound,
// in order, and returns the number executed. The clock is left at the last
// executed event (it does not advance to the bound; see AdvanceTo). This is
// the parallel window primitive: a Group runs each domain's scheduler up to
// the window edge, exchanges cross-domain work at the barrier, and repeats.
func (s *Scheduler) RunToKey(bound Key) int {
	ran := 0
	s.running = true
	for s.running {
		n := s.peek()
		if n == nil || !(Key{At: n.at, Birth: n.birth}).Less(bound) {
			break
		}
		s.Step()
		ran++
	}
	s.running = false
	return ran
}

// AdvanceTo moves the clock forward to t without executing anything.
// Earlier t is a no-op; the clock never moves backwards. Group barriers use
// it to align every domain's clock with the window edge so that clock reads
// (backlog gauges, samplers) agree across domains.
func (s *Scheduler) AdvanceTo(t time.Duration) {
	if t > s.now {
		s.now = t
	}
}

// peek returns the earliest live node, draining cancelled nodes off the top
// of the heap along the way.
func (s *Scheduler) peek() *eventNode {
	for len(s.heap) > 0 {
		n := s.heap[0]
		if !n.cancelled {
			return n
		}
		s.popRoot()
		s.dead--
		s.recycle(n)
	}
	return nil
}

// recycle returns a node to the free list. The generation bump invalidates
// every outstanding handle to this occupancy.
func (s *Scheduler) recycle(n *eventNode) {
	n.gen++
	n.fn = nil
	n.index = -1
	n.cancelled = false
	s.free = append(s.free, n)
}

// maybeCompact removes cancelled nodes in bulk once they dominate the heap,
// bounding memory under heavy Timer.Reset churn (TCP retransmission timers
// re-arm on every ACK, orphaning their previous deadline each time).
func (s *Scheduler) maybeCompact() {
	if s.dead <= 64 || s.dead*2 <= len(s.heap) {
		return
	}
	live := s.heap[:0]
	for _, n := range s.heap {
		if n.cancelled {
			s.recycle(n)
			continue
		}
		live = append(live, n)
	}
	// Clear the tail so recycled nodes aren't retained by the backing array.
	for i := len(live); i < len(s.heap); i++ {
		s.heap[i] = nil
	}
	s.heap = live
	s.dead = 0
	for i := range s.heap {
		s.heap[i].index = int32(i)
	}
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// less orders the heap by (timestamp, birth, insertion sequence). Within a
// single scheduler this is exactly the historical (timestamp, sequence)
// order: the clock never runs backwards, so the sequence counter is
// monotone in birth time and the birth comparison can never contradict the
// sequence comparison. The birth term only becomes decisive for events
// merged in from another scheduler (AtBirth with a foreign birth), where it
// reconstructs the position a single global scheduler would have given
// them.
func (s *Scheduler) less(i, j int) bool {
	a, b := s.heap[i], s.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.birth != b.birth {
		return a.birth < b.birth
	}
	return a.seq < b.seq
}

func (s *Scheduler) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heap[i].index = int32(i)
	s.heap[j].index = int32(j)
}

func (s *Scheduler) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *Scheduler) siftDown(i int) {
	n := len(s.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && s.less(right, left) {
			min = right
		}
		if !s.less(min, i) {
			break
		}
		s.swap(i, min)
		i = min
	}
}

// popRoot removes and returns the heap root. Callers adjust dead counts and
// recycle the node.
func (s *Scheduler) popRoot() *eventNode {
	n := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap[0].index = 0
	s.heap[last] = nil
	s.heap = s.heap[:last]
	if last > 0 {
		s.siftDown(0)
	}
	n.index = -1
	return n
}

// Timer is a restartable one-shot timer bound to a scheduler, in the style
// of kernel protocol timers (retransmission, delayed-ACK, keepalive).
type Timer struct {
	s      *Scheduler
	ev     Event
	fn     func()
	fireFn func() // cached method value so Reset never allocates
}

// NewTimer returns a stopped timer that runs fn when it expires.
func NewTimer(s *Scheduler, fn func()) *Timer {
	t := &Timer{s: s, fn: fn}
	t.fireFn = t.fire
	return t
}

// Reset (re)arms the timer to fire d from now, cancelling any earlier
// deadline.
func (t *Timer) Reset(d time.Duration) {
	t.ev.Cancel()
	t.ev = t.s.After(d, t.fireFn)
}

// Stop disarms the timer.
func (t *Timer) Stop() {
	t.ev.Cancel()
	t.ev = Event{}
}

// Armed reports whether the timer is waiting to fire.
func (t *Timer) Armed() bool { return t.ev.live() }

// Deadline returns the virtual time the timer will fire at; valid only when
// Armed.
func (t *Timer) Deadline() time.Duration {
	if !t.Armed() {
		return 0
	}
	return t.ev.At()
}

func (t *Timer) fire() {
	t.ev = Event{}
	t.fn()
}
