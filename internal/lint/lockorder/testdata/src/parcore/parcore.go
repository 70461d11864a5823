// Package parcore is lockorder testdata shaped like the parallel engine:
// a coordinator with a barrier, per-domain mutexes, and a scheduler
// mutex. The seeded violations below must each be caught; the
// sanctioned patterns (consistent nesting, per-iteration locking,
// release-before-barrier) must stay clean.
package parcore

import "sync"

// sched mirrors sim.Group: a scheduler guarded by its own mutex.
type sched struct {
	mu      sync.Mutex
	pending []int
}

// domain is a per-domain queue under its own mutex: every instance shares
// one lock class.
type domain struct {
	queue struct {
		mu      sync.Mutex
		entries []int
	}
}

// coord mirrors the coordinator: a barrier plus the shared structures.
type coord struct {
	wg   sync.WaitGroup
	sch  sched
	doms []*domain
}

func SendFrame(v int) {}

// resA and resB are two independently lockable resources. The inversion
// seeds use dedicated classes so the cycle they form does not contaminate
// the sanctioned scheduler→queue nesting below (every acquisition edge
// inside a cyclic component is reported).
type resA struct{ mu sync.Mutex }

type resB struct{ mu sync.Mutex }

// --- seeded violations ---

// inversionAB and inversionBA acquire the two resources in opposite
// orders: a classic deadlock inversion. Both completing acquisitions are
// flagged.
func inversionAB(a *resA, b *resB) {
	a.mu.Lock()
	b.mu.Lock() // want "lock-order cycle"
	b.mu.Unlock()
	a.mu.Unlock()
}

func inversionBA(a *resA, b *resB) {
	b.mu.Lock()
	a.mu.Lock() // want "lock-order cycle"
	a.mu.Unlock()
	b.mu.Unlock()
}

// heldAcrossBarrier waits on the coordinator barrier with the scheduler
// mutex held: every worker that needs the scheduler stalls the window.
func (c *coord) heldAcrossBarrier() {
	c.sch.mu.Lock()
	c.wg.Wait() // want "held across sync.WaitGroup.Wait"
	c.sch.mu.Unlock()
}

// heldAcrossSend publishes a frame with a lock held.
func (c *coord) heldAcrossSend() {
	c.sch.mu.Lock()
	SendFrame(1) // want "held across SendFrame"
	c.sch.mu.Unlock()
}

// barrierHelper reaches the barrier one call down.
func (c *coord) barrierHelper() {
	c.wg.Wait()
}

// heldAcrossCallee holds a lock while calling a helper that (transitively)
// blocks on the barrier: the interprocedural summary catches it at the
// call site.
func (c *coord) heldAcrossCallee() {
	c.sch.mu.Lock()
	c.barrierHelper() // want "held across barrierHelper"
	c.sch.mu.Unlock()
}

// deferHeldAcrossBarrier releases only at return, so the lock is still
// held when the barrier is reached.
func (c *coord) deferHeldAcrossBarrier() {
	c.sch.mu.Lock()
	defer c.sch.mu.Unlock()
	c.wg.Wait() // want "held across sync.WaitGroup.Wait"
}

// doubleLock re-locks the same receiver on one path: sync.Mutex is not
// recursive, this self-deadlocks.
func (c *coord) doubleLock() {
	c.sch.mu.Lock()
	c.sch.mu.Lock() // want "locked again while already held"
	c.sch.mu.Unlock()
	c.sch.mu.Unlock()
}

// branchDoubleLock may already hold the lock when it locks again: the
// may-analysis keeps the branch's acquisition live at the second Lock.
func (c *coord) branchDoubleLock(cond bool) {
	if cond {
		c.sch.mu.Lock()
	}
	c.sch.mu.Lock() // want "locked again while already held"
	c.sch.mu.Unlock()
}

// twoQueues holds one domain's queue while taking another's: two
// instances of one class with no global instance order.
func (c *coord) twoQueues(d1, d2 *domain) {
	d1.queue.mu.Lock()
	d2.queue.mu.Lock() // want "instance of the same lock class"
	d2.queue.mu.Unlock()
	d1.queue.mu.Unlock()
}

// --- sanctioned patterns (clean) ---

// nestedConsistent always acquires scheduler before queue; so does
// nestedConsistent2. One order, no cycle.
func (c *coord) nestedConsistent(d *domain) {
	c.sch.mu.Lock()
	d.queue.mu.Lock()
	d.queue.entries = append(d.queue.entries, 1)
	d.queue.mu.Unlock()
	c.sch.mu.Unlock()
}

func (c *coord) nestedConsistent2(d *domain) {
	c.sch.mu.Lock()
	d.queue.mu.Lock()
	d.queue.entries = d.queue.entries[:0]
	d.queue.mu.Unlock()
	c.sch.mu.Unlock()
}

// perIteration locks each domain's queue one at a time: never two held.
func (c *coord) perIteration() {
	for _, d := range c.doms {
		d.queue.mu.Lock()
		d.queue.entries = d.queue.entries[:0]
		d.queue.mu.Unlock()
	}
}

// releaseBeforeBarrier is the sanctioned window epilogue: drop the lock,
// then wait.
func (c *coord) releaseBeforeBarrier() {
	c.sch.mu.Lock()
	c.sch.pending = nil
	c.sch.mu.Unlock()
	c.wg.Wait()
}

// deferNoBarrier holds through a defer but never reaches a barrier or a
// second lock: plain serial-section locking.
func (c *coord) deferNoBarrier() int {
	c.sch.mu.Lock()
	defer c.sch.mu.Unlock()
	return len(c.sch.pending)
}

// workerBody: the closure is its own function; the coordinator's lock
// state does not leak into it, and its lock does not leak out.
func (c *coord) workerBody(d *domain) func() {
	c.sch.mu.Lock()
	fn := func() {
		d.queue.mu.Lock()
		d.queue.entries = append(d.queue.entries, 2)
		d.queue.mu.Unlock()
	}
	c.sch.mu.Unlock()
	return fn
}
