// Package netsim is domain-fence testdata. Its import path ends in
// internal/netsim, so the determinism analyzer applies the
// synchronization-domain fence to it; the seeded violations below must
// each be caught, and the sanctioned per-domain patterns must stay clean.
package netsim

type scheduler struct{}

func (s *scheduler) At(t int, fn func()) {}

type pool struct{}

func (p *pool) Get(n int) []byte { return nil }

type bus struct{}

func (b *bus) Publish(v int) {}

// Network mirrors the real fabric's shape: shared singletons plus
// per-domain runtimes.
type Network struct {
	sched *scheduler
	pool  *pool
	bus   *bus
	doms  []*domainRT
}

type domainRT struct {
	net   *Network
	sched *scheduler
	pool  *pool
	bus   *bus
}

// Node belongs to exactly one domain.
type Node struct {
	net *Network
	dom *domainRT
}

// Scheduler is a Network method: the serial path and coordinator-context
// orchestration own the shared singletons. Clean.
func (n *Network) Scheduler() *scheduler { return n.sched }

// domainLocal is the sanctioned worker-context pattern: everything through
// the node's own domain. Clean.
func (nd *Node) domainLocal() {
	fb := nd.dom.pool.Get(64)
	_ = fb
	nd.dom.sched.At(10, func() {})
	nd.dom.bus.Publish(1)
}

// sharedSched schedules on the Network's shared scheduler from node
// context: races with other domains' workers.
func (nd *Node) sharedSched() {
	nd.net.sched.At(10, func() {}) // want "access to the Network's shared sched outside a Network method"
}

// sharedPool allocates from the shared pool in node context.
func (nd *Node) sharedPool() []byte {
	return nd.net.pool.Get(64) // want "access to the Network's shared pool outside a Network method"
}

// sharedBus publishes on the shared bus in node context.
func (nd *Node) sharedBus() {
	nd.net.bus.Publish(2) // want "access to the Network's shared bus outside a Network method"
}

// freeFunc is not a method at all; reaching through a *Network parameter
// is fenced the same way.
func freeFunc(n *Network) {
	n.sched.At(0, func() {}) // want "access to the Network's shared sched outside a Network method"
}

// annotated carves out a coordinator-context exception with a reason.
// Clean.
func annotated(n *Network) {
	n.sched.At(0, func() {}) //hydralint:domainsafe runs between windows, workers quiescent
}

// staleNondeterministic carries an annotation on a line with nothing
// nondeterministic: the construct it once excused is gone, and the stale
// excuse must not linger to bless a future unrelated edit.
func staleNondeterministic() int {
	sum := 1 + 2 /* want "stale //hydralint:nondeterministic annotation" */ //hydralint:nondeterministic excuses nothing on this line
	return sum
}

// staleDomainSafe is the same rot for the domain fence: the annotated line
// touches no cross-domain state.
func staleDomainSafe() int {
	n := 3 /* want "stale //hydralint:domainsafe annotation" */ //hydralint:domainsafe excuses nothing on this line
	return n
}

// usedAnnotations stays clean: both directives still govern the construct
// they excuse.
func usedAnnotations(m map[string]int) int {
	total := 0
	for _, v := range m { //hydralint:nondeterministic commutative sum over window counters
		total += v
	}
	return total
}
