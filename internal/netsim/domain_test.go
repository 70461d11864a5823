package netsim

import (
	"fmt"
	"testing"
	"time"

	"hydranet/internal/sim"
)

// traceRec records every delivery a node sees, stamped with the node's own
// domain clock — the observable a serial and a partitioned run must agree on.
type traceRec struct {
	node    string
	at      time.Duration
	ifindex int
	payload string
}

// tracer records into a per-node sink: in a partitioned run each node's
// handler executes only in its own domain, so per-node sinks need no
// synchronization (the race detector verifies exactly that).
type tracer struct {
	node   **Node // set after AddNode
	sink   []traceRec
	echo   bool // bounce every frame back out the arrival interface
	budget int  // echoes at most budget frames when echo is set (0 = all)
	echoed int
}

func (tr *tracer) HandleFrame(ifindex int, data []byte) {
	nd := *tr.node
	tr.sink = append(tr.sink, traceRec{
		node:    nd.Name(),
		at:      nd.Scheduler().Now(),
		ifindex: ifindex,
		payload: string(data),
	})
	if tr.echo && (tr.budget == 0 || tr.echoed < tr.budget) {
		tr.echoed++
		nd.Send(ifindex, data)
	}
}

// pingPongTopology builds a 4-node line a-b-c-d with ping-pong traffic
// between the outer pairs and cross traffic over the middle link, returning
// the network and the per-node tracers. Partitioned callers split
// {a,b} | {c,d} across the middle link (1 ms delay = the lookahead).
func pingPongTopology(t *testing.T, seed int64) (*sim.Scheduler, *Network, []*Node, []*tracer) {
	t.Helper()
	s := sim.NewScheduler(seed)
	net := New(s)
	nodes := make([]*Node, 4)
	tracers := make([]*tracer, 4)
	for i, name := range []string{"a", "b", "c", "d"} {
		tr := &tracer{echo: true, budget: 10}
		nd := net.AddNode(NodeConfig{Name: name, ProcDelay: 10 * time.Microsecond})
		tr.node = &nd
		nd.SetHandler(tr)
		nodes[i] = nd
		tracers[i] = tr
	}
	fast := LinkConfig{Rate: 10_000_000, Delay: 100 * time.Microsecond}
	mid := LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
	net.Connect(nodes[0], nodes[1], fast) // a-b, ifindex 0 on both
	net.Connect(nodes[2], nodes[3], fast) // c-d, ifindex 0 on both
	net.Connect(nodes[1], nodes[2], mid)  // b-c, ifindex 1 on both
	return s, net, nodes, tracers
}

// collect flattens per-node traces into a per-node map.
func collect(tracers []*tracer) map[string][]traceRec {
	m := map[string][]traceRec{}
	for _, tr := range tracers {
		name := (*tr.node).Name()
		m[name] = append(m[name], tr.sink...)
	}
	return m
}

// kickTraffic schedules the initial sends on each node's own domain
// scheduler, staggered so no two cross-domain frames share a timestamp.
func kickTraffic(nodes []*Node) {
	for i, nd := range nodes {
		nd := nd
		payload := fmt.Sprintf("seed-%s", nd.Name())
		nd.Scheduler().At(time.Duration(i+1)*37*time.Microsecond, func() {
			nd.Send(0, []byte(payload))
		})
	}
	// Cross traffic over the middle link, from both sides.
	b, c := nodes[1], nodes[2]
	b.Scheduler().At(211*time.Microsecond, func() { b.Send(1, []byte("b-cross")) })
	c.Scheduler().At(223*time.Microsecond, func() { c.Send(1, []byte("c-cross")) })
}

func runPartitioned(t *testing.T, workers int) map[string][]traceRec {
	t.Helper()
	s, net, nodes, tracers := pingPongTopology(t, 7)
	s2 := sim.NewScheduler(7_000_001)
	scheds := []*sim.Scheduler{s, s2}
	lookahead, err := net.SetDomains([]int{0, 0, 1, 1}, scheds)
	if err != nil {
		t.Fatalf("SetDomains: %v", err)
	}
	if lookahead != time.Millisecond {
		t.Fatalf("lookahead %v, want 1ms (the b-c delay)", lookahead)
	}
	kickTraffic(nodes)
	g := sim.NewGroup(scheds, lookahead, workers)
	g.SetBarrier(net.ExchangeHandoffs)
	g.Run()
	if ties := net.MergeTies(); ties != 0 {
		t.Fatalf("%d ambiguous merge ties in a staggered topology, want 0", ties)
	}
	if net.Handoffs() == 0 {
		t.Fatal("no cross-domain hand-offs — the partition is not being exercised")
	}
	return collect(tracers)
}

func TestTwoDomainExchangeMatchesSerial(t *testing.T) {
	// Serial reference.
	s, _, nodes, tracers := pingPongTopology(t, 7)
	kickTraffic(nodes)
	s.Run()
	serial := collect(tracers)

	total := 0
	for _, recs := range serial {
		total += len(recs)
	}
	if total == 0 {
		t.Fatal("serial reference run delivered nothing")
	}
	// Each node's delivery sequence — contents, interface and timestamps —
	// is the observable the protocol layers above see; it must be identical
	// for any worker count.
	for _, workers := range []int{1, 2} {
		par := runPartitioned(t, workers)
		for node, want := range serial {
			got := par[node]
			if len(got) != len(want) {
				t.Fatalf("workers=%d node %s: %d deliveries, want %d", workers, node, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d node %s delivery %d:\n  got  %+v\n  want %+v",
						workers, node, i, got[i], want[i])
				}
			}
		}
	}
}

func TestRunUntilDeadlineMatchesSerial(t *testing.T) {
	// Cut both runs off mid-flight at an awkward instant and compare; the
	// two-phase deadline window must not defer a hand-off the serial
	// scheduler would have delivered exactly at the deadline.
	deadline := 2617 * time.Microsecond

	s, _, nodes, tracers := pingPongTopology(t, 7)
	kickTraffic(nodes)
	s.RunUntil(deadline)
	serial := collect(tracers)

	s0, net, pnodes, ptracers := pingPongTopology(t, 7)
	s2 := sim.NewScheduler(7_000_001)
	scheds := []*sim.Scheduler{s0, s2}
	lookahead, err := net.SetDomains([]int{0, 0, 1, 1}, scheds)
	if err != nil {
		t.Fatalf("SetDomains: %v", err)
	}
	kickTraffic(pnodes)
	g := sim.NewGroup(scheds, lookahead, 2)
	g.SetBarrier(net.ExchangeHandoffs)
	g.RunUntil(deadline)
	par := collect(ptracers)

	for node, want := range serial {
		got := par[node]
		if len(got) != len(want) {
			t.Fatalf("node %s: %d deliveries by deadline, serial had %d", node, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("node %s delivery %d:\n  got  %+v\n  want %+v", node, i, got[i], want[i])
			}
		}
	}
	if g.Now() != deadline {
		t.Fatalf("group clock %v, want %v", g.Now(), deadline)
	}
}

func TestSetDomainsValidation(t *testing.T) {
	s := sim.NewScheduler(1)
	net := New(s)
	a := net.AddNode(NodeConfig{Name: "a"})
	b := net.AddNode(NodeConfig{Name: "b"})
	net.Connect(a, b, LinkConfig{}) // zero delay
	s2 := sim.NewScheduler(2)

	if _, err := net.SetDomains([]int{0}, []*sim.Scheduler{s, s2}); err == nil {
		t.Fatal("partition covering one of two nodes accepted")
	}
	if _, err := net.SetDomains([]int{0, 2}, []*sim.Scheduler{s, s2}); err == nil {
		t.Fatal("out-of-range domain accepted")
	}
	if _, err := net.SetDomains([]int{0, 1}, []*sim.Scheduler{s, s2}); err == nil {
		t.Fatal("zero-delay cross-domain link accepted — no lookahead exists")
	}
	s.At(time.Millisecond, func() {})
	if _, err := net.SetDomains([]int{0, 0}, []*sim.Scheduler{s, s2}); err == nil {
		t.Fatal("partition with pending events accepted")
	}
	s.Run()
	if _, err := net.SetDomains([]int{0, 0}, []*sim.Scheduler{s, s2}); err != nil {
		t.Fatalf("all-internal zero-delay link rejected: %v", err)
	}
	if _, err := net.SetDomains([]int{0, 0}, []*sim.Scheduler{s, s2}); err == nil {
		t.Fatal("double partition accepted")
	}
	if net.Domains() != 2 {
		t.Fatalf("Domains() = %d, want 2", net.Domains())
	}
	if net.DomainOf(a) != 0 || net.DomainOf(b) != 0 {
		t.Fatal("nodes not assigned to domain 0")
	}
}

// TestPoolOutstandingMatchesSerial checks frame-buffer accounting across
// the partition: a run cut off mid-flight holds exactly the buffers a serial
// run holds at the same instant (the invariant monitor's frame-conservation
// rule reads this count), and a drained run leaks nothing in any pool.
func TestPoolOutstandingMatchesSerial(t *testing.T) {
	cut := 500 * time.Microsecond

	s, serialNet, nodes, _ := pingPongTopology(t, 7)
	kickTraffic(nodes)
	s.RunUntil(cut)
	want := serialNet.Pool().Outstanding()
	if want == 0 {
		t.Fatal("serial run holds no buffers at the cut — nothing in flight to compare")
	}

	s0, net, pnodes, _ := pingPongTopology(t, 7)
	scheds := []*sim.Scheduler{s0, sim.NewScheduler(7_000_001)}
	lookahead, err := net.SetDomains([]int{0, 0, 1, 1}, scheds)
	if err != nil {
		t.Fatalf("SetDomains: %v", err)
	}
	kickTraffic(pnodes)
	g := sim.NewGroup(scheds, lookahead, 2)
	g.SetBarrier(net.ExchangeHandoffs)
	g.RunUntil(cut)
	if got := net.PoolOutstanding(); got != want {
		t.Fatalf("PoolOutstanding at %v = %d, serial pool holds %d", cut, got, want)
	}
	g.Run()
	if net.Handoffs() == 0 {
		t.Fatal("no cross-domain hand-offs — the partition is not being exercised")
	}
	for i, d := range net.doms {
		if out := d.pool.Outstanding(); out != 0 {
			t.Fatalf("domain %d pool outstanding %d after Run, want 0", i, out)
		}
	}
}

// TestHandoffPrecedesSameKeyGlobalWork pins where the exchange sits in the
// barrier. b (domain 0) transmits at 10 ms, so its frame reaches c (domain
// 1) at key (11 ms, 10 ms). A global event at 10 ms schedules a read of c's
// CPU backlog at the same key. A serial scheduler queued the delivery when
// b transmitted, before the global ran, so the delivery fires first and the
// read sees its 100 µs of per-byte work; a partitioned run must agree.
func TestHandoffPrecedesSameKeyGlobalWork(t *testing.T) {
	build := func() (*sim.Scheduler, *Network, *Node, *Node) {
		s := sim.NewScheduler(1)
		net := New(s)
		b := net.AddNode(NodeConfig{Name: "b", ProcDelay: 6 * time.Millisecond})
		c := net.AddNode(NodeConfig{Name: "c", ProcPerByte: time.Microsecond})
		net.Connect(b, c, LinkConfig{Delay: time.Millisecond})
		return s, net, b, c
	}
	send := func(b *Node) {
		b.Scheduler().At(4*time.Millisecond, func() { b.Send(0, make([]byte, 100)) })
	}

	s, _, b, c := build()
	send(b)
	s.RunUntil(5 * time.Millisecond)
	var serial time.Duration
	s.At(10*time.Millisecond, func() {
		s.At(11*time.Millisecond, func() { serial = c.ProcBacklog() })
	})
	s.Run()
	if serial != 100*time.Microsecond {
		t.Fatalf("serial backlog %v, want 100µs (delivery before the read)", serial)
	}

	for _, workers := range []int{1, 2} {
		s0, net, b, c := build()
		scheds := []*sim.Scheduler{s0, sim.NewScheduler(2)}
		lookahead, err := net.SetDomains([]int{0, 1}, scheds)
		if err != nil {
			t.Fatalf("SetDomains: %v", err)
		}
		send(b)
		g := sim.NewGroup(scheds, lookahead, workers)
		g.SetBarrier(net.ExchangeHandoffs)
		g.RunUntil(5 * time.Millisecond)
		var got time.Duration
		g.Schedule(10*time.Millisecond, 5*time.Millisecond, func() {
			c.Scheduler().At(11*time.Millisecond, func() { got = c.ProcBacklog() })
		})
		g.Run()
		if got != serial {
			t.Fatalf("workers=%d: backlog read %v, serial read %v", workers, got, serial)
		}
	}
}
