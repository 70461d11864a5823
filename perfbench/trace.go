package main

import (
	"time"

	"hydranet"
	"hydranet/internal/ipv4"
	"hydranet/internal/sim"
)

// layer names a stack boundary the traced run wraps.
type layer int

const (
	layerIPv4 layer = iota // node frame handler -> ipv4.Stack.HandleFrame
	layerTCP               // protocol 6 -> tcp.Stack.DeliverIP
	layerUDP               // protocol 17 -> udp.Stack.DeliverIP
	layerIPIP              // protocol 4 -> hostserver.HostServer.DeliverIP
	numLayers
)

// spanSums accumulates span time per layer. Self time is a span's duration
// minus the part covered by the spans it encloses (IPIP decap encloses the
// inner TCP or UDP delivery; HandleFrame encloses all of them).
type spanSums struct {
	self  [numLayers]time.Duration
	total [numLayers]time.Duration
	calls [numLayers]uint64
	// outer is the summed duration of outermost spans: the host time spent
	// inside the stack rather than in the scheduler loop around it.
	outer time.Duration
	// pendingSum and pendingSamples sample the node's scheduler queue depth
	// at every frame arrival.
	pendingSum, pendingSamples uint64
}

func (a *spanSums) add(b *spanSums) {
	for l := layer(0); l < numLayers; l++ {
		a.self[l] += b.self[l]
		a.total[l] += b.total[l]
		a.calls[l] += b.calls[l]
	}
	a.outer += b.outer
	a.pendingSum += b.pendingSum
	a.pendingSamples += b.pendingSamples
}

// nodeSpans is one node's span recorder. A node's handlers always run on
// the goroutine executing its synchronization domain, so nothing here is
// shared between goroutines; the coordinator reads it only between runs.
type nodeSpans struct {
	sched *sim.Scheduler
	role  role
	open  []openSpan
	sums  spanSums
}

type openSpan struct {
	start time.Time
	child time.Duration
}

func (n *nodeSpans) begin() {
	n.open = append(n.open, openSpan{start: time.Now()})
}

func (n *nodeSpans) end(l layer) {
	top := len(n.open) - 1
	sp := n.open[top]
	n.open = n.open[:top]
	d := time.Since(sp.start)
	n.sums.self[l] += d - sp.child
	n.sums.total[l] += d
	n.sums.calls[l]++
	if top > 0 {
		n.open[top-1].child += d
	} else {
		n.sums.outer += d
	}
}

// frameSpan replaces the node's frame handler and times the IPv4 stack.
type frameSpan struct {
	n  *nodeSpans
	ip *ipv4.Stack
}

func (f frameSpan) HandleFrame(ifindex int, frame []byte) {
	f.n.sums.pendingSum += uint64(f.n.sched.Pending())
	f.n.sums.pendingSamples++
	f.n.begin()
	f.ip.HandleFrame(ifindex, frame)
	f.n.end(layerIPv4)
}

// protoSpan replaces one protocol registration and times its handler.
type protoSpan struct {
	n    *nodeSpans
	l    layer
	next ipv4.ProtocolHandler
}

func (p protoSpan) DeliverIP(pkt *ipv4.Packet) {
	p.n.begin()
	p.next.DeliverIP(pkt)
	p.n.end(p.l)
}

// tracer wraps the public registration points of every node of one
// simulation: the node's frame handler and the IPv4 protocol table.
type tracer struct {
	nodes []*nodeSpans
}

func (t *tracer) wrap(h *hydranet.Host, r role) {
	n := &nodeSpans{sched: h.Scheduler(), role: r}
	t.nodes = append(t.nodes, n)
	ip := h.IP()
	ip.Node().SetHandler(frameSpan{n: n, ip: ip})
	ip.RegisterProto(ipv4.ProtoTCP, protoSpan{n: n, l: layerTCP, next: h.TCP()})
	ip.RegisterProto(ipv4.ProtoUDP, protoSpan{n: n, l: layerUDP, next: h.UDP()})
	ip.RegisterProto(ipv4.ProtoIPIP, protoSpan{n: n, l: layerIPIP, next: h.HostServer()})
}

// reset drops what set-up recorded, so the sums cover the timed phase.
func (t *tracer) reset() {
	for _, n := range t.nodes {
		n.sums = spanSums{}
	}
}

// byRole sums the nodes' spans per role.
func (t *tracer) byRole() [3]spanSums {
	var out [3]spanSums
	for _, n := range t.nodes {
		out[n.role].add(&n.sums)
	}
	return out
}
