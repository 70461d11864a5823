package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"hydranet/internal/capture"
	"hydranet/internal/frame"
	"hydranet/internal/ipv4"
	"hydranet/internal/tcp"
)

// counts are a simulation's model and layer counters, read from
// Net.Snapshot, the frame pools and hydraprof after the run.
type counts struct {
	events, frames               uint64
	ipDelivered, ipForwarded     uint64
	segsOut, clientSegs          uint64
	retransmits, rtoEvents       uint64
	suppressed                   uint64
	multicastCopies, passThrough uint64
	chainMsgs                    uint64
	suspicions, promotions       uint64
	reconfigs, probes            uint64
	queueDrops, lost, handoffs   uint64
	poolGets, poolMisses         uint64
	windows, windowEvents        uint64
	execNs, stallNs, busyNs      int64
}

func (a *counts) add(b counts) {
	a.events += b.events
	a.frames += b.frames
	a.ipDelivered += b.ipDelivered
	a.ipForwarded += b.ipForwarded
	a.segsOut += b.segsOut
	a.clientSegs += b.clientSegs
	a.retransmits += b.retransmits
	a.rtoEvents += b.rtoEvents
	a.suppressed += b.suppressed
	a.multicastCopies += b.multicastCopies
	a.passThrough += b.passThrough
	a.chainMsgs += b.chainMsgs
	a.suspicions += b.suspicions
	a.promotions += b.promotions
	a.reconfigs += b.reconfigs
	a.probes += b.probes
	a.queueDrops += b.queueDrops
	a.lost += b.lost
	a.handoffs += b.handoffs
	a.poolGets += b.poolGets
	a.poolMisses += b.poolMisses
	a.windows += b.windows
	a.windowEvents += b.windowEvents
	a.execNs += b.execNs
	a.stallNs += b.stallNs
	a.busyNs += b.busyNs
}

// simRun is what one simulation, or a pass of the batch summed, cost.
type simRun struct {
	setup, wall, cpu   time.Duration
	cal                time.Duration // the calibration kernel's time, run before the timed phase
	allocs, allocBytes uint64
	peakMem            uint64 // peak resident Go memory over set-up and run; 0 unless sampled
	frames, events     uint64 // timed phase only
	counts             counts
	spans              [3]spanSums // by role; traced runs only
}

func (a *simRun) add(b simRun) {
	a.setup += b.setup
	a.cal += b.cal
	a.wall += b.wall
	a.cpu += b.cpu
	a.allocs += b.allocs
	a.allocBytes += b.allocBytes
	a.frames += b.frames
	a.events += b.events
	a.counts.add(b.counts)
	for i := range a.spans {
		a.spans[i].add(&b.spans[i])
	}
}

// rtStats reads the Go runtime's cumulative counters.
type rtStats struct {
	allocs, allocBytes, gcCycles uint64
	gcCPU, totalCPU, idleCPU     float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() rtStats {
	s := make([]rtmetrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	return rtStats{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
		idleCPU:    s[5].Value.Float64(),
	}
}

// cpuTime is the process's user+sys CPU time; maxRSS its peak resident set.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func residentSamples() []rtmetrics.Sample {
	return []rtmetrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
}

// residentBytes is the memory the Go runtime holds from the OS: everything
// it has mapped, less what it has returned. s comes from residentSamples.
func residentBytes(s []rtmetrics.Sample) uint64 {
	rtmetrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

// memSampler keeps the peak of residentBytes, sampled every millisecond.
// Each simulation's peak is read separately, so the workload's figure can
// be a median over passes rather than one process-wide maximum that a
// single unlucky garbage-collection cycle sets.
type memSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := residentSamples()
	m.peak.Store(residentBytes(s))
	go func() {
		defer close(m.done)
		// The sampler reuses one sample slice, so it adds no allocations
		// to the ones the simulations are measured by.
		s := residentSamples()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				m.note(residentBytes(s))
			}
		}
	}()
	return m
}

func (m *memSampler) note(v uint64) {
	for p := m.peak.Load(); v > p && !m.peak.CompareAndSwap(p, v); p = m.peak.Load() {
	}
}

// take returns the peak since the last take and starts a new interval.
func (m *memSampler) take() uint64 {
	s := residentSamples()
	m.note(residentBytes(s))
	return m.peak.Swap(residentBytes(s))
}

// close stops the sampling goroutine and waits for it to exit.
func (m *memSampler) close() {
	close(m.stop)
	<-m.done
}

// passOpts selects how every simulation of a pass runs.
type passOpts struct {
	traced  bool
	monitor bool
	capture *frameStore
}

// runSim builds, runs and checks one simulation. Set-up and the timed phase
// are timed separately; checking and counter reads happen after the timer
// stops.
func (r *runner) runSim(sp simSpec, po passOpts) simRun {
	var out simRun
	r.attempted++
	o := simOpts{monitor: po.monitor, profile: po.traced}
	if po.traced {
		o.tracer = &tracer{}
	}
	var pcap *pcapBuffer
	if po.capture != nil {
		pcap = &pcapBuffer{limit: po.capture.perSim}
		o.capture = pcap
	}

	// Every simulation starts from a collected heap, so neither its timing
	// nor the peak resident set depends on where the previous simulation's
	// garbage happened to be collected.
	runtime.GC()
	if r.mem != nil {
		r.mem.take()
	}
	t0 := time.Now()
	s, err := sp.build(o)
	out.setup = time.Since(t0)
	if err != nil {
		r.fail(sp.label, err)
		return out
	}
	if o.tracer != nil {
		o.tracer.reset()
	}
	out.cal = calibrate(runtime.GOMAXPROCS(0))
	f0, e0 := s.framesSent(), s.net.EventsFired()
	rt0, c0 := readRuntime(), cpuTime()
	t1 := time.Now()
	err = s.run()
	out.wall = time.Since(t1)
	out.cpu = cpuTime() - c0
	rt1 := readRuntime()
	out.allocs = rt1.allocs - rt0.allocs
	out.allocBytes = rt1.allocBytes - rt0.allocBytes
	out.frames = s.framesSent() - f0
	out.events = s.net.EventsFired() - e0
	if r.mem != nil {
		out.peakMem = r.mem.take()
	}

	if err == nil {
		want, ok := sp.ref(r.refs)
		if !ok {
			err = fmt.Errorf("no reference")
		} else {
			err = check(want, s.result())
		}
	}
	if err != nil {
		r.fail(sp.label, err)
	}
	if po.traced {
		out.spans = o.tracer.byRole()
		out.counts = readCounts(s)
	}
	if pcap != nil {
		if err := po.capture.add(pcap); err != nil {
			r.fail(sp.label, err)
		}
	}
	return out
}

func readCounts(s *simulation) counts {
	c := counts{events: s.net.EventsFired(), frames: s.framesSent(), handoffs: s.net.Handoffs()}
	snap := s.net.Snapshot()
	clients := map[string]bool{}
	for _, h := range s.clients {
		clients[h.Name()] = true
	}
	for _, h := range snap.Hosts {
		c.ipDelivered += h.IP.Delivered
		c.ipForwarded += h.IP.Forwarded
		c.segsOut += h.TCP.SegsOut
		if clients[h.Name] {
			c.clientSegs += h.TCP.SegsOut
		}
		c.retransmits += h.Conns.Retransmits
		c.rtoEvents += h.Conns.RTOEvents
		c.suppressed += h.Conns.SegsSuppressed
		if m := h.Manager; m != nil {
			c.chainMsgs += m.ChainMsgsSent
			c.suspicions += m.Suspicions
			c.promotions += m.Promotions
		}
	}
	for _, l := range snap.Links {
		c.queueDrops += l.AB.QueueDrop + l.BA.QueueDrop
		c.lost += l.AB.Lost + l.BA.Lost
	}
	for _, rd := range snap.Redirectors {
		c.multicastCopies += rd.Table.MulticastCopies
		c.passThrough += rd.Table.PassedThrough
		if m := rd.Mgmt; m != nil {
			c.reconfigs += m.Reconfigs
			c.probes += m.ProbesSent
		}
	}
	// Partitioned nets have one frame pool per domain.
	seen := map[*frame.Pool]bool{}
	for _, h := range s.nodes {
		p := h.IP().Node().Pool()
		if seen[p] {
			continue
		}
		seen[p] = true
		gets, _, misses := p.Stats()
		c.poolGets += gets
		c.poolMisses += misses
	}
	if s.profiler != nil {
		p := s.profiler.Snapshot()
		s.profiler.Stop()
		c.windows = p.WindowsRun
		c.windowEvents = p.Events
		for _, d := range p.DomainTotals {
			c.execNs += d.ExecNs
			c.stallNs += d.StallNs
			c.busyNs += d.MergeNs + d.ExecNs + d.FlushNs + d.StallNs
		}
	}
	return c
}

// pass runs every simulation of the batch once, in the runner's order.
func (r *runner) pass(po passOpts) []simRun {
	out := make([]simRun, len(r.specs))
	for i, sp := range r.specs {
		out[i] = r.runSim(sp, po)
	}
	return out
}

// passes repeats the batch until d has elapsed and at least min passes ran.
func (r *runner) passes(d time.Duration, min int, po passOpts) [][]simRun {
	var out [][]simRun
	start := time.Now()
	for len(out) < min || time.Since(start) < d {
		out = append(out, r.pass(po))
	}
	return out
}

// typical sums, over the batch, each simulation's median cost across the
// passes. Host noise arrives in bursts of a second or so; taking each
// simulation's median drops the runs a burst hit, wherever in the batch it
// fell.
func typical(ps [][]simRun) simRun {
	var out simRun
	xs := make([]float64, len(ps))
	med := func(i int, f func(simRun) float64) float64 {
		for p := range ps {
			xs[p] = f(ps[p][i])
		}
		return median(xs)
	}
	for i := range ps[0] {
		out.setup += time.Duration(med(i, func(s simRun) float64 { return float64(s.setup) }))
		out.wall += time.Duration(med(i, func(s simRun) float64 { return float64(s.wall) }))
		out.cpu += time.Duration(med(i, func(s simRun) float64 { return float64(s.cpu) }))
		out.allocs += uint64(med(i, func(s simRun) float64 { return float64(s.allocs) }))
		out.allocBytes += uint64(med(i, func(s simRun) float64 { return float64(s.allocBytes) }))
		out.frames += uint64(med(i, func(s simRun) float64 { return float64(s.frames) }))
		out.events += uint64(med(i, func(s simRun) float64 { return float64(s.events) }))
		out.peakMem = max(out.peakMem, uint64(med(i, func(s simRun) float64 { return float64(s.peakMem) })))
	}
	return out
}

// calibrated rescales the host times of t, measured over ps, to the
// reference host speed: by calibrationRef over the calibration kernel's
// median time across the run.
func calibrated(t simRun, ps [][]simRun) simRun {
	var cals []float64
	for _, p := range ps {
		for _, s := range p {
			if s.cal > 0 { // 0: the simulation failed in set-up
				cals = append(cals, float64(s.cal))
			}
		}
	}
	if len(cals) == 0 {
		return t
	}
	k := float64(calibrationRef) / median(cals)
	scale := func(d time.Duration) time.Duration { return time.Duration(float64(d) * k) }
	t.setup, t.wall, t.cpu = scale(t.setup), scale(t.wall), scale(t.cpu)
	return t
}

// total sums every simulation of every pass.
func total(ps [][]simRun) simRun {
	var out simRun
	for _, p := range ps {
		for _, s := range p {
			out.add(s)
		}
	}
	return out
}

func framesPerSecond(p simRun) float64 { return ratio(float64(p.frames), p.wall.Seconds()) }

func perFrame(x float64, p simRun) float64 { return ratio(x, float64(p.frames)) }

// endToEnd measures the untraced workload, in calibrated host time.
func (r *runner) endToEnd(budget time.Duration) map[string]float64 {
	r.mem = startMemSampler()
	ps := r.passes(budget, 3, passOpts{monitor: r.wl.monitor})
	r.mem.close()
	r.mem = nil
	t := calibrated(typical(ps), ps)
	return map[string]float64{
		"frames_per_s":     framesPerSecond(t),
		"cpu_ns_per_frame": perFrame(float64(t.cpu.Nanoseconds()), t),
		"allocs_per_frame": perFrame(float64(t.allocs), t),
		"max_rss_mb":       float64(t.peakMem) / (1 << 20),
		"setup_s":          t.setup.Seconds(),
	}
}

// traced measures the per-layer metrics. The budget is split between an
// untraced phase (the tracing-overhead baseline and the Go runtime's
// numbers), a traced phase (spans and counters), a capture pass replayed
// through the layers' parsers, and, on failover, the monitor's attached
// cost.
func (r *runner) traced(budget time.Duration) map[string]float64 {
	m := map[string]float64{}
	plain := passOpts{monitor: r.wl.monitor}

	rtA := readRuntime()
	untraced := r.passes(budget*3/10, 2, plain)
	rtB := readRuntime()
	m["runtime.gc_cpu_share"] = ratio(rtB.gcCPU-rtA.gcCPU, (rtB.totalCPU-rtB.idleCPU)-(rtA.totalCPU-rtA.idleCPU))
	u := typical(untraced)
	m["runtime.alloc_bytes_per_frame"] = perFrame(float64(u.allocBytes), u)
	m["runtime.gc_cycles"] = float64(rtB.gcCycles-rtA.gcCycles) / float64(len(untraced))

	traced := r.passes(budget*4/10, 2, passOpts{traced: true, monitor: r.wl.monitor})
	t := total(traced)
	m["trace.overhead_share"] = 1 - framesPerSecond(calibrated(typical(traced), traced))/
		framesPerSecond(calibrated(u, untraced))

	// Counts are per pass: every pass runs the same simulations.
	c := total(traced[len(traced)-1:]).counts
	m["sim.events"] = float64(c.events)
	m["sim.events_per_frame"] = ratio(float64(c.events), float64(c.frames))
	m["sim.group.windows"] = float64(c.windows)
	m["sim.group.events_per_window"] = ratio(float64(c.windowEvents), float64(c.windows))
	m["sim.group.stall_share"] = ratio(float64(t.counts.stallNs), float64(t.counts.busyNs))
	m["netsim.handoffs"] = float64(c.handoffs)
	m["netsim.frames"] = float64(c.frames)
	m["netsim.queue_drops"] = float64(c.queueDrops)
	m["netsim.lost"] = float64(c.lost)
	m["frame.pool_miss_ratio"] = ratio(float64(c.poolMisses), float64(c.poolGets))
	m["ipv4.delivered"] = float64(c.ipDelivered)
	m["ipv4.forwarded"] = float64(c.ipForwarded)
	m["tcp.segs_out"] = float64(c.segsOut)
	m["tcp.retransmits"] = float64(c.retransmits)
	m["tcp.rto_events"] = float64(c.rtoEvents)
	m["tcp.segs_suppressed"] = float64(c.suppressed)
	m["redirector.multicast_copies"] = float64(c.multicastCopies)
	m["redirector.passed_through"] = float64(c.passThrough)
	m["core.chain_msgs_sent"] = float64(c.chainMsgs)
	m["core.chain_msgs_per_client_seg"] = ratio(float64(c.chainMsgs), float64(c.clientSegs))
	m["core.suspicions"] = float64(c.suspicions)
	m["core.promotions"] = float64(c.promotions)
	m["rmp.reconfigs"] = float64(c.reconfigs)
	m["rmp.probes_sent"] = float64(c.probes)

	// Span times, summed over every traced pass.
	var all spanSums
	for i := range t.spans {
		all.add(&t.spans[i])
	}
	hosts, rd, replicas := t.spans[roleHost], t.spans[roleRedirector], t.spans[roleReplica]
	nonRD := hosts
	nonRD.add(&replicas)
	perCall := func(d time.Duration, n uint64) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }
	m["sim.pending_mean"] = ratio(float64(all.pendingSum), float64(all.pendingSamples))
	// The loop is what the timed phase spent outside the stack: the
	// scheduler heap, fabric closures and timers. Partitioned runs take the
	// workers' execute time instead of the coordinator's wall clock.
	loop := t.wall.Nanoseconds()
	if t.counts.execNs > 0 {
		loop = t.counts.execNs
	}
	m["sim.loop_ns_per_event"] = ratio(float64(loop-all.outer.Nanoseconds()), float64(t.events))
	m["ipv4.self_ns_per_frame"] = perCall(nonRD.self[layerIPv4], nonRD.calls[layerIPv4])
	m["redirector.forward_ns_per_frame"] = perCall(rd.self[layerIPv4], rd.calls[layerIPv4])
	m["tcp.deliver_ns_per_seg"] = perCall(all.total[layerTCP], all.calls[layerTCP])
	m["hostserver.decap_ns_per_frame"] = perCall(all.self[layerIPIP], all.calls[layerIPIP])
	m["core.chain_ns_per_msg"] = perCall(replicas.total[layerUDP], replicas.calls[layerUDP])

	// Layer replay over frames captured in one more pass.
	store := &frameStore{perSim: captureBytes / len(r.specs)}
	r.pass(passOpts{monitor: r.wl.monitor, capture: store})
	for k, v := range replay(store.frames, budget/10) {
		m[k] = v
	}

	m["invariant.attached_ns_per_frame"] = 0
	if r.wl.monitor {
		m["invariant.attached_ns_per_frame"] = r.monitorCost(budget / 5)
	}
	return m
}

// monitorCost runs the batch alternately without and with the invariant
// monitor and returns the extra host time per frame, from each
// simulation's median on either side.
func (r *runner) monitorCost(d time.Duration) float64 {
	var off, on [][]simRun
	start := time.Now()
	for len(on) < 1 || time.Since(start) < d {
		off = append(off, r.pass(passOpts{}))
		on = append(on, r.pass(passOpts{monitor: true}))
	}
	a, b := typical(on), typical(off)
	return perFrame(float64((a.wall - b.wall).Nanoseconds()), a)
}

// captureBytes bounds the pcap kept per pass for the layer replay.
const captureBytes = 16 << 20

// frameStore collects captured frames across a pass.
type frameStore struct {
	perSim int
	frames [][]byte
}

func (s *frameStore) add(b *pcapBuffer) error {
	f, err := capture.ReadAll(bytes.NewReader(b.buf.Bytes()))
	if err != nil {
		return fmt.Errorf("reading capture: %w", err)
	}
	for _, rec := range f.Records {
		s.frames = append(s.frames, rec.Data)
	}
	return nil
}

var errCaptureFull = errors.New("capture buffer full")

// pcapBuffer keeps a pcap stream in memory up to limit bytes. The capture
// writer emits the file header, then every record as a 16-byte header
// followed by its data, and writes nothing after its first error; refusing
// the record header that would pass the limit therefore leaves a stream
// that ends on a record boundary.
type pcapBuffer struct {
	buf        bytes.Buffer
	limit      int
	started    bool
	recordData bool
}

func (b *pcapBuffer) Write(p []byte) (int, error) {
	switch {
	case !b.started:
		b.started = true
	case b.recordData:
		b.recordData = false
	default:
		if len(p) != 16 {
			return 0, fmt.Errorf("pcap record header of %d bytes", len(p))
		}
		incl := int(binary.LittleEndian.Uint32(p[8:12]))
		if b.buf.Len()+len(p)+incl > b.limit {
			return 0, errCaptureFull
		}
		b.recordData = true
	}
	return b.buf.Write(p)
}

// Results of the replayed parses, kept so the calls cannot be optimised
// away.
var (
	sinkPacket  *ipv4.Packet
	sinkSegment *tcp.Segment
)

type tcpInput struct {
	src, dst ipv4.Addr
	payload  []byte
}

// replay times ipv4.Unmarshal over every captured frame and
// tcp.UnmarshalSegment over every unfragmented TCP payload among them, each
// for half of d, and counts their allocations.
func replay(frames [][]byte, d time.Duration) map[string]float64 {
	var segs []tcpInput
	for _, f := range frames {
		p, err := ipv4.Unmarshal(f)
		if err == nil && p.Proto == ipv4.ProtoTCP && p.FragOff == 0 && !p.MoreFrag {
			segs = append(segs, tcpInput{p.Src, p.Dst, p.Payload})
		}
	}
	ipNs, ipAllocs := timeCalls(len(frames), d/2, func(i int) {
		sinkPacket, _ = ipv4.Unmarshal(frames[i])
	})
	tcpNs, tcpAllocs := timeCalls(len(segs), d/2, func(i int) {
		sinkSegment, _ = tcp.UnmarshalSegment(segs[i].src, segs[i].dst, segs[i].payload)
	})
	return map[string]float64{
		"ipv4.parse_ns": ipNs, "ipv4.parse_allocs": ipAllocs,
		"tcp.parse_ns": tcpNs, "tcp.parse_allocs": tcpAllocs,
	}
}

// timeCalls calls fn over 0..n-1 repeatedly for about d and returns the
// mean ns and heap objects per call.
func timeCalls(n int, d time.Duration, fn func(int)) (nsPerCall, allocsPerCall float64) {
	if n == 0 {
		return 0, 0
	}
	calls := 0
	rt0 := readRuntime()
	start := time.Now()
	for calls == 0 || time.Since(start) < d {
		for i := 0; i < n; i++ {
			fn(i)
		}
		calls += n
	}
	elapsed := time.Since(start)
	rt1 := readRuntime()
	return float64(elapsed.Nanoseconds()) / float64(calls), float64(rt1.allocs-rt0.allocs) / float64(calls)
}
