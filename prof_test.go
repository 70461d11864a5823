package hydranet

import (
	"bytes"
	"testing"
	"time"

	"hydranet/internal/app"
	"hydranet/internal/icmp"
	"hydranet/internal/prof"
	"hydranet/internal/sim"
)

// TestProfZeroCostWhenDetached pins the zero-cost contract on the scheduler
// hot path: the profiling hooks in At/Step are nil-gated pointer checks, so
// a detached scheduler allocates nothing in steady state — and an attached
// one allocates nothing either, because the edge ring and depth counters are
// preallocated. CI runs this by name; do not rename.
func TestProfZeroCostWhenDetached(t *testing.T) {
	measure := func(attach bool) float64 {
		s := sim.NewScheduler(1)
		if attach {
			s.EnableProfile(sim.NewSchedProf(64, 4))
		}
		nop := func() {}
		cycle := func() {
			s.At(s.Now()+time.Microsecond, nop)
			s.Step()
		}
		// Warm the event-node freelist and heap capacity out of the
		// measurement: steady state is schedule-one/fire-one.
		for i := 0; i < 256; i++ {
			cycle()
		}
		return testing.AllocsPerRun(1000, cycle)
	}
	if a := measure(false); a != 0 {
		t.Errorf("detached scheduler steady state allocates %.1f per event, want 0", a)
	}
	if a := measure(true); a != 0 {
		t.Errorf("attached scheduler steady state allocates %.1f per event, want 0", a)
	}
}

// profArtifacts is one profiled-or-plain scenario run's observables.
type profArtifacts struct {
	pcap    []byte
	fired   uint64
	ties    uint64
	profile *prof.Profile // nil for a plain run
}

// runProfScenario runs a sampler-free failover scenario — the telemetry
// sampler is the one component whose event chains differ serial vs parallel
// (DESIGN.md §11), so critical-path parity is asserted without it.
func runProfScenario(t *testing.T, workers int, profiled bool) profArtifacts {
	t.Helper()
	net, client, rd, replicas := parallelTopology(t, 17)
	if workers > 1 {
		if err := net.SetWorkers(workers); err != nil {
			t.Fatal(err)
		}
	}
	var pcap bytes.Buffer
	if _, err := net.StartCapture(&pcap); err != nil {
		t.Fatal(err)
	}
	svc, err := net.DeployFT(testSvc, rd, replicas,
		FTOptions{Detector: DetectorParams{RetransmitThreshold: 3}}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()

	// Attach after setup settles, as the testbed does: the event and depth
	// baselines then cover exactly the measured transfer, at the same
	// logical instant for every worker count.
	var profiler *Profiler
	if profiled {
		profiler = net.StartProfile(ProfileConfig{Scenario: "prof parity"})
	}

	payload := make([]byte, 512*1024)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	conn, err := client.Dial(testSvc)
	if err != nil {
		t.Fatal(err)
	}
	received := new(int)
	buf := make([]byte, 8192)
	conn.OnReadable(func() {
		for {
			n := conn.Read(buf)
			if n == 0 {
				break
			}
			*received += n
		}
	})
	app.Source(conn, payload, false)

	net.RunFor(150 * time.Millisecond)
	svc.CrashPrimary()
	for *received < len(payload) && net.Now() < 2*time.Minute {
		net.RunFor(time.Second)
	}
	if *received != len(payload) {
		t.Fatalf("workers=%d profiled=%v: client received %d of %d bytes",
			workers, profiled, *received, len(payload))
	}
	a := profArtifacts{pcap: pcap.Bytes(), fired: net.EventsFired(), ties: net.MergeTies()}
	if profiler != nil {
		a.profile = profiler.Snapshot()
		profiler.Stop()
	}
	return a
}

// TestProfileKeepsOutputsIdentical is hydraprof's non-perturbation proof:
// attaching the profiler changes no simulation observable (pcap bytes,
// events fired) at any worker count, and the causal critical path it reports
// is identical for the serial and the partitioned run of the same scenario.
func TestProfileKeepsOutputsIdentical(t *testing.T) {
	serial := runProfScenario(t, 1, false)
	serialProf := runProfScenario(t, 1, true)
	par := runProfScenario(t, 4, false)
	parProf := runProfScenario(t, 4, true)

	if len(serial.pcap) == 0 {
		t.Fatal("scenario produced no capture bytes")
	}
	for name, run := range map[string]profArtifacts{
		"serial+prof": serialProf, "parallel": par, "parallel+prof": parProf,
	} {
		if !bytes.Equal(serial.pcap, run.pcap) {
			t.Errorf("%s pcap differs from serial (%d vs %d bytes)",
				name, len(run.pcap), len(serial.pcap))
		}
		if run.fired != serial.fired {
			t.Errorf("%s fired %d events, serial fired %d", name, run.fired, serial.fired)
		}
		if run.ties != 0 {
			t.Errorf("%s recorded %d merge ties, want 0", name, run.ties)
		}
	}

	sp, pp := serialProf.profile, parProf.profile
	if sp.Domains != 1 || pp.Domains != 3 {
		t.Fatalf("profiles report %d/%d domains, want 1/3", sp.Domains, pp.Domains)
	}
	if sp.Events == 0 || sp.Events != pp.Events {
		t.Errorf("profiled events: serial %d, parallel %d (want equal, nonzero)",
			sp.Events, pp.Events)
	}
	if sp.CriticalPath.Depth == 0 || sp.CriticalPath.Depth != pp.CriticalPath.Depth {
		t.Errorf("critical-path depth: serial %d, parallel %d (want equal, nonzero)",
			sp.CriticalPath.Depth, pp.CriticalPath.Depth)
	}
	if sp.CriticalPath.EdgesSeen == 0 || sp.CriticalPath.EdgesRecorded == 0 {
		t.Errorf("serial profile sampled no edges: %+v", sp.CriticalPath)
	}

	// Parallel-only sections: window accounting covers every domain, the
	// hand-off matrix sums to the hand-off counter, and the recommendation
	// stays within the partition's structural bounds.
	if pp.WindowsRun == 0 || pp.WindowsKept == 0 {
		t.Errorf("parallel profile recorded %d windows (%d kept), want > 0",
			pp.WindowsRun, pp.WindowsKept)
	}
	if len(pp.DomainTotals) != pp.Domains {
		t.Fatalf("parallel profile has %d domain totals, want %d",
			len(pp.DomainTotals), pp.Domains)
	}
	var domainEvents uint64
	for _, d := range pp.DomainTotals {
		domainEvents += d.Events
	}
	if domainEvents == 0 || domainEvents > pp.Events {
		t.Errorf("domain totals account %d events, profile fired %d", domainEvents, pp.Events)
	}
	if len(pp.HandoffMatrix) != pp.Domains*pp.Domains {
		t.Fatalf("hand-off matrix has %d cells, want %d",
			len(pp.HandoffMatrix), pp.Domains*pp.Domains)
	}
	var matrixSum uint64
	for _, c := range pp.HandoffMatrix {
		matrixSum += c
	}
	if matrixSum == 0 || matrixSum != pp.Handoffs {
		t.Errorf("hand-off matrix sums to %d, counter says %d (want equal, nonzero)",
			matrixSum, pp.Handoffs)
	}
	if w := pp.RecommendedWorkers(); w < 1 || w > pp.Domains {
		t.Errorf("recommended workers %d outside [1, %d]", w, pp.Domains)
	}
	if sp.WindowsRun != 0 || len(sp.DomainTotals) != 0 {
		t.Errorf("serial profile has parallel sections: windows=%d totals=%d",
			sp.WindowsRun, len(sp.DomainTotals))
	}
}

// TestMergeTieAccounting constructs the exact-key cross-domain ambiguity the
// MergeTies counter exists to expose: two hosts behind identical links ping
// a third at the same virtual instant, so their echo requests reach the
// shared destination with identical (arrive, birth) keys from different
// source domains. The counter must fire, the documented tie-break (stable
// sort, source-domain ascending — which here coincides with the serial
// scheduler's insertion order) must hold, and the run's virtual observables
// must still match the serial run exactly.
func TestMergeTieAccounting(t *testing.T) {
	run := func(parallel bool) (pcap []byte, ties uint64, rtts [2]time.Duration) {
		t.Helper()
		net := New(Config{Seed: 5})
		a := net.AddHost("a", HostConfig{})
		b := net.AddHost("b", HostConfig{})
		c := net.AddHost("c", HostConfig{})
		link := LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
		net.Link(a, c, link)
		net.Link(b, c, link)
		net.AutoRoute()
		if parallel {
			if err := net.partition([][]*Host{{a}, {b}, {c}}, 2); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if _, err := net.StartCapture(&buf); err != nil {
			t.Fatal(err)
		}
		a.Ping(c.Addr(), time.Second, func(r icmp.EchoResult) { rtts[0] = r.RTT })
		b.Ping(c.Addr(), time.Second, func(r icmp.EchoResult) { rtts[1] = r.RTT })
		net.RunFor(time.Second)
		return buf.Bytes(), net.MergeTies(), rtts
	}

	serPcap, serTies, serRTTs := run(false)
	parPcap, parTies, parRTTs := run(true)
	if serTies != 0 {
		t.Fatalf("serial run counted %d merge ties, want 0", serTies)
	}
	if parTies == 0 {
		t.Fatal("symmetric simultaneous arrivals counted no merge ties, want > 0")
	}
	if serRTTs[0] == 0 || serRTTs != parRTTs {
		t.Errorf("ping RTTs: serial %v, parallel %v (want equal, nonzero)", serRTTs, parRTTs)
	}
	// The tied frames were issued in source-domain order, so the stable
	// src-ascending tie-break reproduces the serial capture byte-for-byte
	// here — and a second partitioned run must reproduce it as well.
	if !bytes.Equal(serPcap, parPcap) {
		t.Errorf("tied capture diverged from serial (%d vs %d bytes)", len(parPcap), len(serPcap))
	}
	rerunPcap, rerunTies, _ := run(true)
	if rerunTies != parTies || !bytes.Equal(parPcap, rerunPcap) {
		t.Errorf("partitioned rerun not deterministic: ties %d vs %d, pcap %d vs %d bytes",
			rerunTies, parTies, len(rerunPcap), len(parPcap))
	}
}
