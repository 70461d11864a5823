package hydranet

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"hydranet/internal/app"
	"hydranet/internal/scope"
)

// parallelTopology builds a 4-host star whose delay structure yields three
// synchronization domains under the automatic cut: the client sits 50 µs
// from the redirector (below the cut, so they share a domain) while both
// replicas hang off 1 ms backbone links (the cut class, so each is its own
// domain with a 1 ms lookahead window). The replicas get slightly different
// CPU cost models so their event streams are never key-tied.
func parallelTopology(t *testing.T, seed int64) (*Net, *Host, *Redirector, []*Host) {
	t.Helper()
	net := New(Config{Seed: seed})
	client := net.AddHost("client", HostConfig{})
	rd := net.AddRedirector("rd", HostConfig{})
	s0 := net.AddHost("s0", HostConfig{})
	s1 := net.AddHost("s1", HostConfig{})
	net.Link(client, rd.Host, LinkConfig{Rate: 10_000_000, Delay: 50 * time.Microsecond})
	backbone := LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
	net.Link(s0, rd.Host, backbone)
	net.Link(s1, rd.Host, backbone)
	net.AutoRoute()
	s0.SetProcessing(10*time.Microsecond, 0)
	s1.SetProcessing(13*time.Microsecond, 0)
	return net, client, rd, []*Host{s0, s1}
}

// parallelArtifacts is everything observable one run produces.
type parallelArtifacts struct {
	pcap, series []byte
	domains      int
	fired        uint64
	handoffs     uint64
	ties         uint64
}

// runParallelScenario runs the full failover scenario — deploy, stream,
// crash the primary, recover — at the given worker count and returns every
// observable artifact. workers <= 1 runs the untouched serial scheduler.
func runParallelScenario(t *testing.T, workers int) parallelArtifacts {
	t.Helper()
	net, client, rd, replicas := parallelTopology(t, 11)
	if workers > 1 {
		if err := net.SetWorkers(workers); err != nil {
			t.Fatal(err)
		}
		if d, _ := net.Parallel(); d != 3 {
			t.Fatalf("auto-partition produced %d domains, want 3", d)
		}
	}

	var pcap bytes.Buffer
	if _, err := net.StartCapture(&pcap); err != nil {
		t.Fatal(err)
	}
	probe := net.NewFailoverProbe()
	tel := net.StartSampler(SamplerConfig{
		Every:  50 * time.Millisecond,
		Health: &HealthConfig{},
	})
	tel.AttachFailover(probe)
	tel.WatchReplicas(replicas...)

	svc, err := net.DeployFT(testSvc, rd, replicas,
		FTOptions{Detector: DetectorParams{RetransmitThreshold: 3}}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()

	payload := make([]byte, 1024*1024)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	conn, err := client.Dial(testSvc)
	if err != nil {
		t.Fatal(err)
	}
	received := new(int)
	// Client-side observation runs on the client's domain; publishing on
	// Host.Bus keeps it deterministic under any worker count (it is Net.Bus
	// when serial).
	bus := client.Bus()
	buf := make([]byte, 8192)
	conn.OnReadable(func() {
		for {
			n := conn.Read(buf)
			if n == 0 {
				break
			}
			*received += n
			if bus.Enabled(KindClientDeliver) {
				bus.Publish(Event{Kind: KindClientDeliver, Node: "client", Size: n})
			}
		}
	})
	app.Source(conn, payload, false)

	net.RunFor(300 * time.Millisecond)
	svc.CrashPrimary()
	for *received < len(payload) && net.Now() < 2*time.Minute {
		net.RunFor(time.Second)
	}
	if *received != len(payload) {
		t.Fatalf("workers=%d: client received %d of %d bytes", workers, *received, len(payload))
	}
	tel.Stop()

	var ser bytes.Buffer
	if err := tel.WriteJSONL(&ser); err != nil {
		t.Fatal(err)
	}
	return parallelArtifacts{
		pcap:     pcap.Bytes(),
		series:   ser.Bytes(),
		domains:  func() int { d, _ := net.Parallel(); return d }(),
		fired:    net.EventsFired(),
		handoffs: net.Handoffs(),
		ties:     net.MergeTies(),
	}
}

// dropMissesLines removes pool.misses series lines from a JSONL export and
// reports how many were dropped. pool.misses is allocator telemetry scoped
// to each domain's frame pool — the one series that is partition-dependent
// by design (DESIGN.md §10); everything else must match byte-for-byte.
func dropMissesLines(b []byte) (kept string, dropped int) {
	lines := strings.Split(string(b), "\n")
	out := lines[:0]
	for _, ln := range lines {
		if strings.Contains(ln, `"pool.misses"`) {
			dropped++
			continue
		}
		out = append(out, ln)
	}
	return strings.Join(out, "\n"), dropped
}

// firstDiffLine locates the first differing line of two multi-line strings.
func firstDiffLine(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return "line " + itoa(i+1) + ":\n  a: " + clip(la[i]) + "\n  b: " + clip(lb[i])
		}
	}
	return "line counts differ: " + itoa(len(la)) + " vs " + itoa(len(lb))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var d [20]byte
	i := len(d)
	for n > 0 {
		i--
		d[i] = byte('0' + n%10)
		n /= 10
	}
	return string(d[i:])
}

func clip(s string) string {
	if len(s) > 160 {
		return s[:160] + "..."
	}
	return s
}

// TestParallelRunMatchesSerial is the tentpole's proof obligation: the same
// failover scenario run serially, with 2 workers, and with 4 workers must
// produce byte-identical packet captures, byte-identical series exports
// across parallel runs, and serial-vs-parallel series identical except for
// the documented pool.misses allocator line. Run under -race this also
// exercises the window/barrier protocol for data races.
func TestParallelRunMatchesSerial(t *testing.T) {
	serial := runParallelScenario(t, 1)
	two := runParallelScenario(t, 2)
	four := runParallelScenario(t, 4)

	if serial.domains != 1 {
		t.Errorf("serial run reports %d domains, want 1", serial.domains)
	}
	if two.domains != 3 || four.domains != 3 {
		t.Errorf("parallel runs report %d/%d domains, want 3/3", two.domains, four.domains)
	}

	// Packet captures: every frame on every link, timestamped on the virtual
	// clock — the strictest observable. All three must be byte-identical.
	if !bytes.Equal(serial.pcap, two.pcap) {
		t.Errorf("2-worker pcap differs from serial (%d vs %d bytes)", len(two.pcap), len(serial.pcap))
	}
	if !bytes.Equal(serial.pcap, four.pcap) {
		t.Errorf("4-worker pcap differs from serial (%d vs %d bytes)", len(four.pcap), len(serial.pcap))
	}
	if len(serial.pcap) == 0 {
		t.Error("capture produced no bytes")
	}

	// The partition is topology-derived, so worker count must not leak into
	// any output: 2- and 4-worker series are byte-identical, misses included.
	if !bytes.Equal(two.series, four.series) {
		t.Errorf("2- and 4-worker series exports differ:\n%s",
			firstDiffLine(string(two.series), string(four.series)))
	}

	// Serial vs parallel: identical except the per-domain allocator line.
	serKept, serDropped := dropMissesLines(serial.series)
	parKept, parDropped := dropMissesLines(two.series)
	if serKept != parKept {
		t.Errorf("serial and parallel series differ beyond pool.misses:\n%s",
			firstDiffLine(serKept, parKept))
	}
	if serDropped == 0 || serDropped != parDropped {
		t.Errorf("pool.misses line counts: serial %d, parallel %d (want equal, nonzero)",
			serDropped, parDropped)
	}

	// hydrascope must agree the parallel runs are clean against each other,
	// and must confine serial-vs-parallel findings to pool.misses — DiffRuns
	// is what CI gates with.
	runS, err := scope.LoadRun(bytes.NewReader(serial.series))
	if err != nil {
		t.Fatal(err)
	}
	run2, err := scope.LoadRun(bytes.NewReader(two.series))
	if err != nil {
		t.Fatal(err)
	}
	run4, err := scope.LoadRun(bytes.NewReader(four.series))
	if err != nil {
		t.Fatal(err)
	}
	if findings := scope.DiffRuns(run2, run4, 0.001); len(findings) != 0 {
		t.Errorf("2- vs 4-worker runs diff dirty: %v", findings)
	}
	for _, f := range scope.DiffRuns(runS, run2, 0.001) {
		if f.Series != "pool.misses" {
			t.Errorf("serial vs parallel finding outside pool.misses: %v", f)
		}
	}
	if runS.Meta.Failover == nil || !runS.Meta.Failover.Complete {
		t.Fatalf("serial export missing the completed failover timeline: %+v", runS.Meta.Failover)
	}
	if run2.Meta.Failover == nil || !run2.Meta.Failover.Complete {
		t.Fatalf("parallel export missing the completed failover timeline: %+v", run2.Meta.Failover)
	}

	// Accounting parity: the parallel run executes the same events (plus
	// barrier-hosted globals standing in for scheduler-hosted timers), hands
	// frames across domains, and never hits an ambiguous merge.
	if serial.fired != two.fired {
		t.Errorf("events fired: serial %d, parallel %d", serial.fired, two.fired)
	}
	if two.handoffs == 0 {
		t.Error("parallel run recorded no cross-domain hand-offs")
	}
	if two.ties != 0 {
		t.Errorf("parallel run recorded %d merge ties, want 0", two.ties)
	}
	if serial.handoffs != 0 || serial.ties != 0 {
		t.Errorf("serial run recorded handoffs=%d ties=%d, want 0/0", serial.handoffs, serial.ties)
	}
}

// TestPartitionOrderingGuards pins the call-ordering contract: partitioning
// must come after the topology is final and before anything is deployed.
func TestPartitionOrderingGuards(t *testing.T) {
	t.Run("after deploy", func(t *testing.T) {
		net, _, rd, replicas := parallelTopology(t, 3)
		if _, err := net.DeployFT(testSvc, rd, replicas, FTOptions{}, echoAccept()); err != nil {
			t.Fatal(err)
		}
		if err := net.SetWorkers(4); err == nil {
			t.Fatal("SetWorkers after DeployFT succeeded, want error")
		}
	})
	t.Run("twice", func(t *testing.T) {
		net, _, _, _ := parallelTopology(t, 3)
		if err := net.SetWorkers(2); err != nil {
			t.Fatal(err)
		}
		if err := net.SetWorkers(2); err == nil {
			t.Fatal("second SetWorkers succeeded, want error")
		}
	})
	t.Run("live connection", func(t *testing.T) {
		net, client, rd, replicas := parallelTopology(t, 3)
		if _, err := net.DeployFT(testSvc, rd, replicas, FTOptions{}, echoAccept()); err != nil {
			t.Fatal(err)
		}
		net.Settle()
		if _, err := client.Dial(testSvc); err != nil {
			t.Fatal(err)
		}
		groups := [][]*Host{{client}, {rd.Host}, {replicas[0]}, {replicas[1]}}
		if err := net.partition(groups, 2); err == nil {
			t.Fatal("partition with live connections succeeded, want error")
		}
	})
	t.Run("add host after partition", func(t *testing.T) {
		net, _, _, _ := parallelTopology(t, 3)
		if err := net.SetWorkers(2); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if recover() == nil {
				t.Fatal("AddHost after SetWorkers did not panic")
			}
		}()
		net.AddHost("late", HostConfig{})
	})
	t.Run("uniform topology stays serial", func(t *testing.T) {
		// Equal delays everywhere means every host is its own domain — which
		// is a valid partition; but a single-host net has nothing to cut.
		net := New(Config{Seed: 1})
		net.AddHost("only", HostConfig{})
		if err := net.SetWorkers(8); err != nil {
			t.Fatal(err)
		}
		if d, w := net.Parallel(); d != 1 || w != 1 {
			t.Fatalf("single-host net partitioned into %d domains / %d workers", d, w)
		}
	})
}
