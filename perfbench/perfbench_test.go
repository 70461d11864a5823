package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"hydranet/internal/capture"
	"hydranet/internal/testbed"
)

var update = flag.Bool("update", false, "rewrite failover_ref.json from fresh simulations")

func mustRefs(t *testing.T) *references {
	t.Helper()
	refs, err := loadReferences("..")
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

// runOnce builds and runs one simulation and returns its model output.
func runOnce(t *testing.T, sp simSpec, o simOpts) outcome {
	t.Helper()
	s, err := sp.build(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.run(); err != nil {
		t.Fatal(err)
	}
	return s.result()
}

// TestFailoverReference pins failover_ref.json to testbed.MeasureFailover,
// the simulation cmd/failover reports, on every field testbed reports.
// With -update it first rewrites the file from the benchmark's own
// simulations.
func TestFailoverReference(t *testing.T) {
	if *update {
		file := failoverRefFile{
			Description: "perfbench failover workload: model outputs per simulation (crash at 500 ms, 1 backup, invariant monitor attached)",
			Seed:        simSeed,
		}
		for _, loss := range failoverLosses {
			for _, th := range failoverThresholds {
				out := runOnce(t, simSpec{build: func(o simOpts) (*simulation, error) {
					return buildFailover(th, loss, o)
				}}, simOpts{monitor: true})
				file.Runs = append(file.Runs, failoverRef{Threshold: th, Loss: loss, outcome: out})
			}
		}
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("failover_ref.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		failoverRefJSON = data
	}
	refs := mustRefs(t)
	if len(refs.failover) != len(failoverLosses)*len(failoverThresholds) {
		t.Fatalf("failover_ref.json has %d runs", len(refs.failover))
	}
	for _, loss := range failoverLosses {
		for _, th := range failoverThresholds {
			want, ok := refs.failover[failoverLabel(th, loss)]
			if !ok {
				t.Fatalf("threshold %d loss %g: no reference", th, loss)
			}
			tb := testbed.MeasureFailover(testbed.FailoverConfig{
				Threshold: th, Seed: simSeed, Loss: loss, Invariants: true,
			})
			got := want
			got.DetectNs, got.ResumeNs = int64(tb.Detected), int64(tb.Resumed)
			got.Suspicions, got.FalseReconfigs = tb.Suspicions, tb.FalseReconfigs
			got.Delivered, got.Violations = tb.Delivered, tb.Violations
			got.ClientError = ""
			if tb.ClientError != nil {
				got.ClientError = tb.ClientError.Error()
			}
			if got != want {
				t.Errorf("threshold %d loss %g: testbed %+v, reference %+v", th, loss, got, want)
			}
			if want.Violations != 0 || want.ClientError != "" || want.DetectNs == 0 || want.ResumeNs == 0 {
				t.Errorf("threshold %d loss %g: reference is not a clean failover: %+v", th, loss, want)
			}
		}
	}
}

// TestParity: for the pinned seed, the simulations the benchmark builds
// reproduce what ttcpbench and failover measure through internal/testbed,
// exactly.
func TestParity(t *testing.T) {
	for _, c := range testbed.Figure4Cases {
		for _, size := range testbed.Figure4Sizes {
			res, info := testbed.RunMeasured(testbed.Config{Case: c, BufLen: size, Seed: simSeed})
			got := runOnce(t, simSpec{build: func(o simOpts) (*simulation, error) {
				return buildFigure4(c, size, o)
			}}, simOpts{})
			want := outcome{KBps: res.ThroughputKBps(), Frames: info.Frames}
			if got != want {
				t.Errorf("%s: benchmark %+v, testbed %+v", fig4Label(c, size), got, want)
			}
		}
	}
	for _, loss := range failoverLosses {
		for _, th := range failoverThresholds {
			tb := testbed.MeasureFailover(testbed.FailoverConfig{Threshold: th, Seed: simSeed, Loss: loss, Invariants: true})
			got := runOnce(t, simSpec{build: func(o simOpts) (*simulation, error) {
				return buildFailover(th, loss, o)
			}}, simOpts{monitor: true})
			if got.DetectNs != int64(tb.Detected) || got.ResumeNs != int64(tb.Resumed) ||
				got.Suspicions != tb.Suspicions || got.FalseReconfigs != tb.FalseReconfigs ||
				got.Delivered != tb.Delivered || got.Violations != tb.Violations ||
				(got.ClientError != "") != (tb.ClientError != nil) {
				t.Errorf("%s: benchmark %+v, testbed %+v", failoverLabel(th, loss), got, tb)
			}
		}
	}
	// testbed.RunScale's completion callback updates shared counters from
	// the pods' worker goroutines, which races with more than one worker,
	// so the reference run is serial. Its outputs do not depend on the
	// worker count; the benchmark's own pods run uses podWorkers.
	sc := testbed.RunScale(testbed.ScaleConfig{Pods: podCount, Workers: 1, Seed: simSeed})
	got := runOnce(t, podsSpecs()[0], simOpts{})
	if err := check(outcome{KBps: sc.AggKBps, Frames: sc.Frames}, got); err != nil {
		t.Errorf("pods: %v", err)
	}
}

// TestTracingKeepsOutputs: wrapping every stack, profiling and capturing
// change no model output and no frame count. Run with -race, the pods case
// also proves the per-node span recorders share nothing across the
// parallel core's worker goroutines.
func TestTracingKeepsOutputs(t *testing.T) {
	refs := mustRefs(t)
	for _, wl := range workloads {
		specs := wl.specs()
		if testing.Short() || raceEnabled {
			specs = specs[len(specs)-1:]
		}
		for _, sp := range specs {
			plain := runOnce(t, sp, simOpts{monitor: wl.monitor})
			tr := &tracer{}
			traced := runOnce(t, sp, simOpts{monitor: wl.monitor, tracer: tr, profile: true,
				capture: &pcapBuffer{limit: 1 << 20}})
			if plain != traced {
				t.Errorf("%s/%s: untraced %+v, traced %+v", wl.name, sp.label, plain, traced)
			}
			if want, ok := sp.ref(refs); !ok {
				t.Errorf("%s/%s: no reference", wl.name, sp.label)
			} else if err := check(want, plain); err != nil {
				t.Errorf("%s/%s: %v", wl.name, sp.label, err)
			}
			var frames uint64
			for _, n := range tr.nodes {
				frames += n.sums.calls[layerIPv4]
			}
			if frames == 0 {
				t.Errorf("%s/%s: tracer saw no frames", wl.name, sp.label)
			}
		}
	}
}

// TestRunnerReportsEveryMetric runs the pods workload through both modes
// with a tiny budget: every declared metric is reported and every
// simulation passes its check.
func TestRunnerReportsEveryMetric(t *testing.T) {
	wl, _ := findWorkload("pods")
	for _, traced := range []bool{false, true} {
		r := newRunner(wl, mustRefs(t), 3)
		var m map[string]float64
		defs := endToEnd
		if traced {
			m, defs = r.traced(0), perLayer
		} else {
			m = r.endToEnd(0)
		}
		if r.failed != 0 || r.attempted == 0 {
			t.Fatalf("traced=%v: %d of %d simulations failed", traced, r.failed, r.attempted)
		}
		if len(m) != len(defs) {
			t.Errorf("traced=%v: %d metrics, %d declared", traced, len(m), len(defs))
		}
		for _, d := range defs {
			if _, ok := m[d.name]; !ok {
				t.Errorf("traced=%v: %s missing", traced, d.name)
			}
		}
		if traced && (m["sim.group.windows"] == 0 || m["ipv4.parse_ns"] == 0) {
			t.Errorf("traced pods run measured no parallel or replay work: %v", m)
		}
	}
}

// TestPcapBufferEndsOnRecord: a capture cut at its byte limit still parses.
func TestPcapBufferEndsOnRecord(t *testing.T) {
	buf := &pcapBuffer{limit: 64 << 10}
	runOnce(t, figure4Specs(testbed.CaseClean)[0], simOpts{capture: buf})
	if buf.buf.Len() > buf.limit {
		t.Fatalf("kept %d bytes, limit %d", buf.buf.Len(), buf.limit)
	}
	f, err := capture.ReadAll(bytes.NewReader(buf.buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Records) < 100 {
		t.Fatalf("only %d records kept", len(f.Records))
	}
}

// TestCatalogMatchesBenchmarkJSON: BENCHMARK.json declares exactly the
// metrics and workloads this program reports.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, catalog %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalog %s %s %s", kind, i, g, w.name, w.unit, w.better)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd)
	compare("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(bj.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if bj.Workloads[i].Name != wl.name || bj.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %s: %s", i, bj.Workloads[i], wl.name, wl.why)
		}
	}
}
