package prof

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sampleProfile is a small, fully deterministic 3-domain profile: fixed
// wall offsets, two windows, one hand-off flow. It doubles as the golden
// trace fixture, so keep it stable.
func sampleProfile() *Profile {
	return &Profile{
		ProfVersion: FormatVersion,
		Scenario:    "golden",
		Seed:        11,
		Domains:     3,
		Workers:     2,
		LookaheadNs: 1_000_000,
		VirtualNs:   2_000_000,
		WallNs:      90_000,
		Events:      120,
		Handoffs:    4,
		MergeTies:   0,
		CriticalPath: CriticalPath{
			Depth: 30, DeepestAtNs: 2_000_000,
			SampleEvery: 4, EdgesSeen: 119, EdgesRecorded: 29,
			Edges: []Edge{
				{ParentAtNs: 1000, ParentBirthNs: 1000, ChildAtNs: 51000, ChildBirthNs: 1000, Depth: 2},
			},
		},
		DomainTotals: []DomainTotal{
			{Domain: 0, ExecNs: 30000, StallNs: 3000, Events: 60},
			{Domain: 1, ExecNs: 20000, StallNs: 14000, Events: 40},
			{Domain: 2, ExecNs: 10000, StallNs: 24000, Events: 20},
		},
		HandoffMatrix: []uint64{0, 2, 0, 1, 0, 0, 0, 1, 0},
		WindowsRun:    2,
		WindowsKept:   2,
		Barriers:      3,
		BarrierNs:     4000,
		WindowWallNs:  72000,
		Windows: []Window{
			{
				Seq: 0, BoundAtNs: 1_000_000, StartNs: 0, EndNs: 36000, BarrierNs: 2000,
				Domains: []WindowDomain{
					{ExecNs: 15000, StallNs: 1500, DoneNs: 34500, Events: 30},
					{ExecNs: 10000, StallNs: 7000, DoneNs: 29000, Events: 20},
					{ExecNs: 5000, StallNs: 12000, DoneNs: 24000, Events: 10},
				},
				Flows: []uint64{0, 2, 0, 0, 0, 0, 0, 0, 0},
			},
			{
				Seq: 1, BoundAtNs: 2_000_000, StartNs: 38000, EndNs: 74000, BarrierNs: 2000,
				Domains: []WindowDomain{
					{ExecNs: 15000, StallNs: 1500, DoneNs: 72500, Events: 30},
					{ExecNs: 10000, StallNs: 7000, DoneNs: 67000, Events: 20},
					{ExecNs: 5000, StallNs: 12000, DoneNs: 62000, Events: 10},
				},
				Flows: []uint64{0, 0, 0, 1, 0, 0, 0, 1, 0},
			},
		},
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	p := sampleProfile()
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if q.Events != p.Events || q.CriticalPath.Depth != p.CriticalPath.Depth ||
		len(q.Windows) != len(p.Windows) || q.Windows[1].Flows[3] != 1 {
		t.Fatalf("round trip mangled the profile: %+v", q)
	}
}

func TestLoadRejectsForeignJSON(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"version":1,"entries":[{"case":"x"}]}`)); err == nil {
		t.Fatal("Load accepted a bench file")
	}
	if _, err := Load(strings.NewReader(`{"prof_version":99}`)); err == nil {
		t.Fatal("Load accepted a future version")
	}
}

func TestSpeedupBounds(t *testing.T) {
	p := sampleProfile()
	if got := p.IdealSpeedup(); got != 4 { // 120 events / depth 30
		t.Fatalf("IdealSpeedup = %v, want 4", got)
	}
	if got := p.BalanceSpeedup(); got != 2 { // 120 / busiest 60
		t.Fatalf("BalanceSpeedup = %v, want 2", got)
	}
	// min(ideal 4, balance 2) = 2, under the 3-domain cap.
	if got := p.RecommendedWorkers(); got != 2 {
		t.Fatalf("RecommendedWorkers = %v, want 2", got)
	}
	empty := &Profile{ProfVersion: 1, Domains: 1, Workers: 1}
	if empty.IdealSpeedup() != 1 || empty.BalanceSpeedup() != 1 || empty.RecommendedWorkers() != 1 {
		t.Fatal("empty profile bounds should all be 1")
	}
}

func TestReportMentionsEverySection(t *testing.T) {
	var buf bytes.Buffer
	if err := Report(&buf, sampleProfile()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"critical path", "ideal speedup", "balance bound", "measured",
		"per-domain utilization", "stall%", "hand-off volume", "recommended -workers 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestTraceGolden pins the Perfetto export byte for byte: the sample
// profile is fixed, so the trace must be too. Regenerate deliberately with
// `go test ./internal/prof -run TestTraceGolden -update` after schema
// changes.
func TestTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, sampleProfile()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_trace.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace drifted from golden (%d vs %d bytes); run with -update if intended",
			buf.Len(), len(want))
	}
}
