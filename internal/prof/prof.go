// Package prof defines the hydraprof profile schema: the serialized form of
// the parallel core's per-window wall-clock accounting and causal
// critical-path analysis (internal/sim.SchedProf / GroupProf), plus the
// analysis and rendering that consume it — the utilization/stall report
// behind `hydrascope profile` and the Chrome trace-event (Perfetto) export.
//
// The package is pure data and analysis: it does not import the simulator,
// so tooling (internal/scope, cmd/hydrascope) can load and diff profiles
// without dragging in the engine. The facade (hydranet.StartProfile)
// assembles a Profile from the sim collectors.
//
// Two kinds of fields coexist and tooling must keep them apart:
//
//   - Deterministic fields — event counts, critical-path depth, hand-off
//     counts and matrix, window counts, virtual times. These are functions
//     of the scenario and partition alone and may be gated exactly
//     (hydrascope diff -tol 0).
//   - Wall-clock fields — every *_ns duration measured on the host clock.
//     These vary run to run and machine to machine; they are gated only via
//     fractional tolerances (-stall-tol), or not at all.
package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// FormatVersion is the profile schema version; bump on incompatible change.
const FormatVersion = 1

// Edge is one sampled parent→child scheduling edge (virtual nanoseconds).
type Edge struct {
	ParentAtNs    int64  `json:"parent_at_ns"`
	ParentBirthNs int64  `json:"parent_birth_ns"`
	ChildAtNs     int64  `json:"child_at_ns"`
	ChildBirthNs  int64  `json:"child_birth_ns"`
	Depth         uint64 `json:"depth"`
}

// CriticalPath is the causal-chain analysis: the longest parent→child chain
// among fired events, which bounds achievable speedup at unit event cost.
type CriticalPath struct {
	// Depth is the longest causal chain among fired events (deterministic).
	Depth uint64 `json:"depth"`
	// DeepestAtNs is the virtual instant the deepest event fired.
	DeepestAtNs int64 `json:"deepest_at_ns"`
	// SampleEvery is the edge sampling stride.
	SampleEvery uint64 `json:"sample_every"`
	// EdgesSeen / EdgesRecorded count scheduling edges considered/sampled.
	EdgesSeen     uint64 `json:"edges_seen"`
	EdgesRecorded uint64 `json:"edges_recorded"`
	// Edges holds the retained samples (bounded; diagnostic only).
	Edges []Edge `json:"edges,omitempty"`
}

// DomainTotal is one domain's cumulative window accounting. The *_ns
// fields are wall clock; Domain and Events are deterministic.
type DomainTotal struct {
	Domain int `json:"domain"`
	// MergeNs and FlushNs are always 0: the hand-off exchange is
	// coordinator work, counted in BarrierNs. They stay in the schema only
	// because perfbench reads them.
	MergeNs int64  `json:"merge_ns"`
	ExecNs  int64  `json:"exec_ns"`
	FlushNs int64  `json:"flush_ns"`
	StallNs int64  `json:"stall_ns"`
	Events  uint64 `json:"events"`
}

// WindowDomain is one domain's share of one window.
type WindowDomain struct {
	ExecNs  int64  `json:"exec_ns"`
	StallNs int64  `json:"stall_ns"`
	DoneNs  int64  `json:"done_ns"`
	Events  uint64 `json:"events"`
}

// Window is one recorded lookahead window.
type Window struct {
	Seq       uint64         `json:"seq"`
	BoundAtNs int64          `json:"bound_at_ns"` // virtual window edge
	Global    bool           `json:"global,omitempty"`
	StartNs   int64          `json:"start_ns"` // wall, offset from run start
	EndNs     int64          `json:"end_ns"`
	BarrierNs int64          `json:"barrier_ns"`
	Domains   []WindowDomain `json:"domains"`
	Flows     []uint64       `json:"flows,omitempty"` // src*domains+dst deltas
}

// Profile is one run's complete hydraprof output.
type Profile struct {
	ProfVersion int    `json:"prof_version"`
	Scenario    string `json:"scenario,omitempty"`
	Seed        int64  `json:"seed"`
	Domains     int    `json:"domains"`
	Workers     int    `json:"workers"`
	LookaheadNs int64  `json:"lookahead_ns,omitempty"`

	VirtualNs int64  `json:"virtual_ns"` // virtual time covered
	WallNs    int64  `json:"wall_ns"`    // wall time covered (not gated)
	Events    uint64 `json:"events"`     // events fired while attached
	Handoffs  uint64 `json:"handoffs"`
	MergeTies uint64 `json:"merge_ties"`

	CriticalPath CriticalPath `json:"critical_path"`

	// Parallel-only sections (absent for a serial run).
	DomainTotals   []DomainTotal `json:"domain_totals,omitempty"`
	HandoffMatrix  []uint64      `json:"handoff_matrix,omitempty"` // src*domains+dst
	WindowsRun     uint64        `json:"windows_run"`
	WindowsKept    int           `json:"windows_kept"`
	WindowsDropped uint64        `json:"windows_dropped"`
	Barriers       uint64        `json:"barriers"`
	BarrierNs      int64         `json:"barrier_ns"`
	WindowWallNs   int64         `json:"window_wall_ns"`
	Windows        []Window      `json:"windows,omitempty"`
}

// IdealSpeedup is the critical-path bound: with unit event cost, events /
// depth is the best any schedule can do. 1 when nothing fired.
func (p *Profile) IdealSpeedup() float64 {
	if p.CriticalPath.Depth == 0 || p.Events == 0 {
		return 1
	}
	return float64(p.Events) / float64(p.CriticalPath.Depth)
}

// BalanceSpeedup is the partition-balance bound: total events over the
// busiest domain's events. 1 when serial or empty.
func (p *Profile) BalanceSpeedup() float64 {
	var max uint64
	for i := range p.DomainTotals {
		if e := p.DomainTotals[i].Events; e > max {
			max = e
		}
	}
	if max == 0 {
		return 1
	}
	var total uint64
	for i := range p.DomainTotals {
		total += p.DomainTotals[i].Events
	}
	return float64(total) / float64(max)
}

// MeasuredParallelism is the achieved concurrency: summed per-domain
// execute time over the wall extent of the windows it was spent in. Wall
// derived — never gate it. 1 for serial runs or runs with no windows.
func (p *Profile) MeasuredParallelism() float64 {
	if p.WindowWallNs <= 0 {
		return 1
	}
	var exec int64
	for i := range p.DomainTotals {
		exec += p.DomainTotals[i].ExecNs
	}
	if exec <= 0 {
		return 1
	}
	return float64(exec) / float64(p.WindowWallNs)
}

// RecommendedWorkers is the smallest worker count that can realize the
// run's speedup bounds: the ideal (critical-path) and balance bounds both
// cap what more workers could add, and the domain count caps parallelism
// structurally.
func (p *Profile) RecommendedWorkers() int {
	bound := p.IdealSpeedup()
	if b := p.BalanceSpeedup(); b < bound {
		bound = b
	}
	w := int(bound + 0.5)
	if w < 1 {
		w = 1
	}
	if p.Domains > 1 && w > p.Domains {
		w = p.Domains
	}
	return w
}

// Write serializes p as indented JSON.
func Write(w io.Writer, p *Profile) error {
	b, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteFile writes p to path.
func WriteFile(path string, p *Profile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = Write(f, p)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("prof: write %s: %w", path, err)
	}
	return nil
}

// Load parses a profile, rejecting non-profile JSON and future versions.
func Load(r io.Reader) (*Profile, error) {
	var p Profile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("prof: parse: %w", err)
	}
	if p.ProfVersion == 0 {
		return nil, fmt.Errorf("prof: not a hydraprof profile (no prof_version)")
	}
	if p.ProfVersion > FormatVersion {
		return nil, fmt.Errorf("prof: profile version %d newer than supported %d", p.ProfVersion, FormatVersion)
	}
	return &p, nil
}

// LoadFile loads a profile from path.
func LoadFile(path string) (*Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("prof: %s: %w", path, err)
	}
	return p, nil
}
