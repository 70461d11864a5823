package hydranet

import (
	"sort"
	"time"

	"hydranet/internal/prof"
	"hydranet/internal/sim"
)

// hydraprof facade: Net.StartProfile attaches the sim-layer collectors
// (per-scheduler causal critical-path profiling, per-window group
// accounting) and assembles their state into a prof.Profile for
// `hydrascope profile`, the Perfetto trace export and CI diffing.
//
// Attaching a profiler changes no simulation observable: pcap, series and
// event counts stay byte-identical (pinned by TestProfileKeepsOutputsIdentical),
// and a detached net pays nothing (TestProfZeroCostWhenDetached).

// ProfileConfig configures Net.StartProfile. The zero value is sensible.
type ProfileConfig struct {
	// Scenario labels the profile (free text, e.g. "figure4 ft-1024").
	Scenario string
	// EdgeRing is the per-domain sampled-edge ring capacity (default 256).
	EdgeRing int
	// EdgeEvery samples every Nth scheduling edge (default 64).
	EdgeEvery int
	// WindowRing is how many window records to retain (default 4096).
	WindowRing int
}

// Profiler is an attached hydraprof session. Snapshot/WriteFile may be
// called repeatedly from coordinator context (between runs); Stop detaches
// the collectors, after which the last collected state remains readable.
type Profiler struct {
	net     *Net
	cfg     ProfileConfig
	sprofs  []*sim.SchedProf
	gprof   *sim.GroupProf // nil for a serial net
	start   time.Time
	events0 uint64 // events fired before attach
	stopped bool
}

// StartProfile attaches the profiler. Call from coordinator context —
// after SetWorkers (profiling wraps the partition's schedulers, so
// partitioning after StartProfile is rejected) and at any point setup code
// runs, typically right before the measured traffic. The causal depth
// baseline resets at attach, so serial and partitioned runs of the same
// scenario report the same critical path (see DESIGN.md §11 for the one
// exception: barrier-hosted samplers).
func (n *Net) StartProfile(cfg ProfileConfig) *Profiler {
	if cfg.EdgeRing <= 0 {
		cfg.EdgeRing = 256
	}
	if cfg.EdgeEvery <= 0 {
		cfg.EdgeEvery = 64
	}
	if cfg.WindowRing <= 0 {
		cfg.WindowRing = 4096
	}
	if n.profiler != nil {
		n.profiler.Stop()
	}
	p := &Profiler{net: n, cfg: cfg, events0: n.EventsFired()}
	if n.par != nil {
		p.sprofs = make([]*sim.SchedProf, len(n.par.scheds))
		for i, s := range n.par.scheds {
			p.sprofs[i] = sim.NewSchedProf(cfg.EdgeRing, cfg.EdgeEvery)
			s.EnableProfile(p.sprofs[i])
		}
		p.gprof = sim.NewGroupProf(len(n.par.scheds), cfg.WindowRing)
		p.gprof.SetFlowSampler(func(dst []uint64) { n.fab.HandoffMatrix(dst) })
		n.par.group.EnableProfile(p.gprof)
	} else {
		sp := sim.NewSchedProf(cfg.EdgeRing, cfg.EdgeEvery)
		n.sched.EnableProfile(sp)
		p.sprofs = []*sim.SchedProf{sp}
	}
	n.profiler = p
	//hydralint:nondeterministic wall-clock profiling baseline: reported, never fed back into the simulation
	p.start = time.Now()
	return p
}

// Stop detaches the collectors, restoring the zero-cost hot paths. The
// profiler's collected state stays readable via Snapshot/WriteFile.
func (p *Profiler) Stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	n := p.net
	if n.par != nil && p.gprof != nil {
		for _, s := range n.par.scheds {
			s.EnableProfile(nil)
		}
		n.par.group.EnableProfile(nil)
	} else {
		n.sched.EnableProfile(nil)
	}
	if n.profiler == p {
		n.profiler = nil
	}
}

// Snapshot assembles the profile collected so far. Coordinator context only
// (between runs): it reads per-domain state with no workers running.
func (p *Profiler) Snapshot() *prof.Profile {
	n := p.net
	domains, workers := n.Parallel()
	out := &prof.Profile{
		ProfVersion: prof.FormatVersion,
		Scenario:    p.cfg.Scenario,
		Seed:        n.cfg.Seed,
		Domains:     domains,
		Workers:     workers,
		VirtualNs:   int64(n.Now()),
		Events:      n.EventsFired() - p.events0,
		Handoffs:    n.Handoffs(),
		MergeTies:   n.MergeTies(),
	}
	//hydralint:nondeterministic wall-clock profiling measurement: reported, never fed back into the simulation
	out.WallNs = time.Now().Sub(p.start).Nanoseconds()

	// Critical path: hand-offs carry depth across domains, so the global
	// longest chain is the max over per-domain maxima.
	cp := &out.CriticalPath
	var edges []sim.ProfEdge
	for _, sp := range p.sprofs {
		if d := sp.MaxDepth(); d > cp.Depth {
			cp.Depth = d
			cp.DeepestAtNs = int64(sp.DeepestAt())
		}
		cp.SampleEvery = sp.SampleEvery()
		cp.EdgesSeen += sp.EdgesSeen()
		cp.EdgesRecorded += sp.EdgesRecorded()
		edges = sp.Edges(edges)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].ChildAt != edges[j].ChildAt {
			return edges[i].ChildAt < edges[j].ChildAt
		}
		return edges[i].ChildBirth < edges[j].ChildBirth
	})
	const maxEdges = 1024
	if len(edges) > maxEdges {
		edges = edges[len(edges)-maxEdges:]
	}
	for _, e := range edges {
		cp.Edges = append(cp.Edges, prof.Edge{
			ParentAtNs:    int64(e.ParentAt),
			ParentBirthNs: int64(e.ParentBirth),
			ChildAtNs:     int64(e.ChildAt),
			ChildBirthNs:  int64(e.ChildBirth),
			Depth:         e.Depth,
		})
	}

	if gp := p.gprof; gp != nil {
		out.LookaheadNs = int64(n.par.group.Lookahead())
		totals := gp.Totals(nil)
		for i, t := range totals {
			out.DomainTotals = append(out.DomainTotals, prof.DomainTotal{
				Domain:  i,
				ExecNs:  t.ExecNs,
				StallNs: t.StallNs,
				Events:  t.Events,
			})
		}
		out.HandoffMatrix = make([]uint64, domains*domains)
		n.fab.HandoffMatrix(out.HandoffMatrix)
		out.WindowsRun = gp.WindowsRun()
		out.WindowsDropped = gp.WindowsDropped()
		out.Barriers = gp.Barriers()
		out.BarrierNs = gp.BarrierNs()
		out.WindowWallNs = gp.WindowWallNs()
		gp.ForEachWindow(func(w *sim.ProfWindow) {
			win := prof.Window{
				Seq:       w.Seq,
				BoundAtNs: int64(w.BoundAt),
				Global:    w.Global,
				StartNs:   w.StartNs,
				EndNs:     w.EndNs,
				BarrierNs: w.BarrierNs,
				Domains:   make([]prof.WindowDomain, len(w.Domains)),
				Flows:     append([]uint64(nil), w.Flows...),
			}
			for d, wd := range w.Domains {
				win.Domains[d] = prof.WindowDomain{
					ExecNs:  wd.ExecNs,
					StallNs: wd.StallNs,
					DoneNs:  wd.DoneNs,
					Events:  wd.Events,
				}
			}
			out.Windows = append(out.Windows, win)
		})
		out.WindowsKept = len(out.Windows)
	}
	return out
}

// WriteFile snapshots the profile and writes it as hydraprof JSON.
func (p *Profiler) WriteFile(path string) error {
	return prof.WriteFile(path, p.Snapshot())
}
