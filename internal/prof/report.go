package prof

import (
	"fmt"
	"io"
	"time"
)

// Report renders the human-readable profile: run summary, critical-path
// bounds next to the measured parallelism, the per-domain utilization and
// stall-attribution table, the hand-off volume matrix, and the recommended
// worker count. This is what `hydrascope profile` prints.
func Report(w io.Writer, p *Profile) error {
	bw := &errWriter{w: w}
	bw.printf("hydraprof profile")
	if p.Scenario != "" {
		bw.printf(": %s", p.Scenario)
	}
	bw.printf("\n")
	bw.printf("  domains %d  workers %d  seed %d", p.Domains, p.Workers, p.Seed)
	if p.LookaheadNs > 0 {
		bw.printf("  lookahead %v", time.Duration(p.LookaheadNs))
	}
	bw.printf("\n")
	bw.printf("  virtual %-12v wall %-12v events %d\n",
		time.Duration(p.VirtualNs), time.Duration(p.WallNs), p.Events)
	if p.WallNs > 0 {
		bw.printf("  throughput %.0f events/sec (wall)\n",
			float64(p.Events)/(float64(p.WallNs)/1e9))
	}
	bw.printf("  handoffs %d  merge ties %d\n", p.Handoffs, p.MergeTies)

	cp := &p.CriticalPath
	bw.printf("\ncritical path\n")
	bw.printf("  depth %d of %d events  (deepest at %v)\n",
		cp.Depth, p.Events, time.Duration(cp.DeepestAtNs))
	bw.printf("  ideal speedup   %6.2fx  (events / critical-path depth)\n", p.IdealSpeedup())
	bw.printf("  balance bound   %6.2fx  (events / busiest domain)\n", p.BalanceSpeedup())
	bw.printf("  measured        %6.2fx  (Σ domain exec / window wall)\n", p.MeasuredParallelism())
	if cp.EdgesSeen > 0 {
		bw.printf("  edge samples    %d of %d (every %d)\n",
			cp.EdgesRecorded, cp.EdgesSeen, cp.SampleEvery)
	}

	if len(p.DomainTotals) > 0 {
		bw.printf("\nper-domain utilization (%d windows", p.WindowsRun)
		if p.WindowsDropped > 0 {
			bw.printf(", oldest %d evicted from the ring", p.WindowsDropped)
		}
		bw.printf(")\n")
		bw.printf("  %-6s %10s %9s %10s %10s %6s %6s\n",
			"domain", "events", "ev/win", "exec", "stall", "util%", "stall%")
		for i := range p.DomainTotals {
			d := &p.DomainTotals[i]
			span := d.ExecNs + d.StallNs
			util, stall := 0.0, 0.0
			if span > 0 {
				util = 100 * float64(d.ExecNs) / float64(span)
				stall = 100 * float64(d.StallNs) / float64(span)
			}
			perWin := 0.0
			if p.WindowsRun > 0 {
				perWin = float64(d.Events) / float64(p.WindowsRun)
			}
			bw.printf("  %-6d %10d %9.1f %10v %10v %6.1f %6.1f\n",
				d.Domain, d.Events, perWin,
				time.Duration(d.ExecNs).Round(time.Microsecond),
				time.Duration(d.StallNs).Round(time.Microsecond),
				util, stall)
		}
		bw.printf("  coordinator barriers: %d taking %v total\n",
			p.Barriers, time.Duration(p.BarrierNs).Round(time.Microsecond))
	}

	if len(p.HandoffMatrix) == p.Domains*p.Domains && p.Domains > 1 && p.Domains <= 16 {
		bw.printf("\nhand-off volume (frames, src row → dst column)\n")
		bw.printf("  %6s", "")
		for d := 0; d < p.Domains; d++ {
			bw.printf(" %8d", d)
		}
		bw.printf("\n")
		for s := 0; s < p.Domains; s++ {
			bw.printf("  %6d", s)
			for d := 0; d < p.Domains; d++ {
				bw.printf(" %8d", p.HandoffMatrix[s*p.Domains+d])
			}
			bw.printf("\n")
		}
	}

	bw.printf("\nrecommended -workers %d", p.RecommendedWorkers())
	if p.Domains <= 1 {
		bw.printf("  (serial run: bounds come from the causal chain only)")
	}
	bw.printf("\n")
	return bw.err
}

// errWriter folds fmt errors so Report reads linearly.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
