package scope

import (
	"encoding/json"
	"fmt"
	"os"

	"hydranet/internal/prof"
)

// hydraprof profile diffing. Profiles mix two kinds of fields (see
// internal/prof): deterministic facts of the scenario and partition — event
// counts, critical-path depth, hand-off counts, window counts, virtual
// times — which gate at the exact tolerance tol, and wall-clock-derived
// fractions (per-domain utilization and stall shares), which gate only at
// the looser absolute tolerance stallTol, or not at all when stallTol is 0.

// LoadProfFile loads a hydraprof profile.
func LoadProfFile(path string) (*prof.Profile, error) {
	return prof.LoadFile(path)
}

// IsProfFile sniffs whether path holds a hydraprof profile (an object with
// a prof_version field) rather than a bench file or series export.
func IsProfFile(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	var probe struct {
		ProfVersion int `json:"prof_version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return false
	}
	return probe.ProfVersion > 0
}

// domainFractions returns each domain's utilization and stall share of its
// window span (exec+stall). Wall-derived; compare with an absolute
// tolerance only.
func domainFractions(d *prof.DomainTotal) (util, stall float64) {
	span := d.ExecNs + d.StallNs
	if span <= 0 {
		return 0, 0
	}
	return float64(d.ExecNs) / float64(span), float64(d.StallNs) / float64(span)
}

// DiffProf compares two profiles. Deterministic fields gate at relative
// tolerance tol; wall-derived utilization/stall fractions gate at absolute
// tolerance stallTol (0 disables the wall-derived checks entirely).
// Mismatched run parameters (domains, workers, seed) are findings: the
// comparison would be meaningless.
func DiffProf(a, b *prof.Profile, tol, stallTol float64) []Finding {
	var out []Finding
	if a.Domains != b.Domains || a.Workers != b.Workers || a.Seed != b.Seed {
		out = append(out, Finding{Series: "profile", Field: "params",
			Note: fmt.Sprintf("run parameters differ: domains=%d/%d workers=%d/%d seed=%d/%d",
				a.Domains, b.Domains, a.Workers, b.Workers, a.Seed, b.Seed)})
		return out
	}
	check := func(name, field string, av, bv float64) {
		if rel := relDiff(av, bv); rel > tol {
			out = append(out, Finding{Series: name, Field: field, A: av, B: bv, Rel: rel})
		}
	}
	check("profile", "events", float64(a.Events), float64(b.Events))
	check("profile", "virtual_ns", float64(a.VirtualNs), float64(b.VirtualNs))
	check("profile", "handoffs", float64(a.Handoffs), float64(b.Handoffs))
	check("profile", "merge_ties", float64(a.MergeTies), float64(b.MergeTies))
	check("profile", "cp_depth", float64(a.CriticalPath.Depth), float64(b.CriticalPath.Depth))
	check("profile", "windows_run", float64(a.WindowsRun), float64(b.WindowsRun))
	check("profile", "barriers", float64(a.Barriers), float64(b.Barriers))

	if len(a.DomainTotals) != len(b.DomainTotals) {
		out = append(out, Finding{Series: "profile", Field: "domain_totals",
			Note: fmt.Sprintf("%d domain rows in run A, %d in run B",
				len(a.DomainTotals), len(b.DomainTotals))})
	} else {
		for i := range a.DomainTotals {
			da, db := &a.DomainTotals[i], &b.DomainTotals[i]
			label := fmt.Sprintf("domain %d", da.Domain)
			check(label, "events", float64(da.Events), float64(db.Events))
			if stallTol > 0 {
				ua, sa := domainFractions(da)
				ub, sb := domainFractions(db)
				abs := func(field string, av, bv float64) {
					d := av - bv
					if d < 0 {
						d = -d
					}
					if d > stallTol {
						out = append(out, Finding{Series: label, Field: field, A: av, B: bv, Rel: relDiff(av, bv)})
					}
				}
				abs("util", ua, ub)
				abs("stall", sa, sb)
			}
		}
	}

	switch {
	case len(a.HandoffMatrix) != len(b.HandoffMatrix):
		out = append(out, Finding{Series: "profile", Field: "handoff_matrix",
			Note: fmt.Sprintf("matrix sizes differ: %d vs %d",
				len(a.HandoffMatrix), len(b.HandoffMatrix))})
	case len(a.HandoffMatrix) == a.Domains*a.Domains:
		for i := range a.HandoffMatrix {
			if av, bv := a.HandoffMatrix[i], b.HandoffMatrix[i]; relDiff(float64(av), float64(bv)) > tol {
				out = append(out, Finding{
					Series: fmt.Sprintf("handoff %d->%d", i/a.Domains, i%a.Domains),
					Field:  "frames", A: float64(av), B: float64(bv),
					Rel: relDiff(float64(av), float64(bv)),
				})
			}
		}
	}
	return out
}
