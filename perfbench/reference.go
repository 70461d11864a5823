package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"

	"hydranet/internal/scope"
)

// failoverRefJSON holds the failover workload's model outputs at simSeed.
// Regenerate it with `go test -run TestFailoverReference -update` from this
// directory.
//
//go:embed failover_ref.json
var failoverRefJSON []byte

type failoverRefFile struct {
	Description string        `json:"description"`
	Seed        int64         `json:"seed"`
	Runs        []failoverRef `json:"runs"`
}

type failoverRef struct {
	Threshold int     `json:"threshold"`
	Loss      float64 `json:"loss"`
	outcome
}

// references holds the expected model output of every simulation.
type references struct {
	fig4     map[string]outcome // by Figure-4 label
	pods     outcome
	failover map[string]outcome // by failover label
}

func fig4Label(c fmt.Stringer, bufLen int) string {
	return fmt.Sprintf("%s buf=%d", c, bufLen)
}

func failoverLabel(threshold int, loss float64) string {
	return fmt.Sprintf("failover threshold=%d loss=%g", threshold, loss)
}

// loadReferences reads BENCH_core.json and BENCH_scale.json from the
// repository root and the embedded failover reference.
func loadReferences(root string) (*references, error) {
	refs := &references{fig4: map[string]outcome{}, failover: map[string]outcome{}}
	core, err := scope.LoadBenchFile(filepath.Join(root, "BENCH_core.json"))
	if err != nil {
		return nil, err
	}
	if core.TotalBytes != transferBytes || core.Seed != simSeed {
		return nil, fmt.Errorf("BENCH_core.json: total_bytes %d seed %d, want %d and %d",
			core.TotalBytes, core.Seed, transferBytes, simSeed)
	}
	for _, e := range core.Entries {
		refs.fig4[fmt.Sprintf("%s buf=%d", e.Case, e.BufLen)] = outcome{KBps: e.ThroughputKBps, Frames: e.Frames}
	}

	scale, err := scope.LoadBenchFile(filepath.Join(root, "BENCH_scale.json"))
	if err != nil {
		return nil, err
	}
	if scale.Seed != simSeed {
		return nil, fmt.Errorf("BENCH_scale.json: seed %d, want %d", scale.Seed, simSeed)
	}
	want := fmt.Sprintf("scale pods=%d workers=%d", podCount, podWorkers)
	found := false
	for _, e := range scale.Entries {
		if e.Case == want && e.BufLen == 1024 && scale.TotalBytes == transferBytes {
			refs.pods = outcome{KBps: e.ThroughputKBps, Frames: e.Frames}
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("BENCH_scale.json: no %q row with 1024-byte writes and %d bytes", want, transferBytes)
	}

	var fo failoverRefFile
	if err := json.Unmarshal(failoverRefJSON, &fo); err != nil {
		return nil, fmt.Errorf("failover_ref.json: %w", err)
	}
	if fo.Seed != simSeed {
		return nil, fmt.Errorf("failover_ref.json: seed %d, want %d", fo.Seed, simSeed)
	}
	for _, r := range fo.Runs {
		refs.failover[failoverLabel(r.Threshold, r.Loss)] = r.outcome
	}
	return refs, nil
}

// check compares a simulation's model output with its reference. Throughput
// is a float sum; it may differ from the recorded value in the last bits
// when summed in another order, never more.
func check(want, got outcome) error {
	if math.Abs(got.KBps-want.KBps) > 1e-9*math.Abs(want.KBps) {
		return fmt.Errorf("throughput %v kB/s, reference %v", got.KBps, want.KBps)
	}
	got.KBps = want.KBps
	if got != want {
		return fmt.Errorf("model output %+v, reference %+v", got, want)
	}
	return nil
}
