package testbed

import (
	"reflect"
	"testing"

	"hydranet/internal/sweep"
	"hydranet/internal/ttcp"
)

// TestParallelSweepMatchesSerial: fanning runs across workers changes which
// host thread executes a simulation, never its result. Every run owns a
// private scheduler, network and frame pool, so serial and parallel sweeps
// must agree field for field. Run under -race this also proves the workers
// share no simulator state.
func TestParallelSweepMatchesSerial(t *testing.T) {
	var cfgs []Config
	for _, c := range Figure4Cases {
		for seed := int64(1); seed <= 2; seed++ {
			cfgs = append(cfgs, Config{
				Case: c, BufLen: 512, TotalBytes: 64 * 1024, Seed: seed,
			})
		}
	}
	run := func(i int) ttcp.Result { return Run(cfgs[i]) }
	serial := sweep.Map(1, len(cfgs), run)
	parallel := sweep.Map(4, len(cfgs), run)
	for i := range cfgs {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("cfg %+v: serial %+v != parallel %+v", cfgs[i], serial[i], parallel[i])
		}
	}
}

// TestWorkersInvariantResult: partitioning one testbed run across worker
// threads (in-simulation parallelism, as opposed to the sweep's
// across-simulation parallelism above) must not change the measured result.
func TestWorkersInvariantResult(t *testing.T) {
	cfg := Config{Case: CasePrimaryBackup, BufLen: 512, TotalBytes: 128 * 1024, Seed: 3}
	serial := Run(cfg)
	cfg.Workers = 4
	parallel := Run(cfg)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("serial %+v != 4-worker %+v", serial, parallel)
	}
}

// TestRunScaleInvariantAcrossWorkers: the scaling workload's simulation
// observables — aggregate throughput and events fired — are identical for
// every worker count; only wall-clock time may differ. The 8-pod, 2-worker
// case is the one ttcpbench -scale runs: several pods then share a worker,
// and under -race it proves the pods' completion callbacks share nothing.
func TestRunScaleInvariantAcrossWorkers(t *testing.T) {
	for _, tc := range []struct{ pods, workers int }{{3, 4}, {8, 2}} {
		cfg := ScaleConfig{Pods: tc.pods, TotalBytes: 64 * 1024, Seed: 5}
		serial := RunScale(cfg)
		cfg.Workers = tc.workers
		parallel := RunScale(cfg)
		if serial.AggKBps != parallel.AggKBps {
			t.Errorf("%+v: aggregate throughput: serial %.3f, parallel %.3f", tc, serial.AggKBps, parallel.AggKBps)
		}
		if serial.Events != parallel.Events {
			t.Errorf("%+v: events fired: serial %d, parallel %d", tc, serial.Events, parallel.Events)
		}
		if parallel.Domains != cfg.Pods {
			t.Errorf("%+v: partitioned into %d domains, want one per pod (%d)", tc, parallel.Domains, cfg.Pods)
		}
		if parallel.MergeTies != 0 {
			t.Errorf("%+v: %d merge ties, want 0", tc, parallel.MergeTies)
		}
	}
}
