package testbed

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/scope"
)

// TestInstrumentsArtifacts: every artifact the testbed's runs write parses
// with the repo's own readers, and recording changes no measured result.
func TestInstrumentsArtifacts(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(hydranet.Instruments) any
	}{
		{"figure4", func(in hydranet.Instruments) any {
			res, info := RunMeasured(Config{
				Case: CasePrimaryBackup, BufLen: 1024, TotalBytes: 64 * 1024, Seed: 1,
				Instruments: in,
			})
			// Not Events or Wall: sampler ticks are scheduler events, and wall
			// time is the host's.
			return []any{res, info.Frames, info.Violations}
		}},
		{"failover", func(in hydranet.Instruments) any {
			return MeasureFailover(FailoverConfig{Threshold: 3, Seed: 1, Instruments: in})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), tc.name)
			in := hydranet.Instruments{
				Pcap:        p + ".pcap",
				Flight:      p + "-flight",
				Spans:       p + ".spans.json",
				Series:      p + ".jsonl",
				SampleEvery: 50 * time.Millisecond,
				Profile:     p + ".prof.json",
				Audit:       p + ".audit.json",
			}
			if got, want := tc.run(in), tc.run(hydranet.Instruments{}); !reflect.DeepEqual(got, want) {
				t.Errorf("instrumented %+v, plain %+v", got, want)
			}

			for _, path := range []string{in.Pcap, in.Flight + ".pcap"} {
				f, err := hydranet.ReadPcapFile(path)
				if err != nil {
					t.Errorf("%s: %v", path, err)
				} else if len(f.Records) == 0 {
					t.Errorf("%s: no records", path)
				}
			}
			var dump map[string]any
			if data, err := os.ReadFile(in.Flight + ".json"); err != nil {
				t.Error(err)
			} else if err := json.Unmarshal(data, &dump); err != nil {
				t.Errorf("%s.json: %v", in.Flight, err)
			}
			if _, err := scope.LoadSpanFile(in.Spans); err != nil {
				t.Error(err)
			}
			if run, err := scope.LoadRunFile(in.Series); err != nil {
				t.Error(err)
			} else if run.Get("spans.ack_chain_lag_samples") == nil || run.Meta.Every != in.SampleEvery {
				t.Errorf("%s: series %v at cadence %v", in.Series, strings.Join(run.Names(), ","), run.Meta.Every)
			}
			if p, err := scope.LoadProfFile(in.Profile); err != nil {
				t.Error(err)
			} else if p.Events == 0 {
				t.Errorf("%s: profile covers no events", in.Profile)
			}
			if r, err := scope.LoadAuditFile(in.Audit); err != nil {
				t.Error(err)
			} else if !r.Clean {
				t.Errorf("%s: audit not clean: %d violations", in.Audit, r.TotalViolations())
			}
		})
	}
}
