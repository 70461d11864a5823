// Command perfbench is HydraNet-FT's benchmark. It runs one workload — a
// fixed batch of simulations, run back to back and repeated until the
// measuring time is up — and prints its metrics as one JSON line:
//
//	go run . -root .. --workload fig4-ft --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (host speed, CPU,
// allocations and memory per simulated frame, and set-up time) with no
// instrumentation attached. With --trace 1 it reports the per-layer metrics
// from a traced run that wraps every node's stack with span timers.
// --list prints every metric with its unit and predicted effect.
//
// Every simulation's model outputs are checked against a reference:
// BENCH_core.json for Figure 4, BENCH_scale.json for the pods, and the
// embedded failover_ref.json for failover.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"time"

	"hydranet/internal/testbed"
)

// simSpec is one member of a workload's batch.
type simSpec struct {
	label string
	build func(simOpts) (*simulation, error)
	ref   func(r *references) (outcome, bool)
}

type workload struct {
	name, why string
	monitor   bool // attach the invariant monitor in every simulation
	specs     func() []simSpec
}

var workloads = []workload{
	{name: "fig4-plain",
		why: "Figure-4 clean-kernel and no-redirection cases, 16-1024 B writes: per-packet cost of sim, netsim, ipv4 and tcp with redirector and ft-TCP idle",
		specs: func() []simSpec {
			return figure4Specs(testbed.CaseClean, testbed.CaseNoRedirection)
		}},
	{name: "fig4-ft",
		why: "Figure-4 primary-only and primary+backup cases, 16-1024 B writes: redirector encap and multicast, IPIP decap, ack-chain messages, deposit gating",
		specs: func() []simSpec {
			return figure4Specs(testbed.CasePrimaryOnly, testbed.CasePrimaryBackup)
		}},
	{name: "failover", monitor: true,
		why:   "A1 sweep, thresholds 1-8, 0 and 1% loss, monitor attached: RTO timers, detector, rmp reconfiguration, promotion, long idle virtual spans",
		specs: failoverSpecs},
	{name: "pods",
		why:   "8 FT pods on a backbone ring on 2 worker threads: the only workload on the parallel core (sim.Group windows, netsim domains); largest heap",
		specs: podsSpecs},
}

// simSeed is the simulation seed of every simulation: the seed of
// BENCH_core.json, BENCH_scale.json and failover_ref.json. Only the failover
// workload's lossy links draw on it.
const simSeed = 1

func figure4Specs(cases ...testbed.Case) []simSpec {
	var out []simSpec
	for _, c := range cases {
		for _, size := range testbed.Figure4Sizes {
			label := fig4Label(c, size)
			out = append(out, simSpec{
				label: label,
				build: func(o simOpts) (*simulation, error) { return buildFigure4(c, size, o) },
				ref: func(r *references) (outcome, bool) {
					o, ok := r.fig4[label]
					return o, ok
				},
			})
		}
	}
	return out
}

// failoverThresholds and failoverLosses span the A1 sweep.
var (
	failoverThresholds = []int{1, 2, 3, 4, 6, 8}
	failoverLosses     = []float64{0, 0.01}
)

func failoverSpecs() []simSpec {
	var out []simSpec
	for _, loss := range failoverLosses {
		for _, th := range failoverThresholds {
			label := failoverLabel(th, loss)
			out = append(out, simSpec{
				label: label,
				build: func(o simOpts) (*simulation, error) { return buildFailover(th, loss, o) },
				ref: func(r *references) (outcome, bool) {
					o, ok := r.failover[label]
					return o, ok
				},
			})
		}
	}
	return out
}

func podsSpecs() []simSpec {
	return []simSpec{{
		label: fmt.Sprintf("scale pods=%d workers=%d", podCount, podWorkers),
		build: buildPods,
		ref:   func(r *references) (outcome, bool) { return r.pods, true },
	}}
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", "workload to run (see -list)")
	seed := flag.Int64("seed", 1, "workload seed: picks the order the batch's simulations run in")
	seconds := flag.Float64("seconds", 10, "host seconds to measure for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	root := flag.String("root", ".", "repository root holding BENCH_core.json and BENCH_scale.json")
	list := flag.Bool("list", false, "print every metric and workload, then exit")
	flag.Parse()

	if *list {
		if err := printCatalog(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (see -list)\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	refs, err := loadReferences(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r := newRunner(wl, refs, *seed)
	budget := time.Duration(*seconds * float64(time.Second))
	var metrics map[string]float64
	if *trace == 1 {
		metrics = r.traced(budget)
	} else {
		metrics = r.endToEnd(budget)
	}
	return r.report(os.Stdout, *trace == 1, metrics)
}

// runner runs one workload's batch and keeps the pass/fail tally.
type runner struct {
	wl        workload
	refs      *references
	specs     []simSpec   // batch order, shuffled by the seed
	mem       *memSampler // samples peak memory while end-to-end passes run
	attempted int
	failed    int
}

func newRunner(wl workload, refs *references, seed int64) *runner {
	specs := wl.specs()
	rand.New(rand.NewSource(seed)).Shuffle(len(specs), func(i, j int) {
		specs[i], specs[j] = specs[j], specs[i]
	})
	return &runner{wl: wl, refs: refs, specs: specs}
}

func (r *runner) fail(label string, err error) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: %s: %v\n", r.wl.name, label, err)
}

// report prints a human summary and, as the last line, the result object.
func (r *runner) report(w io.Writer, traced bool, values map[string]float64) int {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metric{}}
	fmt.Fprintf(w, "workload %s: %d simulations, %d failed, fail_ratio %.4g\n",
		r.wl.name, r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s not measured\n", d.name)
			return 1
		}
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	return 0
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
