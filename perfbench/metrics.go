package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// metricDef is one metric the benchmark reports. BENCHMARK.json at the
// repository root lists the same names, units and directions
// (TestCatalogMatchesBenchmarkJSON). note says what an end-to-end metric
// means; for a per-layer metric it records, before any change is measured,
// which end-to-end metric the number should move and on which workload.
type metricDef struct {
	name, unit, better string
	layer              string
	note               string
}

// endToEnd are the metrics a user running reproduction sweeps sees: host
// time, CPU, allocation and memory per simulated frame, and set-up time.
// They are measured with tracing off; host times are calibrated (see
// calibrate.go).
var endToEnd = []metricDef{
	{"frames_per_s", "frames/s", "higher", "end to end",
		"simulated fabric frames per calibrated host second over the timed phase; a pure speed change cannot change the frame count"},
	{"cpu_ns_per_frame", "ns", "lower", "end to end",
		"process user+sys CPU per frame; exposes work moved onto GC or worker threads"},
	{"allocs_per_frame", "objects", "lower", "end to end",
		"heap objects allocated per frame (/gc/heap/allocs:objects)"},
	{"max_rss_mb", "MiB", "lower", "end to end",
		"peak memory the Go runtime holds from the OS (mapped minus released, sampled every ms) during a simulation; the batch's largest, median over passes"},
	{"setup_s", "s", "lower", "end to end",
		"host time summed over the batch's simulations from hydranet.New through Settle; excluded from the timed phase"},
}

// perLayer come from the traced run. Counts are per pass of the batch,
// which every pass repeats exactly; span times are per call over every
// traced pass.
var perLayer = []metricDef{
	{"sim.events", "count", "lower", "sim", "frames_per_s, cpu_ns_per_frame most on fig4-plain"},
	{"sim.events_per_frame", "events/frame", "lower", "sim", "frames_per_s, cpu_ns_per_frame most on fig4-plain"},
	{"sim.pending_mean", "events", "lower", "sim", "heap depth sampled at frame arrival; its effect shows on pods"},
	{"sim.loop_ns_per_event", "ns", "lower", "sim", "frames_per_s, cpu_ns_per_frame most on fig4-plain (timed wall minus stack spans, per event)"},
	{"sim.group.windows", "count", "lower", "sim.Group", "frames_per_s, cpu_ns_per_frame on pods only; serial workloads read 0"},
	{"sim.group.events_per_window", "events/window", "higher", "sim.Group", "frames_per_s on pods only; serial workloads read 0"},
	{"sim.group.stall_share", "ratio", "lower", "sim.Group", "frames_per_s, cpu_ns_per_frame on pods only; serial workloads read 0"},
	{"netsim.handoffs", "count", "lower", "netsim", "pods only; a model count that stays identical"},
	{"netsim.frames", "count", "lower", "netsim", "model count; stays identical on every workload"},
	{"netsim.queue_drops", "count", "lower", "netsim", "model count; stays identical on every workload"},
	{"netsim.lost", "count", "lower", "netsim", "model count; stays identical on every workload"},
	{"frame.pool_miss_ratio", "ratio", "lower", "frame", "allocs_per_frame on all workloads"},
	{"ipv4.delivered", "count", "lower", "ipv4", "model count; stays identical"},
	{"ipv4.forwarded", "count", "lower", "ipv4", "model count; stays identical"},
	{"ipv4.self_ns_per_frame", "ns", "lower", "ipv4", "frames_per_s, allocs_per_frame most on fig4-plain (HandleFrame minus protocol spans, non-redirector nodes)"},
	{"ipv4.parse_ns", "ns", "lower", "ipv4", "frames_per_s most on fig4-plain (ipv4.Unmarshal replayed over captured frames)"},
	{"ipv4.parse_allocs", "objects", "lower", "ipv4", "allocs_per_frame on all workloads"},
	{"tcp.segs_out", "count", "lower", "tcp", "model count; stays identical"},
	{"tcp.retransmits", "count", "lower", "tcp", "model count; the RTO path shows on failover"},
	{"tcp.rto_events", "count", "lower", "tcp", "model count; failover"},
	{"tcp.segs_suppressed", "count", "lower", "tcp", "model count; fig4-ft and failover (backups suppress output)"},
	{"tcp.deliver_ns_per_seg", "ns", "lower", "tcp", "frames_per_s on fig4-plain; the RTO path shows on failover (DeliverIP span incl. ft-TCP gating and the sink)"},
	{"tcp.parse_ns", "ns", "lower", "tcp", "frames_per_s on fig4-plain (tcp.UnmarshalSegment replayed over captured frames)"},
	{"tcp.parse_allocs", "objects", "lower", "tcp", "allocs_per_frame on all workloads"},
	{"hostserver.decap_ns_per_frame", "ns", "lower", "hostserver", "frames_per_s on fig4-ft; 0 on fig4-plain (IPIP span self time)"},
	{"redirector.multicast_copies", "count", "lower", "redirector", "model count; fig4-ft, failover, pods"},
	{"redirector.passed_through", "count", "lower", "redirector", "model count; fig4-plain no-redirection case"},
	{"redirector.forward_ns_per_frame", "ns", "lower", "redirector", "frames_per_s on fig4-ft; little on fig4-plain (HandleFrame self time on redirector nodes)"},
	{"core.chain_msgs_sent", "count", "lower", "core", "model count; fig4-ft"},
	{"core.chain_msgs_per_client_seg", "ratio", "lower", "core", "model ratio; fig4-ft"},
	{"core.chain_ns_per_msg", "ns", "lower", "core", "frames_per_s on fig4-ft (UDP DeliverIP span on replicas)"},
	{"core.suspicions", "count", "lower", "core", "model count; detection shows on failover"},
	{"core.promotions", "count", "lower", "core", "model count; failover"},
	{"rmp.reconfigs", "count", "lower", "rmp", "model count; failover mainly, setup_s on fig4-ft"},
	{"rmp.probes_sent", "count", "lower", "rmp", "model count; failover mainly, setup_s on fig4-ft"},
	{"invariant.attached_ns_per_frame", "ns", "lower", "invariant", "frames_per_s on failover only (monitor attached minus detached); 0 elsewhere"},
	{"runtime.gc_cpu_share", "ratio", "lower", "Go runtime", "cpu_ns_per_frame, frames_per_s on all workloads"},
	{"runtime.alloc_bytes_per_frame", "B", "lower", "Go runtime", "cpu_ns_per_frame, frames_per_s on all workloads"},
	{"runtime.gc_cycles", "count", "lower", "Go runtime", "cpu_ns_per_frame, frames_per_s on all workloads (per pass)"},
	{"trace.overhead_share", "ratio", "lower", "tracing", "none: a property of the measurement (1 - traced / untraced frames_per_s)"},
}

// printCatalog writes every metric with its unit, direction, layer and
// predicted end-to-end effect, then every workload with its reason.
func printCatalog(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tbetter\tlayer\tmeaning, or the end-to-end metric it should move")
	for _, group := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range group {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", m.name, m.unit, m.better, m.layer, m.note)
		}
	}
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "workload\twhy")
	for _, wl := range workloads {
		fmt.Fprintf(tw, "%s\t%s\n", wl.name, wl.why)
	}
	return tw.Flush()
}
