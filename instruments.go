package hydranet

import (
	"fmt"
	"os"
	"time"
)

// Instruments names the artifacts one run writes; the zero value writes
// none and attaches no observer. Attach, Observers.Record and
// Observers.Finish hold every ordering rule between the observers, the
// parallel core and the run (DESIGN.md §13).
type Instruments struct {
	// Pcap, if set, captures every fabric frame plus the redirectors'
	// pre-encapsulation tunnel copies to this pcap file.
	Pcap string
	// Flight, if set, runs a flight recorder dumped to Flight.pcap and
	// Flight.json when the failover probe fires (or at the end of the run if
	// it never does), and to Flight-violation.* on the first invariant
	// violation.
	Flight string
	// Spans, if set, writes the per-connection ft-TCP span timeline as JSON
	// to this file.
	Spans string
	// Series, if set, exports sampled time series (JSONL, or CSV for a .csv
	// path) with span statistics, replica health verdicts and the failover
	// phase report.
	Series string
	// SampleEvery is the telemetry sampling cadence (default 100 ms of
	// virtual time). Used only with Series.
	SampleEvery time.Duration
	// Profile, if set, writes a hydraprof profile of the recorded interval
	// to this file.
	Profile string
	// Audit, if set, writes the invariant monitor's audit report as JSON to
	// this file; it implies the monitor.
	Audit string
}

// Observers is one run's attached instruments, returned by
// Instruments.Attach. The exported fields are nil until Record attaches
// them, and stay nil for artifacts the Instruments do not name.
type Observers struct {
	Capture   *Capture
	Flight    *FlightRecorder
	Spans     *SpanCollector
	Telemetry *Telemetry

	in       Instruments
	net      *Net
	scenario string
	mon      *Monitor
	profiler *Profiler
	pcap     *os.File
}

// Attach partitions n across workers (see SetWorkers) and starts the
// invariant monitor when invariants is set or Audit names a file. Call it
// once the topology is final and before deploying services. scenario labels
// the audit report and the profile; keep it free of the worker count so
// reports from the same seed diff byte-identical across worker counts. The
// only error is the partition's.
func (in Instruments) Attach(n *Net, scenario string, workers int, invariants bool) (*Observers, error) {
	if err := n.SetWorkers(workers); err != nil {
		return nil, err
	}
	o := &Observers{in: in, net: n, scenario: scenario}
	if invariants || in.Audit != "" {
		o.mon = n.StartMonitor(MonitorConfig{Scenario: scenario})
	}
	return o, nil
}

// Record attaches the recorders before the traffic they should cover. The
// flight recorder dumps and the series report the failover seen by probe;
// a nil probe gets a fresh one when either needs it. The health scorer
// watches replicas. The only error is from opening the pcap file.
func (o *Observers) Record(probe *FailoverProbe, replicas ...*Host) error {
	in, n := o.in, o.net
	if in.Pcap != "" {
		f, err := os.Create(in.Pcap)
		if err != nil {
			return err
		}
		c, err := n.StartCapture(f)
		if err != nil {
			f.Close()
			return err
		}
		o.pcap, o.Capture = f, c
	}
	if probe == nil && (in.Flight != "" || in.Series != "") {
		probe = n.NewFailoverProbe()
	}
	if in.Flight != "" {
		o.Flight = n.StartFlightRecorder(0, 0)
		o.Flight.DumpOnFailover(probe, in.Flight)
		if o.mon != nil {
			// The violation bundle dumps the instant the monitor records it,
			// while the offending frames are still in the rings.
			o.Flight.DumpOnViolation(o.mon, in.Flight+"-violation")
		}
	}
	if in.Spans != "" || in.Series != "" {
		o.Spans = n.NewSpanCollector()
	}
	if in.Series != "" {
		o.Telemetry = n.StartSampler(SamplerConfig{
			Every:  in.SampleEvery,
			Spans:  o.Spans,
			Health: &HealthConfig{},
		})
		o.Telemetry.AttachFailover(probe)
		o.Telemetry.WatchReplicas(replicas...)
	}
	if in.Profile != "" {
		o.profiler = n.StartProfile(ProfileConfig{Scenario: o.scenario})
	}
	return nil
}

// Finish closes the capture, dumps the flight recorder if it never fired,
// writes the spans, series, profile and audit files, and returns the audit
// report (nil without a monitor). Call it after the run's last RunFor: the
// audit's frame-conservation rule needs a quiescent network. Every step
// runs; the error is the first one met.
func (o *Observers) Finish() (*AuditReport, error) {
	var first error
	keep := func(what string, err error) {
		if err != nil && first == nil {
			first = fmt.Errorf("%s: %w", what, err)
		}
	}
	in := o.in
	if o.Capture != nil {
		keep("pcap", o.Capture.Err())
		keep("pcap", o.pcap.Close())
	}
	if o.Flight != nil && o.Flight.Dumps() == 0 {
		keep("flight", o.Flight.Dump(in.Flight))
	}
	if in.Spans != "" {
		keep("spans", writeSpans(in.Spans, o.Spans))
	}
	if o.Telemetry != nil {
		o.Telemetry.Stop()
		keep("series", o.Telemetry.WriteFile(in.Series))
	}
	if o.profiler != nil {
		keep("profile", o.profiler.WriteFile(in.Profile))
	}
	if o.mon == nil {
		return nil, first
	}
	r := o.net.FinishAudit(o.mon)
	if in.Audit != "" {
		keep("audit", r.WriteJSON(in.Audit))
	}
	return &r, first
}

func writeSpans(path string, spans *SpanCollector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = spans.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
