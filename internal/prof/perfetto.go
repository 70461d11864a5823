package prof

import (
	"encoding/json"
	"io"
)

// Chrome trace-event (Perfetto-loadable) export. The mapping:
//
//   - Each domain is a track (one tid per domain under pid 1), plus a
//     "coordinator" track for barrier work.
//   - Each recorded window becomes one complete ("X") slice per domain,
//     spanning that domain's busy portion of the window (merge+exec+flush);
//     the args carry the phase breakdown, stall, event count and the
//     virtual window edge.
//   - Each window's coordinator barrier becomes an instant ("i") on the
//     coordinator track at the window's wall end (plus an "X" slice when
//     the barrier took measurable time).
//   - Cross-domain hand-offs become flow arrows: an "s" event anchored in
//     the source domain's slice, bound ("f" with bp:"e") into the
//     destination domain's slice in the next recorded window — the window
//     in which the staged frames are merged and delivered.
//
// Timestamps are microseconds (the trace-event unit) measured from the
// profiler's wall epoch. Load the output at https://ui.perfetto.dev or
// chrome://tracing; `hydrascope check` validates the structure in CI.

// traceEvent is one Chrome trace-event object.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	ID   int            `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON-object trace container format.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

const tracePid = 1

func us(ns int64) float64 { return float64(ns) / 1e3 }

// WriteTrace renders the profile's retained windows as a Chrome trace-event
// JSON document.
func WriteTrace(w io.Writer, p *Profile) error {
	coordTid := p.Domains // domain tracks are 0..Domains-1
	evs := []traceEvent{
		{Name: "process_name", Ph: "M", Pid: tracePid, Tid: 0,
			Args: map[string]any{"name": "hydranet parallel core"}},
	}
	for d := 0; d < p.Domains; d++ {
		evs = append(evs, traceEvent{Name: "thread_name", Ph: "M", Pid: tracePid, Tid: d,
			Args: map[string]any{"name": trackName(d)}})
	}
	evs = append(evs, traceEvent{Name: "thread_name", Ph: "M", Pid: tracePid, Tid: coordTid,
		Args: map[string]any{"name": "coordinator"}})

	flowID := 0
	for i := range p.Windows {
		win := &p.Windows[i]
		for d := range win.Domains {
			wd := &win.Domains[d]
			busy := wd.MergeNs + wd.ExecNs + wd.FlushNs
			start := wd.DoneNs - busy
			dur := us(busy)
			evs = append(evs, traceEvent{
				Name: "window", Cat: "window", Ph: "X",
				TS: us(start), Dur: &dur, Pid: tracePid, Tid: d,
				Args: map[string]any{
					"seq":        win.Seq,
					"virtual_ns": win.BoundAtNs,
					"global":     win.Global,
					"events":     wd.Events,
					"merge_ns":   wd.MergeNs,
					"exec_ns":    wd.ExecNs,
					"flush_ns":   wd.FlushNs,
					"stall_ns":   wd.StallNs,
				},
			})
		}
		evs = append(evs, traceEvent{
			Name: "barrier", Cat: "barrier", Ph: "i",
			TS: us(win.EndNs), Pid: tracePid, Tid: coordTid, S: "p",
			Args: map[string]any{"seq": win.Seq, "barrier_ns": win.BarrierNs},
		})
		if win.BarrierNs > 0 {
			dur := us(win.BarrierNs)
			evs = append(evs, traceEvent{
				Name: "barrier", Cat: "barrier", Ph: "X",
				TS: us(win.EndNs), Dur: &dur, Pid: tracePid, Tid: coordTid,
				Args: map[string]any{"seq": win.Seq},
			})
		}
		// Flow arrows bind into the next recorded window, where the frames
		// handed off here are merged and delivered. A ring gap (evicted
		// window) breaks the chain, so require consecutive seqs.
		if len(win.Flows) != p.Domains*p.Domains || i+1 >= len(p.Windows) {
			continue
		}
		next := &p.Windows[i+1]
		if next.Seq != win.Seq+1 || len(next.Domains) != p.Domains {
			continue
		}
		for s := 0; s < p.Domains; s++ {
			srcDone := win.Domains[s].DoneNs
			for d := 0; d < p.Domains; d++ {
				frames := win.Flows[s*p.Domains+d]
				if frames == 0 {
					continue
				}
				flowID++
				nd := &next.Domains[d]
				nstart := nd.DoneNs - (nd.MergeNs + nd.ExecNs + nd.FlushNs)
				evs = append(evs,
					traceEvent{Name: "handoff", Cat: "handoff", Ph: "s", ID: flowID,
						TS: us(srcDone), Pid: tracePid, Tid: s,
						Args: map[string]any{"frames": frames}},
					traceEvent{Name: "handoff", Cat: "handoff", Ph: "f", ID: flowID, BP: "e",
						TS: us(nstart), Pid: tracePid, Tid: d},
				)
			}
		}
	}

	b, err := json.MarshalIndent(traceFile{TraceEvents: evs, DisplayTimeUnit: "ms"}, "", " ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

func trackName(d int) string {
	return "domain " + itoa(d)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
