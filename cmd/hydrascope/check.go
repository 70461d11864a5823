package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"hydranet/internal/capture"
	"hydranet/internal/ipv4"
)

// check validates each file with the checker its content selects — the
// golden checks CI runs on emitted artifacts, so the formats stay loadable
// by Wireshark and https://ui.perfetto.dev without external tooling in the
// loop. It prints one summary line per valid file and exits 1 if any file
// fails.
func check(args []string) {
	if len(args) == 0 {
		usage()
	}
	failed := false
	for _, path := range args {
		if err := checkFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "hydrascope: check %s: %v\n", path, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// checkFile dispatches on content: a pcap global-header magic selects the
// capture checker, anything else must be a Chrome trace-event JSON file.
func checkFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) >= 4 {
		switch binary.LittleEndian.Uint32(data) {
		case capture.MagicNanos, capture.MagicMicros:
			return checkPcap(path, data)
		}
	}
	return checkTrace(path, data)
}

// checkPcap parses a capture with the repo's own reader, verifies the
// global header, walks every record, checks timestamps are nondecreasing
// and every first-fragment record parses as IPv4, and prints a one-line
// summary of what was on the wire.
func checkPcap(path string, data []byte) error {
	f, err := capture.ReadAll(bytes.NewReader(data))
	if err != nil {
		return err
	}
	if f.LinkType != capture.LinkTypeRaw {
		return fmt.Errorf("linktype %d, want %d (LINKTYPE_RAW)", f.LinkType, capture.LinkTypeRaw)
	}
	var tcp, udp, ipip, innerTCP, frags int
	last := time.Duration(-1)
	for i, r := range f.Records {
		if r.Ts < last {
			return fmt.Errorf("record %d: timestamp %v before predecessor %v", i, r.Ts, last)
		}
		last = r.Ts
		if len(r.Data) < ipv4.HeaderLen || r.Data[0]>>4 != 4 {
			return fmt.Errorf("record %d: not an IPv4 packet", i)
		}
		if fragOffset := (int(r.Data[6])<<8 | int(r.Data[7])) & 0x1fff; fragOffset != 0 {
			frags++ // continuation of a fragmented packet: no header inside
			continue
		}
		switch r.Data[9] {
		case ipv4.ProtoTCP:
			tcp++
		case ipv4.ProtoUDP:
			udp++
		case ipv4.ProtoIPIP:
			ipip++
			inner := r.Data[ipv4.HeaderLen:]
			if len(inner) < ipv4.HeaderLen || inner[0]>>4 != 4 {
				return fmt.Errorf("record %d: IP-in-IP payload is not IPv4", i)
			}
			if inner[9] == ipv4.ProtoTCP {
				innerTCP++
			}
		}
	}
	fmt.Printf("%s: %d records ok — %d tcp, %d udp, %d ipip (%d wrapping tcp), %d fragment continuations\n",
		path, len(f.Records), tcp, udp, ipip, innerTCP, frags)
	return nil
}

// traceEvent mirrors the fields checkTrace validates; unknown fields are ignored
// so the exporter can grow args freely.
type traceEvent struct {
	Name string   `json:"name"`
	Cat  string   `json:"cat"`
	Ph   string   `json:"ph"`
	TS   *float64 `json:"ts"`
	Dur  *float64 `json:"dur"`
	Pid  *int     `json:"pid"`
	Tid  *int     `json:"tid"`
	S    string   `json:"s"`
	ID   *int     `json:"id"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// checkTrace validates a trace exported by `hydrascope profile -trace`: the
// container shape, then every event — slices carry timestamps and
// durations on known tracks, every used track has thread metadata, flow
// arrows pair start/finish 1:1 by id, and per-track slice timestamps are
// nondecreasing — and prints a one-line summary of what was in the trace.
func checkTrace(path string, data []byte) error {
	var tr traceFile
	if err := json.Unmarshal(data, &tr); err != nil {
		return fmt.Errorf("neither a pcap nor trace-event JSON: %w", err)
	}
	if len(tr.TraceEvents) == 0 {
		return fmt.Errorf("no traceEvents")
	}

	named := map[int]bool{} // tids with thread_name metadata
	lastTS := map[int]float64{}
	flowStart := map[int]int{}  // flow id -> "s" count
	flowFinish := map[int]int{} // flow id -> "f" count
	var slices, instants, flows int

	for i, e := range tr.TraceEvents {
		if e.Ph == "" {
			return fmt.Errorf("event %d: missing ph", i)
		}
		if e.Pid == nil {
			return fmt.Errorf("event %d (%s %q): missing pid", i, e.Ph, e.Name)
		}
		if e.Tid == nil {
			return fmt.Errorf("event %d (%s %q): missing tid", i, e.Ph, e.Name)
		}
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				named[*e.Tid] = true
			}
		case "X":
			slices++
			if e.TS == nil || e.Dur == nil {
				return fmt.Errorf("event %d: X slice %q missing ts or dur", i, e.Name)
			}
			if *e.Dur < 0 {
				return fmt.Errorf("event %d: X slice %q with negative dur %v", i, e.Name, *e.Dur)
			}
			if last, ok := lastTS[*e.Tid]; ok && *e.TS < last {
				return fmt.Errorf("event %d: tid %d slice ts %v before predecessor %v",
					i, *e.Tid, *e.TS, last)
			}
			lastTS[*e.Tid] = *e.TS
		case "i":
			instants++
			if e.TS == nil {
				return fmt.Errorf("event %d: instant %q missing ts", i, e.Name)
			}
			if e.S == "" {
				return fmt.Errorf("event %d: instant %q missing scope", i, e.Name)
			}
		case "s", "f":
			flows++
			if e.TS == nil {
				return fmt.Errorf("event %d: flow %s missing ts", i, e.Ph)
			}
			if e.ID == nil {
				return fmt.Errorf("event %d: flow %s missing id", i, e.Ph)
			}
			if e.Ph == "s" {
				flowStart[*e.ID]++
			} else {
				flowFinish[*e.ID]++
			}
		default:
			return fmt.Errorf("event %d: unknown phase %q", i, e.Ph)
		}
	}

	// Every track that carries events must be named, or the viewer shows
	// anonymous threads.
	for tid := range lastTS {
		if !named[tid] {
			return fmt.Errorf("tid %d has slices but no thread_name metadata", tid)
		}
	}
	// Flow arrows must pair exactly: a dangling start or finish renders as
	// an arrow into nowhere.
	for id, n := range flowStart {
		if flowFinish[id] != n {
			return fmt.Errorf("flow id %d: %d starts but %d finishes", id, n, flowFinish[id])
		}
	}
	for id, n := range flowFinish {
		if flowStart[id] != n {
			return fmt.Errorf("flow id %d: %d finishes but %d starts", id, n, flowStart[id])
		}
	}

	fmt.Printf("%s: %d events ok — %d slices on %d tracks, %d barrier instants, %d flow endpoints (%d arrows)\n",
		path, len(tr.TraceEvents), slices, len(lastTS), instants, flows, len(flowStart))
	return nil
}
