package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hydranet/internal/capture"
)

// TestCheckFileDispatch: the file's content, not its name, selects the
// checker — a pcap magic the capture walk, anything else the trace-event
// checks — and a file that is neither is rejected.
func TestCheckFileDispatch(t *testing.T) {
	var pcap bytes.Buffer
	w, err := capture.NewWriter(&pcap, 0)
	if err != nil {
		t.Fatal(err)
	}
	ipv4TCP := make([]byte, 40)
	ipv4TCP[0], ipv4TCP[9] = 0x45, 6
	if err := w.WritePacket(0, ipv4TCP); err != nil {
		t.Fatal(err)
	}
	trace := `{"traceEvents":[
		{"name":"thread_name","ph":"M","pid":1,"tid":1},
		{"name":"window","ph":"X","ts":0,"dur":5,"pid":1,"tid":1}]}`

	dir := t.TempDir()
	for _, tc := range []struct {
		name, data, wantErr string
	}{
		{"capture.json", pcap.String(), ""},
		{"trace.pcap", trace, ""},
		{"audit.json", `{"clean":true}`, "no traceEvents"},
		{"notes.txt", "hello", "neither a pcap nor trace-event JSON"},
	} {
		path := filepath.Join(dir, tc.name)
		if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		err := checkFile(path)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.wantErr)
		}
	}
}
