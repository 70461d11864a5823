// Package trace renders protocol events as human-readable, tcpdump-style
// lines. It hooks the TCP stack's segment observer and the manager's
// acknowledgment channel, timestamped in virtual time, and is used by the
// hydranet-sim tool's -trace flag and by tests when diagnosing runs.
package trace

import (
	"fmt"
	"io"
	"sync"
	"time"

	"hydranet/internal/sim"
	"hydranet/internal/tcp"
)

// Tracer writes one line per observed event.
type Tracer struct {
	mu      sync.Mutex
	w       io.Writer
	sched   *sim.Scheduler
	count   uint64
	limit   uint64 // 0 = unlimited
	dropped uint64 // lines suppressed by the limit
}

// New creates a tracer writing to w with timestamps from sched.
func New(w io.Writer, sched *sim.Scheduler) *Tracer {
	return &Tracer{w: w, sched: sched}
}

// SetLimit caps the number of emitted lines (0 = unlimited); further events
// are dropped and counted (see Dropped). Useful to keep traces of long runs
// readable.
func (t *Tracer) SetLimit(n uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.limit = n
}

// Count returns the number of lines emitted so far.
func (t *Tracer) Count() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// Dropped returns the number of lines suppressed by the limit.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Emit writes one formatted trace line.
func (t *Tracer) Emit(host, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.limit > 0 && t.count >= t.limit {
		t.dropped++
		return
	}
	t.count++
	fmt.Fprintf(t.w, "%12s %-10s %s\n",
		t.sched.Now().Round(time.Microsecond), host, fmt.Sprintf(format, args...))
}

// TCPFunc returns a tcp.TraceFunc that logs segments at one host's stack
// boundary, labelled with the host name.
func (t *Tracer) TCPFunc(host string) tcp.TraceFunc {
	return func(dir string, local, remote tcp.Endpoint, seg *tcp.Segment) {
		arrow := "→"
		a, b := local, remote
		if dir == "in" {
			a, b = remote, local
			arrow = "←"
		}
		t.Emit(host, "tcp %s %s %s  %s", a, arrow, b, seg)
	}
}

// AttachTCP wires the tracer to a TCP stack.
func (t *Tracer) AttachTCP(host string, st *tcp.Stack) {
	st.SetTrace(t.TCPFunc(host))
}
