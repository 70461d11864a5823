package netsim

import (
	"testing"
	"time"

	"hydranet/internal/sim"
)

// TestHopAllocFree pins the fabric's per-hop allocation budget at zero:
// once hop records, scheduler nodes and frame buffers are warm, a frame
// delivered across a link, frames dropped at a full transmit queue, and
// frames discarded by a crashed sender or receiver allocate nothing.
func TestHopAllocFree(t *testing.T) {
	s := sim.NewScheduler(1)
	net := New(s)
	a := net.AddNode(NodeConfig{Name: "a", ProcDelay: time.Microsecond})
	c := net.AddNode(NodeConfig{Name: "c", ProcDelay: time.Microsecond})
	l := net.Connect(a, c, LinkConfig{Rate: 1_000_000, Delay: 10 * time.Microsecond, QueueBytes: 3000})
	h := &countingHandler{}
	c.SetHandler(h)
	frame := make([]byte, 1500)
	round := func() {
		// Four back-to-back frames: two fill the 3000-byte queue and are
		// delivered, two are queue drops.
		for i := 0; i < 4; i++ {
			a.Send(0, frame)
		}
		s.Run()
		// A receiver that crashed while the frame was on the wire.
		a.Send(0, frame)
		c.Crash()
		s.Run()
		c.Restart()
		// A sender that crashed while its CPU held the frame.
		a.Send(0, frame)
		a.Crash()
		s.Run()
		a.Restart()
	}
	round()
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, round); allocs != 0 {
		t.Errorf("warm hop round allocates %.1f objects, want 0", allocs)
	}
	// AllocsPerRun calls round once more than runs for its own warm-up.
	rounds := uint64(runs + 2)
	tx, _, queueDrop := l.Stats()
	if h.frames != int(2*rounds) || tx[0] != 3*rounds || queueDrop[0] != 2*rounds {
		t.Errorf("after %d rounds: delivered %d, transmitted %d, queue drops %d; want %d, %d, %d",
			rounds, h.frames, tx[0], queueDrop[0], 2*rounds, 3*rounds, 2*rounds)
	}
	if n := net.PoolOutstanding(); n != 0 {
		t.Errorf("%d frame buffers outstanding after the rounds, want 0", n)
	}
}
