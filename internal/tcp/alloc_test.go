package tcp

import (
	"testing"
	"time"

	"hydranet/internal/netsim"
)

// TestSteadyStateAllocFree pins the TCP data path at zero allocations once
// warm: a write travels as one data segment (parsed into the receiving
// stack's storage, deposited into the reused socket buffer, read out by
// the application) and comes back as one pure ACK (built in the sending
// stack's storage, trimming the send buffer and its write marks).
func TestSteadyStateAllocFree(t *testing.T) {
	e := newEnv(t, netsim.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}, Config{})
	l, err := e.server.Listen(0, 80)
	if err != nil {
		t.Fatal(err)
	}
	var received int
	buf := make([]byte, 4096)
	l.SetAcceptFunc(func(c *Conn) {
		c.OnReadable(func() {
			for n := c.Read(buf); n > 0; n = c.Read(buf) {
				received += n
			}
		})
	})
	c, err := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	c.SetNoDelay(true)
	c.SetSegmentPerWrite(true)
	e.sched.RunUntil(time.Second)
	if c.State() != StateEstablished {
		t.Fatalf("client state %v, want ESTABLISHED", c.State())
	}
	write := pattern(512)
	segsIn := e.server.Stats().SegsIn
	round := func() {
		c.Write(write)
		e.sched.RunUntil(e.sched.Now() + 10*time.Millisecond)
	}
	for i := 0; i < 64; i++ {
		round()
	}
	const runs = 200
	if allocs := testing.AllocsPerRun(runs, round); allocs != 0 {
		t.Errorf("warm write/ACK round allocates %.1f objects, want 0", allocs)
	}
	rounds := 64 + runs + 1
	if received != rounds*len(write) || c.SndUna() != c.SndNxt() {
		t.Fatalf("received %d of %d bytes, %d unacknowledged", received, rounds*len(write), c.SndNxt().Diff(c.SndUna()))
	}
	if got := e.server.Stats().SegsIn - segsIn; got != uint64(rounds) {
		t.Errorf("server received %d segments over %d rounds, want one each", got, rounds)
	}
}
