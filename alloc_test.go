package hydranet

import (
	"testing"
	"time"

	"hydranet/internal/app"
	"hydranet/internal/tcp"
)

// TestChainHopAllocFree pins the ft-TCP data path at zero allocations once
// warm: a client write crosses the redirector (intercept and IP-in-IP
// multicast to both replicas), is decapsulated and deposited at the
// primary and the backup, climbs the acknowledgment channel as a chain
// message, and releases the primary's gated ACK back to the client.
func TestChainHopAllocFree(t *testing.T) {
	net, client, rd, replicas := ftTopology(t, 1, 2)
	var sinks []*app.SinkStats
	if _, err := net.DeployFT(testSvc, rd, replicas, FTOptions{}, func(c *Conn) {
		sinks = append(sinks, app.Sink(c))
	}); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	conn, err := client.Dial(testSvc)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetNoDelay(true)
	conn.SetSegmentPerWrite(true)
	net.RunFor(time.Second)
	if conn.State() != tcp.StateEstablished || len(sinks) != 2 {
		t.Fatalf("client %v with %d replica connections, want ESTABLISHED with 2", conn.State(), len(sinks))
	}
	write := make([]byte, 512)
	round := func() {
		conn.Write(write)
		net.RunFor(50 * time.Millisecond)
	}
	for i := 0; i < 64; i++ {
		round()
	}
	chainBefore := replicas[1].FTManager().Stats().ChainMsgsSent
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, round); allocs != 0 {
		t.Errorf("warm primary+backup round allocates %.1f objects, want 0", allocs)
	}
	want := (64 + runs + 1) * len(write)
	for i, s := range sinks {
		if s.Bytes != want {
			t.Errorf("replica %d deposited %d bytes, want %d", i, s.Bytes, want)
		}
	}
	if conn.SndUna() != conn.SndNxt() {
		t.Errorf("%d client bytes unacknowledged", conn.SndNxt().Diff(conn.SndUna()))
	}
	if replicas[1].FTManager().Stats().ChainMsgsSent == chainBefore {
		t.Error("the backup sent no chain messages during the measured rounds")
	}
}
