package testbed

import (
	"fmt"
	"time"

	"hydranet"
	"hydranet/internal/app"
	"hydranet/internal/core"
	"hydranet/internal/rmp"
	"hydranet/internal/ttcp"
)

// FailoverConfig parameterizes a failover-latency measurement (ablation A1:
// the paper's Section 4.3 trade-off between detection latency and false
// positives, swept over the retransmission threshold).
type FailoverConfig struct {
	// Threshold is the detector's retransmission threshold.
	Threshold int
	// Backups is the number of backup replicas (default 1).
	Backups int
	// Seed drives the simulation.
	Seed int64
	// CrashAt is when the primary is killed, relative to the start of the
	// client's stream (default 500 ms).
	CrashAt time.Duration
	// Loss, if nonzero, adds random loss to every link — for measuring
	// false positives under congestion-like conditions.
	Loss float64
	// NoCrash keeps every host alive: the run measures detector false
	// positives (suspicions and wrongful reconfigurations) only.
	NoCrash bool
	// Workers partitions the network into synchronization domains across
	// this many worker threads (see hydranet.SetWorkers). 0 or 1 keeps the
	// serial scheduler. With Loss > 0 the loss pattern is drawn from
	// per-domain generators, so partitioned runs are deterministic and
	// worker-count-invariant but sample a different loss sequence than the
	// serial scheduler.
	Workers int
	// Invariants attaches the online protocol-invariant monitor; violation
	// counts land in FailoverResult.Violations.
	Invariants bool
	// Instruments names the run's artifacts, which record from t=0:
	// registration, the stream, the crash, detection and recovery.
	Instruments hydranet.Instruments
}

// FailoverResult reports what happened.
type FailoverResult struct {
	// Detected is when the redirector completed reconfiguration after the
	// crash (zero if never).
	Detected time.Duration
	// Resumed is when the client received its first post-crash byte (zero
	// if never).
	Resumed time.Duration
	// Suspicions counts detector trips across all replicas.
	Suspicions uint64
	// FalseReconfigs counts reconfigurations that removed a live host.
	FalseReconfigs int
	// Delivered is the total number of bytes echoed back to the client.
	Delivered int
	// ClientError is non-nil if the client connection broke — a failure of
	// transparency.
	ClientError error
	// Violations counts protocol-invariant violations (0 unless
	// FailoverConfig.Invariants or Instruments.Audit enabled the monitor).
	Violations int
}

// MeasureFailover streams continuously through a replicated echo service,
// kills the primary mid-stream, and measures detection and resume latency
// at the client.
func MeasureFailover(cfg FailoverConfig) FailoverResult {
	if cfg.Backups == 0 {
		cfg.Backups = 1
	}
	if cfg.CrashAt == 0 {
		cfg.CrashAt = 500 * time.Millisecond
	}
	link := testbedLink
	link.Loss = cfg.Loss
	tcpCfg := hydranet.TCPConfig{
		MSS: 1460, SendBufSize: 16384, RecvBufSize: 16384,
		DelayedAckTimeout: 200 * time.Millisecond,
	}
	net := hydranet.New(hydranet.Config{Seed: cfg.Seed, TCP: tcpCfg})
	client := net.AddHost("client", hydranet.HostConfig{ProcDelay: client486Proc, ProcPerByte: client486PerByte})
	rd := net.AddRedirector("rd", hydranet.HostConfig{ProcDelay: router486Proc, ProcPerByte: router486PerByte})
	var replicas []*hydranet.Host
	for i := 0; i < 1+cfg.Backups; i++ {
		replicas = append(replicas, net.AddHost("s"+string(rune('0'+i)),
			hydranet.HostConfig{ProcDelay: pentiumProc, ProcPerByte: pentiumPerByte}))
	}
	all := append([]*hydranet.Host{rd.Host, client}, replicas...)
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			net.Link(all[i], all[j], link)
		}
	}
	net.AutoRoute()
	inst, err := cfg.Instruments.Attach(net,
		fmt.Sprintf("failover threshold=%d backups=%d loss=%g", cfg.Threshold, cfg.Backups, cfg.Loss),
		cfg.Workers, cfg.Invariants)
	if err != nil {
		panic(fmt.Sprintf("testbed: failover partition: %v", err))
	}
	if err := inst.Record(nil, replicas...); err != nil {
		panic(err)
	}

	svc := hydranet.ServiceID{Addr: ServiceAddr, Port: ServicePort}
	opts := hydranet.FTOptions{Detector: hydranet.DetectorParams{RetransmitThreshold: cfg.Threshold}}
	ftsvc, err := net.DeployFT(svc, rd, replicas, opts, func(c *hydranet.Conn) { app.Echo(c) })
	if err != nil {
		panic(err)
	}
	net.Settle()

	var res FailoverResult
	var crashTime time.Duration
	// The reconfiguration callback runs in the redirector domain's worker
	// context when partitioned, so it must use the redirector's own clock;
	// the liveness flags it reads only change between runs (CrashPrimary is
	// coordinator-context), and the fields it writes are not touched by any
	// other domain's callbacks.
	rd.Daemon().OnReconfig(func(_ core.ServiceID, failed []hydranet.Addr) {
		genuine := false
		for _, f := range failed {
			for _, h := range replicas {
				if h.Addr() == f && !h.Alive() {
					genuine = true
				}
			}
		}
		if genuine {
			if res.Detected == 0 && crashTime > 0 {
				res.Detected = rd.Host.Scheduler().Now() - crashTime
			}
		} else {
			res.FalseReconfigs++
		}
	})

	conn, err := client.Dial(svc)
	if err != nil {
		panic(err)
	}
	conn.OnClosed(func(err error) { res.ClientError = err })
	buf := make([]byte, 2048)
	conn.OnReadable(func() {
		for {
			n := conn.Read(buf)
			if n == 0 {
				break
			}
			res.Delivered += n
			if crashTime > 0 && res.Resumed == 0 {
				// Client-domain clock: this callback runs in the client
				// domain's worker context when partitioned.
				res.Resumed = client.Scheduler().Now() - crashTime
			}
		}
	})
	// A continuous stream: the echo keeps flowing both ways.
	payload := make([]byte, 4<<20)
	app.Source(conn, payload, false)

	net.RunFor(cfg.CrashAt)
	if !cfg.NoCrash {
		crashTime = net.Now()
		ftsvc.CrashPrimary()
	}
	// Run long enough for worst-case detection (threshold retransmissions
	// under exponential backoff) plus recovery.
	net.RunFor(4 * time.Minute)

	for _, h := range replicas {
		res.Suspicions += h.FTManager().Stats().Suspicions
	}
	audit, err := inst.Finish()
	if err != nil {
		panic(err)
	}
	if audit != nil {
		res.Violations = int(audit.TotalViolations())
	}
	return res
}

// CongestionResult reports a congested-backup scenario (ablation A5).
type CongestionResult struct {
	// Completed reports whether the client's transfer finished.
	Completed bool
	// Elapsed is the transfer duration (valid when Completed).
	Elapsed time.Duration
	// Evictions counts congestion-based removals at the redirector.
	Evictions uint64
	// ClientError is the client connection's fate (nil or timeout).
	ClientError error
}

// MeasureCongestionEviction runs a fixed transfer through a primary+backup
// service whose backup's acknowledgment channel dies mid-transfer (severe
// congestion: the host is alive but stalls the chain). policyStrikes > 0
// enables the redirector's congestion-eviction policy with that strike
// count; 0 leaves it disabled, which strands the transfer — the trade-off
// the paper's introduction motivates.
func MeasureCongestionEviction(policyStrikes int, seed int64) CongestionResult {
	tcpCfg := hydranet.TCPConfig{
		MSS: 1460, SendBufSize: 16384, RecvBufSize: 16384,
		DelayedAckTimeout: 200 * time.Millisecond,
		TimeWaitDuration:  time.Millisecond,
	}
	net := hydranet.New(hydranet.Config{Seed: seed, TCP: tcpCfg})
	client := net.AddHost("client", hydranet.HostConfig{ProcDelay: client486Proc, ProcPerByte: client486PerByte})
	rd := net.AddRedirector("rd", hydranet.HostConfig{ProcDelay: router486Proc, ProcPerByte: router486PerByte})
	s0 := net.AddHost("s0", hydranet.HostConfig{ProcDelay: pentiumProc, ProcPerByte: pentiumPerByte})
	s1 := net.AddHost("s1", hydranet.HostConfig{ProcDelay: pentiumProc, ProcPerByte: pentiumPerByte})
	all := []*hydranet.Host{rd.Host, client, s0, s1}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			net.Link(all[i], all[j], testbedLink)
		}
	}
	net.AutoRoute()
	svc := hydranet.ServiceID{Addr: ServiceAddr, Port: ServicePort}
	opts := hydranet.FTOptions{Detector: hydranet.DetectorParams{RetransmitThreshold: 2}}
	if _, err := net.DeployFT(svc, rd, []*hydranet.Host{s0, s1}, opts,
		func(c *hydranet.Conn) { ttcp.Sink(c) }); err != nil {
		panic(err)
	}
	if policyStrikes > 0 {
		rd.Daemon().SetCongestionPolicy(rmp.CongestionPolicy{
			Strikes: policyStrikes, Window: 2 * time.Minute,
		})
	}
	net.Settle()

	conn, err := client.DialEndpoint(hydranet.Endpoint{Addr: ServiceAddr, Port: ServicePort})
	if err != nil {
		panic(err)
	}
	var res CongestionResult
	done := false
	ttcp.Transmit(client.Scheduler(), conn, ttcp.Params{BufLen: 1024, TotalBytes: 512 * 1024},
		func(r ttcp.Result) {
			res.Completed = r.Err == nil
			res.Elapsed = r.Elapsed()
			res.ClientError = r.Err
			done = true
		})
	net.RunFor(200 * time.Millisecond)
	s1.FTManager().SetChainLoss(1.0) // the backup's channel dies

	deadline := net.Now() + 20*time.Minute
	for !done && net.Now() < deadline {
		net.RunFor(time.Second)
	}
	res.Evictions = rd.Daemon().Stats().CongestionEvictions
	return res
}
