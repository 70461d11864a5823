package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"hydranet"
	"hydranet/internal/app"
	"hydranet/internal/core"
	"hydranet/internal/testbed"
	"hydranet/internal/ttcp"
)

// The paper's testbed machine model and links. internal/testbed keeps these
// unexported; the benchmark repeats them because it builds its simulations
// itself, so that it can time set-up and wrap every node's stack.
// TestParity pins that the simulations built here reproduce
// testbed.RunMeasured, testbed.MeasureFailover and testbed.RunScale exactly.
const (
	client486Proc    = 300 * time.Microsecond
	client486PerByte = 1300 * time.Nanosecond
	router486Proc    = 250 * time.Microsecond
	router486PerByte = 750 * time.Nanosecond
	pentiumProc      = 150 * time.Microsecond
	pentiumPerByte   = 350 * time.Nanosecond
	redirectorSWCost = 25 * time.Microsecond
	ftStackCost      = 20 * time.Microsecond
)

var testbedLink = hydranet.LinkConfig{
	Rate:       10_000_000,
	Delay:      100 * time.Microsecond,
	MTU:        1500,
	QueueBytes: 32 * 1024,
}

// backboneLink joins neighbouring pod redirectors; its larger delay is the
// cut the parallel core partitions on.
var backboneLink = hydranet.LinkConfig{
	Rate:       100_000_000,
	Delay:      time.Millisecond,
	MTU:        1500,
	QueueBytes: 64 * 1024,
}

const (
	transferBytes = 512 * 1024 // per ttcp transfer, as in BENCH_core.json
	podCount      = 8
	podWorkers    = 2
	crashAt       = 500 * time.Millisecond
)

// ttcpTCP is the TCP configuration of the ttcp simulations. TIME-WAIT is
// short so a transfer ends when the client's FIN handshake completes.
var ttcpTCP = hydranet.TCPConfig{
	MSS:               1460,
	SendBufSize:       16384,
	RecvBufSize:       16384,
	DelayedAckTimeout: 200 * time.Millisecond,
	TimeWaitDuration:  time.Millisecond,
}

// role classifies a node for per-layer attribution.
type role int

const (
	roleHost role = iota
	roleRedirector
	roleReplica
)

// outcome is the model output of one simulation, compared field by field
// with its reference. Event counts are deliberately absent: a pure speed
// change to the scheduler or fabric may legitimately remove events.
type outcome struct {
	KBps   float64 `json:"kbps,omitempty"`
	Frames uint64  `json:"frames"`

	DetectNs       int64  `json:"detect_ns,omitempty"`
	ResumeNs       int64  `json:"resume_ns,omitempty"`
	Suspicions     uint64 `json:"suspicions,omitempty"`
	FalseReconfigs int    `json:"false_reconfigs,omitempty"`
	Delivered      int    `json:"delivered,omitempty"`
	Violations     int    `json:"violations,omitempty"`
	ClientError    string `json:"client_error,omitempty"`
}

// simOpts selects what a simulation carries besides the model itself.
type simOpts struct {
	tracer  *tracer // wraps every node's stack when non-nil
	monitor bool    // attach the hydrainv monitor (failover workload)
	profile bool    // attach hydraprof to a partitioned net
	capture io.Writer
}

// simulation is one member of a workload's batch, built through the end of
// its set-up phase. run is the timed phase; result reads the model outputs
// afterwards.
type simulation struct {
	net      *hydranet.Net
	nodes    []*hydranet.Host
	roles    []role
	clients  []*hydranet.Host
	profiler *hydranet.Profiler
	run      func() error
	result   func() outcome
}

func (s *simulation) add(h *hydranet.Host, r role) *hydranet.Host {
	s.nodes = append(s.nodes, h)
	s.roles = append(s.roles, r)
	return h
}

// framesSent sums the fabric frames every node has sent — the count
// BENCH_core.json and BENCH_scale.json record.
func (s *simulation) framesSent() uint64 {
	var n uint64
	for _, h := range s.nodes {
		sent, _, _ := h.IP().Node().Stats()
		n += sent
	}
	return n
}

// instrument wraps every node's stack when the run is traced. It runs once
// the topology is final and partitioned, before any service registers.
func (s *simulation) instrument(o simOpts) {
	if o.tracer != nil {
		for i, h := range s.nodes {
			o.tracer.wrap(h, s.roles[i])
		}
	}
}

// startObservers attaches the observers that cover only the timed phase.
func (s *simulation) startObservers(o simOpts, scenario string) error {
	if o.capture != nil {
		if _, err := s.net.StartCapture(o.capture); err != nil {
			return fmt.Errorf("%s: capture: %w", scenario, err)
		}
	}
	// Only a partitioned net has windows and barriers to profile.
	if domains, _ := s.net.Parallel(); o.profile && domains > 1 {
		s.profiler = s.net.StartProfile(hydranet.ProfileConfig{Scenario: scenario})
	}
	return nil
}

func mesh(net *hydranet.Net, hosts []*hydranet.Host) {
	for i := 0; i < len(hosts); i++ {
		for j := i + 1; j < len(hosts); j++ {
			net.Link(hosts[i], hosts[j], testbedLink)
		}
	}
	net.AutoRoute()
}

// runUntil advances the net in one-second steps until done reports true,
// failing after a generous virtual-time ceiling.
func runUntil(net *hydranet.Net, done func() bool, what string) error {
	deadline := net.Now() + 30*time.Minute
	for !done() && net.Now() < deadline {
		net.RunFor(time.Second)
	}
	if !done() {
		return fmt.Errorf("%s: not finished after 30 min of virtual time", what)
	}
	return nil
}

// buildFigure4 builds one Figure-4 measurement point: a ttcp transfer of
// transferBytes in bufLen-byte writes through the case's topology.
func buildFigure4(c testbed.Case, bufLen int, o simOpts) (*simulation, error) {
	scenario := fmt.Sprintf("figure4 %s buf=%d", c, bufLen)
	net := hydranet.New(hydranet.Config{Seed: simSeed, TCP: ttcpTCP})
	s := &simulation{net: net}

	clientCfg := hydranet.HostConfig{ProcDelay: client486Proc, ProcPerByte: client486PerByte}
	routerCfg := hydranet.HostConfig{ProcDelay: router486Proc, ProcPerByte: router486PerByte}
	serverCfg := hydranet.HostConfig{ProcDelay: pentiumProc, ProcPerByte: pentiumPerByte}
	if c != testbed.CaseClean {
		routerCfg.ProcDelay += redirectorSWCost
		serverCfg.ProcDelay += ftStackCost
	}
	client := s.add(net.AddHost("client", clientCfg), roleHost)
	s.clients = []*hydranet.Host{client}

	var target hydranet.Endpoint
	switch c {
	case testbed.CaseClean, testbed.CaseNoRedirection:
		if c == testbed.CaseClean {
			s.add(net.AddRouter("router", routerCfg), roleHost)
		} else {
			s.add(net.AddRedirector("rd", routerCfg).Host, roleRedirector)
		}
		server := s.add(net.AddHost("server", serverCfg), roleHost)
		mesh(net, s.nodes)
		s.instrument(o)
		lst, err := server.Listen(0, testbed.ServicePort)
		if err != nil {
			return nil, fmt.Errorf("%s: listen: %w", scenario, err)
		}
		lst.SetAcceptFunc(func(c *hydranet.Conn) { ttcp.Sink(c) })
		target = hydranet.Endpoint{Addr: server.Addr(), Port: testbed.ServicePort}

	case testbed.CasePrimaryOnly, testbed.CasePrimaryBackup:
		rd := net.AddRedirector("rd", routerCfg)
		replicas := 1
		if c == testbed.CasePrimaryBackup {
			replicas = 2
		}
		var hosts []*hydranet.Host
		for i := 0; i < replicas; i++ {
			hosts = append(hosts, net.AddHost(fmt.Sprintf("s%d", i), serverCfg))
		}
		// Link order follows testbed: redirector, client, replicas.
		s.nodes, s.roles = nil, nil
		s.add(rd.Host, roleRedirector)
		s.add(client, roleHost)
		for _, h := range hosts {
			s.add(h, roleReplica)
		}
		mesh(net, s.nodes)
		s.instrument(o)
		svc := hydranet.ServiceID{Addr: testbed.ServiceAddr, Port: testbed.ServicePort}
		if _, err := net.DeployFT(svc, rd, hosts, hydranet.FTOptions{},
			func(c *hydranet.Conn) { ttcp.Sink(c) }); err != nil {
			return nil, fmt.Errorf("%s: deploy: %w", scenario, err)
		}
		net.Settle()
		target = hydranet.Endpoint{Addr: testbed.ServiceAddr, Port: testbed.ServicePort}

	default:
		return nil, fmt.Errorf("unknown Figure-4 case %d", c)
	}
	if err := s.startObservers(o, scenario); err != nil {
		return nil, err
	}

	var res ttcp.Result
	done := false
	s.run = func() error {
		conn, err := client.DialEndpoint(target)
		if err != nil {
			return fmt.Errorf("%s: dial: %w", scenario, err)
		}
		ttcp.Transmit(client.Scheduler(), conn,
			ttcp.Params{BufLen: bufLen, TotalBytes: transferBytes},
			func(r ttcp.Result) { res = r; done = true })
		if err := runUntil(net, func() bool { return done }, scenario); err != nil {
			return err
		}
		if res.Err != nil {
			return fmt.Errorf("%s: transfer: %w", scenario, res.Err)
		}
		return nil
	}
	s.result = func() outcome {
		return outcome{KBps: res.ThroughputKBps(), Frames: s.framesSent()}
	}
	return s, nil
}

// buildFailover builds one A1 point: a replicated echo service streaming to
// a client, with the primary crashed crashAt into the stream.
func buildFailover(threshold int, loss float64, o simOpts) (*simulation, error) {
	scenario := fmt.Sprintf("failover threshold=%d backups=1 loss=%g", threshold, loss)
	link := testbedLink
	link.Loss = loss
	net := hydranet.New(hydranet.Config{Seed: simSeed, TCP: hydranet.TCPConfig{
		MSS: 1460, SendBufSize: 16384, RecvBufSize: 16384,
		DelayedAckTimeout: 200 * time.Millisecond,
	}})
	s := &simulation{net: net}
	client := net.AddHost("client", hydranet.HostConfig{ProcDelay: client486Proc, ProcPerByte: client486PerByte})
	rd := net.AddRedirector("rd", hydranet.HostConfig{ProcDelay: router486Proc, ProcPerByte: router486PerByte})
	replicas := []*hydranet.Host{
		net.AddHost("s0", hydranet.HostConfig{ProcDelay: pentiumProc, ProcPerByte: pentiumPerByte}),
		net.AddHost("s1", hydranet.HostConfig{ProcDelay: pentiumProc, ProcPerByte: pentiumPerByte}),
	}
	s.clients = []*hydranet.Host{client}
	s.add(rd.Host, roleRedirector)
	s.add(client, roleHost)
	for _, h := range replicas {
		s.add(h, roleReplica)
	}
	for i := 0; i < len(s.nodes); i++ {
		for j := i + 1; j < len(s.nodes); j++ {
			net.Link(s.nodes[i], s.nodes[j], link)
		}
	}
	net.AutoRoute()
	s.instrument(o)
	var mon *hydranet.Monitor
	if o.monitor {
		mon = net.StartMonitor(hydranet.MonitorConfig{Scenario: scenario})
	}
	svc := hydranet.ServiceID{Addr: testbed.ServiceAddr, Port: testbed.ServicePort}
	opts := hydranet.FTOptions{Detector: hydranet.DetectorParams{RetransmitThreshold: threshold}}
	ftsvc, err := net.DeployFT(svc, rd, replicas, opts, func(c *hydranet.Conn) { app.Echo(c) })
	if err != nil {
		return nil, fmt.Errorf("%s: deploy: %w", scenario, err)
	}
	net.Settle()
	if err := s.startObservers(o, scenario); err != nil {
		return nil, err
	}

	var out outcome
	var crashTime time.Duration
	var clientErr error
	s.run = func() error {
		rd.Daemon().OnReconfig(func(_ core.ServiceID, failed []hydranet.Addr) {
			genuine := false
			for _, f := range failed {
				for _, h := range replicas {
					if h.Addr() == f && !h.Alive() {
						genuine = true
					}
				}
			}
			if !genuine {
				out.FalseReconfigs++
			} else if out.DetectNs == 0 && crashTime > 0 {
				out.DetectNs = int64(rd.Host.Scheduler().Now() - crashTime)
			}
		})
		conn, err := client.Dial(svc)
		if err != nil {
			return fmt.Errorf("%s: dial: %w", scenario, err)
		}
		conn.OnClosed(func(err error) { clientErr = err })
		buf := make([]byte, 2048)
		conn.OnReadable(func() {
			for {
				n := conn.Read(buf)
				if n == 0 {
					break
				}
				out.Delivered += n
				if crashTime > 0 && out.ResumeNs == 0 {
					out.ResumeNs = int64(client.Scheduler().Now() - crashTime)
				}
			}
		})
		app.Source(conn, make([]byte, 4<<20), false)
		net.RunFor(crashAt)
		crashTime = net.Now()
		ftsvc.CrashPrimary()
		// Long enough for threshold-8 detection under exponential backoff
		// plus recovery.
		net.RunFor(4 * time.Minute)
		return nil
	}
	s.result = func() outcome {
		for _, h := range replicas {
			out.Suspicions += h.FTManager().Stats().Suspicions
		}
		if clientErr != nil {
			out.ClientError = clientErr.Error()
		}
		if mon != nil {
			out.Violations = int(net.FinishAudit(mon).TotalViolations())
		}
		out.Frames = s.framesSent()
		return out
	}
	return s, nil
}

// buildPods builds the scaling workload: podCount client/redirector/
// primary/backup pods whose redirectors form a backbone ring, partitioned
// one pod per synchronization domain and run on podWorkers threads.
func buildPods(o simOpts) (*simulation, error) {
	scenario := fmt.Sprintf("scale pods=%d", podCount)
	net := hydranet.New(hydranet.Config{Seed: simSeed, TCP: ttcpTCP})
	s := &simulation{net: net}
	clientCfg := hydranet.HostConfig{ProcDelay: client486Proc, ProcPerByte: client486PerByte}
	routerCfg := hydranet.HostConfig{ProcDelay: router486Proc + redirectorSWCost, ProcPerByte: router486PerByte}
	serverCfg := hydranet.HostConfig{ProcDelay: pentiumProc + ftStackCost, ProcPerByte: pentiumPerByte}

	type pod struct {
		client   *hydranet.Host
		rd       *hydranet.Redirector
		replicas []*hydranet.Host
		svc      hydranet.ServiceID
	}
	pods := make([]pod, podCount)
	for i := range pods {
		p := &pods[i]
		p.client = s.add(net.AddHost(fmt.Sprintf("c%d", i), clientCfg), roleHost)
		p.rd = net.AddRedirector(fmt.Sprintf("rd%d", i), routerCfg)
		s.add(p.rd.Host, roleRedirector)
		p.replicas = []*hydranet.Host{
			s.add(net.AddHost(fmt.Sprintf("s%da", i), serverCfg), roleReplica),
			s.add(net.AddHost(fmt.Sprintf("s%db", i), serverCfg), roleReplica),
		}
		net.Link(p.client, p.rd.Host, testbedLink)
		for _, r := range p.replicas {
			net.Link(r, p.rd.Host, testbedLink)
		}
		p.svc = hydranet.ServiceID{
			Addr: hydranet.MustAddr(fmt.Sprintf("192.20.225.%d", 20+i)),
			Port: testbed.ServicePort,
		}
		s.clients = append(s.clients, p.client)
	}
	for i := 1; i < len(pods); i++ {
		net.Link(pods[i-1].rd.Host, pods[i].rd.Host, backboneLink)
	}
	net.Link(pods[len(pods)-1].rd.Host, pods[0].rd.Host, backboneLink)
	net.AutoRoute()
	if err := net.SetWorkers(podWorkers); err != nil {
		return nil, fmt.Errorf("%s: partition: %w", scenario, err)
	}
	s.instrument(o)
	for i := range pods {
		p := &pods[i]
		if _, err := net.DeployFT(p.svc, p.rd, p.replicas, hydranet.FTOptions{},
			func(c *hydranet.Conn) { ttcp.Sink(c) }); err != nil {
			return nil, fmt.Errorf("%s: deploy pod %d: %w", scenario, i, err)
		}
	}
	net.Settle()
	if err := s.startObservers(o, scenario); err != nil {
		return nil, err
	}

	// Each pod's completion lands in its own slot: the callbacks run on the
	// pods' worker goroutines, and two pods may finish in the same window.
	results := make([]ttcp.Result, len(pods))
	finished := make([]bool, len(pods))
	s.run = func() error {
		for i := range pods {
			p := &pods[i]
			conn, err := p.client.DialEndpoint(hydranet.Endpoint{Addr: p.svc.Addr, Port: p.svc.Port})
			if err != nil {
				return fmt.Errorf("%s: dial pod %d: %w", scenario, i, err)
			}
			ttcp.Transmit(p.client.Scheduler(), conn,
				ttcp.Params{BufLen: 1024, TotalBytes: transferBytes},
				func(r ttcp.Result) { results[i], finished[i] = r, true })
		}
		allDone := func() bool {
			for _, f := range finished {
				if !f {
					return false
				}
			}
			return true
		}
		if err := runUntil(net, allDone, scenario); err != nil {
			return err
		}
		for i, r := range results {
			if r.Err != nil {
				return fmt.Errorf("%s: pod %d transfer: %w", scenario, i, r.Err)
			}
		}
		return nil
	}
	s.result = func() outcome {
		// Sum in completion order, as testbed.RunScale's callback does.
		order := make([]int, len(results))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return results[order[a]].Finished < results[order[b]].Finished
		})
		var agg float64
		for _, i := range order {
			agg += results[i].ThroughputKBps()
		}
		return outcome{KBps: agg, Frames: s.framesSent()}
	}
	return s, nil
}
