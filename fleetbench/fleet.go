package main

// This file is the benchmark's only contact with the daemons' constructors:
// every server, relay and exporter a run uses is built and stopped here, so
// a change to how the fleet is assembled edits this file alone.

import (
	"net"
	"runtime"
	"time"

	"dcsketch/internal/dcs"
	"dcsketch/internal/export"
	"dcsketch/internal/monitor"
	"dcsketch/internal/relay"
	"dcsketch/internal/server"
	"dcsketch/internal/telemetry"
)

// monitorConfig is cmd/ddosmond's default detection configuration.
var monitorConfig = monitor.Config{
	Sketch:        dcs.Config{Tables: 3, Buckets: 128, Seed: 1},
	K:             10,
	CheckInterval: 4096,
	MinFrequency:  64,
}

type dialFunc func(addr string, timeout time.Duration) (net.Conn, error)

// fleetConfig says which fleet to build. edgeDial and upstreamDial are the
// stamping seams; nil means plain TCP.
type fleetConfig struct {
	spec         *workloadSpec
	onAlert      func(monitor.Alert)
	edgeDial     func() dialFunc // called once per edge
	upstreamDial dialFunc
}

// fleet is one running topology: a global collector, an optional relay,
// and the edge exporters that feed whichever tier faces the edges.
type fleet struct {
	global     *server.Server
	globalAddr string
	relay      *relay.Relay
	edges      []*export.Exporter
	tel        *telemetry.Registry
}

func startFleet(cfg fleetConfig) (*fleet, error) {
	f := &fleet{tel: telemetry.NewRegistry()}
	gcfg := server.Config{Monitor: monitorConfig, OnAlert: cfg.onAlert}
	if cfg.spec.sharded {
		gcfg.IngestShards = runtime.GOMAXPROCS(0)
	}
	var err error
	if f.global, err = server.New(gcfg); err != nil {
		return nil, err
	}
	f.global.RegisterTelemetry(f.tel)
	addr, err := f.global.Listen("127.0.0.1:0")
	if err != nil {
		f.stop()
		return nil, err
	}
	f.globalAddr = addr.String()
	edgeAddr := f.globalAddr
	if cfg.spec.relay {
		f.relay, err = relay.New(relay.Config{
			Upstream: f.globalAddr, UpstreamDial: cfg.upstreamDial,
			Monitor: monitorConfig, SessionID: 42, Seed: 42,
		})
		if err != nil {
			f.stop()
			return nil, err
		}
		raddr, err := f.relay.Listen("127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		edgeAddr = raddr.String()
	}
	for e := 0; e < cfg.spec.edges; e++ {
		ecfg := export.Config{Addr: edgeAddr, SessionID: uint64(1000 + e), Seed: uint64(1000 + e)}
		if cfg.edgeDial != nil {
			ecfg.Dial = cfg.edgeDial()
		}
		exp, err := export.New(ecfg)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.edges = append(f.edges, exp)
	}
	return f, nil
}

// stop shuts the fleet down edge first, so no tier loses a batch it acked.
func (f *fleet) stop() {
	for _, e := range f.edges {
		_ = e.Drain(5 * time.Second) // a batch left behind is visible in the gate
		_ = e.Close()
	}
	if f.relay != nil {
		f.relay.Shutdown(5 * time.Second)
	}
	if f.global != nil {
		f.global.Shutdown()
	}
}

// records counts the flight-recorder events every tier has written.
func (f *fleet) records() uint64 {
	n := f.global.Tracer().GSeq()
	if f.relay != nil {
		n += f.relay.Tracer().GSeq()
	}
	for _, e := range f.edges {
		n += e.Tracer().GSeq()
	}
	return n
}

// fleetCounts are the tiers' public ledgers, summed over edges.
type fleetCounts struct {
	exportRetransmits, exportDropped uint64
	relayShed                        uint64
	dupBatches, protocolErrors       uint64
	pipelineShed, monitorChecks      uint64
	globalUpdates                    uint64
}

func (f *fleet) counts() fleetCounts {
	var c fleetCounts
	for _, e := range f.edges {
		st := e.Stats()
		c.exportRetransmits += st.Retransmits
		c.exportDropped += st.BatchesDropped
	}
	g := f.global.Stats()
	c.globalUpdates = g.Updates
	c.dupBatches = g.DuplicateBatches
	c.protocolErrors = g.ProtocolErrors
	if f.relay != nil {
		st := f.relay.Stats()
		c.relayShed = st.Export.BatchesDropped
		c.dupBatches += st.Server.DuplicateBatches
		c.protocolErrors += st.Server.ProtocolErrors
	}
	for _, s := range f.tel.Snapshot() {
		switch s.Name {
		case "dcsketch_shed_batches_total":
			c.pipelineShed = uint64(s.Value)
		case "dcsketch_monitor_checks_total":
			c.monitorChecks = uint64(s.Value)
		}
	}
	return c
}
