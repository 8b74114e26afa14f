package fleet

import (
	"raqo/internal/telemetry"
)

// Metrics is the fleet layer's metric set, registered on the wrapped
// server's registry so one /metrics scrape covers both the local planning
// families and the raqo_fleet_* routing families.
type Metrics struct {
	Forwards      *telemetry.CounterVec // raqo_fleet_forwards_total{endpoint}
	ForwardErrors *telemetry.Counter    // raqo_fleet_forward_errors_total
	Degraded      *telemetry.Counter    // raqo_fleet_degraded_total
	Misroutes     *telemetry.Counter    // raqo_fleet_misroutes_total
	HotHits       *telemetry.Counter    // raqo_fleet_hot_cache_hits_total
	PeerDials     *telemetry.Counter    // raqo_fleet_peer_dials_total
	PeerIdle      *telemetry.Gauge      // raqo_fleet_peer_conns_idle
	Installs      *telemetry.Counter    // raqo_fleet_model_installs_total
}

// newMetrics registers the fleet families. The ring size and healthy-peer
// count are func-backed gauges read live at scrape time.
func newMetrics(reg *telemetry.Registry, n *Node) *Metrics {
	m := &Metrics{
		Forwards: reg.CounterVec("raqo_fleet_forwards_total",
			"Requests forwarded to their owning shard, by endpoint.", "endpoint"),
		ForwardErrors: reg.Counter("raqo_fleet_forward_errors_total",
			"Forward attempts that failed and fell back to degraded local planning."),
		Degraded: reg.Counter("raqo_fleet_degraded_total",
			"Requests answered locally in degraded mode because the owning shard was unreachable."),
		Misroutes: reg.Counter("raqo_fleet_misroutes_total",
			"Forwarded requests whose key this node does not own (ring disagreement between peers)."),
		HotHits: reg.Counter("raqo_fleet_hot_cache_hits_total",
			"Optimize requests for a peer-owned key answered from the local server's response memo instead of a forward."),
		PeerDials: reg.Counter("raqo_fleet_peer_dials_total",
			"Connections dialed to peers; flat while forwards grow means keep-alive reuse."),
		PeerIdle: reg.Gauge("raqo_fleet_peer_conns_idle",
			"Keep-alive peer connections pooled for reuse."),
		Installs: reg.Counter("raqo_fleet_model_installs_total",
			"Model sets pulled from a peer and installed as the live version."),
	}
	reg.GaugeFunc("raqo_fleet_ring_nodes", "Physical nodes on this node's consistent-hash ring.",
		func() float64 { return float64(n.ring.Size()) })
	reg.GaugeFunc("raqo_fleet_peers_healthy", "Peers the health prober currently considers reachable.",
		func() float64 { return float64(n.healthyPeers()) })
	return m
}
