package main

// Per-layer metrics that only one kind of workload measures. A workload
// reports the other kind's as 0: the layer is bypassed and does no work.
var (
	simLayerMetrics = []string{
		"sim.events", "sim.queue_ns_per_event", "sim.pending_max", "sim.calendar_over_slab",
		"simnet.send_ns", "simnet.shard_busy_frac_min", "simnet.shard_busy_frac_max",
		"runtime.tick_ns", "runtime.deliver_ns", "runtime.build_s", "runtime.msgs_sent", "runtime.msgs_dropped",
		"core.strategy_ns",
		"apps.create_ns.gossip-learning", "apps.update_ns.gossip-learning",
		"apps.create_ns.push-gossip", "apps.update_ns.push-gossip",
		"apps.create_ns.chaotic-iteration", "apps.update_ns.chaotic-iteration",
		"netmodel.draw_ns", "overlay.build_s", "trace.build_s",
		"experiment.sample_ns", "experiment.config_s_max", "experiment.worker_busy_frac",
	}
	fleetLayerMetrics = []string{
		"transport.frames_per_msg", "transport.bytes_per_frame", "transport.shed_frac",
		"transport.queue_depth_max", "transport.reconnects", "transport.decode_errors",
		"transport.send_ns", "transport.loopback_us",
		"live.tick_p50_us", "live.tick_p99_us", "live.rounds_per_s", "live.dropped_incoming", "live.queue_depth_max",
		"tokennode.inject_ms", "tokennode.scrape_ms", "tokennode.boot_s", "tokennode.build_s",
		"bench.injector_lag_ms",
	}
)

func setSimLayerZero(rep *report) {
	for _, name := range simLayerMetrics {
		rep.set(name, 0)
	}
}

func setFleetLayerZero(rep *report) {
	for _, name := range fleetLayerMetrics {
		rep.set(name, 0)
	}
}
