//! The metric and workload names this benchmark fixes. `BENCHMARK.json`
//! at the repository root restates these tables; later issues refer to
//! the names, so they only ever grow.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

pub const WORKLOADS: [&str; 7] = [
    "paper90_pair",
    "paper90_batch",
    "flight32",
    "shard1024",
    "fluid_million",
    "analytic_count",
    "artifact_regen",
];

/// Reported by every untraced run; all four are better when lower. The
/// three times are restated at the reference host speed (see
/// `reference`). The second field is the regression bound: the share of
/// the parent's value by which the metric may get worse (restated in
/// `BENCHMARK.json`, and what `--agree` holds two sets of the same code
/// to). On the development VM the run-to-run spread of `wall_s` is
/// 2-10 % of the median even after that correction, which is why the
/// time bounds are not tighter.
pub const END_TO_END: [(Metric, f64); 4] = [
    (m("wall_s", "s"), 0.25),
    (m("setup_s", "s"), 0.25),
    (m("cpu_user_s", "s"), 0.25),
    (m("peak_rss_mb", "MB"), 0.20),
];

/// Reported by every traced run. A value of 0 means the workload does
/// not exercise that layer (or cannot observe it from outside).
pub const PER_LAYER: [Metric; 76] = [
    m("sim.wheel.replay_ns_per_op", "ns"),
    m("sim.wheel.burst_ns_per_op", "ns"),
    m("sim.wheel.pushes", "count"),
    m("sim.wheel.pops", "count"),
    m("sim.wheel.cascades", "count"),
    m("sim.wheel.overflow_pushes", "count"),
    m("sim.wheel.pool_hit_rate", "ratio"),
    m("sim.wheel.share", "ratio"),
    m("sim.world.ns_per_event.steady", "ns"),
    m("sim.world.ns_per_event.outage", "ns"),
    m("sim.world.ns_per_event.recovery", "ns"),
    m("sim.world.ns_per_event.burst", "ns"),
    m("sim.world.events", "count"),
    m("sim.world.frames", "count"),
    m("sim.world.new_s", "s"),
    m("sim.world.other_share", "ratio"),
    m("sim.shard.t2_wall_s", "s"),
    m("sim.shard.speedup_t2", "ratio"),
    m("sim.shard.overhead_t1", "ratio"),
    m("sim.shard.barrier_wait_share", "ratio"),
    m("sim.shard.stall_ratio", "ratio"),
    m("sim.shard.zero_pop_ratio", "ratio"),
    m("sim.shard.cross_shard_share", "ratio"),
    m("sim.shard.events_imbalance", "ratio"),
    m("sim.shard.epochs", "count"),
    m("sim.shard.lookahead_ns", "ns"),
    m("sim.workload.share", "ratio"),
    m("sim.workload.ns_per_transition", "ns"),
    m("sim.workload.transitions", "count"),
    m("sim.workload.enable_s", "s"),
    m("core.replay_ns_per_input", "ns"),
    m("core.inputs", "count"),
    m("core.share", "ratio"),
    m("io.wire.roundtrip_ns", "ns"),
    m("io.replay.check_ok", "count"),
    m("io.live.detect_ms_max", "ms"),
    m("io.live.vs_des_ratio", "ratio"),
    m("obs.flight.overhead_ratio", "ratio"),
    m("obs.flight.ns_per_record", "ns"),
    m("obs.flight.pin_ns", "ns"),
    m("obs.flight.records", "count"),
    m("obs.flight.log_merge_s", "s"),
    m("obs.causal.build_s", "s"),
    m("obs.flight.perfetto_s", "s"),
    m("obs.flight.perfetto_bytes_per_record", "B"),
    m("obs.hist.ns_per_record", "ns"),
    m("obs.hist.merge_ns", "ns"),
    m("obs.jsonfmt.bytes_per_s", "B/s"),
    m("analytic.enumerate.subsets_per_s", "1/s"),
    m("analytic.enumerate_k.subsets_per_s", "1/s"),
    m("analytic.allpairs.subsets_per_s", "1/s"),
    m("analytic.topo.onehost.subsets_per_s", "1/s"),
    m("analytic.topo.transitive.subsets_per_s", "1/s"),
    m("analytic.mc.samples_per_s", "1/s"),
    m("analytic.topo_mc.samples_per_s", "1/s"),
    m("analytic.orbit.cells_per_s", "1/s"),
    m("analytic.sweep.bench_grid_s", "s"),
    m("topology.gen_s", "s"),
    m("bench.regen.sweep_s", "s"),
    m("bench.regen.sim_s", "s"),
    m("bench.regen.knet_s", "s"),
    m("bench.regen.topology_s", "s"),
    m("bench.regen.obs_s", "s"),
    m("bench.regen.flight_s", "s"),
    m("bench.regen.json_bytes", "B"),
    m("harness.fanout.trials_per_s", "1/s"),
    m("harness.cold_run_s", "s"),
    m("harness.cold_minor_faults", "count"),
    m("harness.wall_max_s", "s"),
    m("harness.wall_iqr_s", "s"),
    m("harness.trace_overhead_ratio", "ratio"),
    m("harness.heap_retained", "MB"),
    m("harness.run_span_coverage", "ratio"),
    m("harness.timed_reps", "count"),
    m("harness.wall_raw_s", "s"),
    m("harness.host_factor", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` restates the tables above by hand; this keeps the
    /// two from drifting apart.
    #[test]
    fn benchmark_json_restates_these_tables() {
        let json: String = include_str!("../../BENCHMARK.json")
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\":\"{w}\",\"why\":")),
                "{w}"
            );
        }
        for (m, bound) in &END_TO_END {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"lower\",\"bound\":{bound}}}",
                m.name, m.unit
            );
            assert!(json.contains(&entry), "{entry}");
        }
        for m in &PER_LAYER {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":",
                m.name, m.unit
            );
            assert!(json.contains(&entry), "{entry}");
        }
        let declared = json.matches("{\"name\":").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }
}
