//! The metric catalogue. `BENCHMARK.json` at the repository root lists the
//! same names, units and directions (a test keeps the two in step) plus the
//! regression bound of every end-to-end metric.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: its name, unit and better direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const SETUP_S: Metric = lower("setup_s", "s");
pub const LATENCY_P50: Metric = lower("latency_ms.p50", "ms");
pub const LATENCY_TAIL: Metric = lower("latency_ms.tail", "ms");
pub const CPU_PER_OP: Metric = lower("cpu_ms.per_op", "ms");
pub const PEAK_RSS: Metric = lower("peak_rss_mb", "MB");

/// Reported by every untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[SETUP_S, LATENCY_P50, LATENCY_TAIL, CPU_PER_OP, PEAK_RSS];

/// Printed and compared, but not in the last-line result: the first can
/// be zero, the second exists only for `daemon_high`.
pub const FAILED_FRAC: Metric = lower("failed_frac", "ratio");
pub const MAX_RPS_SLO: Metric = higher("max_rps_slo", "req/s");

/// Reported by every traced run (`--trace 1`); a layer a workload leaves
/// idle reads 0.
pub const PER_LAYER: &[Metric] = &[
    lower("scenario.build_s", "s"),
    lower("net.graph_build_s", "s"),
    lower("policy.decide_s", "s"),
    lower("policy.calls", "count"),
    lower("policy.census_s", "s"),
    lower("policy.plan_s", "s"),
    lower("sim.engine_s", "s"),
    lower("sim.segments", "count"),
    lower("sim.segment_us", "us"),
    lower("sim.refreshes", "count"),
    lower("net.repair_relaxed", "count"),
    lower("net.full_builds", "count"),
    higher("sim.scan_skip_ratio", "ratio"),
    higher("net.power_skip_ratio", "ratio"),
    lower("sim.audit.probes", "count"),
    higher("sim.audit.convictions", "count"),
    lower("sim.fault.injected", "count"),
    lower("sim.store.ckpts", "count"),
    lower("sim.store.ckpt_bytes", "bytes"),
    lower("sim.store.save_ms", "ms"),
    lower("sim.store.load_ms", "ms"),
    lower("sim.audit.cost_s", "s"),
    lower("sim.store.cost_s", "s"),
    lower("experiments.fig2_s", "s"),
    lower("experiments.fig3_s", "s"),
    lower("experiments.fig4_s", "s"),
    lower("experiments.fig5_s", "s"),
    lower("experiments.fig6_s", "s"),
    lower("experiments.fig7_s", "s"),
    lower("experiments.fig8_s", "s"),
    lower("experiments.fig9_s", "s"),
    lower("experiments.fig10_s", "s"),
    lower("experiments.fig11_s", "s"),
    lower("experiments.fig12_s", "s"),
    lower("experiments.fig13_s", "s"),
    lower("experiments.tab1_s", "s"),
    lower("experiments.tab2_s", "s"),
    lower("experiments.tab3_s", "s"),
    lower("experiments.faults_s", "s"),
    higher("sim.parallel.efficiency", "ratio"),
    lower("service.server_ms.hit.p50", "ms"),
    lower("service.server_ms.hit.p90", "ms"),
    lower("service.server_ms.miss.p50", "ms"),
    lower("service.server_ms.miss.p90", "ms"),
    lower("service.compute_ms.n40", "ms"),
    lower("service.compute_ms.n80", "ms"),
    lower("service.compute_ms.n160", "ms"),
    lower("service.compute_ms.n320", "ms"),
    lower("service.wire_ms.p50", "ms"),
    lower("service.wire_ms.p99", "ms"),
    higher("service.hit_ratio", "ratio"),
    higher("service.coalesced_ratio", "ratio"),
    lower("service.shed_ratio", "ratio"),
    lower("service.retries", "count"),
    lower("service.queue_hwm", "count"),
    lower("service.cache_evictions", "count"),
    lower("client.late_ms.p99", "ms"),
    lower("trace.overhead_ms", "ms"),
];

/// Looks a metric up by name among every metric the benchmark reports.
pub fn find(name: &str) -> Option<Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain([&FAILED_FRAC, &MAX_RPS_SLO])
        .find(|m| m.name == name)
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn entries<'v>(doc: &'v Value, key: &str) -> &'v [Value] {
        serde::map_get(doc.as_map().unwrap(), key)
            .unwrap()
            .as_seq()
            .unwrap()
    }

    fn field<'v>(entry: &'v Value, key: &str) -> &'v Value {
        serde::map_get(entry.as_map().unwrap(), key).unwrap()
    }

    fn listed(doc: &Value, key: &str) -> Vec<Metric> {
        entries(doc, key)
            .iter()
            .map(|e| {
                let s = |k: &str| match field(e, k) {
                    Value::Str(s) => s.clone(),
                    other => panic!("{k}: {other:?}"),
                };
                let m = find(&s("name")).unwrap_or_else(|| panic!("unknown {}", s("name")));
                assert_eq!(m.unit, s("unit"), "{}", m.name);
                assert_eq!(m.better.name(), s("better"), "{}", m.name);
                m
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(listed(&doc, "end_to_end"), END_TO_END);
        assert_eq!(listed(&doc, "per_layer"), PER_LAYER);
        let workloads: Vec<String> = entries(&doc, "workloads")
            .iter()
            .map(|w| match field(w, "name") {
                Value::Str(s) => s.clone(),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for id in wrsn_bench::ALL_IDS {
            assert!(find(&format!("experiments.{id}_s")).is_some(), "{id}");
        }
    }
}
