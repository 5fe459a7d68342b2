//! The five workloads and what they share: the run context, the outcome a
//! run reports, and the engine metrics derived from the program's counters.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use wrsn::sim::obs::Counter;

use crate::metrics::{self, Metric};
use crate::stats;
use crate::trace::{HookRecorder, Tracer};

pub mod campaign;
pub mod daemon;
pub mod durable;
pub mod suite;

/// Workload names, in the order a full set runs them.
pub const NAMES: [&str; 5] = ["suite", "campaign", "durable", "daemon_low", "daemon_high"];

/// What one workload run gets to work with.
pub struct Ctx {
    pub seed: u64,
    /// Least time the measured phase lasts, seconds.
    pub seconds: f64,
    /// Where the program's binaries (`exp`, `wrsnd`) are.
    pub bin_dir: PathBuf,
    /// Scratch directory owned by this run.
    pub work: PathBuf,
    pub tracer: Tracer,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → value.
    pub values: BTreeMap<String, f64>,
    /// Metric name → number of samples behind the value.
    pub samples: BTreeMap<String, usize>,
    /// Free-form findings printed with the metrics (digests, SLO verdicts).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, metric: Metric, value: f64, samples: usize) {
        self.set_named(metric.name, value, samples);
    }

    pub fn set_named(&mut self, name: &str, value: f64, samples: usize) {
        debug_assert!(metrics::find(name).is_some(), "unknown metric {name}");
        self.values.insert(name.to_string(), value);
        self.samples.insert(name.to_string(), samples);
    }

    /// Records one checked operation and whether its output was right.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("perf: check failed: {what}");
        }
    }

    /// Median and tail percentile `tail_pct` of per-operation latencies.
    pub fn latency(&mut self, ms: &[f64], tail_pct: u32) {
        self.set(metrics::LATENCY_P50, stats::median(ms), ms.len());
        let tail = stats::percentile(ms, tail_pct).unwrap_or_else(|| {
            panic!(
                "p{tail_pct} needs {} samples, the run took {}",
                stats::min_samples(tail_pct),
                ms.len()
            )
        });
        self.set(metrics::LATENCY_TAIL, tail, ms.len());
    }

    /// The median of per-sample values of a metric.
    pub fn median_of(&mut self, name: &str, values: &[f64]) {
        if !values.is_empty() {
            self.set_named(name, stats::median(values), values.len());
        }
    }
}

/// Median time, in seconds, of `count` calls to `f`, and what the last call
/// made. Earlier results are dropped outside the timed calls.
pub fn setup_s<T>(count: usize, mut f: impl FnMut(usize) -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(count);
    let mut last = None;
    for k in 0..count {
        drop(last.take());
        let started = Instant::now();
        last = Some(f(k));
        times.push(started.elapsed().as_secs_f64());
    }
    (stats::median(&times), last.expect("count is positive"))
}

/// Median seconds of `f` over three calls: direct timing of one layer call.
pub fn timed_s(mut f: impl FnMut()) -> f64 {
    setup_s(3, |_| f()).0
}

/// Runs operations until at least `seconds` have passed and at least
/// `min_ops` operations have run; `op(k)` runs the `k`-th.
pub fn measure(seconds: f64, min_ops: usize, mut op: impl FnMut(usize)) -> usize {
    let started = Instant::now();
    let mut k = 0;
    while k < min_ops || started.elapsed().as_secs_f64() < seconds {
        op(k);
        k += 1;
    }
    k
}

/// Engine-layer numbers of one traced simulation span: the program's
/// counters, plus the benchmark's own timing of `World::run` and of the
/// policy inside it.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineSample {
    pub run_s: f64,
    pub decide_s: f64,
    pub calls: u64,
    pub segments: u64,
    pub refreshes: u64,
    pub relaxed: u64,
    pub full_builds: u64,
    pub scan_skipped: u64,
    pub power_skipped: u64,
    /// Σ segments × nodes: the per-node request scans that could have run.
    pub scan_slots: u64,
    /// Σ refreshes × nodes: the power entries a refresh could recompute.
    pub power_slots: u64,
}

impl EngineSample {
    /// Adds the counters `rec` collected over worlds of `nodes` nodes.
    pub fn add_counters(&mut self, rec: &HookRecorder<'_>, nodes: usize) {
        let segments = rec.counter(Counter::AdvanceSegments);
        let refreshes = rec.counter(Counter::TopologyRefreshes);
        self.segments += segments;
        self.refreshes += refreshes;
        self.relaxed += rec.counter(Counter::RoutingRepairRelaxed);
        self.full_builds += rec.counter(Counter::RoutingFullBuilds);
        self.scan_skipped += rec.counter(Counter::RequestScansSkipped);
        self.power_skipped += rec.counter(Counter::PowerRecomputesSkipped);
        self.scan_slots += segments * nodes as u64;
        self.power_slots += refreshes * nodes as u64;
    }

    pub fn add(&mut self, other: &EngineSample) {
        self.run_s += other.run_s;
        self.decide_s += other.decide_s;
        self.calls += other.calls;
        self.segments += other.segments;
        self.refreshes += other.refreshes;
        self.relaxed += other.relaxed;
        self.full_builds += other.full_builds;
        self.scan_skipped += other.scan_skipped;
        self.power_skipped += other.power_skipped;
        self.scan_slots += other.scan_slots;
        self.power_slots += other.power_slots;
    }
}

/// Reports the medians of engine samples, one sample per operation.
pub fn report_engine(out: &mut Outcome, samples: &[EngineSample]) {
    let per = |f: &dyn Fn(&EngineSample) -> f64| samples.iter().map(f).collect::<Vec<_>>();
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    out.median_of("policy.decide_s", &per(&|s| s.decide_s));
    out.median_of("policy.calls", &per(&|s| s.calls as f64));
    out.median_of("sim.engine_s", &per(&|s| s.run_s - s.decide_s));
    out.median_of("sim.segments", &per(&|s| s.segments as f64));
    out.median_of(
        "sim.segment_us",
        &per(&|s| 1e6 * (s.run_s - s.decide_s) / s.segments.max(1) as f64),
    );
    out.median_of("sim.refreshes", &per(&|s| s.refreshes as f64));
    out.median_of("net.repair_relaxed", &per(&|s| s.relaxed as f64));
    out.median_of("net.full_builds", &per(&|s| s.full_builds as f64));
    out.median_of(
        "sim.scan_skip_ratio",
        &per(&|s| ratio(s.scan_skipped, s.scan_slots)),
    );
    out.median_of(
        "net.power_skip_ratio",
        &per(&|s| ratio(s.power_skipped, s.power_slots)),
    );
}

/// FNV-1a digest, as 16 hex digits, of `bytes`.
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", wrsn::sim::store::fnv1a64(bytes))
}

/// The digest listed for `key` in an `expected/*.txt` file of
/// `<key> <digest>` lines.
pub fn expected<'a>(listing: &'a str, key: &str) -> Option<&'a str> {
    listing.lines().find_map(|line| {
        let (k, d) = line.split_once(' ')?;
        (k == key).then_some(d.trim())
    })
}

/// Seed-1 digests pinned at the commit that introduced the benchmark.
pub const PINNED_SEED: u64 = 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_honours_both_floors() {
        assert_eq!(measure(0.0, 3, |_| ()), 3);
        let mut seen = Vec::new();
        let n = measure(0.02, 1, |k| {
            seen.push(k);
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        assert!(n >= 4, "{n}");
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn expected_listings_parse() {
        let listing = "a 0000000000000001\nbb 00000000000000ff\n";
        assert_eq!(expected(listing, "bb"), Some("00000000000000ff"));
        assert_eq!(expected(listing, "c"), None);
    }
}
