//! `campaign`: one large CSA campaign, run again and again on a copy of the
//! same freshly built world.
//!
//! The world is `experiments::scale`'s paper-density scenario, whose
//! deployment seed is fixed, so the benchmark seed changes nothing here.
//! Campaign cost swings by up to 60x between deployments: at 25k, 28k, 32k
//! and 40k nodes this scenario's campaign takes 17 to 24 s, at 24k, 30k and
//! 35k under half a second. A seeded deployment would measure the seed
//! rather than the engine.

use std::time::Instant;

use wrsn::core::attack::CsaAttackPolicy;
use wrsn::core::csa;
use wrsn::net::keynode;
use wrsn::net::{Network, NodeId};
use wrsn::sim::{SimReport, World};
use wrsn_bench::experiments::scale;

use super::{
    digest, expected, measure, report_engine, setup_s, timed_s, Ctx, EngineSample, Outcome,
};
use crate::metrics;
use crate::stats;
use crate::sys;
use crate::trace::{HookRecorder, Timed};

const EXPECTED: &str = include_str!("../../expected/campaign.txt");
/// Large enough that the segment kernel dominates, small enough for 40
/// runs (ten beyond the 75th percentile) in about 15 s on two CPUs.
const NODES: usize = 30_000;
const TAIL_PCT: u32 = 75;
const SETUPS: usize = 5;

/// The report and the death list, serialized.
fn outcome_bytes(report: &SimReport, world: &World) -> Vec<u8> {
    let mut bytes = serde_json::to_string(report)
        .expect("reports are finite")
        .into_bytes();
    for (node, t) in world.trace().death_times() {
        bytes.extend(format!("\n{} {t:?}", node.0).as_bytes());
    }
    bytes
}

/// The graph build on the deployment `net` was built from.
fn graph_build_s(net: &Network) -> f64 {
    let nodes: Vec<_> = (0..net.node_count())
        .map(|i| net.node(NodeId(i)).expect("node exists"))
        .collect();
    let threads = wrsn_bench::parallel::threads();
    timed_s(|| {
        std::hint::black_box(Network::build_with_threads(
            nodes.clone(),
            net.sink(),
            net.comm_range(),
            threads,
        ));
    })
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let scenario = scale::scenario(NODES);
    let config = scale::tide_config(NODES);
    let (setup, pristine) = setup_s(SETUPS, |_| scenario.build());
    out.set(metrics::SETUP_S, setup, SETUPS);
    let pinned = expected(EXPECTED, "report").unwrap_or("");

    let traced = ctx.traced();
    let mut wall_ms = Vec::new();
    let mut cpu_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut engine = Vec::new();
    let mut plans_s = Vec::new();
    let mut last = String::new();
    measure(ctx.seconds, stats::min_samples(TAIL_PCT), |k| {
        let trace_this = traced && k % 2 == 0;
        let mut world = pristine.clone();
        let mut policy = Timed::new(CsaAttackPolicy::new(config));
        ctx.tracer.set_run(k as u64);
        let cpu_before = sys::self_usage().cpu;
        let started = Instant::now();
        let (report, sample) = if trace_this {
            let mut rec = HookRecorder::new(&mut ctx.tracer);
            rec.tracer().enter("world.run");
            let report = world.run_with(&mut policy, &mut rec);
            rec.tracer().exit();
            let mut sample = EngineSample::default();
            sample.add_counters(&rec, NODES);
            (report, Some(sample))
        } else {
            (world.run(&mut policy), None)
        };
        let run_s = started.elapsed().as_secs_f64();
        let cpu_s = (sys::self_usage().cpu - cpu_before).as_secs_f64();
        let got = match report {
            Ok(report) => digest(&outcome_bytes(&report, &world)),
            Err(e) => format!("error: {e}"),
        };
        out.check(got == pinned, || {
            format!("run {k}: outcome digest {got}, expected/campaign.txt has {pinned}")
        });
        last = got;
        match sample {
            Some(mut sample) => {
                sample.run_s = run_s;
                sample.decide_s = policy.busy.as_secs_f64();
                sample.calls = policy.calls;
                engine.push(sample);
                traced_ms.push(run_s * 1e3);
                if let Some(instance) = policy.inner.initial_instance() {
                    let started = Instant::now();
                    ctx.tracer.span("policy.plan", |_| csa::plan(instance));
                    plans_s.push(started.elapsed().as_secs_f64());
                }
            }
            None => {
                wall_ms.push(run_s * 1e3);
                cpu_ms.push(cpu_s * 1e3);
            }
        }
    });
    out.notes.push(format!("report {last}"));

    if !traced {
        out.latency(&wall_ms, TAIL_PCT);
        out.set(metrics::CPU_PER_OP, stats::median(&cpu_ms), cpu_ms.len());
        out.set(metrics::PEAK_RSS, sys::self_peak_rss_mb(), 1);
        return out;
    }
    report_engine(&mut out, &engine);
    out.median_of("policy.plan_s", &plans_s);
    let tracer = &mut ctx.tracer;
    let build = tracer.span("scenario.build", |_| {
        timed_s(|| {
            std::hint::black_box(scenario.build());
        })
    });
    out.set_named("scenario.build_s", build, 3);
    let graph = tracer.span("net.graph_build", |_| graph_build_s(pristine.network()));
    out.set_named("net.graph_build_s", graph, 3);
    let census = tracer.span("policy.census", |_| {
        timed_s(|| {
            std::hint::black_box(keynode::identify(pristine.network(), &config.keynode));
        })
    });
    out.set_named("policy.census_s", census, 3);
    out.set_named(
        "trace.overhead_ms",
        stats::median(&traced_ms) - stats::median(&wall_ms),
        traced_ms.len(),
    );
    out
}
