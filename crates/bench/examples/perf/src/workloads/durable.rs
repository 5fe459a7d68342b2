//! `durable`: many small audited, fault-injected, checkpointed runs.
//!
//! A pass is 24 runs at 400 nodes: {EDF, naive CSA, stealth CSA} ×
//! deployment seeds `S..S+7`, `S` being the benchmark seed. Every run has
//! the `default` audit preset, two faults of each kind, and a checkpointer
//! writing every 1/32 of the horizon. Each run is one operation. Run cost
//! differs between deployments; eight of them per pass keep the medians of
//! two benchmark seeds within a few percent of each other.

use std::time::Instant;

use wrsn::core::attack::CsaAttackPolicy;
use wrsn::core::csa;
use wrsn::core::tide::TideInstance;
use wrsn::net::keynode;
use wrsn::scenario::Scenario;
use wrsn::sim::{
    store, AuditConfig, ChargerPolicy, CheckpointPolicy, Checkpointer, FaultConfig, FaultPlan,
    SimReport, World,
};
use wrsn_bench::experiments::arms_race::STEALTH_FRACTION;

use super::{
    digest, expected, measure, report_engine, setup_s, timed_s, Ctx, EngineSample, Outcome,
    PINNED_SEED,
};
use crate::metrics;
use crate::stats;
use crate::sys;
use crate::trace::{HookRecorder, Timed};

const EXPECTED: &str = include_str!("../../expected/durable.txt");
const NODES: usize = 400;
const SEEDS: u64 = 8;
const POSTURES: [&str; 3] = ["edf", "csa", "stealth"];
const CHECKPOINTS_PER_HORIZON: f64 = 32.0;
const FAULTS_PER_KIND: usize = 2;
const TAIL_PCT: u32 = 75;
/// Building the inputs takes milliseconds, so the median needs many.
const SETUPS: usize = 11;

/// One run's fixed input: a built world with its audit and fault plan.
struct Input {
    label: String,
    posture: &'static str,
    scenario: Scenario,
    world: World,
}

fn inputs(seed: u64) -> Vec<Input> {
    let mut out = Vec::new();
    for posture in POSTURES {
        for s in seed..seed + SEEDS {
            let scenario = Scenario::paper_scale(NODES, s);
            let mut world = scenario
                .build()
                .with_audit(AuditConfig::default().with_seed(s));
            world.set_fault_plan(FaultPlan::generate(
                s,
                NODES,
                scenario.horizon_s,
                &FaultConfig::uniform(FAULTS_PER_KIND),
            ));
            out.push(Input {
                label: format!("{posture}-{s}"),
                posture,
                scenario,
                world,
            });
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    Full,
    NoAudit,
    NoStore,
}

struct Run {
    wall_s: f64,
    cpu_s: f64,
    /// Digest of the report and death list: what the ablations must keep.
    trajectory: String,
    /// Digest of the trajectory plus the audit's probes and verdicts.
    full: String,
    engine: Option<EngineSample>,
    probes: u64,
    convictions: u64,
    faults: u64,
    ckpts: u64,
}

fn trajectory_bytes(report: &SimReport, world: &World) -> Vec<u8> {
    let mut bytes = serde_json::to_string(report)
        .expect("reports are finite")
        .into_bytes();
    for (node, t) in world.trace().death_times() {
        bytes.extend(format!("\n{} {t:?}", node.0).as_bytes());
    }
    bytes
}

fn run_one(ctx: &mut Ctx, input: &Input, variant: Variant, trace: bool) -> Result<Run, String> {
    let mut world = input.world.clone();
    if variant == Variant::NoAudit {
        world.set_audit(None);
    }
    if variant != Variant::NoStore {
        let every = input.scenario.horizon_s / CHECKPOINTS_PER_HORIZON;
        world.set_checkpointer(Some(Checkpointer::new(
            ckpt_path(ctx, input),
            CheckpointPolicy::every(every),
        )));
    }
    let mut policy: Box<Timed<dyn ChargerPolicy>> = match input.posture {
        "edf" => Box::new(Timed::new(wrsn::charge::EarliestDeadlineFirst::new())),
        "csa" => Box::new(Timed::new(CsaAttackPolicy::new(
            input.scenario.tide_config(),
        ))),
        _ => Box::new(Timed::new(
            CsaAttackPolicy::new(input.scenario.tide_config()).with_stealth(STEALTH_FRACTION),
        )),
    };
    let cpu_before = sys::self_usage().cpu;
    let started = Instant::now();
    let (report, engine) = if trace {
        let mut rec = HookRecorder::new(&mut ctx.tracer);
        rec.tracer().enter("world.run");
        let report = world.run_with(&mut *policy, &mut rec);
        rec.tracer().exit();
        let mut sample = EngineSample::default();
        sample.add_counters(&rec, NODES);
        (report, Some(sample))
    } else {
        (world.run(&mut *policy), None)
    };
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = (sys::self_usage().cpu - cpu_before).as_secs_f64();
    let report = report.map_err(|e| format!("{}: run failed: {e}", input.label))?;
    let engine = engine.map(|mut e| {
        e.run_s = wall_s;
        e.decide_s = policy.busy.as_secs_f64();
        e.calls = policy.calls;
        e
    });
    let mut bytes = trajectory_bytes(&report, &world);
    let trajectory = digest(&bytes);
    let (probes, convictions) = match world.audit() {
        Some(audit) => {
            bytes.extend(
                serde_json::to_string(&audit.probes().to_vec())
                    .expect("finite")
                    .bytes(),
            );
            bytes.extend(
                serde_json::to_string(&audit.convictions().to_vec())
                    .expect("finite")
                    .bytes(),
            );
            (
                audit.probes().len() as u64,
                audit.convictions().len() as u64,
            )
        }
        None => (0, 0),
    };
    Ok(Run {
        wall_s,
        cpu_s,
        trajectory,
        full: digest(&bytes),
        engine,
        probes,
        convictions,
        faults: world.fault_injector().map_or(0, |f| f.injected() as u64),
        ckpts: world.checkpointer().map_or(0, Checkpointer::written),
    })
}

fn ckpt_path(ctx: &Ctx, input: &Input) -> std::path::PathBuf {
    ctx.work.join(format!("{}.ckpt", input.label))
}

/// Loads the run's last checkpoint, restores it, saves it again and checks
/// the bytes match. Returns (save, load) seconds and the file size.
fn round_trip(ctx: &Ctx, input: &Input) -> Result<(f64, f64, u64), String> {
    let path = ckpt_path(ctx, input);
    let again = ctx.work.join(format!("{}.resaved", input.label));
    let started = Instant::now();
    let checkpoint = store::load(&path).map_err(|e| e.to_string())?;
    let load_s = started.elapsed().as_secs_f64();
    let mut world = checkpoint.world().clone();
    world.restore(&checkpoint);
    let started = Instant::now();
    store::save(&again, &world.snapshot()).map_err(|e| e.to_string())?;
    let save_s = started.elapsed().as_secs_f64();
    let a = std::fs::read(&path).map_err(|e| e.to_string())?;
    let b = std::fs::read(&again).map_err(|e| e.to_string())?;
    if a != b {
        return Err(format!("{}: re-saved checkpoint differs", input.label));
    }
    Ok((save_s, load_s, a.len() as u64))
}

/// Per-pass sums of one variant's runs.
#[derive(Default)]
struct PassSums {
    wall_s: f64,
    engine: EngineSample,
    probes: u64,
    convictions: u64,
    faults: u64,
    ckpts: u64,
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (setup, inputs) = setup_s(SETUPS, |_| inputs(ctx.seed));
    out.set(metrics::SETUP_S, setup, SETUPS);
    let traced = ctx.traced();

    // The first full run of each input sets the digests later runs and
    // ablations must repeat.
    let mut reference: Vec<Option<(String, String)>> = vec![None; inputs.len()];
    let mut wall_ms = Vec::new();
    let mut cpu_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut sums: Vec<(Variant, bool, PassSums)> = Vec::new();
    let mut store_times = (Vec::new(), Vec::new(), Vec::new());
    let cycle: &[(Variant, bool)] = if traced {
        &[
            (Variant::Full, true),
            (Variant::Full, false),
            (Variant::NoAudit, false),
            (Variant::NoStore, false),
        ]
    } else {
        &[(Variant::Full, false)]
    };
    // Untraced runs report a tail percentile and need its samples; a traced
    // run needs one pass of each variant.
    let min_passes = if traced {
        cycle.len()
    } else {
        stats::min_samples(TAIL_PCT).div_ceil(inputs.len())
    };
    measure(ctx.seconds, min_passes, |pass| {
        let (variant, trace) = cycle[pass % cycle.len()];
        let mut pass_sums = PassSums::default();
        for (i, input) in inputs.iter().enumerate() {
            ctx.tracer.set_run((pass * inputs.len() + i) as u64);
            let run = match run_one(ctx, input, variant, trace) {
                Ok(run) => run,
                Err(e) => {
                    out.fail(e);
                    continue;
                }
            };
            let want =
                reference[i].get_or_insert_with(|| (run.trajectory.clone(), run.full.clone()));
            let ok = if variant == Variant::Full {
                run.full == want.1
            } else {
                run.trajectory == want.0
            };
            out.check(ok, || {
                format!("{}: {variant:?} run differs from the first", input.label)
            });
            if ctx.seed == PINNED_SEED && variant == Variant::Full {
                let pinned = expected(EXPECTED, &input.label).unwrap_or("");
                out.check(run.full == pinned, || {
                    format!(
                        "{}: digest {}, expected/durable.txt has {pinned}",
                        input.label, run.full
                    )
                });
            }
            if variant == Variant::Full {
                match round_trip(ctx, input) {
                    Ok((save_s, load_s, bytes)) => {
                        out.check(true, String::new);
                        if trace {
                            store_times.0.push(save_s * 1e3);
                            store_times.1.push(load_s * 1e3);
                            store_times.2.push(bytes as f64);
                        }
                    }
                    Err(e) => out.fail(e),
                }
                if trace {
                    traced_ms.push(run.wall_s * 1e3);
                } else {
                    wall_ms.push(run.wall_s * 1e3);
                    cpu_ms.push(run.cpu_s * 1e3);
                }
            }
            pass_sums.wall_s += run.wall_s;
            if let Some(engine) = &run.engine {
                pass_sums.engine.add(engine);
            }
            pass_sums.probes += run.probes;
            pass_sums.convictions += run.convictions;
            pass_sums.faults += run.faults;
            pass_sums.ckpts += run.ckpts;
        }
        sums.push((variant, trace, pass_sums));
    });
    for (i, input) in inputs.iter().enumerate() {
        if let Some((_, full)) = &reference[i] {
            out.notes.push(format!("{} {full}", input.label));
        }
    }

    if !traced {
        out.latency(&wall_ms, TAIL_PCT);
        out.set(metrics::CPU_PER_OP, stats::median(&cpu_ms), cpu_ms.len());
        out.set(metrics::PEAK_RSS, sys::self_peak_rss_mb(), 1);
        return out;
    }
    let pick = |v: Variant, t: bool| -> Vec<&PassSums> {
        sums.iter()
            .filter(|(variant, trace, _)| *variant == v && *trace == t)
            .map(|(_, _, s)| s)
            .collect()
    };
    let tracedp = pick(Variant::Full, true);
    let engine: Vec<EngineSample> = tracedp.iter().map(|s| s.engine).collect();
    report_engine(&mut out, &engine);
    let count =
        |f: &dyn Fn(&PassSums) -> u64| tracedp.iter().map(|s| f(s) as f64).collect::<Vec<_>>();
    out.median_of("sim.audit.probes", &count(&|s| s.probes));
    out.median_of("sim.audit.convictions", &count(&|s| s.convictions));
    out.median_of("sim.fault.injected", &count(&|s| s.faults));
    out.median_of("sim.store.ckpts", &count(&|s| s.ckpts));
    out.median_of("sim.store.save_ms", &store_times.0);
    out.median_of("sim.store.load_ms", &store_times.1);
    out.median_of("sim.store.ckpt_bytes", &store_times.2);
    let pass_s =
        |v: Variant| stats::median(&pick(v, false).iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let full = pass_s(Variant::Full);
    for (name, variant) in [
        ("sim.audit.cost_s", Variant::NoAudit),
        ("sim.store.cost_s", Variant::NoStore),
    ] {
        let samples = pick(variant, false).len();
        out.set_named(name, full - pass_s(variant), samples);
    }
    out.set_named(
        "trace.overhead_ms",
        stats::median(&traced_ms) - stats::median(&wall_ms),
        traced_ms.len(),
    );

    let first = &inputs[0];
    let tracer = &mut ctx.tracer;
    let build = tracer.span("scenario.build", |_| {
        timed_s(|| {
            std::hint::black_box(first.scenario.build());
        })
    });
    out.set_named("scenario.build_s", build, 3);
    let config = first.scenario.tide_config();
    let census = tracer.span("policy.census", |_| {
        timed_s(|| {
            std::hint::black_box(keynode::identify(first.world.network(), &config.keynode));
        })
    });
    out.set_named("policy.census_s", census, 3);
    let instance = TideInstance::from_network(first.world.network(), &config);
    let plan = tracer.span("policy.plan", |_| {
        timed_s(|| {
            std::hint::black_box(csa::plan(&instance));
        })
    });
    out.set_named("policy.plan_s", plan, 3);
    out
}
