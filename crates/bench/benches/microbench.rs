//! Criterion micro-benchmarks behind `tab1`: the algorithmic building blocks
//! of the attack pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use wrsn::core::tide::TideInstance;
use wrsn::core::{csa, exact};
use wrsn::em::{superposition, Wave};
use wrsn::net::keynode::{self, KeyNodeConfig};
use wrsn::net::routing::RoutingTree;
use wrsn::scenario::Scenario;
use wrsn::sim::{
    AuditConfig, CheckpointPolicy, Checkpointer, FaultConfig, FaultPlan, NullRecorder,
};

use wrsn_bench::experiments::common::synthetic_instance;

fn bench_superposition(c: &mut Criterion) {
    let waves: Vec<Wave> = (0..64)
        .map(|k| Wave::new(1.0 / (k + 1) as f64, k as f64 * 0.37))
        .collect();
    c.bench_function("superposition/received_power_64_waves", |b| {
        b.iter(|| superposition::received_power(black_box(&waves)))
    });
}

fn bench_network(c: &mut Criterion) {
    let mut group = c.benchmark_group("network");
    group.sample_size(10);
    for &n in &[100usize, 200] {
        let world = Scenario::paper_scale(n, 3).build();
        let net = world.network().clone();
        let mask = net.alive_mask();
        group.bench_with_input(BenchmarkId::new("routing_tree", n), &n, |b, _| {
            b.iter(|| RoutingTree::shortest_path(black_box(&net), black_box(&mask)))
        });
        group.bench_with_input(BenchmarkId::new("betweenness", n), &n, |b, _| {
            b.iter(|| net.betweenness(black_box(&mask)))
        });
        group.bench_with_input(BenchmarkId::new("articulation_points", n), &n, |b, _| {
            b.iter(|| net.articulation_points(black_box(&mask)))
        });
        group.bench_with_input(BenchmarkId::new("stranded_counts", n), &n, |b, _| {
            b.iter(|| keynode::stranded_counts(black_box(&net), black_box(&mask)))
        });
        group.bench_with_input(BenchmarkId::new("keynode_identify", n), &n, |b, _| {
            b.iter(|| keynode::identify(black_box(&net), &KeyNodeConfig::default()))
        });
    }
    group.finish();
}

fn bench_planners(c: &mut Criterion) {
    let mut group = c.benchmark_group("planners");
    group.sample_size(10);
    for &n in &[10usize, 20, 40, 80] {
        let inst = synthetic_instance(n, 42, 400.0, 1.0e9);
        group.bench_with_input(BenchmarkId::new("csa_plan", n), &inst, |b, inst| {
            b.iter(|| csa::plan(black_box(inst)))
        });
    }
    let small = synthetic_instance(10, 42, 400.0, 1.0e9);
    group.bench_function("exact_solve_10", |b| {
        b.iter(|| exact::solve(black_box(&small)))
    });
    group.finish();
}

fn bench_instance_derivation(c: &mut Criterion) {
    let mut group = c.benchmark_group("tide");
    group.sample_size(10);
    for &n in &[100usize, 200] {
        let scenario = Scenario::paper_scale(n, 5);
        let world = scenario.build();
        let cfg = scenario.tide_config();
        group.bench_with_input(BenchmarkId::new("from_world", n), &n, |b, _| {
            b.iter(|| TideInstance::from_world(black_box(&world), black_box(&cfg)))
        });
    }
    group.finish();
}

fn bench_full_attack(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.bench_function("attack_run_50_nodes", |b| {
        b.iter(|| {
            let scenario = Scenario::paper_scale(50, 9);
            let mut world = scenario.build();
            let mut policy = wrsn::core::attack::CsaAttackPolicy::new(scenario.tide_config());
            black_box(world.run(&mut policy))
        })
    });
    group.finish();
}

/// One periodic checkpoint of a 400-node audited, fault-injected CSA world
/// half-way through its horizon: `warm` keeps the checkpointer's encode
/// cache across checkpoints, as a run does; `cold` attaches a fresh
/// checkpointer each time, so it encodes the whole world.
fn bench_checkpoint(c: &mut Criterion) {
    // Each advance crosses one or two due instants, so it writes exactly one
    // checkpoint, and moves the world by microseconds.
    const EVERY_S: f64 = 1e-3;
    const STEP_S: f64 = 1.5 * EVERY_S;
    let mut group = c.benchmark_group("store");
    group.sample_size(10);
    let (nodes, seed) = (400, 1);
    let scenario = Scenario::paper_scale(nodes, seed);
    let mut world = scenario
        .build()
        .with_audit(AuditConfig::default().with_seed(seed));
    world.set_fault_plan(FaultPlan::generate(
        seed,
        nodes,
        scenario.horizon_s,
        &FaultConfig::uniform(2),
    ));
    let mut policy = wrsn::core::attack::CsaAttackPolicy::new(scenario.tide_config());
    let half_s = scenario.horizon_s / 2.0;
    let _cancelled =
        world.run_with_progress(&mut policy, &mut NullRecorder, 1.0, &mut |t, _| t < half_s);
    let path = std::env::temp_dir().join(format!("wrsn-microbench-{}.ckpt", std::process::id()));
    let checkpointer = Checkpointer::new(&path, CheckpointPolicy::every(EVERY_S));

    let mut warm = world.clone();
    warm.set_checkpointer(Some(checkpointer.clone()));
    group.bench_function("checkpoint_write_due/warm", |b| {
        b.iter(|| warm.advance_by(black_box(STEP_S)))
    });
    let mut cold = world;
    group.bench_function("checkpoint_write_due/cold", |b| {
        b.iter(|| {
            cold.set_checkpointer(Some(checkpointer.clone()));
            cold.advance_by(black_box(STEP_S))
        })
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
}

criterion_group!(
    benches,
    bench_superposition,
    bench_network,
    bench_planners,
    bench_instance_derivation,
    bench_full_attack,
    bench_checkpoint
);
criterion_main!(benches);
