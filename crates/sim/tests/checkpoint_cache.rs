//! Byte identity of the checkpointer's cached encoding.
//!
//! A [`Checkpointer`] keeps what it already encoded of the world — the
//! network's static parts and the settled prefixes of the trace and audit
//! logs — and formats only what changed at each checkpoint. The first test
//! pins that every file it rolls is byte for byte what `store::save` writes
//! for a snapshot of the world at that instant. The run covers an audit and
//! injected faults, charging sessions that merge across a checkpoint,
//! `set_audit` and `set_fault_plan` mid-run, and restores to an earlier
//! checkpoint and to a later one from a diverged run.
//!
//! A scripted charger stops working just before each checkpoint falls due
//! and waits until just after it, so the checkpoint is written at the end of
//! that wait, where the run stops and the test compares the files. The gap
//! is too short to break a charging session: a visit resumed after the
//! checkpoint merges into the session recorded before it.
//!
//! The second test checks the phase spans each checkpoint records.

use std::path::PathBuf;

use wrsn_net::energy::Battery;
use wrsn_net::node::SensorNode;
use wrsn_net::{Network, NodeId, Point, Region};
use wrsn_sim::{
    store, AuditConfig, ChargeMode, ChargerAction, ChargerPolicy, Checkpoint, CheckpointPolicy,
    Checkpointer, Counter, FaultConfig, FaultPlan, MobileCharger, NullRecorder, SimError,
    StatsRecorder, World, WorldConfig, WorldView,
};

/// Simulated seconds between checkpoints.
const EVERY_S: f64 = 4_000.0;
/// The charger rests from this long before each checkpoint falls due to
/// this long after it: far below the spacing of the run's events, so the
/// checkpoint is written at the end of the rest, and far below the 1-µs gap
/// that still merges two charging chunks into one session.
const REST_S: f64 = 1e-7;
/// Length of one charging visit: longer than an interval, so every visit is
/// served in chunks that merge across a checkpoint.
const VISIT_S: f64 = 1.5 * EVERY_S;
const NODES: usize = 12;
const SEED: u64 = 5;

fn world(horizon_s: f64) -> World {
    let deployed = wrsn_net::deploy::uniform(&Region::square(60.0), NODES, SEED);
    let nodes: Vec<SensorNode> = deployed
        .iter()
        .map(|n| SensorNode::with_battery(n.position(), Battery::new(150.0, 30.0)))
        .collect();
    let net = Network::build(nodes, Point::new(30.0, 30.0), 20.0);
    World::new(
        net,
        MobileCharger::standard(Point::new(30.0, 30.0)),
        WorldConfig {
            horizon_s,
            ..WorldConfig::default()
        },
    )
}

/// Crashes, degradations and lost requests over the tested span. Travel
/// stalls stay out: they stretch a move past the end the script planned.
fn faults(seed: u64) -> FaultPlan {
    let config = FaultConfig {
        node_failures: 2,
        degradations: 3,
        request_losses: 3,
        ..FaultConfig::default()
    };
    FaultPlan::generate(seed, NODES, 30.0 * EVERY_S, &config)
}

/// Serves nodes in long visits, requesters first, mostly spoofed, and
/// rests around each checkpoint.
#[derive(Default)]
struct Script {
    /// When the next checkpoint falls due.
    due_s: f64,
    turn: usize,
    /// The node being visited, its mode and the visit time left.
    visit: Option<(NodeId, ChargeMode, f64)>,
}

impl Script {
    fn next_visit(&mut self, view: &WorldView<'_>) -> Option<(NodeId, ChargeMode, f64)> {
        self.turn += 1;
        let requester = view
            .requests
            .iter()
            .map(|r| r.node)
            .find(|&n| view.is_alive(n));
        let node = requester.or_else(|| {
            (0..NODES)
                .map(|k| NodeId((self.turn + k) % NODES))
                .find(|&n| view.is_alive(n))
        })?;
        let mode = if self.turn.is_multiple_of(3) {
            ChargeMode::Honest
        } else {
            ChargeMode::Spoofed
        };
        Some((node, mode, VISIT_S))
    }
}

impl ChargerPolicy for Script {
    fn next_action(&mut self, view: &WorldView<'_>) -> ChargerAction {
        let rest = ChargerAction::Wait(self.due_s + REST_S - view.time_s);
        let work_s = self.due_s - REST_S - view.time_s;
        if work_s < REST_S / 2.0 {
            return rest;
        }
        let visit = match self.visit {
            Some((node, _, left)) if left > 0.0 && view.is_alive(node) => self.visit,
            _ => self.next_visit(view),
        };
        self.visit = visit;
        let Some((node, mode, left)) = visit else {
            return rest;
        };
        let park = view
            .charger
            .service_point(view.net.positions()[node.index()]);
        if view.charger.position().distance(park) <= 1e-9 {
            let duration_s = left.min(work_s);
            self.visit = Some((node, mode, left - duration_s));
            ChargerAction::Charge {
                node,
                duration_s,
                mode,
            }
        } else if view.charger.travel_time_to(park) < work_s {
            ChargerAction::MoveTo(park)
        } else {
            rest
        }
    }

    fn name(&self) -> &str {
        "script"
    }
}

/// A world with a checkpointer attached, run one checkpoint at a time.
struct Run {
    world: World,
    script: Script,
    /// When the next checkpoint falls due, computed as the checkpointer does.
    due_s: f64,
    rolled: PathBuf,
    fresh: PathBuf,
}

impl Run {
    fn new(mut world: World, tag: &str) -> Run {
        let dir = std::env::temp_dir();
        let stem = format!("wrsn-ckpt-cache-{tag}-{}", std::process::id());
        let rolled = dir.join(format!("{stem}.ckpt"));
        world.set_checkpointer(Some(Checkpointer::new(
            &rolled,
            CheckpointPolicy::every(EVERY_S),
        )));
        Run {
            due_s: world.time_s() + EVERY_S,
            world,
            script: Script::default(),
            rolled,
            fresh: dir.join(format!("{stem}.fresh.ckpt")),
        }
    }

    fn written(&self) -> u64 {
        self.world.checkpointer().map_or(0, Checkpointer::written)
    }

    /// Runs to just past the next checkpoint and checks the rolled file
    /// against `store::save` of a snapshot.
    fn step(&mut self) {
        let before = self.written();
        let stop_s = self.due_s + REST_S / 2.0;
        self.script.due_s = self.due_s;
        let result =
            self.world
                .run_with_progress(&mut self.script, &mut NullRecorder, 1e-9, &mut |t, _| {
                    t < stop_s
                });
        assert_eq!(result.unwrap_err(), SimError::Cancelled);
        assert_eq!(self.written(), before + 1, "one checkpoint per step");
        store::save(&self.fresh, &self.world.snapshot()).expect("save a snapshot");
        let rolled = std::fs::read(&self.rolled).expect("read the rolled checkpoint");
        let fresh = std::fs::read(&self.fresh).expect("read the saved snapshot");
        assert!(
            rolled == fresh,
            "checkpoint at t = {} s differs from store::save of a snapshot",
            self.world.time_s()
        );
        self.due_s += EVERY_S;
    }

    fn steps(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    fn restore(&mut self, checkpoint: &Checkpoint) {
        self.world.restore(checkpoint);
        self.due_s = self.world.time_s() + EVERY_S;
    }
}

impl Drop for Run {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.rolled);
        let _ = std::fs::remove_file(&self.fresh);
    }
}

#[test]
fn every_rolled_checkpoint_equals_a_fresh_save() {
    let horizon_s = 100.0 * EVERY_S;
    let audited = world(horizon_s).with_audit(AuditConfig::default().with_seed(SEED));
    let mut main = Run::new(audited.with_fault_plan(faults(SEED)), "main");
    main.steps(3);
    let early = store::load(&main.rolled).expect("load the rolled checkpoint");
    main.steps(3);

    main.world
        .set_audit(Some(AuditConfig::default().with_seed(SEED + 1)));
    main.steps(2);
    main.world.set_fault_plan(faults(SEED + 2));
    main.steps(2);

    // Back to the earlier checkpoint: every log is shorter than what was
    // kept of it.
    main.restore(&early);
    main.steps(2);

    // Ahead to a later checkpoint of a run that branched off at the earlier
    // one: its logs are longer than what was kept, and differ after the
    // branch.
    let mut branch = main.world.clone();
    branch.set_checkpointer(None);
    branch.restore(&early);
    branch.set_audit(Some(AuditConfig::default().with_seed(SEED + 3)));
    branch.set_fault_plan(faults(SEED + 4));
    let mut branch = Run::new(branch, "branch");
    branch.steps(8);
    assert!(branch.world.time_s() > main.world.time_s());
    main.restore(&branch.world.snapshot());
    main.steps(3);

    // The run exercised what it claims to.
    let trace = main.world.trace();
    assert!(
        trace.sessions().iter().any(|s| s.duration_s > EVERY_S),
        "no session merged across a checkpoint"
    );
    let audit = main.world.audit().expect("audit attached");
    assert!(!audit.probes().is_empty(), "no probes");
    assert!(!audit.convictions().is_empty(), "no convictions");
    let faults = main.world.fault_injector().expect("faults attached");
    assert!(faults.injected() > 0, "no faults injected");
    assert!(!trace.death_times().is_empty(), "no deaths");
}

/// Each checkpoint is timed as a `checkpoint` span with `encode`, `hash` and
/// `write` children. Spans add no trace records.
#[test]
fn each_checkpoint_records_its_phases_as_spans() {
    let mut run = Run::new(world(100.0 * EVERY_S), "spans");
    let mut rec = StatsRecorder::new();
    // A checkpoint is written at most once per segment boundary, so
    // advance one interval at a time.
    for _ in 0..5 {
        run.world
            .advance_by_with(EVERY_S, &mut rec)
            .expect("advance");
    }
    let written = run.written();
    assert!(written >= 4, "{written} checkpoints");
    assert_eq!(rec.counter(Counter::CheckpointsWritten), written);
    for path in [
        "checkpoint",
        "checkpoint.encode",
        "checkpoint.hash",
        "checkpoint.write",
    ] {
        let span = rec.spans().iter().find(|s| s.path == path);
        assert_eq!(span.map(|s| s.count), Some(written), "`{path}` span");
    }
    assert!(rec.records().is_empty());
}
