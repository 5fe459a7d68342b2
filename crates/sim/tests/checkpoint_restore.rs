//! Checkpoint/restore correctness under random fault plans.
//!
//! The contract is bitwise: restoring a [`Checkpoint`] into *any* world and
//! re-advancing must reproduce the donor world's continued trajectory
//! exactly — same battery bit patterns, same event trace, same fault
//! bookkeeping. The property test drives randomly sized worlds with randomly
//! generated fault plans to a random snapshot instant, then compares the
//! continued run against the restored run through full state serialization
//! (which covers clocks, batteries, traces, pending requests, and the
//! injector cursor in one shot).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use wrsn_net::energy::Battery;
use wrsn_net::node::SensorNode;
use wrsn_net::{Network, Point, Region};
use wrsn_sim::fault::{FaultConfig, FaultPlan};
use wrsn_sim::obs::{Counter, StatsRecorder};
use wrsn_sim::{
    store, CheckpointPolicy, Checkpointer, MobileCharger, SimError, StoreError, World, WorldConfig,
};

fn build_world(nodes: usize, seed: u64, horizon_s: f64) -> World {
    // Small batteries so deaths (and the fault plan) land inside the window.
    let deployed = wrsn_net::deploy::uniform(&Region::square(60.0), nodes, seed);
    let nodes: Vec<SensorNode> = deployed
        .iter()
        .map(|n| SensorNode::with_battery(n.position(), Battery::new(150.0, 30.0)))
        .collect();
    let net = Network::build(nodes, Point::new(30.0, 30.0), 20.0);
    let charger = MobileCharger::standard(Point::new(30.0, 30.0));
    World::new(
        net,
        charger,
        WorldConfig {
            horizon_s,
            ..WorldConfig::default()
        },
    )
}

fn state_json(world: &World) -> String {
    serde_json::to_string(world).expect("serialize world")
}

fn temp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "wrsn-ckpt-test-{tag}-{}-{}.ckpt",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// snapshot → restore → advance is bitwise identical to the run that
    /// never stopped, for arbitrary fault plans and snapshot instants.
    #[test]
    fn restore_and_readvance_matches_uninterrupted_run(
        nodes in 3usize..10,
        seed in 0u64..1_000_000,
        intensity in 0usize..4,
        t1 in 1.0e3f64..6.0e4,
        t2 in 1.0e3f64..6.0e4,
    ) {
        let horizon = 2.0e5;
        let plan = FaultPlan::generate(seed, nodes, horizon, &FaultConfig::uniform(intensity));

        let mut donor = build_world(nodes, seed, horizon).with_fault_plan(plan.clone());
        donor.advance_by(t1).expect("advance to snapshot");
        let checkpoint = donor.snapshot();
        donor.advance_by(t2).expect("advance past snapshot");

        // Restore into an unrelated world: every field must come from the
        // checkpoint, nothing from the host.
        let mut restored = build_world(3, seed ^ 1, 1.0);
        restored.restore(&checkpoint);
        prop_assert_eq!(restored.time_s(), checkpoint.world().time_s());
        restored.advance_by(t2).expect("re-advance");

        prop_assert_eq!(state_json(&donor), state_json(&restored));
    }

    /// Fault plans are a pure function of their inputs, sorted, and bounded
    /// by the horizon.
    #[test]
    fn fault_plans_are_deterministic_sorted_and_bounded(
        seed in 0u64..1_000_000,
        nodes in 1usize..50,
        intensity in 0usize..6,
        horizon in 1.0e3f64..1.0e6,
    ) {
        let config = FaultConfig::uniform(intensity);
        let a = FaultPlan::generate(seed, nodes, horizon, &config);
        let b = FaultPlan::generate(seed, nodes, horizon, &config);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), config.total());
        for pair in a.events().windows(2) {
            prop_assert!(pair[0].at_s <= pair[1].at_s);
        }
        for event in a.events() {
            prop_assert!(event.at_s >= 0.0 && event.at_s <= horizon);
        }
    }

    /// A checkpoint survives serialization: JSON round-trip, restore, and
    /// re-advance still matches the donor bitwise.
    #[test]
    fn serialized_checkpoint_restores_bitwise(
        nodes in 3usize..8,
        seed in 0u64..1_000_000,
        intensity in 0usize..3,
        t1 in 1.0e3f64..4.0e4,
        t2 in 1.0e3f64..4.0e4,
    ) {
        let horizon = 2.0e5;
        let plan = FaultPlan::generate(seed, nodes, horizon, &FaultConfig::uniform(intensity));

        let mut donor = build_world(nodes, seed, horizon).with_fault_plan(plan);
        donor.advance_by(t1).expect("advance to snapshot");
        let checkpoint = donor.snapshot();
        donor.advance_by(t2).expect("advance past snapshot");

        let wire = serde_json::to_string(&checkpoint).expect("serialize checkpoint");
        let thawed: wrsn_sim::Checkpoint = serde_json::from_str(&wire).expect("parse checkpoint");
        let mut restored = build_world(3, seed ^ 1, 1.0);
        restored.restore(&thawed);
        restored.advance_by(t2).expect("re-advance");

        prop_assert_eq!(state_json(&donor), state_json(&restored));
    }

    /// The full disk round trip — `store::save` → `store::load` → restore →
    /// re-advance — is bitwise identical to the uninterrupted trajectory,
    /// for arbitrary fault plans and snapshot instants.
    #[test]
    fn persisted_checkpoint_restores_bitwise(
        nodes in 3usize..8,
        seed in 0u64..1_000_000,
        intensity in 0usize..3,
        t1 in 1.0e3f64..4.0e4,
        t2 in 1.0e3f64..4.0e4,
    ) {
        let horizon = 2.0e5;
        let plan = FaultPlan::generate(seed, nodes, horizon, &FaultConfig::uniform(intensity));

        let mut donor = build_world(nodes, seed, horizon).with_fault_plan(plan);
        donor.advance_by(t1).expect("advance to snapshot");
        let checkpoint = donor.snapshot();
        donor.advance_by(t2).expect("advance past snapshot");

        let path = temp_path("roundtrip");
        store::save(&path, &checkpoint).expect("save checkpoint");
        let thawed = store::load(&path).expect("load checkpoint");
        std::fs::remove_file(&path).ok();

        let mut restored = build_world(3, seed ^ 1, 1.0);
        restored.restore(&thawed);
        prop_assert_eq!(restored.time_s(), checkpoint.world().time_s());
        restored.advance_by(t2).expect("re-advance");

        prop_assert_eq!(state_json(&donor), state_json(&restored));
    }

    /// Corrupting any single byte of a checkpoint file, with any bit
    /// pattern, makes `store::load` return a typed error — never a panic,
    /// never a silently wrong world. A corrupted payload byte is always a
    /// checksum mismatch, even where it leaves the payload invalid UTF-8.
    #[test]
    fn corrupted_checkpoint_is_rejected_with_a_typed_error(
        seed in 0u64..1_000_000,
        t1 in 1.0e3f64..2.0e4,
        flip in 0usize..1_000_000_000,
        mask in 1u16..256,
    ) {
        let mut donor = build_world(4, seed, 2.0e5);
        donor.advance_by(t1).expect("advance");
        let path = temp_path("corrupt");
        store::save(&path, &donor.snapshot()).expect("save checkpoint");

        let mut bytes = std::fs::read(&path).expect("read back");
        let header_len = bytes.iter().position(|&b| b == b'\n').expect("header line") + 1;
        let at = flip % bytes.len();
        let mask = mask as u8;
        bytes[at] ^= mask;
        std::fs::write(&path, &bytes).expect("rewrite corrupted");

        let result = store::load(&path);
        std::fs::remove_file(&path).ok();
        let err = match result {
            Err(e) => e,
            // A changed payload byte can keep the JSON well-formed only if
            // the checksum also matched — impossible for FNV-1a, whose every
            // step is a bijection of its state.
            Ok(_) => return Err(TestCaseError::fail("corrupted checkpoint loaded")),
        };
        if at >= header_len {
            prop_assert!(
                matches!(err, StoreError::ChecksumMismatch { .. }),
                "payload byte {at} ^ {mask:#04x}: unexpected error: {err}"
            );
        }
        prop_assert!(matches!(
            err,
            StoreError::BadMagic { .. }
                | StoreError::UnsupportedVersion { .. }
                | StoreError::MalformedHeader { .. }
                | StoreError::Truncated { .. }
                | StoreError::ChecksumMismatch { .. }
                | StoreError::Payload { .. }
        ), "unexpected error: {err}");
    }

    /// Truncating a checkpoint file at any point makes `store::load` return
    /// a typed error — never a panic.
    #[test]
    fn truncated_checkpoint_is_rejected_with_a_typed_error(
        seed in 0u64..1_000_000,
        t1 in 1.0e3f64..2.0e4,
        cut in 0usize..1_000_000_000,
    ) {
        let mut donor = build_world(4, seed, 2.0e5);
        donor.advance_by(t1).expect("advance");
        let path = temp_path("truncate");
        store::save(&path, &donor.snapshot()).expect("save checkpoint");

        let bytes = std::fs::read(&path).expect("read back");
        let keep = cut % bytes.len(); // strictly shorter than the original
        std::fs::write(&path, &bytes[..keep]).expect("rewrite truncated");

        let result = store::load(&path);
        std::fs::remove_file(&path).ok();
        let err = match result {
            Err(e) => e,
            Ok(_) => return Err(TestCaseError::fail("truncated checkpoint loaded")),
        };
        prop_assert!(matches!(
            err,
            StoreError::BadMagic { .. }
                | StoreError::MalformedHeader { .. }
                | StoreError::Truncated { .. }
        ), "unexpected error: {err}");
    }
}

/// A world carrying a [`Checkpointer`] writes periodic snapshots during
/// `advance_by_with`, counts them in [`Counter::CheckpointsWritten`], and the
/// latest file restores bitwise.
#[test]
fn checkpointer_writes_periodic_loadable_snapshots() {
    let path = temp_path("periodic");
    let mut world = build_world(5, 7, 2.0e5);
    let mut reference = world.clone();
    world.set_checkpointer(Some(Checkpointer::new(
        &path,
        CheckpointPolicy::every(500.0),
    )));

    let mut stats = StatsRecorder::new();
    world.advance_by_with(2_000.0, &mut stats).expect("advance");

    let written = world.checkpointer().expect("still attached").written();
    assert!(written >= 1, "no checkpoints written");
    assert_eq!(stats.counter(Counter::CheckpointsWritten), written);

    // The file on disk is the latest snapshot; restoring it and re-advancing
    // to the same instant must match the attached world bitwise (the
    // checkpointer itself is never part of the persisted state).
    let thawed = store::load(&path).expect("load latest checkpoint");
    std::fs::remove_file(&path).ok();
    let at_s = thawed.world().time_s();
    assert!(at_s > 0.0 && at_s <= 2_000.0);
    reference.restore(&thawed);
    reference.advance_by(2_000.0 - at_s).expect("re-advance");
    world.set_checkpointer(None);
    assert_eq!(state_json(&world), state_json(&reference));
}

/// Cancelling the thread's token makes `advance_by` return
/// [`SimError::Cancelled`] instead of running to the horizon.
#[test]
fn cancelled_token_interrupts_advance() {
    use wrsn_sim::cancel::{CancelToken, ScopedCancel};
    let token = CancelToken::new();
    token.cancel();
    let _guard = ScopedCancel::install(token);
    let mut world = build_world(4, 11, 2.0e5);
    let err = world.advance_by(1_000.0).expect_err("must be cancelled");
    assert_eq!(err, SimError::Cancelled);
}
