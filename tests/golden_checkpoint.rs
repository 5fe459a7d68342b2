//! Golden digest of the checkpoint store's on-disk bytes.
//!
//! Pins the FNV-1a of what [`store::save`] writes for a small audited,
//! fault-injected CSA world, snapshotted half-way through the horizon and at
//! its end, plus the last file the periodic [`Checkpointer`] rolled during
//! that run. Any change to the JSON encoder, a hand-written `Serialize` impl
//! on the checkpoint path, or the store's header shows up here as a digest
//! mismatch. Regenerate after an *intentional* format change with:
//!
//! ```text
//! WRSN_BLESS=1 cargo test --release --test golden_checkpoint
//! ```

use std::path::{Path, PathBuf};

use wrsn::core::attack::CsaAttackPolicy;
use wrsn::scenario::Scenario;
use wrsn::sim::{
    store, AuditConfig, CheckpointPolicy, Checkpointer, FaultConfig, FaultPlan, NullRecorder,
    SimError,
};

const DIGEST_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/golden_checkpoint.txt"
);

const NODES: usize = 120;
const SEED: u64 = 3;
const ROLLED_PER_HORIZON: f64 = 16.0;

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wrsn-golden-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn file_digest(path: &Path) -> u64 {
    store::fnv1a64(&std::fs::read(path).expect("read checkpoint"))
}

/// `label:digest` lines for the half-way snapshot, the final snapshot and the
/// checkpointer's last rolled file.
fn digests() -> String {
    let dir = scratch_dir();
    let scenario = Scenario::paper_scale(NODES, SEED);
    let mut world = scenario.build().with_audit(AuditConfig::default());
    world.set_fault_plan(FaultPlan::generate(
        SEED,
        NODES,
        scenario.horizon_s,
        &FaultConfig::uniform(2),
    ));
    let rolled = dir.join("rolled.ckpt");
    world.set_checkpointer(Some(Checkpointer::new(
        &rolled,
        CheckpointPolicy::every(scenario.horizon_s / ROLLED_PER_HORIZON),
    )));
    let mut policy = CsaAttackPolicy::new(scenario.tide_config());

    // Stop at the first action boundary past half the horizon.
    let half_s = scenario.horizon_s / 2.0;
    let stopped =
        world.run_with_progress(&mut policy, &mut NullRecorder, 1.0, &mut |t, _| t < half_s);
    assert_eq!(stopped.unwrap_err(), SimError::Cancelled);
    let half = dir.join("half.ckpt");
    store::save(&half, &world.snapshot()).expect("save half-way snapshot");

    world.run(&mut policy).expect("run to the horizon");
    let end = dir.join("end.ckpt");
    store::save(&end, &world.snapshot()).expect("save final snapshot");
    let written = world.checkpointer().map_or(0, Checkpointer::written);
    assert!(written > 0, "the checkpointer never rolled a file");

    let out = format!(
        "half:{:016x}\nend:{:016x}\nrolled:{:016x}\n",
        file_digest(&half),
        file_digest(&end),
        file_digest(&rolled)
    );
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn checkpoint_bytes_match_golden_digest() {
    let current = digests();
    if std::env::var_os("WRSN_BLESS").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data")).unwrap();
        std::fs::write(DIGEST_PATH, &current).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(DIGEST_PATH)
        .expect("golden digest missing; regenerate with WRSN_BLESS=1 (see module docs)");
    assert_eq!(
        current, golden,
        "checkpoint bytes drifted from the golden digest; if the change is \
         intentional, regenerate with WRSN_BLESS=1 (see module docs)"
    );
}
