//! Checkpointed run: a CSA campaign that persists itself while it runs.
//!
//! Attaches the online audit, a seeded fault plan and a periodic
//! checkpointer to a 200-node world, runs the attack to the horizon, then
//! reloads the last checkpoint the run rolled and checks it restores to a
//! world that re-saves to the same bytes. The checkpoint file stays behind:
//! its payload after the header line is the world's JSON snapshot, so
//! `tail -n +2 <file> > world.json` feeds `wrsn audit --load world.json`.
//!
//! Run with: `cargo run --release --example checkpointed_run -- <file.ckpt>`

use wrsn::core::attack::CsaAttackPolicy;
use wrsn::scenario::Scenario;
use wrsn::sim::{store, AuditConfig, CheckpointPolicy, Checkpointer, FaultConfig, FaultPlan};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::args()
        .nth(1)
        .ok_or("usage: checkpointed_run <file.ckpt>")?;
    let scenario = Scenario::paper_scale(200, 5);
    let mut world = scenario.build().with_audit(AuditConfig::default());
    world.set_fault_plan(FaultPlan::generate(
        5,
        200,
        scenario.horizon_s,
        &FaultConfig::uniform(2),
    ));
    world.set_checkpointer(Some(Checkpointer::new(
        &path,
        CheckpointPolicy::every(scenario.horizon_s / 32.0),
    )));
    let report = world.run(&mut CsaAttackPolicy::new(scenario.tide_config()))?;
    let written = world.checkpointer().map_or(0, Checkpointer::written);
    println!(
        "{} dead of {} nodes, {written} checkpoints rolled into {path}",
        report.dead_nodes,
        report.dead_nodes + report.alive_nodes
    );

    // The last checkpoint restores and re-saves byte for byte.
    let checkpoint = store::load(path.as_ref())?;
    let mut restored = checkpoint.world().clone();
    restored.restore(&checkpoint);
    let again = format!("{path}.resaved");
    store::save(again.as_ref(), &restored.snapshot())?;
    let identical = std::fs::read(&path)? == std::fs::read(&again)?;
    std::fs::remove_file(&again)?;
    if !identical {
        return Err("the restored checkpoint re-saved to different bytes".into());
    }
    println!(
        "checkpoint at t = {:.0} s restores and re-saves identically",
        checkpoint.world().time_s()
    );
    Ok(())
}
