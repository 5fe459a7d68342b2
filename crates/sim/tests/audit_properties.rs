//! Property tests of the online base-station audit ([`wrsn_sim::audit`]).
//!
//! Two contracts, each driven over randomly sized worlds and seeds:
//!
//! 1. **No false convictions**: on a benign, fault-free run — an honest
//!    charger answering requests at default detector aggressiveness — the
//!    digital twin must convict nobody, no matter how many sessions it
//!    probes.
//! 2. **Snapshot durability**: a conviction reached mid-campaign must
//!    survive `World::snapshot`/JSON round-trip/`restore`, and the restored
//!    campaign must finish bitwise identically to the uninterrupted one.

use proptest::prelude::*;
use serde::Deserialize;
use wrsn_net::energy::Battery;
use wrsn_net::node::SensorNode;
use wrsn_net::{Network, Point, Region};
use wrsn_sim::{
    AuditConfig, ChargeMode, ChargerAction, ChargerPolicy, MobileCharger, World, WorldConfig,
    WorldView,
};

fn build_world(nodes: usize, seed: u64, horizon_s: f64) -> World {
    // Small batteries so requests (and spoof kills) land inside the window.
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

/// Benign baseline: answer every charging request honestly, wait otherwise.
struct HonestOnDemand;

impl ChargerPolicy for HonestOnDemand {
    fn next_action(&mut self, view: &WorldView<'_>) -> ChargerAction {
        if view.time_left_s() <= 0.0 || view.charger.is_exhausted() {
            return ChargerAction::Finish;
        }
        if let Some(r) = view.requests.iter().find(|r| view.is_alive(r.node)) {
            return ChargerAction::Charge {
                node: r.node,
                duration_s: 600.0,
                mode: ChargeMode::Honest,
            };
        }
        ChargerAction::Wait(1_000.0_f64.min(view.time_left_s()))
    }

    fn name(&self) -> &str {
        "honest-on-demand"
    }
}

/// Deterministic mixed-mode campaign: visits nodes round-robin, cycling
/// honest / spoofed / partial sessions — passes, failures, and convictions
/// all occur, which is exactly what the identity and round-trip properties
/// need to be non-vacuous.
struct MixedSpree {
    issued: usize,
    count: usize,
}

impl ChargerPolicy for MixedSpree {
    fn next_action(&mut self, view: &WorldView<'_>) -> ChargerAction {
        if self.issued >= self.count || view.time_left_s() <= 0.0 {
            return ChargerAction::Finish;
        }
        let k = self.issued;
        self.issued += 1;
        let node = wrsn_net::NodeId(k % view.net.node_count());
        ChargerAction::Charge {
            node,
            duration_s: 400.0 + 100.0 * (k % 3) as f64,
            mode: match k % 3 {
                0 => ChargeMode::Honest,
                1 => ChargeMode::Spoofed,
                _ => ChargeMode::Partial { fraction: 0.4 },
            },
        }
    }

    fn name(&self) -> &str {
        "mixed-spree"
    }
}

/// Every probe is issued (`probe_rate` 1) so the properties never pass
/// vacuously on an unlucky selection draw.
fn eager_audit(seed: u64) -> AuditConfig {
    AuditConfig {
        probe_rate: 1.0,
        ..AuditConfig::default()
    }
    .with_seed(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite 3a: zero false positives on a benign fault-free run at
    /// default aggressiveness.
    #[test]
    fn benign_fault_free_run_raises_no_convictions(
        nodes in 6usize..20,
        seed in 0u64..1_000,
    ) {
        let mut world = build_world(nodes, seed, 150_000.0)
            .with_audit(AuditConfig::default().with_seed(seed));
        world.run(&mut HonestOnDemand).expect("run");
        let audit = world.audit().expect("audit attached");
        prop_assert_eq!(
            audit.convictions().len(),
            0,
            "honest charging convicted: {:?}",
            audit.convictions()
        );
        prop_assert_eq!(audit.starved(), 0, "no budget, nothing starves");
    }

    /// Satellite 3c: a conviction reached mid-campaign round-trips through
    /// snapshot → JSON → restore, and the restored world finishes the
    /// campaign bitwise identically to the uninterrupted one.
    #[test]
    fn conviction_round_trips_through_snapshot_restore(
        nodes in 6usize..16,
        seed in 0u64..1_000,
        first_leg in 2usize..5,
    ) {
        // Leg 1 always contains a spoofed session (k = 1), so by snapshot
        // time at least one conviction exists (probe_rate 1, k-of-m 1-of-4).
        let mut world = build_world(nodes, seed, 300_000.0)
            .with_audit(eager_audit(seed));
        world
            .run(&mut MixedSpree { issued: 0, count: first_leg })
            .expect("leg 1");
        let convicted_mid = world.audit().expect("attached").convictions().len();
        prop_assert!(convicted_mid > 0, "premise: mid-campaign conviction");

        let checkpoint = world.snapshot();
        // Round-trip the snapshot through JSON, as a disk checkpoint would.
        let json = state_json(&world);
        let value = serde_json::from_str(&json).expect("parse");
        let revived = World::from_value(&value).expect("deserialize");
        prop_assert_eq!(
            revived.audit().expect("attached"),
            world.audit().expect("attached"),
            "audit ledger did not round-trip"
        );
        let mut restored = build_world(nodes, seed, 300_000.0);
        restored.restore(&checkpoint);

        // Both worlds finish the campaign; the restored one must track the
        // uninterrupted one bitwise, convictions included.
        let mut finish = MixedSpree { issued: first_leg, count: first_leg + 3 };
        world.run(&mut finish).expect("leg 2");
        let mut finish_restored = MixedSpree { issued: first_leg, count: first_leg + 3 };
        restored.run(&mut finish_restored).expect("restored leg 2");
        prop_assert_eq!(&state_json(&restored), &state_json(&world));
        prop_assert!(
            world.audit().expect("attached").convictions().len() >= convicted_mid,
            "convictions lost after resume"
        );
    }
}
