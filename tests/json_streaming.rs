//! Decode-then-encode identity for the one-pass JSON encoder.
//!
//! `serde_json::to_string` streams through `Serialize::write_json`, the one
//! encoder each type has. Decoding its text and encoding the result again
//! must give the same bytes: for every world a run can reach, for every
//! record the trace and checkpoint formats carry, and for the std shapes the
//! derive composes.

use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use wrsn::charge::EarliestDeadlineFirst;
use wrsn::core::attack::CsaAttackPolicy;
use wrsn::net::metrics::HealthSnapshot;
use wrsn::net::{NodeId, Point};
use wrsn::scenario::Scenario;
use wrsn::sim::obs::{self, SCHEMA_VERSION};
use wrsn::sim::{
    AuditConfig, ChargeMode, ChargeSession, ChargerPolicy, FaultConfig, FaultKind, FaultPlan,
    NullRecorder, SimEvent, TraceRecord, World,
};

/// `value`'s encoding, after checking that decoding it and encoding the
/// result again gives the same bytes.
fn encode_checked<T: Serialize + Deserialize>(value: &T) -> String {
    let text = serde_json::to_string(value).expect("finite value");
    let back: T = serde_json::from_str(&text).expect("an encoding decodes");
    assert_eq!(serde_json::to_string(&back).expect("finite value"), text);
    text
}

/// A paper-scale world with an audit and a fault plan, run under `posture`
/// until the first action boundary at or past `stop` × horizon.
fn world_at(
    nodes: usize,
    seed: u64,
    preset: &str,
    faults: usize,
    posture: usize,
    stop: f64,
) -> World {
    let scenario = Scenario::paper_scale(nodes, seed);
    let mut audit = AuditConfig::preset(preset)
        .expect("known preset")
        .with_seed(seed);
    if seed % 2 == 1 {
        audit.probe_budget_j = Some(40.0);
    }
    let mut world = scenario.build().with_audit(audit);
    if faults > 0 {
        world.set_fault_plan(FaultPlan::generate(
            seed,
            nodes,
            scenario.horizon_s,
            &FaultConfig::uniform(faults),
        ));
    }
    let mut policy: Box<dyn ChargerPolicy> = match posture {
        0 => Box::new(EarliestDeadlineFirst::new()),
        1 => Box::new(CsaAttackPolicy::new(scenario.tide_config())),
        _ => Box::new(CsaAttackPolicy::new(scenario.tide_config()).with_stealth(0.35)),
    };
    let stop_s = stop * scenario.horizon_s;
    // Cancelling at the stop time is the expected way out; running to the
    // horizon first is fine too.
    let _ = world.run_with_progress(&mut *policy, &mut NullRecorder, 1.0, &mut |t, _| t < stop_s);
    world
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn worlds_survive_decode_then_encode(
        nodes in 8usize..48,
        seed in 0u64..1_000,
        preset in 0usize..3,
        faults in 0usize..4,
        posture in 0usize..3,
        stop in 0.0f64..1.2,
    ) {
        let preset = ["lax", "default", "aggressive"][preset];
        let world = world_at(nodes, seed, preset, faults, posture, stop);
        let text = encode_checked(&world);
        prop_assert_eq!(serde_json::to_string(&world.snapshot()).expect("finite"), text);
    }
}

fn session(mode: ChargeMode) -> ChargeSession {
    ChargeSession {
        node: NodeId(7),
        start_s: 12.5,
        duration_s: 1e-7,
        delivered_j: 0.0,
        radiated_j: 3.0e21,
        mode,
        charger_pos: Point::new(-1.0, 2.0 / 3.0),
    }
}

#[test]
fn every_trace_record_survives_decode_then_encode() {
    let faults = [
        FaultKind::NodeFailure { node: NodeId(1) },
        FaultKind::Degradation {
            node: NodeId(2),
            factor: 0.3,
        },
        FaultKind::ChargerStall { delay_s: 90.0 },
        FaultKind::RequestLoss { node: NodeId(3) },
    ];
    let mut events = vec![
        SimEvent::NodeDied { node: NodeId(0) },
        SimEvent::RequestIssued { node: NodeId(4) },
        SimEvent::MoveStarted {
            dest: Point::new(1.0, 1e-300),
        },
        SimEvent::MoveEnded {
            pos: Point::new(0.1, -0.0),
        },
        SimEvent::SessionEnded { session: 9 },
        SimEvent::ChargerExhausted,
        SimEvent::DepotSwap,
        SimEvent::HorizonReached,
        SimEvent::AuditConviction { node: NodeId(5) },
    ];
    events.extend(faults.map(|fault| SimEvent::Fault { fault }));
    let mut records = vec![
        TraceRecord::Meta {
            schema: "wrsn-trace".to_string(),
            scope: "a \"quoted\"\\scope\n\t✓".to_string(),
        },
        TraceRecord::Snapshot {
            t_s: 2e6,
            health: HealthSnapshot {
                alive: 3,
                total: 4,
                sink_reachability: 0.75,
                coverage: 1.0,
                connected: false,
            },
        },
        TraceRecord::Counters {
            scope: "fig2".to_string(),
            counters: vec![("segments".to_string(), 12), ("deaths".to_string(), 0)],
        },
    ];
    records.extend(
        [
            ChargeMode::Honest,
            ChargeMode::Spoofed,
            ChargeMode::Partial { fraction: 0.35 },
        ]
        .map(|mode| TraceRecord::Session {
            session: session(mode),
        }),
    );
    records.extend(faults.map(|fault| TraceRecord::Fault { t_s: 3.0, fault }));
    records.extend(events.iter().map(|event| TraceRecord::Event {
        t_s: 0.5,
        event: event.clone(),
    }));

    for event in &events {
        encode_checked(event);
    }
    for record in &records {
        let text = encode_checked(record);
        let line = obs::to_jsonl_line(record).unwrap();
        assert_eq!(
            line,
            format!("{{\"v\":{SCHEMA_VERSION},\"record\":{text}}}")
        );
        assert_eq!(&obs::from_jsonl_line(&line).unwrap(), record);
    }
}

#[derive(Serialize, Deserialize)]
struct Unit;

#[derive(Serialize, Deserialize)]
struct Pair(u8, String);

#[derive(Serialize, Deserialize)]
enum Shape {
    Empty,
    Float { n: i32, x: f64 },
    Named { a: u8, b: Option<bool> },
}

#[derive(Serialize, Deserialize)]
struct Mixed {
    some: Option<f64>,
    none: Option<String>,
    pair: (u32, f64),
    triple: (i64, Pair, Unit),
    small: (i16, Option<i16>, i8),
    shapes: Vec<Shape>,
}

#[test]
fn option_and_tuple_fields_survive_decode_then_encode() {
    let mixed = Mixed {
        some: Some(-2.5e-8),
        none: None,
        pair: (u32::MAX, 1.0),
        triple: (i64::MIN, Pair(0, "x\u{1}y".to_string()), Unit),
        small: (i16::MIN, Some(i16::MAX), -7),
        shapes: vec![
            Shape::Empty,
            Shape::Float { n: -1, x: 0.1 },
            Shape::Named { a: 2, b: None },
            Shape::Named {
                a: 3,
                b: Some(true),
            },
        ],
    };
    encode_checked(&mixed);
    encode_checked(&(Some(1u8), None::<u8>, -7i8));
    assert_eq!(encode_checked(&Value::Map(Vec::new())), "{}");
}

#[test]
fn strings_needing_escapes_survive_decode_then_encode() {
    let nasty = "\"\\/\n\r\t\u{08}\u{0c}\u{0}\u{1f}\u{7f} ✓ 🦀 end".to_string();
    encode_checked(&nasty);
    assert_eq!(
        serde_json::to_string(&nasty).unwrap(),
        "\"\\\"\\\\/\\n\\r\\t\\b\\f\\u0000\\u001f\u{7f} ✓ 🦀 end\""
    );
    assert_eq!(
        serde_json::from_str::<String>(&serde_json::to_string(&nasty).unwrap()).unwrap(),
        nasty
    );
    encode_checked(&vec!["plain".to_string(), String::new()]);
}

#[test]
fn non_finite_floats_still_fail_to_encode() {
    assert!(serde_json::to_string(&f64::NAN).is_err());
    assert!(serde_json::to_string(&f64::INFINITY).is_err());
    assert!(serde_json::to_string(&vec![Some(0.0), Some(f64::NEG_INFINITY)]).is_err());
    assert!(serde_json::to_string(&Shape::Float { n: 0, x: f64::NAN }).is_err());
}
