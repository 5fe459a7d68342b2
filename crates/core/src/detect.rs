//! The defender's detector suite and why CSA slips past it.
//!
//! Three auditors a WRSN base station can realistically run:
//!
//! * [`TrajectoryAudit`] — did the charger actually respond to every charging
//!   request in time? (Catches an *absent* charger / pure DoS. CSA responds
//!   to requests like a model citizen.)
//! * [`RadiatedPowerAudit`] — did neighbours measure RF power during each
//!   session? (Catches a *mute* visitor. CSA radiates at least as much as an
//!   honest charger — the cancellation happens in the air, not at the
//!   antenna.)
//! * [`EnergyReportAudit`] — nodes periodically report residual energy; a
//!   node that was "charged" but reports no gain is flagged. This is the only
//!   auditor that can see spoofing — *if the victim survives to its next
//!   report*. CSA's time windows schedule each masquerade so late that the
//!   victim dies first; the window-oblivious
//!   [`crate::attack::EagerSpoofPolicy`] gets caught here (experiment `fig8`).

use serde::{Deserialize, Serialize};

use wrsn_net::NodeId;
use wrsn_sim::{SimEvent, World};

/// One detector alarm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alarm {
    /// The node the alarm concerns.
    pub node: NodeId,
    /// When the alarm fires, seconds.
    pub time_s: f64,
    /// Human-readable cause.
    pub detail: String,
}

/// All alarms one detector raised over a run.
#[derive(Debug, Clone)]
pub struct DetectionReport {
    /// The detector's name.
    pub detector: String,
    /// Alarms in time order.
    pub alarms: Vec<Alarm>,
    /// Flagged-node index, built lazily on first membership query so ratio
    /// loops over large victim lists stay O(alarms + nodes) instead of
    /// O(alarms × nodes). Never serialized, never compared.
    by_node: std::sync::OnceLock<std::collections::HashSet<NodeId>>,
}

impl PartialEq for DetectionReport {
    fn eq(&self, other: &Self) -> bool {
        self.detector == other.detector && self.alarms == other.alarms
    }
}

// The lazy index never enters the wire shape: a report serializes exactly as
// the plain `{detector, alarms}` record it always was.
impl Serialize for DetectionReport {
    fn write_json(&self, out: &mut String) -> Result<(), serde::Error> {
        let mut map = serde::json::MapWriter::new(out);
        map.field("detector", &self.detector)?;
        map.field("alarms", &self.alarms)?;
        map.end();
        Ok(())
    }
}

impl Deserialize for DetectionReport {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = value
            .as_map()
            .ok_or_else(|| serde::Error::expected("map", "DetectionReport"))?;
        Ok(DetectionReport::new(
            String::from_value(serde::map_get(entries, "detector")?)?,
            Vec::from_value(serde::map_get(entries, "alarms")?)?,
        ))
    }
}

impl DetectionReport {
    /// A report over `alarms` from the named detector.
    fn new(detector: impl Into<String>, alarms: Vec<Alarm>) -> Self {
        DetectionReport {
            detector: detector.into(),
            alarms,
            by_node: std::sync::OnceLock::new(),
        }
    }

    /// Number of alarms.
    pub fn alarm_count(&self) -> usize {
        self.alarms.len()
    }

    /// The set of nodes with at least one alarm (indexed once per report).
    fn flagged_nodes(&self) -> &std::collections::HashSet<NodeId> {
        self.by_node
            .get_or_init(|| self.alarms.iter().map(|a| a.node).collect())
    }

    /// Whether `node` was flagged at all.
    pub fn flagged(&self, node: NodeId) -> bool {
        self.flagged_nodes().contains(&node)
    }

    /// Fraction of `nodes` that were flagged, or `None` for an empty list —
    /// there is no meaningful ratio over zero victims, and the old `1.0`
    /// convention silently inflated aggregate detection stats in sweep cells
    /// that produced no victims.
    pub fn detection_ratio(&self, nodes: &[NodeId]) -> Option<f64> {
        if nodes.is_empty() {
            return None;
        }
        let flagged = self.flagged_nodes();
        Some(nodes.iter().filter(|n| flagged.contains(n)).count() as f64 / nodes.len() as f64)
    }
}

/// A base-station-side auditor over a finished run.
pub trait Detector {
    /// The detector's name.
    fn name(&self) -> &str;

    /// Analyses the run and returns all alarms.
    fn analyze(&self, world: &World) -> DetectionReport;
}

/// Flags charging requests that no session answered in time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryAudit {
    /// Maximum tolerated delay between a request and the session serving it,
    /// seconds.
    pub max_response_s: f64,
}

impl Default for TrajectoryAudit {
    fn default() -> Self {
        TrajectoryAudit {
            // A week. The deadline must be calibrated to *honest* service
            // latency, and a single saturated charger routinely takes days to
            // reach a queued requester — any deadline tight enough to catch
            // "suspiciously late" visits also floods the operator with false
            // positives on honest rounds (experiment `fig8` sweeps this).
            max_response_s: 604_800.0,
        }
    }
}

impl Detector for TrajectoryAudit {
    fn name(&self) -> &str {
        "trajectory-audit"
    }

    fn analyze(&self, world: &World) -> DetectionReport {
        let trace = world.trace();
        let mut alarms = Vec::new();
        for &(t, ref event) in trace.events() {
            let SimEvent::RequestIssued { node } = *event else {
                continue;
            };
            let deadline = t + self.max_response_s;
            if deadline > world.time_s() {
                continue; // run ended before the verdict is due
            }
            let served = trace
                .sessions_for(node)
                .any(|s| s.start_s >= t - 1e-9 && s.start_s <= deadline);
            if served {
                continue;
            }
            // If the node died before the deadline, the unanswered request is
            // itself damning — the charger let a requester die.
            alarms.push(Alarm {
                node,
                time_s: trace.death_time_of(node).unwrap_or(deadline).min(deadline),
                detail: format!("request at {t:.0} s never served"),
            });
        }
        DetectionReport::new(self.name(), alarms)
    }
}

/// Flags sessions whose measured RF power is implausibly low for a charger
/// that claims to be charging.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RadiatedPowerAudit {
    /// Minimum plausible radiated power during a session, watts.
    pub min_radiated_w: f64,
}

impl Default for RadiatedPowerAudit {
    fn default() -> Self {
        RadiatedPowerAudit {
            min_radiated_w: 0.5 * wrsn_em::constants::DEFAULT_TX_POWER_W,
        }
    }
}

impl Detector for RadiatedPowerAudit {
    fn name(&self) -> &str {
        "radiated-power-audit"
    }

    fn analyze(&self, world: &World) -> DetectionReport {
        let mut alarms = Vec::new();
        for s in world.trace().sessions() {
            if s.duration_s <= 0.0 {
                continue;
            }
            let radiated_w = s.radiated_j / s.duration_s;
            if radiated_w < self.min_radiated_w {
                alarms.push(Alarm {
                    node: s.node,
                    time_s: s.start_s + s.duration_s,
                    detail: format!("session radiated only {radiated_w:.3} W"),
                });
            }
        }
        DetectionReport::new(self.name(), alarms)
    }
}

/// Flags nodes whose periodic energy report contradicts a recent "charge".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyReportAudit {
    /// Period of node energy reports, seconds.
    pub report_interval_s: f64,
    /// DC power the base station believes a session delivers, watts.
    pub rated_power_w: f64,
    /// Minimum delivered/expected ratio a session must show at the next
    /// report, below which the node is flagged.
    pub efficiency_threshold: f64,
}

impl Default for EnergyReportAudit {
    fn default() -> Self {
        EnergyReportAudit {
            report_interval_s: 1_800.0, // half-hourly reports
            rated_power_w: wrsn_em::ChargeModel::powercast()
                .power_at(wrsn_sim::charger::DEFAULT_SERVICE_DISTANCE_M),
            efficiency_threshold: 0.5,
        }
    }
}

impl EnergyReportAudit {
    /// The first report instant strictly after `t`.
    fn next_report_after(&self, t: f64) -> f64 {
        (t / self.report_interval_s).floor() * self.report_interval_s + self.report_interval_s
    }
}

impl Detector for EnergyReportAudit {
    fn name(&self) -> &str {
        "energy-report-audit"
    }

    fn analyze(&self, world: &World) -> DetectionReport {
        let trace = world.trace();
        let mut alarms = Vec::new();
        for s in trace.sessions() {
            if s.duration_s <= 0.0 {
                continue;
            }
            let expected = self.rated_power_w * s.duration_s;
            if expected <= 0.0 || s.delivered_j / expected >= self.efficiency_threshold {
                continue;
            }
            // The discrepancy only surfaces at the victim's next report — if
            // it lives that long.
            let report_at = self.next_report_after(s.start_s + s.duration_s);
            if report_at > world.time_s() {
                continue; // run ended before the report
            }
            let died_before_report = trace
                .death_time_of(s.node)
                .map(|d| d <= report_at)
                .unwrap_or(false);
            if died_before_report {
                continue; // dead nodes file no reports — CSA's escape hatch
            }
            alarms.push(Alarm {
                node: s.node,
                time_s: report_at,
                detail: format!(
                    "charged {:.0} s but gained {:.1} J (expected {:.1} J)",
                    s.duration_s, s.delivered_j, expected
                ),
            });
        }
        DetectionReport::new(self.name(), alarms)
    }
}

/// Post-mortem forensics: flag nodes that died *shortly after being
/// "charged"* — the countermeasure CSA cannot dodge.
///
/// CSA's whole stealth strategy is that its victims die before contradicting
/// the fake charge. That leaves a tombstone pattern no live-report audit
/// sees: a node was served, then died within hours. An operator replaying
/// logs after losing connectivity *will* see it — but only **after** the key
/// nodes are gone (the attack has already succeeded for those victims), and
/// only at a false-positive cost: under a saturated honest charger, nodes
/// legitimately die soon after a partial top-up too. Experiment `fig11`
/// quantifies both sides.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PostMortemAudit {
    /// A death within this long after the end of the node's last session is
    /// flagged, seconds.
    pub grace_period_s: f64,
}

impl Default for PostMortemAudit {
    fn default() -> Self {
        PostMortemAudit {
            grace_period_s: 6.0 * 3600.0,
        }
    }
}

impl Detector for PostMortemAudit {
    fn name(&self) -> &str {
        "post-mortem-audit"
    }

    fn analyze(&self, world: &World) -> DetectionReport {
        let trace = world.trace();
        let mut alarms = Vec::new();
        for &(node, death_s) in trace.death_times() {
            let last_session_end = trace
                .sessions_for(node)
                .map(|s| s.start_s + s.duration_s)
                .fold(f64::NEG_INFINITY, f64::max);
            if !last_session_end.is_finite() {
                continue; // never served; starvation, not spoofing
            }
            if death_s - last_session_end <= self.grace_period_s {
                alarms.push(Alarm {
                    node,
                    time_s: death_s,
                    detail: format!(
                        "died {:.0} s after its last charge ended",
                        death_s - last_session_end
                    ),
                });
            }
        }
        DetectionReport::new(self.name(), alarms)
    }
}

/// Service-fairness audit: flag nodes that died waiting for service far
/// longer than the population norm.
///
/// This is what catches the *selective neglect* attacker
/// ([`crate::attack::SelectiveNeglectPolicy`]) — a charger that simply never
/// comes for its victims leaves a targeted-starvation pattern: the victim's
/// request aged many times longer than the median served request before it
/// died. CSA slips through precisely because it *does* serve its victims
/// (with cancelled waves); that is the point of building spoofing hardware
/// at all.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FairnessAudit {
    /// Flag a node that died with a request older than this multiple of the
    /// median served-request latency.
    pub latency_factor: f64,
}

impl Default for FairnessAudit {
    fn default() -> Self {
        FairnessAudit {
            latency_factor: 5.0,
        }
    }
}

impl Detector for FairnessAudit {
    fn name(&self) -> &str {
        "fairness-audit"
    }

    fn analyze(&self, world: &World) -> DetectionReport {
        let trace = world.trace();
        // Latency of every served request.
        let mut served_latencies = Vec::new();
        let mut pending: Vec<(NodeId, f64)> = Vec::new(); // (node, request time)
        for &(t, ref event) in trace.events() {
            let SimEvent::RequestIssued { node } = *event else {
                continue;
            };
            match trace
                .sessions_for(node)
                .filter(|s| s.start_s >= t - 1e-9)
                .map(|s| s.start_s - t)
                .fold(None::<f64>, |acc, l| Some(acc.map_or(l, |a| a.min(l))))
            {
                Some(latency) => served_latencies.push(latency),
                None => pending.push((node, t)),
            }
        }
        if served_latencies.is_empty() {
            // No service at all → absence, not *selective* neglect; the
            // trajectory audit owns that case.
            return DetectionReport::new(self.name(), Vec::new());
        }
        served_latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = served_latencies[served_latencies.len() / 2];
        let mut alarms = Vec::new();
        for (node, t) in pending {
            let Some(death) = trace.death_time_of(node) else {
                continue; // still waiting, not yet damning
            };
            if death - t > self.latency_factor * median.max(1.0) {
                alarms.push(Alarm {
                    node,
                    time_s: death,
                    detail: format!(
                        "died after waiting {:.0} s for service (median latency {:.0} s)",
                        death - t,
                        median
                    ),
                });
            }
        }
        DetectionReport::new(self.name(), alarms)
    }
}

/// Adapter that lifts the **online** base-station audit
/// ([`wrsn_sim::audit`]) into the post-hoc [`Detector`] suite: its alarms
/// are the convictions the world's attached digital twin already issued
/// *during* the run — challenge-response probes of just-served nodes, scored
/// against the honest charge model, convicted by a k-of-m failure rule.
///
/// Unlike the trace detectors above, this one performs no analysis of its
/// own: the evidence was gathered live (and probe cost paid live). A world
/// without an attached audit ([`wrsn_sim::World::with_audit`]) yields an
/// empty report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TwinAudit;

impl Detector for TwinAudit {
    fn name(&self) -> &str {
        "twin-audit"
    }

    fn analyze(&self, world: &World) -> DetectionReport {
        let alarms = world
            .audit()
            .map(|audit| {
                audit
                    .convictions()
                    .iter()
                    .map(|c| Alarm {
                        node: c.node,
                        time_s: c.time_s,
                        detail: c.detail.clone(),
                    })
                    .collect()
            })
            .unwrap_or_default();
        DetectionReport::new(self.name(), alarms)
    }
}

/// The full standard suite with default thresholds. The post-mortem audit is
/// *not* part of it: it is the forensic countermeasure evaluated separately
/// (`fig11`) because its alarms arrive only after the victim is gone.
pub fn standard_detectors() -> Vec<Box<dyn Detector>> {
    vec![
        Box::new(TrajectoryAudit::default()),
        Box::new(RadiatedPowerAudit::default()),
        Box::new(EnergyReportAudit::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{run_attack, EagerSpoofPolicy};
    use crate::tide::TideConfig;
    use wrsn_net::energy::Battery;
    use wrsn_net::node::SensorNode;
    use wrsn_net::{deploy, Network, Point};
    use wrsn_sim::{IdlePolicy, MobileCharger, World, WorldConfig};

    fn attack_world(horizon: f64) -> World {
        let (_, nodes) = deploy::corridor(10, 4, 3);
        let nodes: Vec<SensorNode> = nodes
            .into_iter()
            .map(|n| SensorNode::with_battery(n.position(), Battery::new(400.0, 80.0)))
            .collect();
        let net = Network::build(nodes, Point::new(10.0, 50.0), 30.0);
        let charger = MobileCharger::standard(Point::new(10.0, 50.0));
        let mut world = World::new(
            net,
            charger,
            WorldConfig {
                horizon_s: horizon,
                ..WorldConfig::default()
            },
        );
        // Staggered levels: depletion deadlines (and stealth windows) spread
        // out, as in a long-running network.
        let n = world.network().node_count();
        for i in 0..n {
            let level = 120.0 + 10.0 * ((i * 7) % n) as f64;
            world.set_battery_level(NodeId(i), level).unwrap();
        }
        world
    }

    #[test]
    fn a_report_encodes_without_its_index() {
        let alarm = Alarm {
            node: NodeId(3),
            time_s: 1.5,
            detail: "no gain".to_string(),
        };
        let report = DetectionReport::new("energy", vec![alarm]);
        assert!(report.flagged(NodeId(3)));
        let text = serde_json::to_string(&report).unwrap();
        let wire =
            r#"{"detector":"energy","alarms":[{"node":[3],"time_s":1.5,"detail":"no gain"}]}"#;
        assert_eq!(text, wire);
        let back: DetectionReport = serde_json::from_str(&text).unwrap();
        assert!(back == report && back.flagged(NodeId(3)) && !back.flagged(NodeId(4)));
    }

    #[test]
    fn absent_charger_trips_trajectory_audit() {
        let mut world = attack_world(400_000.0);
        world.run(&mut IdlePolicy).expect("run");
        // Use a deadline short enough to be judged within this horizon.
        let report = TrajectoryAudit {
            max_response_s: 100_000.0,
        }
        .analyze(&world);
        assert!(report.alarm_count() > 0, "DoS by absence must be visible");
    }

    #[test]
    fn csa_passes_trajectory_and_rf_audits() {
        let mut world = attack_world(400_000.0);
        let (_, outcome) = run_attack(&mut world, TideConfig::default()).expect("attack run");
        assert!(outcome.exhausted > 0);
        let victims: Vec<NodeId> = world.trace().sessions().iter().map(|s| s.node).collect();
        let rf = RadiatedPowerAudit::default().analyze(&world);
        assert_eq!(rf.detection_ratio(&victims), Some(0.0), "{rf:?}");
        // CSA answers requests of the nodes it targets within the audit's
        // (necessarily lax — benign chargers queue too) response deadline;
        // it must not flag any *served* victim.
        let traj = TrajectoryAudit::default().analyze(&world);
        for v in &victims {
            assert!(!traj.flagged(*v), "served victim {v} flagged: {traj:?}");
        }
    }

    #[test]
    fn csa_evades_energy_report_audit_but_eager_spoof_does_not() {
        // CSA: spoofs inside the window → victims die before reporting.
        let mut csa_world = attack_world(400_000.0);
        let (_, outcome) = run_attack(&mut csa_world, TideConfig::default()).expect("attack run");
        assert!(outcome.exhausted > 0);
        let csa_victims: Vec<NodeId> = csa_world
            .trace()
            .sessions()
            .iter()
            .map(|s| s.node)
            .collect();
        let audit = EnergyReportAudit::default();
        let csa_ratio = audit
            .analyze(&csa_world)
            .detection_ratio(&csa_victims)
            .expect("victims nonempty");

        // Eager spoof: fakes the charge immediately at the warning threshold;
        // the victim has ~20% battery left and survives many report periods.
        let mut eager_world = attack_world(400_000.0);
        eager_world
            .run(&mut EagerSpoofPolicy::new(3_000.0))
            .expect("run");
        let eager_victims: Vec<NodeId> = eager_world
            .trace()
            .sessions()
            .iter()
            .map(|s| s.node)
            .collect();
        assert!(!eager_victims.is_empty());
        let eager_ratio = audit
            .analyze(&eager_world)
            .detection_ratio(&eager_victims)
            .expect("victims nonempty");

        assert!(
            csa_ratio < 0.2,
            "CSA should evade the energy audit, ratio {csa_ratio}"
        );
        assert!(
            eager_ratio > 0.6,
            "eager spoofing should be caught, ratio {eager_ratio}"
        );
    }

    #[test]
    fn honest_charging_raises_no_energy_alarms() {
        let mut world = attack_world(400_000.0);
        world.run(&mut wrsn_charge::Njnp::new()).expect("run");
        let served: Vec<NodeId> = world.trace().sessions().iter().map(|s| s.node).collect();
        assert!(!served.is_empty(), "premise: NJNP served someone");
        let audit = EnergyReportAudit::default().analyze(&world);
        assert_eq!(
            audit.detection_ratio(&served),
            Some(0.0),
            "false positives on honest charging: {audit:?}"
        );
    }

    #[test]
    fn twin_audit_convicts_naive_csa_online() {
        let mut world = attack_world(400_000.0).with_audit(wrsn_sim::AuditConfig::default());
        let (_, outcome) = run_attack(&mut world, TideConfig::default()).expect("attack run");
        assert!(outcome.exhausted > 0);
        let report = TwinAudit.analyze(&world);
        assert!(
            report.alarm_count() > 0,
            "probed spoof sessions must convict: {:?}",
            world.audit().map(|a| a.probes())
        );
        // Convictions fired during the run, not at the horizon.
        let first = world.audit().unwrap().first_conviction_s().unwrap();
        assert!(first < world.time_s());
    }

    #[test]
    fn twin_audit_raises_nothing_on_honest_charging() {
        let mut world = attack_world(400_000.0).with_audit(wrsn_sim::AuditConfig::default());
        world.run(&mut wrsn_charge::Njnp::new()).expect("run");
        assert!(
            !world.audit().unwrap().probes().is_empty(),
            "premise: honest sessions were probed"
        );
        let report = TwinAudit.analyze(&world);
        assert_eq!(report.alarm_count(), 0, "false positives: {report:?}");
    }

    #[test]
    fn stealth_csa_evades_the_twin_at_real_energy_cost() {
        use crate::attack::{evaluate_attack, CsaAttackPolicy};
        // Stealth fraction above the default tolerance (0.25): every probed
        // partial-power session passes.
        let mut world = attack_world(400_000.0).with_audit(wrsn_sim::AuditConfig::default());
        let mut policy = CsaAttackPolicy::new(TideConfig::default()).with_stealth(0.35);
        world.run(&mut policy).expect("run");
        let outcome = evaluate_attack(&world, &policy);
        assert!(
            !policy.targets().is_empty(),
            "premise: masquerades happened"
        );
        let report = TwinAudit.analyze(&world);
        assert_eq!(report.alarm_count(), 0, "stealth convicted: {report:?}");
        // The price of stealth: partial-power masquerades deliver real
        // energy to their victims.
        let delivered: f64 = world
            .trace()
            .sessions()
            .iter()
            .filter(|s| s.mode.is_attack())
            .map(|s| s.delivered_j)
            .sum();
        assert!(delivered > 0.0, "stealth spoofs must leak real energy");
        let _ = outcome;
    }

    #[test]
    fn twin_audit_is_empty_without_an_attached_audit() {
        let mut world = attack_world(300_000.0);
        world.run(&mut IdlePolicy).expect("run");
        assert_eq!(TwinAudit.analyze(&world).alarm_count(), 0);
    }

    #[test]
    fn post_mortem_audit_catches_csa_after_the_fact() {
        let mut world = attack_world(400_000.0);
        let (_, outcome) = run_attack(&mut world, TideConfig::default()).expect("attack run");
        assert!(outcome.exhausted > 0);
        let victims: Vec<NodeId> = world
            .trace()
            .sessions()
            .iter()
            .filter(|s| s.mode == wrsn_sim::ChargeMode::Spoofed)
            .map(|s| s.node)
            .collect();
        let report = PostMortemAudit::default().analyze(&world);
        // The forensic audit sees (nearly) every spoofed victim — each died
        // during or right after its "charge".
        let ratio = report.detection_ratio(&victims).expect("victims nonempty");
        assert!(ratio > 0.9, "post-mortem ratio {ratio} ({report:?})");
        // ... but every alarm fires at the victim's death — too late for it.
        for alarm in &report.alarms {
            let death = world.trace().death_time_of(alarm.node).unwrap();
            assert!((alarm.time_s - death).abs() < 1e-6);
        }
    }

    #[test]
    fn post_mortem_audit_ignores_pure_starvation() {
        let mut world = attack_world(400_000.0);
        world.run(&mut IdlePolicy).expect("run");
        // Nodes died, but none was ever "charged": zero alarms.
        assert!(!world.trace().death_times().is_empty());
        let report = PostMortemAudit::default().analyze(&world);
        assert_eq!(report.alarm_count(), 0, "{report:?}");
    }

    #[test]
    fn fairness_audit_catches_selective_neglect_but_not_csa() {
        use crate::attack::SelectiveNeglectPolicy;

        let mut neglect_world = attack_world(400_000.0);
        let mut neglect = SelectiveNeglectPolicy::new();
        neglect_world.run(&mut neglect).expect("run");
        let neglect_victims = neglect.census();
        assert!(!neglect_victims.is_empty());
        let neglect_ratio = FairnessAudit::default()
            .analyze(&neglect_world)
            .detection_ratio(&neglect_victims)
            .expect("victims nonempty");

        let mut csa_world = attack_world(400_000.0);
        let (_, outcome) = run_attack(&mut csa_world, TideConfig::default()).expect("attack run");
        assert!(outcome.exhausted > 0);
        let csa_victims: Vec<NodeId> = csa_world
            .trace()
            .sessions()
            .iter()
            .filter(|s| s.mode == wrsn_sim::ChargeMode::Spoofed)
            .map(|s| s.node)
            .collect();
        let csa_ratio = FairnessAudit::default()
            .analyze(&csa_world)
            .detection_ratio(&csa_victims)
            .expect("victims nonempty");

        assert!(
            neglect_ratio > 0.6,
            "neglect should be caught: {neglect_ratio}"
        );
        assert!(csa_ratio < 0.1, "CSA should pass fairness: {csa_ratio}");
    }

    #[test]
    fn selective_neglect_starves_its_census() {
        use crate::attack::SelectiveNeglectPolicy;
        let mut world = attack_world(400_000.0);
        let mut policy = SelectiveNeglectPolicy::new();
        world.run(&mut policy).expect("run");
        let census = policy.census();
        assert!(!census.is_empty());
        let dead = census
            .iter()
            .filter(|n| !world.network().alive(n.0))
            .count();
        assert!(
            dead as f64 >= 0.8 * census.len() as f64,
            "neglect killed only {dead}/{}",
            census.len()
        );
        // And it never served them.
        for v in &census {
            assert_eq!(world.trace().sessions_for(*v).count(), 0);
        }
    }

    #[test]
    fn fairness_audit_is_silent_without_any_service() {
        let mut world = attack_world(300_000.0);
        world.run(&mut IdlePolicy).expect("run");
        let report = FairnessAudit::default().analyze(&world);
        assert_eq!(
            report.alarm_count(),
            0,
            "absence is the trajectory audit's case"
        );
    }

    #[test]
    fn report_interval_math() {
        let a = EnergyReportAudit {
            report_interval_s: 100.0,
            ..EnergyReportAudit::default()
        };
        assert_eq!(a.next_report_after(0.0), 100.0);
        assert_eq!(a.next_report_after(99.0), 100.0);
        assert_eq!(a.next_report_after(100.0), 200.0);
    }
}
