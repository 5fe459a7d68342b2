//! Online base-station auditing: a digital twin plus stochastic
//! challenge-response probes, scored *during* the run.
//!
//! The post-mortem detectors in `wrsn-core::detect` replay a finished trace;
//! this module is the defender made first-class. The base station maintains a
//! **digital twin** of every charging session it commissions: from the honest
//! charge model it knows the energy a session *should* have delivered
//! (`believed_j`), and from the node's drain rate it knows the residual level
//! the victim *should* report afterwards. After each session it may issue a
//! **challenge-response probe** — ask the just-served node for its residual
//! energy — and score the divergence between the believed and the measured
//! trajectory.
//!
//! Probing every session is unaffordable (each probe costs radio time and
//! base-station budget), so selection is *stochastic but deterministic*: a
//! seeded FNV-1a hash over `(seed, probe_seq, node)` decides each challenge,
//! which keeps the whole campaign byte-identical at any thread count and
//! lets a probe schedule survive `World::snapshot`/`restore`
//! without carrying RNG state.
//!
//! A single failed probe is not a conviction — degraded hardware
//! ([`crate::fault`]) legitimately under-delivers — so each node keeps a
//! sliding window of its last `window_m` probe outcomes and is convicted when
//! `convict_k` of them failed. Convictions are typed alarms with the
//! simulation time they fired at (time-to-detection comes for free).
//!
//! The twin is **purely observational**: it never perturbs the trajectory, so
//! a world with an attached audit produces bit-identical physics to one
//! without (only the audit's own state differs). The probe *cost* is
//! accounted against the base station's overhead budget, not the charger's.

use serde::json::MapWriter;
use serde::{Deserialize, Serialize};

use wrsn_net::NodeId;

use crate::obs::{Counter, Recorder};
use crate::store::{fnv1a64, LogPrefix};

/// Detector aggressiveness: how often to challenge, how much divergence to
/// tolerate, and how many failures convict.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuditConfig {
    /// Seed for the deterministic challenge selection.
    pub seed: u64,
    /// Fraction of eligible sessions that get probed, in `[0, 1]`.
    pub probe_rate: f64,
    /// Conviction tolerance τ: a probe fails when the measured energy gain is
    /// below `τ × believed_j`. Must sit *below* the worst legitimate
    /// efficiency degradation (the default fault model degrades to 0.3 at
    /// worst) or honest-but-degraded hardware gets convicted.
    pub tolerance: f64,
    /// Failures within the window that convict a node.
    pub convict_k: usize,
    /// Sliding-window length (probes per node) the failures are counted in.
    pub window_m: usize,
    /// Sessions believed to deliver less than this are not worth a probe
    /// (decoy slivers, zero-length truncations), joules.
    pub min_audit_j: f64,
    /// Modeled cost of one challenge-response probe, joules of base-station
    /// overhead budget.
    pub probe_cost_j: f64,
    /// Overhead budget for probing; `None` is unlimited. When the budget
    /// runs dry the audit goes blind (probes stop) — aggressiveness is not
    /// free.
    pub probe_budget_j: Option<f64>,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            seed: 0,
            probe_rate: 0.6,
            // Below the fault model's worst-case single degradation (0.3):
            // one degraded-but-honest session still passes.
            tolerance: 0.25,
            convict_k: 1,
            window_m: 4,
            min_audit_j: 1.0,
            probe_cost_j: 5.0,
            probe_budget_j: None,
        }
    }
}

impl AuditConfig {
    /// A lax preset: sparse probing, a forgiving tolerance, and a 2-of-4
    /// conviction rule. The ROC curve's bottom anchor — a naive CSA whose
    /// victims are each served exactly once is never convicted here.
    fn lax() -> Self {
        AuditConfig {
            probe_rate: 0.25,
            tolerance: 0.15,
            convict_k: 2,
            window_m: 4,
            ..AuditConfig::default()
        }
    }

    /// An aggressive preset: probe every session and demand better than half
    /// the believed energy. Catches attackers fast — and starts convicting
    /// honest sessions on fault-degraded hardware (efficiency can drop to
    /// 0.3 < 0.55), which is exactly the false-positive cost the `arms_race`
    /// experiment quantifies.
    fn aggressive() -> Self {
        AuditConfig {
            probe_rate: 1.0,
            tolerance: 0.55,
            convict_k: 1,
            window_m: 2,
            ..AuditConfig::default()
        }
    }

    /// The preset registered under `name` (`lax`, `default`, `aggressive`).
    pub fn preset(name: &str) -> Option<Self> {
        match name {
            "lax" => Some(AuditConfig::lax()),
            "default" => Some(AuditConfig::default()),
            "aggressive" => Some(AuditConfig::aggressive()),
            _ => None,
        }
    }

    /// Seeds the challenge selection, returning the config.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// What one challenge-response probe concluded.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ProbeOutcome {
    /// Measured gain was at least `tolerance × believed_j`.
    Pass,
    /// Measured gain fell below the tolerance.
    Fail,
    /// The node's battery ended at capacity: an honest charge tops out, and a
    /// full battery cannot show the believed gain. Counts as a pass.
    Saturated,
    /// The node is down but holds residual charge: a hard fault (crashes keep
    /// their residual), not exhaustion under a masquerade. Counts as a pass.
    CrashExcused,
}

impl ProbeOutcome {
    /// Whether this outcome counts as a conviction-window failure.
    pub fn is_failure(self) -> bool {
        matches!(self, ProbeOutcome::Fail)
    }
}

/// One issued probe, as recorded by the twin.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProbeRecord {
    /// The challenged node.
    pub node: NodeId,
    /// When the probe fired (the session's end), seconds.
    pub time_s: f64,
    /// Energy the twin believed the session delivered, joules.
    pub believed_j: f64,
    /// Energy gain the challenged node actually reported, joules.
    pub measured_j: f64,
    /// The verdict.
    pub outcome: ProbeOutcome,
}

/// A node convicted by the k-of-m rule: the online audit's typed alarm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conviction {
    /// The convicted node.
    pub node: NodeId,
    /// When the conviction fired, seconds — time-to-detection against the
    /// campaign start.
    pub time_s: f64,
    /// Probe failures in the window at conviction time.
    pub failures: usize,
    /// Probes in the window at conviction time.
    pub window: usize,
    /// Human-readable cause.
    pub detail: String,
}

/// Everything the world hands the twin about one completed charging session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionObservation {
    /// The served node.
    pub node: NodeId,
    /// Session end time, seconds.
    pub end_s: f64,
    /// Actual session duration, seconds.
    pub duration_s: f64,
    /// Energy the honest charge model says this session delivered, joules —
    /// the twin's expectation.
    pub believed_j: f64,
    /// The node's battery level just before the session, joules.
    pub level_before_j: f64,
    /// The node's battery level at session end, joules.
    pub level_after_j: f64,
    /// The node's battery capacity, joules.
    pub capacity_j: f64,
    /// Whether the node is alive at session end.
    pub alive: bool,
    /// The node's routing drain at session end, watts (used to reconstruct
    /// the gain the session produced net of consumption).
    pub drain_w: f64,
}

/// The base station's online audit state: digital twin + probe ledger +
/// conviction windows. Attach with [`crate::World::with_audit`].
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct AuditState {
    config: AuditConfig,
    /// Monotone probe-selection counter: the only randomness state, so the
    /// schedule snapshots/restores and re-executes bitwise.
    probe_seq: u64,
    /// Every probe issued, in time order.
    probes: Vec<ProbeRecord>,
    /// Per-node sliding windows of recent probe failures (`true` = failure),
    /// sized lazily by node index.
    windows: Vec<Vec<bool>>,
    /// Per-node convicted flags (a node is convicted at most once).
    convicted: Vec<bool>,
    /// Convictions in time order.
    convictions: Vec<Conviction>,
    /// Probe overhead spent so far, joules.
    spent_j: f64,
    /// Eligible sessions that were selected but not probed because the
    /// overhead budget was exhausted.
    starved: u64,
}

impl Serialize for AuditState {
    fn write_json(&self, out: &mut String) -> Result<(), serde::Error> {
        AuditEncoder::default().encode(self, out)
    }
}

/// Encodes an [`AuditState`] as JSON, keeping what earlier encodes of the
/// same audit wrote of its append-only probe and conviction logs (see
/// [`LogPrefix`]).
#[derive(Debug, Default)]
pub(crate) struct AuditEncoder {
    probes: LogPrefix,
    convictions: LogPrefix,
}

impl AuditEncoder {
    /// Appends `audit`'s JSON to `out`.
    pub(crate) fn encode(
        &mut self,
        audit: &AuditState,
        out: &mut String,
    ) -> Result<(), serde::Error> {
        let mut map = MapWriter::new(out);
        map.field("config", &audit.config)?;
        map.field("probe_seq", &audit.probe_seq)?;
        let probes = &audit.probes;
        self.probes
            .encode(probes, probes.len(), map.key("probes"))?;
        map.field("windows", &audit.windows)?;
        map.field("convicted", &audit.convicted)?;
        let convictions = &audit.convictions;
        self.convictions
            .encode(convictions, convictions.len(), map.key("convictions"))?;
        map.field("spent_j", &audit.spent_j)?;
        map.field("starved", &audit.starved)?;
        map.end();
        Ok(())
    }
}

impl AuditState {
    /// A fresh audit with `config`.
    pub fn new(config: AuditConfig) -> Self {
        AuditState {
            config,
            probe_seq: 0,
            probes: Vec::new(),
            windows: Vec::new(),
            convicted: Vec::new(),
            convictions: Vec::new(),
            spent_j: 0.0,
            starved: 0,
        }
    }

    /// The configuration this audit runs under.
    pub fn config(&self) -> &AuditConfig {
        &self.config
    }

    /// Every probe issued so far, in time order.
    pub fn probes(&self) -> &[ProbeRecord] {
        &self.probes
    }

    /// Every conviction so far, in time order.
    pub fn convictions(&self) -> &[Conviction] {
        &self.convictions
    }

    /// Probe overhead spent so far, joules.
    pub fn spent_j(&self) -> f64 {
        self.spent_j
    }

    /// Eligible sessions skipped because the probe budget was exhausted.
    pub fn starved(&self) -> u64 {
        self.starved
    }

    /// Time of the first conviction, if any — the campaign's
    /// time-to-detection.
    pub fn first_conviction_s(&self) -> Option<f64> {
        self.convictions.first().map(|c| c.time_s)
    }

    /// Whether the deterministic selector challenges eligible session number
    /// `seq` on `node`. Pure function of `(seed, seq, node)`: no RNG state.
    fn selected(&self, seq: u64, node: NodeId) -> bool {
        let mut bytes = [0u8; 24];
        bytes[..8].copy_from_slice(&self.config.seed.to_le_bytes());
        bytes[8..16].copy_from_slice(&seq.to_le_bytes());
        bytes[16..].copy_from_slice(&(node.0 as u64).to_le_bytes());
        let h = fnv1a64(&bytes);
        // Top 53 bits → uniform in [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < self.config.probe_rate
    }

    /// Scores one completed charging session. Called by the world at session
    /// end (serial code — deterministic at any thread count). Returns
    /// the conviction this session triggered, if any.
    pub fn observe_session(
        &mut self,
        obs: &SessionObservation,
        rec: &mut dyn Recorder,
    ) -> Option<Conviction> {
        if obs.believed_j < self.config.min_audit_j {
            return None; // not worth a challenge
        }
        let seq = self.probe_seq;
        self.probe_seq += 1;
        if !self.selected(seq, obs.node) {
            return None;
        }
        if let Some(budget) = self.config.probe_budget_j {
            if self.spent_j + self.config.probe_cost_j > budget {
                self.starved += 1;
                return None; // audit is blind: overhead budget exhausted
            }
        }
        self.spent_j += self.config.probe_cost_j;
        rec.add(Counter::AuditProbes, 1);

        // The twin's expected trajectory: level_before − drain·Δt + believed.
        // The challenged node reports level_after, so the measured *gain* net
        // of its own consumption is:
        let measured_j = obs.level_after_j - obs.level_before_j + obs.drain_w * obs.duration_s;
        let outcome = if !obs.alive {
            if obs.level_after_j > 1e-6 {
                // Crash faults keep their residual; exhaustion ends at zero.
                // A downed node with charge in the tank is a hardware loss,
                // not a spoofed kill.
                ProbeOutcome::CrashExcused
            } else {
                // Died at zero *under the charger*: the strongest possible
                // divergence from the believed trajectory.
                ProbeOutcome::Fail
            }
        } else if obs.level_after_j >= obs.capacity_j * (1.0 - 1e-9) {
            // A full battery cannot show the believed gain.
            ProbeOutcome::Saturated
        } else if measured_j >= self.config.tolerance * obs.believed_j {
            ProbeOutcome::Pass
        } else {
            ProbeOutcome::Fail
        };
        self.probes.push(ProbeRecord {
            node: obs.node,
            time_s: obs.end_s,
            believed_j: obs.believed_j,
            measured_j,
            outcome,
        });
        if outcome.is_failure() {
            rec.add(Counter::AuditProbeFailures, 1);
        }

        // Slide the node's window and apply the k-of-m rule.
        let idx = obs.node.0;
        if self.windows.len() <= idx {
            self.windows.resize(idx + 1, Vec::new());
            self.convicted.resize(idx + 1, false);
        }
        let window = &mut self.windows[idx];
        window.push(outcome.is_failure());
        if window.len() > self.config.window_m {
            window.remove(0);
        }
        let failures = window.iter().filter(|&&f| f).count();
        if failures >= self.config.convict_k && !self.convicted[idx] {
            self.convicted[idx] = true;
            let conviction = Conviction {
                node: obs.node,
                time_s: obs.end_s,
                failures,
                window: window.len(),
                detail: format!(
                    "{failures}/{} probe failures; last gain {measured_j:.1} J of {:.1} J believed",
                    window.len(),
                    obs.believed_j
                ),
            };
            self.convictions.push(conviction.clone());
            rec.add(Counter::AuditConvictions, 1);
            return Some(conviction);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::NullRecorder;

    fn obs(node: usize, believed: f64, gain: f64) -> SessionObservation {
        SessionObservation {
            node: NodeId(node),
            end_s: 100.0,
            duration_s: 50.0,
            believed_j: believed,
            level_before_j: 100.0,
            level_after_j: 100.0 + gain,
            capacity_j: 1000.0,
            alive: true,
            drain_w: 0.0,
        }
    }

    fn always_probe() -> AuditConfig {
        AuditConfig {
            probe_rate: 1.0,
            ..AuditConfig::default()
        }
    }

    #[test]
    fn honest_gain_passes_and_spoofed_gain_fails() {
        let mut audit = AuditState::new(always_probe());
        audit.observe_session(&obs(0, 100.0, 98.0), &mut NullRecorder);
        audit.observe_session(&obs(1, 100.0, 0.4), &mut NullRecorder);
        assert_eq!(audit.probes()[0].outcome, ProbeOutcome::Pass);
        assert_eq!(audit.probes()[1].outcome, ProbeOutcome::Fail);
        assert_eq!(audit.convictions().len(), 1);
        assert_eq!(audit.convictions()[0].node, NodeId(1));
        assert_eq!(audit.first_conviction_s(), Some(100.0));
    }

    #[test]
    fn degraded_but_tolerated_gain_passes_at_default() {
        let mut audit = AuditState::new(always_probe());
        // 30% of believed: the fault model's worst single degradation.
        audit.observe_session(&obs(0, 100.0, 30.0), &mut NullRecorder);
        assert_eq!(audit.probes()[0].outcome, ProbeOutcome::Pass);
    }

    #[test]
    fn saturation_and_crash_are_excused() {
        let mut audit = AuditState::new(always_probe());
        let mut full = obs(0, 100.0, 0.0);
        full.level_after_j = 1000.0;
        audit.observe_session(&full, &mut NullRecorder);
        let mut crashed = obs(1, 100.0, 0.0);
        crashed.alive = false;
        crashed.level_after_j = 60.0;
        audit.observe_session(&crashed, &mut NullRecorder);
        let mut exhausted = obs(2, 100.0, 0.0);
        exhausted.alive = false;
        exhausted.level_after_j = 0.0;
        audit.observe_session(&exhausted, &mut NullRecorder);
        assert_eq!(audit.probes()[0].outcome, ProbeOutcome::Saturated);
        assert_eq!(audit.probes()[1].outcome, ProbeOutcome::CrashExcused);
        assert_eq!(audit.probes()[2].outcome, ProbeOutcome::Fail);
        assert_eq!(audit.convictions().len(), 1);
        assert_eq!(audit.convictions()[0].node, NodeId(2));
    }

    #[test]
    fn k_of_m_rule_requires_k_failures() {
        let config = AuditConfig {
            probe_rate: 1.0,
            convict_k: 2,
            window_m: 3,
            ..AuditConfig::default()
        };
        let mut audit = AuditState::new(config);
        audit.observe_session(&obs(0, 100.0, 0.0), &mut NullRecorder);
        assert!(audit.convictions().is_empty(), "one failure is not enough");
        audit.observe_session(&obs(0, 100.0, 90.0), &mut NullRecorder);
        audit.observe_session(&obs(0, 100.0, 0.0), &mut NullRecorder);
        assert_eq!(audit.convictions().len(), 1, "two failures in the window");
        // A third failure never double-convicts.
        audit.observe_session(&obs(0, 100.0, 0.0), &mut NullRecorder);
        assert_eq!(audit.convictions().len(), 1);
    }

    #[test]
    fn window_slides_old_failures_out() {
        let config = AuditConfig {
            probe_rate: 1.0,
            convict_k: 2,
            window_m: 2,
            ..AuditConfig::default()
        };
        let mut audit = AuditState::new(config);
        audit.observe_session(&obs(0, 100.0, 0.0), &mut NullRecorder);
        audit.observe_session(&obs(0, 100.0, 90.0), &mut NullRecorder);
        // The old failure has slid out of the 2-wide window.
        audit.observe_session(&obs(0, 100.0, 90.0), &mut NullRecorder);
        audit.observe_session(&obs(0, 100.0, 0.0), &mut NullRecorder);
        assert!(audit.convictions().is_empty());
    }

    #[test]
    fn probe_budget_starves_the_audit() {
        let config = AuditConfig {
            probe_rate: 1.0,
            probe_cost_j: 5.0,
            probe_budget_j: Some(12.0),
            ..AuditConfig::default()
        };
        let mut audit = AuditState::new(config);
        for i in 0..4 {
            audit.observe_session(&obs(i, 100.0, 0.0), &mut NullRecorder);
        }
        assert_eq!(audit.probes().len(), 2, "12 J affords two 5 J probes");
        assert_eq!(audit.starved(), 2);
        assert_eq!(audit.spent_j(), 10.0);
    }

    #[test]
    fn tiny_sessions_are_not_probed() {
        let mut audit = AuditState::new(always_probe());
        audit.observe_session(&obs(0, 0.5, 0.0), &mut NullRecorder);
        assert!(audit.probes().is_empty());
        assert_eq!(audit.probe_seq, 0, "ineligible sessions don't consume seq");
    }

    #[test]
    fn selection_is_deterministic_and_rate_bounded() {
        let audit = AuditState::new(AuditConfig {
            probe_rate: 0.6,
            seed: 7,
            ..AuditConfig::default()
        });
        let picks: Vec<bool> = (0..1000).map(|s| audit.selected(s, NodeId(3))).collect();
        let again: Vec<bool> = (0..1000).map(|s| audit.selected(s, NodeId(3))).collect();
        assert_eq!(picks, again);
        let rate = picks.iter().filter(|&&p| p).count() as f64 / 1000.0;
        assert!((rate - 0.6).abs() < 0.08, "empirical rate {rate}");
    }

    #[test]
    fn audit_state_round_trips_through_serde() {
        let mut audit = AuditState::new(always_probe());
        audit.observe_session(&obs(0, 100.0, 0.0), &mut NullRecorder);
        audit.observe_session(&obs(1, 100.0, 80.0), &mut NullRecorder);
        let json = serde_json::to_string(&audit).expect("serialize");
        let value = serde_json::from_str(&json).expect("parse");
        let back = AuditState::from_value(&value).expect("deserialize");
        assert_eq!(audit, back);
    }
}
