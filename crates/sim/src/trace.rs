//! Simulation traces: events and charging sessions.
//!
//! Detectors (`wrsn-core::detect`) and the experiment harness consume these
//! records; a [`ChargeSession`] in particular carries both the energy
//! *radiated* by the charger (what an observer can verify) and the energy
//! *delivered* to the node (what only the node itself can measure) — the gap
//! between the two is the spoofing attack's signature.

use serde::json::MapWriter;
use serde::{Deserialize, Serialize};

use wrsn_net::{NodeId, Point};

use crate::charger::ChargeMode;
use crate::fault::FaultKind;
use crate::store::LogPrefix;

/// One completed (or truncated) charging session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChargeSession {
    /// The served node.
    pub node: NodeId,
    /// Session start time, seconds.
    pub start_s: f64,
    /// Session duration, seconds.
    pub duration_s: f64,
    /// Energy actually stored in the node's battery, joules.
    pub delivered_j: f64,
    /// RF energy radiated by the charger during the session, joules.
    pub radiated_j: f64,
    /// Whether the charger served honestly or spoofed.
    pub mode: ChargeMode,
    /// Where the charger parked.
    pub charger_pos: Point,
}

impl ChargeSession {
    /// Delivered-to-radiated energy ratio (the *charging efficiency* a
    /// perfectly informed auditor would compute). Zero when nothing was
    /// radiated.
    pub fn efficiency(&self) -> f64 {
        if self.radiated_j > 0.0 {
            self.delivered_j / self.radiated_j
        } else {
            0.0
        }
    }
}

/// A timestamped simulation event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SimEvent {
    /// A node's battery reached zero.
    NodeDied {
        /// The node that died.
        node: NodeId,
    },
    /// A node fell to its warning threshold and issued a charging request.
    RequestIssued {
        /// The requesting node.
        node: NodeId,
    },
    /// The charger started moving.
    MoveStarted {
        /// Destination of the move.
        dest: Point,
    },
    /// The charger finished (or aborted) a move.
    MoveEnded {
        /// Where the charger ended up.
        pos: Point,
    },
    /// A charging session completed; the session record holds the details.
    SessionEnded {
        /// Index of the session in [`Trace::sessions`].
        session: usize,
    },
    /// The charger's energy budget ran out.
    ChargerExhausted,
    /// The charger swapped its battery at the depot.
    DepotSwap,
    /// The simulation horizon was reached.
    HorizonReached,
    /// A fault was injected (see [`crate::fault`]).
    Fault {
        /// What was injected.
        fault: FaultKind,
    },
    /// The online audit convicted a node (see [`crate::audit`]). Only worlds
    /// with an attached audit emit this, so audit-free traces keep their
    /// exact pre-audit byte shape.
    AuditConviction {
        /// The convicted node.
        node: NodeId,
    },
}

/// The full recorded trace of a simulation run.
#[derive(Debug, Clone, Default, Deserialize)]
pub struct Trace {
    events: Vec<(f64, SimEvent)>,
    sessions: Vec<ChargeSession>,
    death_times: Vec<(NodeId, f64)>,
}

impl Serialize for Trace {
    fn write_json(&self, out: &mut String) -> Result<(), serde::Error> {
        TraceEncoder::default().encode(self, out)
    }
}

/// Encodes a [`Trace`] as JSON, keeping what earlier encodes of the same
/// trace wrote of its logs (see [`LogPrefix`]). Events and death times are
/// append-only. Sessions are too, except the last one:
/// [`Trace::record_session`] may still merge the next chunk into it, so it
/// is encoded afresh every time.
#[derive(Debug, Default)]
pub(crate) struct TraceEncoder {
    events: LogPrefix,
    sessions: LogPrefix,
    death_times: LogPrefix,
}

impl TraceEncoder {
    /// Appends `trace`'s JSON to `out`.
    pub(crate) fn encode(&mut self, trace: &Trace, out: &mut String) -> Result<(), serde::Error> {
        let mut map = MapWriter::new(out);
        let events = &trace.events;
        self.events
            .encode(events, events.len(), map.key("events"))?;
        let sessions = &trace.sessions;
        let settled = sessions.len().saturating_sub(1);
        self.sessions
            .encode(sessions, settled, map.key("sessions"))?;
        let deaths = &trace.death_times;
        self.death_times
            .encode(deaths, deaths.len(), map.key("death_times"))?;
        map.end();
        Ok(())
    }
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Records an event at time `t`.
    pub fn record(&mut self, t: f64, event: SimEvent) {
        if let SimEvent::NodeDied { node } = event {
            self.death_times.push((node, t));
        }
        self.events.push((t, event));
    }

    /// Records a completed charging session and its companion event.
    ///
    /// Back-to-back sessions on the same node in the same mode from the same
    /// parking spot are *merged*: they are physically one uninterrupted visit
    /// (the simulation merely executes long visits in chunks), and auditors
    /// must see them as one.
    pub fn record_session(&mut self, session: ChargeSession) {
        if let Some(last) = self.sessions.last_mut() {
            let end = last.start_s + last.duration_s;
            // Contiguity tolerance: a 1e-6 s absolute floor plus a relative
            // term, so chunk boundaries still register as contiguous at
            // horizons where f64 spacing approaches the floor (beyond ~1e6 s
            // an absolute-only tolerance would start splitting physically
            // uninterrupted visits).
            let tol = 1e-6_f64.max(end.abs() * 1e-12);
            let contiguous = last.node == session.node
                && last.mode == session.mode
                && last.charger_pos == session.charger_pos
                && (end - session.start_s).abs() < tol;
            if contiguous {
                last.duration_s = session.start_s + session.duration_s - last.start_s;
                last.delivered_j += session.delivered_j;
                last.radiated_j += session.radiated_j;
                return;
            }
        }
        let idx = self.sessions.len();
        let end = session.start_s + session.duration_s;
        self.sessions.push(session);
        self.events
            .push((end, SimEvent::SessionEnded { session: idx }));
    }

    /// All events in record order.
    pub fn events(&self) -> &[(f64, SimEvent)] {
        &self.events
    }

    /// All charging sessions in completion order.
    pub fn sessions(&self) -> &[ChargeSession] {
        &self.sessions
    }

    /// Death time of each node that died, in death order.
    pub fn death_times(&self) -> &[(NodeId, f64)] {
        &self.death_times
    }

    /// The death time of `node`, if it died.
    pub fn death_time_of(&self, node: NodeId) -> Option<f64> {
        self.death_times
            .iter()
            .find(|(n, _)| *n == node)
            .map(|&(_, t)| t)
    }

    /// Total energy delivered across all sessions, joules.
    pub fn total_delivered_j(&self) -> f64 {
        self.sessions.iter().map(|s| s.delivered_j).sum()
    }

    /// Total energy radiated across all sessions, joules.
    pub fn total_radiated_j(&self) -> f64 {
        self.sessions.iter().map(|s| s.radiated_j).sum()
    }

    /// Sessions that served `node`.
    pub fn sessions_for(&self, node: NodeId) -> impl Iterator<Item = &ChargeSession> {
        self.sessions.iter().filter(move |s| s.node == node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(node: usize, start: f64, delivered: f64, radiated: f64) -> ChargeSession {
        ChargeSession {
            node: NodeId(node),
            start_s: start,
            duration_s: 10.0,
            delivered_j: delivered,
            radiated_j: radiated,
            mode: ChargeMode::Honest,
            charger_pos: Point::ORIGIN,
        }
    }

    #[test]
    fn death_events_populate_death_times() {
        let mut t = Trace::new();
        t.record(5.0, SimEvent::NodeDied { node: NodeId(3) });
        t.record(9.0, SimEvent::NodeDied { node: NodeId(1) });
        assert_eq!(t.death_times(), &[(NodeId(3), 5.0), (NodeId(1), 9.0)]);
        assert_eq!(t.death_time_of(NodeId(1)), Some(9.0));
        assert_eq!(t.death_time_of(NodeId(0)), None);
    }

    #[test]
    fn session_totals() {
        let mut t = Trace::new();
        t.record_session(session(0, 0.0, 30.0, 30.0));
        t.record_session(session(1, 20.0, 0.5, 30.0));
        assert!((t.total_delivered_j() - 30.5).abs() < 1e-12);
        assert!((t.total_radiated_j() - 60.0).abs() < 1e-12);
        assert_eq!(t.sessions_for(NodeId(1)).count(), 1);
    }

    #[test]
    fn session_event_indexes_are_consistent() {
        let mut t = Trace::new();
        t.record_session(session(0, 0.0, 1.0, 2.0));
        t.record_session(session(1, 5.0, 1.0, 2.0));
        let idxs: Vec<usize> = t
            .events()
            .iter()
            .filter_map(|(_, e)| match e {
                SimEvent::SessionEnded { session } => Some(*session),
                _ => None,
            })
            .collect();
        assert_eq!(idxs, vec![0, 1]);
        assert_eq!(t.sessions()[1].node, NodeId(1));
    }

    #[test]
    fn contiguous_chunks_merge_into_one_session() {
        let mut t = Trace::new();
        t.record_session(session(3, 0.0, 1.0, 6.0));
        // Next chunk starts exactly where the previous ended (10 s later).
        t.record_session(session(3, 10.0, 2.0, 6.0));
        assert_eq!(t.sessions().len(), 1);
        let s = t.sessions()[0];
        assert_eq!(s.duration_s, 20.0);
        assert_eq!(s.delivered_j, 3.0);
        assert_eq!(s.radiated_j, 12.0);
    }

    #[test]
    fn non_contiguous_sessions_stay_separate() {
        let mut t = Trace::new();
        t.record_session(session(3, 0.0, 1.0, 6.0));
        t.record_session(session(3, 50.0, 2.0, 6.0)); // gap
        t.record_session(session(4, 60.0, 2.0, 6.0)); // other node
        assert_eq!(t.sessions().len(), 3);
    }

    #[test]
    fn efficiency_is_ratio_and_zero_safe() {
        assert!((session(0, 0.0, 15.0, 30.0).efficiency() - 0.5).abs() < 1e-12);
        assert_eq!(session(0, 0.0, 1.0, 0.0).efficiency(), 0.0);
    }

    #[test]
    fn contiguous_chunks_merge_at_large_horizons() {
        // At t ≈ 2e7 s an f64 chunk boundary can be off by a few ulps more
        // than the old absolute 1e-6 s tolerance; the relative term must
        // still merge it.
        let t0 = 2.0e7;
        let mut tr = Trace::new();
        let mut a = session(5, t0, 1.0, 6.0);
        a.duration_s = 100.0;
        let mut b = session(5, t0 + 100.0 + 5e-6, 2.0, 6.0);
        b.duration_s = 50.0;
        tr.record_session(a);
        tr.record_session(b);
        assert_eq!(tr.sessions().len(), 1, "chunks at 2e7 s must merge");
        // A real (seconds-scale) gap still separates sessions.
        let c = session(5, t0 + 500.0, 1.0, 6.0);
        tr.record_session(c);
        assert_eq!(tr.sessions().len(), 2);
    }
}

#[cfg(test)]
mod merge_properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Chunked recording may merge sessions but must never lose energy,
        /// and the `SessionEnded` event stream must stay time-ordered with
        /// indices that resolve to recorded sessions.
        #[test]
        fn merging_preserves_energy_totals_and_event_order(
            start in 0.0..1.0e7f64,
            n in 1usize..20,
            seed in 0u64..1_000,
        ) {
            // Deterministic pseudo-random chunk layout from `seed`.
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut trace = Trace::new();
            let mut t = start;
            let mut delivered = 0.0;
            let mut radiated = 0.0;
            for _ in 0..n {
                let node = (next() % 3) as usize;
                let dur = 1.0 + (next() % 1_000) as f64 / 10.0;
                let d = (next() % 100) as f64 / 7.0;
                let r = d + (next() % 100) as f64 / 3.0;
                // Half the chunks are contiguous with the previous one, half
                // leave a gap.
                if next() % 2 == 0 {
                    t += 10.0 + (next() % 100) as f64;
                }
                trace.record_session(ChargeSession {
                    node: NodeId(node),
                    start_s: t,
                    duration_s: dur,
                    delivered_j: d,
                    radiated_j: r,
                    mode: ChargeMode::Honest,
                    charger_pos: Point::ORIGIN,
                });
                t += dur;
                delivered += d;
                radiated += r;
            }
            // Energy conservation under merging.
            let scale = delivered.abs().max(1.0);
            prop_assert!((trace.total_delivered_j() - delivered).abs() < 1e-9 * scale);
            let scale = radiated.abs().max(1.0);
            prop_assert!((trace.total_radiated_j() - radiated).abs() < 1e-9 * scale);
            // Event ordering and index consistency.
            let mut last_t = f64::NEG_INFINITY;
            let mut last_idx = None;
            for (t_ev, ev) in trace.events() {
                prop_assert!(*t_ev >= last_t, "event times must be non-decreasing");
                last_t = *t_ev;
                if let SimEvent::SessionEnded { session } = ev {
                    prop_assert!(*session < trace.sessions().len());
                    if let Some(prev) = last_idx {
                        prop_assert!(*session > prev, "session indices must increase");
                    }
                    last_idx = Some(*session);
                }
            }
        }
    }
}
