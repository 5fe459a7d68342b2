//! Structured observability: typed counters, timing spans and a
//! versioned JSONL trace schema.
//!
//! Every layer of the stack — the world loop, the charge policies, the CSA
//! planner — reports what it did through the [`Recorder`] trait. The default
//! [`NullRecorder`] is a set of empty inline-able methods, so instrumented
//! code paths cost nothing when nobody is listening and simulation output
//! stays byte-identical to an uninstrumented build (pinned by the
//! `trace_identity` regression tests in `wrsn-bench`).
//!
//! A [`StatsRecorder`] accumulates counters and span wall-times and buffers
//! [`TraceRecord`]s; the `exp` runner's `--trace <path>` flag serializes the
//! buffered records as one JSON object per line (JSONL), each wrapped in an
//! envelope carrying [`SCHEMA_VERSION`] so future consumers can evolve the
//! schema without guessing.
//!
//! Wall-clock span timings never enter the JSONL stream — a recorder keeps
//! them in memory for its caller to read — so a trace is a pure function of
//! the simulation and stays byte-identical across `WRSN_THREADS` settings
//! and host speeds.

use std::time::Instant;

use serde::{Deserialize, Serialize, Value};

use wrsn_net::metrics::HealthSnapshot;

use crate::trace::{ChargeSession, SimEvent, Trace};

/// Version of the JSONL trace envelope. Bump when a record's shape changes.
pub const SCHEMA_VERSION: u64 = 1;

/// A monotonically increasing count of something the system did.
///
/// The set is closed and typed (not stringly keyed) so recording is an array
/// index, misspellings are compile errors, and the JSONL name mapping lives in
/// exactly one place ([`Counter::name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Policy decisions the world loop requested.
    PolicyDecisions,
    /// Piecewise-linear integration segments executed by `World::advance`.
    AdvanceSegments,
    /// Routing/power recomputations after a topology change.
    TopologyRefreshes,
    /// Chunks a charging session was executed in (long visits are chunked so
    /// the session ends the instant the served node dies).
    SessionChunks,
    /// Charger moves started.
    Moves,
    /// Wait actions executed.
    Waits,
    /// Completed charging sessions served honestly.
    HonestSessions,
    /// Completed charging sessions served in spoofed mode.
    SpoofedSessions,
    /// Node deaths.
    NodeDeaths,
    /// Charging requests issued by nodes.
    RequestsIssued,
    /// Depot battery swaps.
    DepotSwaps,
    /// Times the charger hit an empty budget.
    ChargerExhaustions,
    /// Request-queue entries scanned by a policy while picking a target.
    RequestScans,
    /// Policy service slices truncated for preemption (e.g. NJNP time
    /// slicing).
    PolicySlices,
    /// Full tour (re)constructions by tour-based policies.
    TourRebuilds,
    /// Accepted 2-opt reversals inside `wrsn_charge::tour`.
    TourTwoOptMoves,
    /// Decoy honest charges performed by the attack to look busy.
    DecoyCharges,
    /// Spoofed squat chunks issued by the attack.
    SquatChunks,
    /// Full CSA planner invocations.
    PlannerRuns,
    /// Adaptive replans triggered by the attack policy.
    Replans,
    /// O(1) candidate-insertion cost probes in the incremental CSA planner.
    CandidateProbes,
    /// Candidate probes that fell into the slack-guard band and ran the exact
    /// suffix-feasibility check.
    ExactFallbacks,
    /// Visits inserted into a CSA route.
    Insertions,
    /// Accepted 2-opt moves during CSA route improvement.
    TwoOptMoves,
    /// 2-opt improvement passes over a CSA route.
    TwoOptPasses,
    /// Incremental routing repairs after node deaths (vs. full rebuilds).
    RoutingRepairs,
    /// Nodes re-relaxed (settled) by incremental routing repairs — the
    /// incremental analogue of a full Dijkstra's n settled pops.
    RoutingRepairRelaxed,
    /// Routing refreshes that fell back to a full shortest-path rebuild
    /// because the invalidated subtree covered most of the alive network.
    RoutingFullBuilds,
    /// Power-draw entries left untouched by an incremental refresh because
    /// their routing state and traffic load were bitwise unchanged.
    PowerRecomputesSkipped,
    /// Per-node charge-request scans skipped by drain dirty-tracking (nodes
    /// whose battery level could not have changed during the segment).
    RequestScansSkipped,
    /// Fault events injected (all kinds).
    FaultsInjected,
    /// Injected node hard-failures (crash/dropout).
    FaultNodeFailures,
    /// Injected charging-efficiency degradations.
    FaultDegradations,
    /// Injected charger travel stalls.
    FaultChargerStalls,
    /// Injected charging-request losses.
    FaultRequestsLost,
    /// World checkpoints persisted to disk by an attached
    /// [`crate::store::Checkpointer`]: writes, at most one per segment
    /// boundary, not elapsed checkpoint intervals.
    CheckpointsWritten,
    /// Service requests rejected at admission because the scheduler queue
    /// was full (answered with a typed `overloaded` response).
    RequestsShed,
    /// Result-cache entries evicted to stay under the configured byte cap.
    CacheEvictions,
    /// Streaming progress frames emitted by the service.
    StreamFrames,
    /// Streamed computations cancelled because the client went away
    /// mid-stream.
    StreamCancels,
    /// Idle service connections reaped by the read-timeout sweep.
    ConnsReaped,
    /// Request lines rejected for exceeding the service line-length cap.
    RequestsOversized,
    /// Completed charging sessions served in partial-power (detuned spoof)
    /// mode.
    PartialSessions,
    /// Challenge-response residual-energy probes issued by the online audit.
    AuditProbes,
    /// Audit probes whose measured gain fell below the conviction tolerance.
    AuditProbeFailures,
    /// Nodes convicted by the online audit (k-of-m probe failures).
    AuditConvictions,
}

impl Counter {
    /// Number of counters (size for dense per-counter arrays).
    pub const COUNT: usize = 46;

    /// All counters, in declaration (= serialization) order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::PolicyDecisions,
        Counter::AdvanceSegments,
        Counter::TopologyRefreshes,
        Counter::SessionChunks,
        Counter::Moves,
        Counter::Waits,
        Counter::HonestSessions,
        Counter::SpoofedSessions,
        Counter::NodeDeaths,
        Counter::RequestsIssued,
        Counter::DepotSwaps,
        Counter::ChargerExhaustions,
        Counter::RequestScans,
        Counter::PolicySlices,
        Counter::TourRebuilds,
        Counter::TourTwoOptMoves,
        Counter::DecoyCharges,
        Counter::SquatChunks,
        Counter::PlannerRuns,
        Counter::Replans,
        Counter::CandidateProbes,
        Counter::ExactFallbacks,
        Counter::Insertions,
        Counter::TwoOptMoves,
        Counter::TwoOptPasses,
        Counter::RoutingRepairs,
        Counter::RoutingRepairRelaxed,
        Counter::RoutingFullBuilds,
        Counter::PowerRecomputesSkipped,
        Counter::RequestScansSkipped,
        Counter::FaultsInjected,
        Counter::FaultNodeFailures,
        Counter::FaultDegradations,
        Counter::FaultChargerStalls,
        Counter::FaultRequestsLost,
        Counter::CheckpointsWritten,
        Counter::RequestsShed,
        Counter::CacheEvictions,
        Counter::StreamFrames,
        Counter::StreamCancels,
        Counter::ConnsReaped,
        Counter::RequestsOversized,
        Counter::PartialSessions,
        Counter::AuditProbes,
        Counter::AuditProbeFailures,
        Counter::AuditConvictions,
    ];

    /// Stable snake_case name used in JSONL records and reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::PolicyDecisions => "policy_decisions",
            Counter::AdvanceSegments => "advance_segments",
            Counter::TopologyRefreshes => "topology_refreshes",
            Counter::SessionChunks => "session_chunks",
            Counter::Moves => "moves",
            Counter::Waits => "waits",
            Counter::HonestSessions => "honest_sessions",
            Counter::SpoofedSessions => "spoofed_sessions",
            Counter::NodeDeaths => "node_deaths",
            Counter::RequestsIssued => "requests_issued",
            Counter::DepotSwaps => "depot_swaps",
            Counter::ChargerExhaustions => "charger_exhaustions",
            Counter::RequestScans => "request_scans",
            Counter::PolicySlices => "policy_slices",
            Counter::TourRebuilds => "tour_rebuilds",
            Counter::TourTwoOptMoves => "tour_two_opt_moves",
            Counter::DecoyCharges => "decoy_charges",
            Counter::SquatChunks => "squat_chunks",
            Counter::PlannerRuns => "planner_runs",
            Counter::Replans => "replans",
            Counter::CandidateProbes => "candidate_probes",
            Counter::ExactFallbacks => "exact_fallbacks",
            Counter::Insertions => "insertions",
            Counter::TwoOptMoves => "two_opt_moves",
            Counter::TwoOptPasses => "two_opt_passes",
            Counter::RoutingRepairs => "routing_repairs",
            Counter::RoutingRepairRelaxed => "routing_repair_relaxed",
            Counter::RoutingFullBuilds => "routing_full_builds",
            Counter::PowerRecomputesSkipped => "power_recomputes_skipped",
            Counter::RequestScansSkipped => "request_scans_skipped",
            Counter::FaultsInjected => "faults_injected",
            Counter::FaultNodeFailures => "fault_node_failures",
            Counter::FaultDegradations => "fault_degradations",
            Counter::FaultChargerStalls => "fault_charger_stalls",
            Counter::FaultRequestsLost => "fault_requests_lost",
            Counter::CheckpointsWritten => "checkpoints_written",
            Counter::RequestsShed => "requests_shed",
            Counter::CacheEvictions => "cache_evictions",
            Counter::StreamFrames => "stream_frames",
            Counter::StreamCancels => "stream_cancels",
            Counter::ConnsReaped => "conns_reaped",
            Counter::RequestsOversized => "requests_oversized",
            Counter::PartialSessions => "partial_sessions",
            Counter::AuditProbes => "audit_probes",
            Counter::AuditProbeFailures => "audit_probe_failures",
            Counter::AuditConvictions => "audit_convictions",
        }
    }
}

/// One record of the JSONL trace stream.
///
/// Serialized inside an envelope `{"v": SCHEMA_VERSION, "record": ...}` by
/// [`to_jsonl_line`]; [`from_jsonl_line`] rejects unknown versions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceRecord {
    /// Stream header: what produced this scope's records.
    Meta {
        /// Schema family, currently always `"wrsn-trace"`.
        schema: String,
        /// Producer scope (experiment id or run label).
        scope: String,
    },
    /// A timestamped simulation event.
    Event {
        /// Event time, seconds.
        t_s: f64,
        /// The event.
        event: SimEvent,
    },
    /// A completed (merged) charging session.
    Session {
        /// The session record.
        session: ChargeSession,
    },
    /// A network health snapshot.
    Snapshot {
        /// Snapshot time, seconds.
        t_s: f64,
        /// The snapshot.
        health: HealthSnapshot,
    },
    /// An injected fault (see [`crate::fault`]). Only present in traces of
    /// runs with a non-empty fault plan, so fault-free streams keep the exact
    /// pre-fault byte shape.
    Fault {
        /// Injection time, seconds.
        t_s: f64,
        /// What was injected.
        fault: crate::fault::FaultKind,
    },
    /// Aggregated counters for a scope, emitted after its last event.
    Counters {
        /// Producer scope (experiment id or run label).
        scope: String,
        /// `(counter_name, value)` pairs, nonzero only, declaration order.
        counters: Vec<(String, u64)>,
    },
}

/// Serializes a record as one JSONL line (no trailing newline) wrapped in the
/// versioned envelope.
///
/// # Errors
///
/// Fails if the record contains a non-finite float (JSON cannot carry those).
pub fn to_jsonl_line(record: &TraceRecord) -> Result<String, serde::Error> {
    let mut line = String::new();
    let mut envelope = serde::json::MapWriter::new(&mut line);
    envelope.field("v", &SCHEMA_VERSION)?;
    envelope.field("record", record)?;
    envelope.end();
    Ok(line)
}

/// Parses one JSONL line produced by [`to_jsonl_line`].
///
/// # Errors
///
/// Fails on malformed JSON, a missing/unsupported `v` field, or a record tree
/// that does not match [`TraceRecord`].
pub fn from_jsonl_line(line: &str) -> Result<TraceRecord, serde::Error> {
    let envelope: Value = serde_json::from_str(line)?;
    let Value::Map(entries) = &envelope else {
        return Err(serde::Error("trace line is not a JSON object".to_string()));
    };
    let version = u64::from_value(serde::map_get(entries, "v")?)?;
    if version != SCHEMA_VERSION {
        return Err(serde::Error(format!(
            "unsupported trace schema version {version} (supported: {SCHEMA_VERSION})"
        )));
    }
    TraceRecord::from_value(serde::map_get(entries, "record")?)
}

/// The observability sink instrumented code reports into.
///
/// All methods default to no-ops so simple recorders only override what they
/// need; [`Recorder::enabled`] lets hot paths skip building records entirely
/// when nobody is listening.
pub trait Recorder {
    /// Whether this recorder retains anything. Instrumented code may use this
    /// to skip constructing records/snapshots that would be thrown away.
    fn enabled(&self) -> bool {
        true
    }

    /// Adds `delta` to `counter`.
    fn add(&mut self, counter: Counter, delta: u64) {
        let _ = (counter, delta);
    }

    /// Enters a named timing span. Spans nest: a span entered while another is
    /// open is keyed by its dotted path (`"outer.inner"`).
    fn span_enter(&mut self, name: &'static str) {
        let _ = name;
    }

    /// Exits the innermost open span (which must be `name`).
    fn span_exit(&mut self, name: &'static str) {
        let _ = name;
    }

    /// Appends a trace record to the stream.
    fn emit(&mut self, record: &TraceRecord) {
        let _ = record;
    }
}

/// The default recorder: discards everything and reports `enabled() == false`
/// so instrumented code can skip observation work entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }
}

/// Wall-time statistics of one (dotted-path) span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    /// Dotted span path (`"outer.inner"` for nested spans).
    pub path: String,
    /// Total wall time spent inside, seconds (inclusive of children).
    pub total_s: f64,
    /// Times the span was entered.
    pub count: u64,
}

/// An in-memory recorder: a dense counter array, aggregated span
/// wall-times, and a buffered [`TraceRecord`] stream.
#[derive(Debug)]
pub struct StatsRecorder {
    counters: [u64; Counter::COUNT],
    spans: Vec<SpanStats>,
    /// Open span stack: `spans` index plus entry time.
    open: Vec<(usize, Instant)>,
    /// Interned `(parent, name) → spans index`, where `parent` is the
    /// enclosing span's `spans` index plus one (0 at the root). Spans fire
    /// hundreds of thousands of times per run, so the hot enter/exit pair
    /// must resolve its stats slot without rebuilding dotted path strings.
    span_ids: Vec<(usize, &'static str, usize)>,
    records: Vec<TraceRecord>,
}

// Hand-written: `Default` is not derivable once the counter array outgrows
// the standard library's 32-element array impls.
impl Default for StatsRecorder {
    fn default() -> Self {
        StatsRecorder {
            counters: [0; Counter::COUNT],
            spans: Vec::new(),
            open: Vec::new(),
            span_ids: Vec::new(),
            records: Vec::new(),
        }
    }
}

impl StatsRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        StatsRecorder::default()
    }

    /// Current value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// `(name, value)` pairs for all *nonzero* counters, declaration order.
    pub fn counter_entries(&self) -> Vec<(String, u64)> {
        Counter::ALL
            .iter()
            .filter(|&&c| self.counters[c as usize] > 0)
            .map(|&c| (c.name().to_string(), self.counters[c as usize]))
            .collect()
    }

    /// Aggregated span statistics, first-entered order.
    pub fn spans(&self) -> &[SpanStats] {
        &self.spans
    }

    /// The buffered trace records, emission order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Appends a [`TraceRecord::Counters`] record with this recorder's
    /// current nonzero counters under `scope`. Called once per scope after
    /// its last event so the counters line closes the scope's stream.
    pub fn emit_counters(&mut self, scope: &str) {
        let record = TraceRecord::Counters {
            scope: scope.to_string(),
            counters: self.counter_entries(),
        };
        self.records.push(record);
    }

    /// Replays this recorder's counters and buffered records into
    /// `rec`, in deterministic (declaration/emission) order. Span wall-times
    /// are not transferable through the trait and are dropped — by design,
    /// since merged workers' wall-clock would differ across hosts anyway.
    ///
    /// Used to fold per-worker recorders from parallel fan-outs back into an
    /// experiment's recorder in index order, keeping the merged stream
    /// independent of the worker count.
    pub fn merge_into(self, rec: &mut dyn Recorder) {
        for counter in Counter::ALL {
            let v = self.counters[counter as usize];
            if v > 0 {
                rec.add(counter, v);
            }
        }
        for record in self.records {
            rec.emit(&record);
        }
    }
}

impl Recorder for StatsRecorder {
    fn add(&mut self, counter: Counter, delta: u64) {
        self.counters[counter as usize] += delta;
    }

    fn span_enter(&mut self, name: &'static str) {
        let parent = self.open.last().map_or(0, |&(idx, _)| idx + 1);
        let idx = match self
            .span_ids
            .iter()
            .find(|&&(p, n, _)| p == parent && n == name)
        {
            Some(&(_, _, idx)) => idx,
            None => {
                // First time this (parent, name) pair is seen: build the
                // dotted path once and intern it.
                let path = match parent {
                    0 => name.to_string(),
                    p => format!("{}.{}", self.spans[p - 1].path, name),
                };
                let idx = match self.spans.iter().position(|s| s.path == path) {
                    Some(idx) => idx,
                    None => {
                        self.spans.push(SpanStats {
                            path,
                            total_s: 0.0,
                            count: 0,
                        });
                        self.spans.len() - 1
                    }
                };
                self.span_ids.push((parent, name, idx));
                idx
            }
        };
        self.open.push((idx, Instant::now()));
    }

    fn span_exit(&mut self, name: &'static str) {
        let Some((idx, started)) = self.open.pop() else {
            debug_assert!(false, "span_exit(\"{name}\") with no open span");
            return;
        };
        debug_assert!(
            self.spans[idx].path.ends_with(name),
            "span_exit(\"{name}\") out of order (innermost is \"{}\")",
            self.spans[idx].path
        );
        self.spans[idx].total_s += started.elapsed().as_secs_f64();
        self.spans[idx].count += 1;
    }

    fn emit(&mut self, record: &TraceRecord) {
        self.records.push(record.clone());
    }
}

/// Hands `emit` the records one trace event exports as: its
/// [`TraceRecord::Event`], preceded by a [`TraceRecord::Fault`] when the event
/// is an injected fault. Faults get that dedicated record kind so consumers
/// can filter injections without pattern-matching the whole event enum.
/// [`export_trace`] and the service's streamed frames both map events here.
pub fn event_records(t_s: f64, event: &SimEvent, mut emit: impl FnMut(TraceRecord)) {
    if let SimEvent::Fault { fault } = event {
        emit(TraceRecord::Fault { t_s, fault: *fault });
    }
    emit(TraceRecord::Event {
        t_s,
        event: event.clone(),
    });
}

/// Emits a world trace into `rec` — the [`event_records`] of every event and
/// one [`TraceRecord::Session`] per (merged) session — and bumps the
/// trace-derived counters (deaths, requests, moves, session modes, swaps,
/// exhaustions, faults). No-op when the recorder is disabled.
pub fn export_trace(rec: &mut dyn Recorder, trace: &Trace) {
    if !rec.enabled() {
        return;
    }
    for (t_s, event) in trace.events() {
        match event {
            SimEvent::NodeDied { .. } => rec.add(Counter::NodeDeaths, 1),
            SimEvent::RequestIssued { .. } => rec.add(Counter::RequestsIssued, 1),
            SimEvent::MoveStarted { .. } => rec.add(Counter::Moves, 1),
            SimEvent::DepotSwap => rec.add(Counter::DepotSwaps, 1),
            SimEvent::ChargerExhausted => rec.add(Counter::ChargerExhaustions, 1),
            SimEvent::Fault { fault } => {
                rec.add(Counter::FaultsInjected, 1);
                rec.add(
                    match fault {
                        crate::fault::FaultKind::NodeFailure { .. } => Counter::FaultNodeFailures,
                        crate::fault::FaultKind::Degradation { .. } => Counter::FaultDegradations,
                        crate::fault::FaultKind::ChargerStall { .. } => Counter::FaultChargerStalls,
                        crate::fault::FaultKind::RequestLoss { .. } => Counter::FaultRequestsLost,
                    },
                    1,
                );
            }
            _ => {}
        }
        event_records(*t_s, event, |record| rec.emit(&record));
    }
    for session in trace.sessions() {
        match session.mode {
            crate::charger::ChargeMode::Honest => rec.add(Counter::HonestSessions, 1),
            crate::charger::ChargeMode::Spoofed => rec.add(Counter::SpoofedSessions, 1),
            crate::charger::ChargeMode::Partial { .. } => rec.add(Counter::PartialSessions, 1),
        }
        rec.emit(&TraceRecord::Session { session: *session });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charger::ChargeMode;
    use wrsn_net::{NodeId, Point};

    #[test]
    fn null_recorder_is_disabled_and_inert() {
        let mut rec = NullRecorder;
        assert!(!rec.enabled());
        rec.add(Counter::Moves, 3);
        rec.span_enter("x");
        rec.span_exit("x");
        rec.emit(&TraceRecord::Meta {
            schema: "wrsn-trace".into(),
            scope: "t".into(),
        });
    }

    #[test]
    fn counters_accumulate_and_list_nonzero_in_order() {
        let mut rec = StatsRecorder::new();
        rec.add(Counter::TwoOptMoves, 2);
        rec.add(Counter::Moves, 1);
        rec.add(Counter::TwoOptMoves, 3);
        assert_eq!(rec.counter(Counter::TwoOptMoves), 5);
        assert_eq!(rec.counter(Counter::Waits), 0);
        let entries = rec.counter_entries();
        assert_eq!(
            entries,
            vec![("moves".to_string(), 1), ("two_opt_moves".to_string(), 5)]
        );
    }

    #[test]
    fn counter_all_and_names_are_consistent() {
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "ALL order must match discriminants");
        }
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT, "counter names must be unique");
    }

    #[test]
    fn spans_nest_by_dotted_path() {
        let mut rec = StatsRecorder::new();
        rec.span_enter("run");
        rec.span_enter("decide");
        rec.span_exit("decide");
        rec.span_enter("decide");
        rec.span_exit("decide");
        rec.span_exit("run");
        let paths: Vec<(&str, u64)> = rec
            .spans()
            .iter()
            .map(|s| (s.path.as_str(), s.count))
            .collect();
        assert_eq!(paths, vec![("run", 1), ("run.decide", 2)]);
        assert!(rec.spans().iter().all(|s| s.total_s >= 0.0));
    }

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord::Meta {
                schema: "wrsn-trace".into(),
                scope: "unit".into(),
            },
            TraceRecord::Event {
                t_s: 12.5,
                event: SimEvent::RequestIssued { node: NodeId(3) },
            },
            TraceRecord::Event {
                t_s: 99.0,
                event: SimEvent::MoveStarted {
                    dest: Point::new(1.0, -2.0),
                },
            },
            TraceRecord::Session {
                session: ChargeSession {
                    node: NodeId(1),
                    start_s: 10.0,
                    duration_s: 5.5,
                    delivered_j: 0.25,
                    radiated_j: 16.5,
                    mode: ChargeMode::Spoofed,
                    charger_pos: Point::new(3.0, 4.0),
                },
            },
            TraceRecord::Fault {
                t_s: 77.0,
                fault: crate::fault::FaultKind::Degradation {
                    node: NodeId(5),
                    factor: 0.5,
                },
            },
            TraceRecord::Counters {
                scope: "unit".into(),
                counters: vec![("moves".into(), 4), ("candidate_probes".into(), 123)],
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_record_kind() {
        for record in sample_records() {
            let line = to_jsonl_line(&record).unwrap();
            assert!(line.starts_with("{\"v\":1,"), "envelope first: {line}");
            assert!(!line.contains('\n'));
            let back = from_jsonl_line(&line).unwrap();
            assert_eq!(back, record);
            // Re-serializing the parsed record reproduces the exact line.
            assert_eq!(to_jsonl_line(&back).unwrap(), line);
        }
    }

    #[test]
    fn unsupported_versions_are_rejected() {
        let record = &sample_records()[0];
        let line = to_jsonl_line(record).unwrap();
        let bumped = line.replacen("{\"v\":1,", "{\"v\":2,", 1);
        assert!(from_jsonl_line(&bumped).is_err());
        assert!(from_jsonl_line("{\"record\":{}}").is_err());
        assert!(from_jsonl_line("[]").is_err());
        assert!(from_jsonl_line("not json").is_err());
    }

    #[test]
    fn merge_into_replays_counters_and_records() {
        let mut worker = StatsRecorder::new();
        worker.add(Counter::Moves, 2);
        worker.add(Counter::CandidateProbes, 7);
        worker.emit(&TraceRecord::Meta {
            schema: "wrsn-trace".into(),
            scope: "w".into(),
        });
        worker.span_enter("lost");
        worker.span_exit("lost");
        let mut parent = StatsRecorder::new();
        parent.add(Counter::Moves, 1);
        worker.merge_into(&mut parent);
        assert_eq!(parent.counter(Counter::Moves), 3);
        assert_eq!(parent.counter(Counter::CandidateProbes), 7);
        assert_eq!(parent.records().len(), 1);
        assert!(parent.spans().is_empty(), "span wall-times are dropped");
    }

    #[test]
    fn emit_counters_closes_a_scope() {
        let mut rec = StatsRecorder::new();
        rec.add(Counter::Waits, 4);
        rec.emit_counters("fig0");
        assert_eq!(
            rec.records().last(),
            Some(&TraceRecord::Counters {
                scope: "fig0".into(),
                counters: vec![("waits".into(), 4)],
            })
        );
    }

    #[test]
    fn export_trace_emits_events_sessions_and_counters() {
        let mut trace = Trace::new();
        trace.record(1.0, SimEvent::RequestIssued { node: NodeId(0) });
        trace.record(2.0, SimEvent::NodeDied { node: NodeId(2) });
        trace.record_session(ChargeSession {
            node: NodeId(0),
            start_s: 3.0,
            duration_s: 4.0,
            delivered_j: 1.0,
            radiated_j: 2.0,
            mode: ChargeMode::Honest,
            charger_pos: Point::ORIGIN,
        });
        let mut rec = StatsRecorder::new();
        export_trace(&mut rec, &trace);
        assert_eq!(rec.counter(Counter::RequestsIssued), 1);
        assert_eq!(rec.counter(Counter::NodeDeaths), 1);
        assert_eq!(rec.counter(Counter::HonestSessions), 1);
        // 3 events (incl. SessionEnded) + 1 session record.
        assert_eq!(rec.records().len(), 4);
        let mut null = NullRecorder;
        export_trace(&mut null, &trace); // must be a no-op, not a panic
    }

    #[test]
    fn export_trace_maps_faults_to_counters_and_records() {
        use crate::fault::FaultKind;
        let mut trace = Trace::new();
        trace.record(
            1.0,
            SimEvent::Fault {
                fault: FaultKind::NodeFailure { node: NodeId(2) },
            },
        );
        trace.record(
            2.0,
            SimEvent::Fault {
                fault: FaultKind::ChargerStall { delay_s: 30.0 },
            },
        );
        let mut rec = StatsRecorder::new();
        export_trace(&mut rec, &trace);
        assert_eq!(rec.counter(Counter::FaultsInjected), 2);
        assert_eq!(rec.counter(Counter::FaultNodeFailures), 1);
        assert_eq!(rec.counter(Counter::FaultChargerStalls), 1);
        assert_eq!(rec.counter(Counter::FaultDegradations), 0);
        // Each fault yields a Fault record plus the generic Event record.
        let fault_records = rec
            .records()
            .iter()
            .filter(|r| matches!(r, TraceRecord::Fault { .. }))
            .count();
        assert_eq!(fault_records, 2);
        assert_eq!(rec.records().len(), 4);
    }
}
