//! The `wrsnd` wire schema: newline-delimited JSON requests and responses.
//!
//! One request per line. A *work* request names either a paper experiment or
//! a parameterised synthetic scenario:
//!
//! ```text
//! {"id":"q1","exp":"fig2"}
//! {"id":"q2","scenario":{"nodes":40,"seed":7,"horizon_s":20000},"deadline_s":30}
//! ```
//!
//! A *control* request carries an `op` instead: `{"op":"ping"}`,
//! `{"op":"stats"}`, `{"op":"shutdown"}`.
//!
//! Responses are one JSON object per line, streamed back in **completion
//! order** (clients correlate by `id`):
//!
//! ```text
//! {"v":1,"id":"q2","status":"ok","digest":"<16 hex>","cache":"miss","wall_ms":3.1,"result":{...}}
//! {"v":1,"id":"q9","status":"timeout","error":"..."}
//! {"v":1,"id":"q3","status":"error","error":"..."}
//! ```
//!
//! The `result` object is the **deterministic** part of a response: for a
//! given payload its bytes are identical across runs, daemons, and
//! cache-hit/miss paths, so it is what the content-addressed artifact store
//! persists and what duplicate-detection compares. `wall_ms` and `cache`
//! live in the envelope, outside the digested bytes. `digest` is the
//! FNV-1a 64 hash of the payload's *canonical form* (defaults filled in,
//! fields in fixed order) — the cache key two textually different but
//! semantically identical requests share.

use std::time::Duration;

use serde::{Serialize, Value};
use wrsn::core::attack::{evaluate_attack, CsaAttackPolicy};
use wrsn::scenario::{Deployment, Scenario};
use wrsn::sim::cancel::budget_from_secs;
use wrsn::sim::obs::{self, NullRecorder, TraceRecord};
use wrsn::sim::store;
use wrsn::sim::trace::Trace;
use wrsn::sim::{AuditConfig, SimError, World};

/// Response envelope version, bumped on incompatible wire changes.
pub const RESPONSE_VERSION: u64 = 1;

/// How many progress frames a streamed scenario aims for across its horizon:
/// the flush cadence is `horizon_s / STREAM_DIVISIONS` simulated seconds
/// (floored at 1 s so degenerate horizons cannot flush per-event).
pub const STREAM_DIVISIONS: f64 = 16.0;

/// Largest accepted scenario size (the SoA engine handles 10⁶ nodes, but a
/// shared daemon should not let one request monopolise it for minutes).
pub const MAX_NODES: usize = 200_000;

/// Scenario horizon when the request omits `horizon_s`, seconds.
pub const DEFAULT_HORIZON_S: f64 = 50_000.0;

/// Largest accepted scenario horizon, seconds.
pub const MAX_HORIZON_S: f64 = 1.0e9;

/// How scenario nodes are laid out (mirrors [`Deployment`] minus parameters,
/// so the wire form stays a plain string).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeploymentKind {
    /// Uniform random over the field (the default).
    Uniform,
    /// Two clusters joined by a thin bridge.
    Corridor,
    /// Four Gaussian clusters, σ = 15 m.
    Clustered,
}

impl DeploymentKind {
    /// The wire name.
    fn name(self) -> &'static str {
        match self {
            DeploymentKind::Uniform => "uniform",
            DeploymentKind::Corridor => "corridor",
            DeploymentKind::Clustered => "clustered",
        }
    }

    /// Parses a wire name.
    fn parse(name: &str) -> Option<Self> {
        match name {
            "uniform" => Some(DeploymentKind::Uniform),
            "corridor" => Some(DeploymentKind::Corridor),
            "clustered" => Some(DeploymentKind::Clustered),
            _ => None,
        }
    }
}

/// A validated synthetic-scenario request body.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Sensor node count (`2..=`[`MAX_NODES`]).
    pub nodes: usize,
    /// Deployment / battery-level RNG seed.
    pub seed: u64,
    /// Simulation horizon, seconds.
    pub horizon_s: f64,
    /// Node layout.
    pub deployment: DeploymentKind,
}

impl ScenarioSpec {
    /// The canonical inner JSON value (defaults filled, fixed field order) —
    /// the bytes the request digest is computed over.
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("nodes".to_string(), Value::U64(self.nodes as u64)),
            ("seed".to_string(), Value::U64(self.seed)),
            ("horizon_s".to_string(), Value::F64(self.horizon_s)),
            (
                "deployment".to_string(),
                Value::Str(self.deployment.name().to_string()),
            ),
        ])
    }

    /// The equivalent experiment-world builder.
    pub fn scenario(&self) -> Scenario {
        let mut scenario = Scenario::paper_scale(self.nodes, self.seed);
        scenario.horizon_s = self.horizon_s;
        match self.deployment {
            DeploymentKind::Uniform => {}
            DeploymentKind::Corridor => scenario.deployment = Deployment::Corridor,
            DeploymentKind::Clustered => {
                scenario.deployment = Deployment::Clustered {
                    count: 4,
                    sigma: 15.0,
                }
            }
        }
        scenario
    }
}

/// What a work request asks the daemon to compute.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A full paper experiment by id (`exp --id <id>` equivalent, unobserved).
    Exp(String),
    /// A parameterised synthetic CSA campaign.
    Scenario(ScenarioSpec),
    /// Test-only payloads for exercising the scheduler in-process.
    #[cfg(test)]
    Test(TestOp),
}

/// Test-only payload behaviours (see [`Payload::Test`]).
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub enum TestOp {
    /// Returns `{"echo":<tag>}` after `sleep_ms`.
    Echo {
        /// Distinguishes digests.
        tag: u64,
        /// Simulated compute time.
        sleep_ms: u64,
    },
    /// Panics (a poisoned work item).
    Panic,
    /// Spins on the thread's cancellation token, like a hung engine segment.
    Hang,
    /// Given a sink, [`execute_with`] emits `frames` one-record progress
    /// batches with `sleep_ms` between them; without one it returns the same
    /// final result with no frames (the streamed/plain-digest-equality pair).
    Stream {
        /// Progress batches to emit.
        frames: u64,
        /// Wall-clock pause between batches.
        sleep_ms: u64,
    },
}

impl Payload {
    /// The canonical JSON form the request digest is computed over. Two
    /// requests with the same canonical form are the same work, whatever
    /// their `id`, `deadline_s`, field order, or omitted defaults.
    pub fn canonical(&self) -> String {
        let value = match self {
            Payload::Exp(id) => Value::Map(vec![("exp".to_string(), Value::Str(id.clone()))]),
            Payload::Scenario(spec) => Value::Map(vec![("scenario".to_string(), spec.to_value())]),
            #[cfg(test)]
            Payload::Test(op) => {
                let name = match op {
                    TestOp::Echo { tag, .. } => format!("echo-{tag}"),
                    TestOp::Panic => "panic".to_string(),
                    TestOp::Hang => "hang".to_string(),
                    TestOp::Stream { frames, .. } => format!("stream-{frames}"),
                };
                Value::Map(vec![("test".to_string(), Value::Str(name))])
            }
        };
        serde_json::to_string(&value).expect("canonical payload has no non-finite floats")
    }

    /// FNV-1a 64 digest (16 hex digits) of the canonical form — the
    /// content-address the cache and dedupe layers key on.
    pub fn digest(&self) -> String {
        format!("{:016x}", store::fnv1a64(self.canonical().as_bytes()))
    }
}

/// Daemon-side control operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlOp {
    /// Liveness probe; answered inline.
    Ping,
    /// Service counter snapshot; answered inline.
    Stats,
    /// Graceful drain-and-exit.
    Shutdown,
}

impl ControlOp {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            ControlOp::Ping => "ping",
            ControlOp::Stats => "stats",
            ControlOp::Shutdown => "shutdown",
        }
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client correlation id (`r<seq>` when the request omitted one).
    pub id: String,
    /// Per-request wall-clock deadline, from the line's `deadline_s` seconds
    /// (overrides the server default when present).
    pub deadline: Option<Duration>,
    /// Whether the client opted into incremental `progress` frames
    /// (`{"stream":true}`, scenario requests only). Streaming is an envelope
    /// concern: it never enters the payload's canonical form, so streamed and
    /// plain requests share one digest and one cache entry.
    pub stream: bool,
    /// Online digital-twin detector attached to the campaign
    /// (`{"detector":"default"}`, scenario requests only) — an
    /// [`AuditConfig`] preset name. Like `stream`, this is an envelope
    /// concern: the audit is purely observational (it never perturbs the
    /// trajectory, so the deterministic `result` bytes are identical with or
    /// without it) and therefore never enters the canonical form or digest —
    /// detector and plain requests share one cache entry. The audit summary
    /// rides in the response envelope, outside the digested bytes, and is
    /// only available on freshly computed responses (`"cache":"miss"`):
    /// cache hits replay stored bytes without re-running the campaign.
    pub detector: Option<String>,
    /// What the request asks for.
    pub kind: RequestKind,
}

/// Work vs. control.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestKind {
    /// Schedulable compute.
    Work(Payload),
    /// Inline control operation.
    Control(ControlOp),
}

fn field_str(value: &Value, field: &str) -> Result<String, String> {
    match value {
        Value::Str(s) => Ok(s.clone()),
        other => Err(format!("`{field}` must be a string, got {}", other.kind())),
    }
}

fn field_f64(value: &Value, field: &str) -> Result<f64, String> {
    match value {
        Value::U64(u) => Ok(*u as f64),
        Value::I64(i) => Ok(*i as f64),
        Value::F64(x) => Ok(*x),
        other => Err(format!("`{field}` must be a number, got {}", other.kind())),
    }
}

fn field_u64(value: &Value, field: &str) -> Result<u64, String> {
    match value {
        Value::U64(u) => Ok(*u),
        other => Err(format!(
            "`{field}` must be a non-negative integer, got {}",
            other.kind()
        )),
    }
}

fn field_bool(value: &Value, field: &str) -> Result<bool, String> {
    match value {
        Value::Bool(b) => Ok(*b),
        other => Err(format!("`{field}` must be a boolean, got {}", other.kind())),
    }
}

fn parse_scenario(value: &Value) -> Result<ScenarioSpec, String> {
    let map = value
        .as_map()
        .ok_or_else(|| format!("`scenario` must be an object, got {}", value.kind()))?;
    let mut nodes = None;
    let mut seed = 0u64;
    let mut horizon_s = DEFAULT_HORIZON_S;
    let mut deployment = DeploymentKind::Uniform;
    for (key, val) in map {
        match key.as_str() {
            "nodes" => nodes = Some(field_u64(val, "scenario.nodes")?),
            "seed" => seed = field_u64(val, "scenario.seed")?,
            "horizon_s" => horizon_s = field_f64(val, "scenario.horizon_s")?,
            "deployment" => {
                let name = field_str(val, "scenario.deployment")?;
                deployment = DeploymentKind::parse(&name).ok_or_else(|| {
                    format!("unknown deployment `{name}` (uniform, corridor, clustered)")
                })?;
            }
            other => return Err(format!("unknown scenario field `{other}`")),
        }
    }
    let nodes = nodes.ok_or("`scenario.nodes` is required")? as usize;
    if !(2..=MAX_NODES).contains(&nodes) {
        return Err(format!(
            "`scenario.nodes` must be in 2..={MAX_NODES}, got {nodes}"
        ));
    }
    if !horizon_s.is_finite() || horizon_s <= 0.0 || horizon_s > MAX_HORIZON_S {
        return Err(format!(
            "`scenario.horizon_s` must be a positive number <= {MAX_HORIZON_S:e}, got {horizon_s}"
        ));
    }
    Ok(ScenarioSpec {
        nodes,
        seed,
        horizon_s,
        deployment,
    })
}

/// A request line that did not parse, answered with an `error` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejected {
    /// The line's own `id` when it had a readable one, else `r<seq>`, so a
    /// pipelining client can tell which of its requests failed.
    pub id: String,
    /// Why, ready to embed in the error response.
    pub detail: String,
}

/// Parses one request line. `seq` numbers the line within its connection and
/// names anonymous requests `r<seq>`.
///
/// # Errors
///
/// [`Rejected`] for a line that is not a valid request.
pub fn parse_line(line: &str, seq: u64) -> Result<Request, Rejected> {
    let anonymous = |detail| Rejected {
        id: format!("r{seq}"),
        detail,
    };
    let value: Value = serde_json::from_str(line).map_err(|e| Rejected {
        id: leading_id(line).unwrap_or_else(|| format!("r{seq}")),
        detail: format!("malformed request JSON: {e}"),
    })?;
    let map = value.as_map().ok_or_else(|| {
        anonymous(format!(
            "request must be a JSON object, got {}",
            value.kind()
        ))
    })?;
    let id = match map.iter().find(|(key, _)| key == "id") {
        Some((_, val)) => field_str(val, "id").map_err(anonymous)?,
        None => format!("r{seq}"),
    };
    parse_fields(map, id.clone()).map_err(|detail| Rejected { id, detail })
}

/// The `id` of a line that opens with it (`{"id":"q7",…`), read even when
/// the JSON after it does not parse.
fn leading_id(line: &str) -> Option<String> {
    let rest = line.trim_start().strip_prefix('{')?.trim_start();
    let rest = rest
        .strip_prefix("\"id\"")?
        .trim_start()
        .strip_prefix(':')?;
    let rest = rest.trim_start();
    let mut escaped = true; // passes over the opening quote
    let (end, _) = rest.char_indices().find(|&(_, c)| {
        let closes = c == '"' && !escaped;
        escaped = c == '\\' && !escaped;
        closes
    })?;
    serde_json::from_str(&rest[..=end]).ok()
}

/// The fields of a request object whose `id` is already known.
fn parse_fields(map: &[(String, Value)], id: String) -> Result<Request, String> {
    let mut deadline = None;
    let mut op = None;
    let mut exp = None;
    let mut scenario = None;
    let mut stream = false;
    let mut detector = None;
    for (key, val) in map {
        match key.as_str() {
            "id" => {}
            "deadline_s" => {
                let d = field_f64(val, "deadline_s")?;
                deadline = Some(budget_from_secs(d).ok_or_else(|| {
                    format!(
                        "`deadline_s` must be a positive number of seconds below 1.8e19, \
                         got {d}"
                    )
                })?);
            }
            "op" => op = Some(field_str(val, "op")?),
            "exp" => exp = Some(field_str(val, "exp")?),
            "scenario" => scenario = Some(parse_scenario(val)?),
            "stream" => stream = field_bool(val, "stream")?,
            "detector" => {
                let name = field_str(val, "detector")?;
                if AuditConfig::preset(&name).is_none() {
                    return Err(format!(
                        "unknown detector preset `{name}` (lax, default, aggressive)"
                    ));
                }
                detector = Some(name);
            }
            other => return Err(format!("unknown request field `{other}`")),
        }
    }
    let kind = match (op, exp, scenario) {
        (Some(op), None, None) => {
            let op = match op.as_str() {
                "ping" => ControlOp::Ping,
                "stats" => ControlOp::Stats,
                "shutdown" => ControlOp::Shutdown,
                other => return Err(format!("unknown op `{other}` (ping, stats, shutdown)")),
            };
            RequestKind::Control(op)
        }
        (None, Some(exp), None) => {
            if !crate::is_known_id(&exp) {
                return Err(format!("unknown experiment id `{exp}`"));
            }
            RequestKind::Work(Payload::Exp(exp))
        }
        (None, None, Some(spec)) => RequestKind::Work(Payload::Scenario(spec)),
        (None, None, None) => {
            return Err("request needs exactly one of `op`, `exp`, `scenario`".to_string())
        }
        _ => return Err("`op`, `exp` and `scenario` are mutually exclusive".to_string()),
    };
    if stream && !matches!(&kind, RequestKind::Work(Payload::Scenario(_))) {
        return Err(
            "`stream` is only supported for scenario requests (experiments have no \
             incremental trace to stream)"
                .to_string(),
        );
    }
    if detector.is_some() && !matches!(&kind, RequestKind::Work(Payload::Scenario(_))) {
        return Err(
            "`detector` is only supported for scenario requests (experiments manage \
             their own detectors)"
                .to_string(),
        );
    }
    Ok(Request {
        id,
        deadline,
        stream,
        detector,
        kind,
    })
}

/// The envelope-level summary of a detector-equipped campaign: what the
/// digital twin concluded, distilled for the response envelope. Like
/// `wall_ms` and `cache`, this lives *outside* the digested `result` bytes —
/// the audit is observational, so the result is byte-identical with or
/// without it. Encoded as the envelope's `audit` field, in field order.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AuditSummary {
    /// The preset the campaign ran under.
    pub preset: String,
    /// Challenge-response probes issued.
    pub probes: u64,
    /// Probes that failed the residual check.
    pub probe_failures: u64,
    /// Nodes convicted by the k-of-m rule.
    pub convictions: u64,
    /// Time of the first conviction, simulated seconds, if any fired.
    pub first_conviction_s: Option<f64>,
    /// Probe overhead spent, joules.
    pub spent_j: f64,
}

impl AuditSummary {
    /// Distills the attached audit ledger, if any, after a campaign run.
    fn from_world(world: &World, preset: &str) -> Option<Self> {
        world.audit().map(|audit| AuditSummary {
            preset: preset.to_string(),
            probes: audit.probes().len() as u64,
            probe_failures: audit
                .probes()
                .iter()
                .filter(|p| p.outcome.is_failure())
                .count() as u64,
            convictions: audit.convictions().len() as u64,
            first_conviction_s: audit.first_conviction_s(),
            spent_j: audit.spent_j(),
        })
    }
}

/// Builds a scenario's world, attaching the named detector preset (seeded by
/// the scenario seed, so twin verdicts are as reproducible as the campaign).
fn scenario_world(spec: &ScenarioSpec, detector: Option<&str>) -> (Scenario, World) {
    let scenario = spec.scenario();
    let mut world = scenario.build();
    if let Some(preset) = detector {
        let config = AuditConfig::preset(preset)
            .expect("parse_line validated the preset")
            .with_seed(spec.seed);
        world.set_audit(Some(config));
    }
    (scenario, world)
}

/// Why executing a payload did not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The thread's cancellation token fired (deadline enforcement).
    Cancelled,
    /// The computation failed.
    Failed(String),
}

/// Executes a payload on the calling thread and returns the canonical
/// `result` JSON: [`execute_with`] with no detector and no sink.
///
/// # Errors
///
/// As [`execute_with`].
pub fn execute(payload: &Payload) -> Result<String, ExecError> {
    execute_with(payload, None, None).map(|(result, _)| result)
}

/// Executes a payload on the calling thread and returns the canonical
/// `result` JSON, plus the twin's [`AuditSummary`] when `detector` names an
/// [`AuditConfig`] preset to attach to a scenario campaign. Deadline
/// enforcement is cooperative: the simulation engine polls the thread's
/// current [`wrsn::sim::cancel`] token between integration segments, so
/// install one before calling.
///
/// With a `sink`, a scenario campaign additionally delivers incremental
/// trace-record batches to it on a simulated-time cadence
/// (`horizon_s / STREAM_DIVISIONS`, floored at 1 s). The final batch (sent
/// after the run completes, before this function returns) carries the
/// remaining records plus a closing [`TraceRecord::Snapshot`]. Conviction
/// events surface in those batches (as [`wrsn::sim::SimEvent`] records) the
/// moment the twin fires. `sink(sim_t_s, records)` returning `false` cancels
/// the run cooperatively — the disconnect path: the server-side sink returns
/// `false` once the client's reply channel is gone.
///
/// Neither option touches the result bytes: the audit and the sink only
/// observe the trajectory, so every combination returns [`execute`]'s bytes.
/// Non-scenario payloads return no summary (`parse_line` rejects a detector
/// for them upstream).
///
/// # Errors
///
/// [`ExecError::Cancelled`] when the token fired mid-run or the sink declined
/// a batch, [`ExecError::Failed`] on an engine or serialization error, or
/// when a non-scenario payload (which has no incremental trace) is given a
/// sink — `parse_line` rejects `stream:true` for them upstream. Panics inside
/// experiment code propagate (the scheduler catches them per-request).
pub fn execute_with(
    payload: &Payload,
    detector: Option<&str>,
    mut sink: Option<&mut dyn FnMut(f64, Vec<TraceRecord>) -> bool>,
) -> Result<(String, Option<AuditSummary>), ExecError> {
    let not_streamable = || {
        ExecError::Failed(format!(
            "streaming is only supported for scenario requests, not {payload:?}"
        ))
    };
    let mut audit = None;
    let result = match payload {
        Payload::Exp(_) if sink.is_some() => return Err(not_streamable()),
        Payload::Exp(id) => {
            let tables = crate::run(id).map_err(|e| match e {
                crate::BenchError::Sim {
                    source: SimError::Cancelled,
                    ..
                } => ExecError::Cancelled,
                other => ExecError::Failed(other.to_string()),
            })?;
            let rendered = tables
                .iter()
                .map(|t| Value::Str(t.render()))
                .collect::<Vec<_>>();
            let csvs = tables
                .iter()
                .enumerate()
                .map(|(k, t)| {
                    Value::Seq(vec![
                        Value::Str(format!("{id}_{k}.csv")),
                        Value::Str(t.to_csv()),
                    ])
                })
                .collect::<Vec<_>>();
            serde_json::to_string(&Value::Map(vec![
                ("exp".to_string(), Value::Str(id.clone())),
                ("rendered".to_string(), Value::Seq(rendered)),
                ("csvs".to_string(), Value::Seq(csvs)),
            ]))
        }
        Payload::Scenario(spec) => {
            if wrsn::sim::cancel::cancelled() {
                return Err(ExecError::Cancelled);
            }
            let (scenario, mut world) = scenario_world(spec, detector);
            let mut policy = CsaAttackPolicy::new(scenario.tide_config());
            let cadence_s = (spec.horizon_s / STREAM_DIVISIONS).max(1.0);
            let mut cursor = StreamCursor::default();
            let report = world
                .run_with_progress(
                    &mut policy,
                    &mut NullRecorder,
                    cadence_s,
                    &mut |t_s, trace| match sink.as_mut() {
                        Some(sink) => sink(t_s, cursor.drain(trace, false)),
                        None => true,
                    },
                )
                .map_err(|e| match e {
                    SimError::Cancelled => ExecError::Cancelled,
                    other => ExecError::Failed(other.to_string()),
                })?;
            if let Some(sink) = sink {
                let mut tail = cursor.drain(world.trace(), true);
                tail.push(TraceRecord::Snapshot {
                    t_s: report.final_time_s,
                    health: report.final_health,
                });
                if !sink(report.final_time_s, tail) {
                    return Err(ExecError::Cancelled);
                }
            }
            let outcome = evaluate_attack(&world, &policy);
            audit = detector.and_then(|preset| AuditSummary::from_world(&world, preset));
            serde_json::to_string(&scenario_result(spec, &report, &outcome))
        }
        #[cfg(test)]
        Payload::Test(op) => serde_json::to_string(&match op {
            TestOp::Stream { frames, sleep_ms } => {
                if let Some(sink) = sink {
                    for k in 0..*frames {
                        std::thread::sleep(std::time::Duration::from_millis(*sleep_ms));
                        if wrsn::sim::cancel::cancelled() {
                            return Err(ExecError::Cancelled);
                        }
                        let batch = vec![TraceRecord::Event {
                            t_s: k as f64,
                            event: wrsn::sim::SimEvent::HorizonReached,
                        }];
                        if !sink(k as f64, batch) {
                            return Err(ExecError::Cancelled);
                        }
                    }
                }
                Value::Map(vec![("stream".to_string(), Value::U64(*frames))])
            }
            _ if sink.is_some() => return Err(not_streamable()),
            TestOp::Echo { tag, sleep_ms } => {
                std::thread::sleep(std::time::Duration::from_millis(*sleep_ms));
                Value::Map(vec![("echo".to_string(), Value::U64(*tag))])
            }
            TestOp::Panic => panic!("test payload panicked"),
            TestOp::Hang => loop {
                if wrsn::sim::cancel::cancelled() {
                    return Err(ExecError::Cancelled);
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            },
        }),
    };
    let result = result.map_err(|e| ExecError::Failed(format!("serialize result: {e}")))?;
    Ok((result, audit))
}

/// The canonical scenario `result`, fields in wire order — what makes a
/// streamed final frame byte-identical to the non-streamed cached result.
#[derive(Serialize)]
struct ScenarioResult {
    scenario: Value,
    report: ReportFields,
    attack: AttackFields,
}

fn scenario_result(
    spec: &ScenarioSpec,
    report: &wrsn::sim::SimReport,
    outcome: &wrsn::core::attack::AttackOutcome,
) -> ScenarioResult {
    let report = ReportFields {
        final_time_s: report.final_time_s,
        dead_nodes: report.dead_nodes,
        alive_nodes: report.alive_nodes,
        network_lifetime_s: report.network_lifetime_s,
        charger_energy_used_j: report.charger_energy_used_j,
        total_delivered_j: report.total_delivered_j,
        sessions: report.sessions,
    };
    let attack = AttackFields {
        targeted: outcome.targeted,
        exhausted: outcome.exhausted,
        utility: outcome.utility,
        exhausted_ratio: outcome.exhausted_ratio,
        key_node_exhausted_ratio: outcome.key_node_exhausted_ratio,
    };
    ScenarioResult {
        scenario: spec.to_value(),
        report,
        attack,
    }
}

/// The `report` object of a scenario `result`, fields in wire order.
#[derive(Serialize)]
struct ReportFields {
    final_time_s: f64,
    dead_nodes: usize,
    alive_nodes: usize,
    network_lifetime_s: Option<f64>,
    charger_energy_used_j: f64,
    total_delivered_j: f64,
    sessions: usize,
}

/// The `attack` object of a scenario `result`, fields in wire order.
#[derive(Serialize)]
struct AttackFields {
    targeted: usize,
    exhausted: usize,
    utility: f64,
    exhausted_ratio: f64,
    key_node_exhausted_ratio: f64,
}

/// A cursor over a live [`Trace`]: each [`StreamCursor::drain`] call converts
/// only the events and sessions recorded since the last call into
/// [`TraceRecord`]s (PR 2 JSONL schema, through the same
/// [`obs::event_records`] mapping as [`obs::export_trace`]).
///
/// Sessions need one subtlety: the trace *merges* contiguous charge chunks
/// into its last session, so the most recent session is only final once a
/// newer one exists (or the run has ended). A non-final drain therefore holds
/// the last session back; the final drain flushes it.
#[derive(Debug, Default)]
struct StreamCursor {
    events: usize,
    sessions: usize,
}

impl StreamCursor {
    fn drain(&mut self, trace: &Trace, fin: bool) -> Vec<TraceRecord> {
        let mut batch = Vec::new();
        let events = trace.events();
        for (t_s, event) in &events[self.events.min(events.len())..] {
            obs::event_records(*t_s, event, |record| batch.push(record));
        }
        self.events = events.len();
        let sessions = trace.sessions();
        let upto = if fin {
            sessions.len()
        } else {
            sessions.len().saturating_sub(1)
        };
        for session in &sessions[self.sessions.min(upto)..upto] {
            batch.push(TraceRecord::Session { session: *session });
        }
        self.sessions = self.sessions.max(upto);
        batch
    }
}

fn quote(s: &str) -> String {
    let mut out = String::new();
    serde::json::write_str(s, &mut out);
    out
}

/// An `ok` response line. `result_json` is embedded verbatim — it must be
/// the canonical result bytes ([`execute`]'s return value or a cache replay).
/// `audit`, when present, rides in the envelope next to `wall_ms`, outside
/// the digested bytes.
pub fn ok_line(
    id: &str,
    digest: &str,
    cache: &str,
    wall_ms: f64,
    result_json: &str,
    audit: Option<&AuditSummary>,
) -> String {
    let audit = match audit {
        Some(summary) => format!(
            "\"audit\":{},",
            serde_json::to_string(summary).expect("audit summaries are finite")
        ),
        None => String::new(),
    };
    format!(
        "{{\"v\":{RESPONSE_VERSION},\"id\":{},\"status\":\"ok\",\"digest\":\"{digest}\",\
         \"cache\":\"{cache}\",\"wall_ms\":{wall_ms:.3},{audit}\"result\":{result_json}}}",
        quote(id)
    )
}

/// An `error` response line.
pub fn error_line(id: &str, detail: &str) -> String {
    format!(
        "{{\"v\":{RESPONSE_VERSION},\"id\":{},\"status\":\"error\",\"error\":{}}}",
        quote(id),
        quote(detail)
    )
}

/// An `invalid` response line: the request violated a protocol bound (e.g.
/// the line-length cap) badly enough that the connection closes after it.
pub fn invalid_line(id: &str, detail: &str) -> String {
    format!(
        "{{\"v\":{RESPONSE_VERSION},\"id\":{},\"status\":\"invalid\",\"error\":{}}}",
        quote(id),
        quote(detail)
    )
}

/// An `overloaded` response line: the request was shed at admission because
/// the scheduler queue was full. `retry_after_ms` is the daemon's backoff
/// hint, scaled by how deep the congestion is.
pub fn overloaded_line(id: &str, retry_after_ms: u64) -> String {
    format!(
        "{{\"v\":{RESPONSE_VERSION},\"id\":{},\"status\":\"overloaded\",\
         \"retry_after_ms\":{retry_after_ms}}}",
        quote(id)
    )
}

/// A streamed `progress` frame: `seq` numbers the frames of one request
/// (from 0), `sim_t_s` is the simulated time of the flush, and `records`
/// carries the new trace records since the previous frame, each wrapped in
/// the PR 2 JSONL envelope (`{"v":<schema>,"record":...}`) so consumers feed
/// elements straight into [`wrsn::sim::obs::from_jsonl_line`].
pub fn progress_line(id: &str, seq: u64, sim_t_s: f64, records: &[TraceRecord]) -> String {
    let records: Vec<String> = records
        .iter()
        .map(|r| obs::to_jsonl_line(r).expect("trace records carry finite floats"))
        .collect();
    format!(
        "{{\"v\":{RESPONSE_VERSION},\"id\":{},\"status\":\"progress\",\"seq\":{seq},\
         \"sim_t_s\":{sim_t_s},\"records\":[{}]}}",
        quote(id),
        records.join(",")
    )
}

/// A `timeout` response line.
pub fn timeout_line(id: &str, deadline_s: f64) -> String {
    format!(
        "{{\"v\":{RESPONSE_VERSION},\"id\":{},\"status\":\"timeout\",\"error\":{}}}",
        quote(id),
        quote(&format!(
            "request exceeded its {deadline_s} s wall-clock deadline"
        ))
    )
}

/// An `ok` control response line with an arbitrary result value.
pub fn control_line(id: &str, result: &Value) -> String {
    format!(
        "{{\"v\":{RESPONSE_VERSION},\"id\":{},\"status\":\"ok\",\"result\":{}}}",
        quote(id),
        serde_json::to_string(result).expect("control results have no non-finite floats")
    )
}

/// A response line parsed by the load generator and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedResponse {
    /// Correlation id.
    pub id: String,
    /// `ok`, `error`, `timeout`, `invalid`, `overloaded`, or `progress`.
    pub status: String,
    /// Request digest (work responses only).
    pub digest: Option<String>,
    /// `hit`, `miss`, or `coalesced` (work responses only).
    pub cache: Option<String>,
    /// Failure detail (`error`/`timeout`/`invalid` responses).
    pub error: Option<String>,
    /// The result re-serialized to canonical bytes (ok responses only).
    /// Round-tripping through the vendored writer is lossless, so these
    /// bytes are comparable across responses.
    pub result_canonical: Option<String>,
    /// The detector's envelope summary, re-serialized to canonical bytes
    /// (fresh `ok` responses to detector-equipped requests only).
    pub audit_canonical: Option<String>,
    /// Backoff hint (`overloaded` responses only), milliseconds.
    pub retry_after_ms: Option<u64>,
    /// Frame number within a stream (`progress` frames only).
    pub seq: Option<u64>,
    /// Trace-record envelope elements re-serialized to canonical bytes
    /// (`progress` frames only) — each is one PR 2 JSONL line.
    pub records: Option<Vec<String>>,
}

/// Parses a response line.
///
/// # Errors
///
/// A human-readable message for malformed lines or an unknown envelope
/// version.
pub fn parse_response(line: &str) -> Result<ParsedResponse, String> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| format!("malformed response JSON: {e}"))?;
    let map = value
        .as_map()
        .ok_or_else(|| format!("response must be a JSON object, got {}", value.kind()))?;
    let mut parsed = ParsedResponse {
        id: String::new(),
        status: String::new(),
        digest: None,
        cache: None,
        error: None,
        result_canonical: None,
        audit_canonical: None,
        retry_after_ms: None,
        seq: None,
        records: None,
    };
    for (key, val) in map {
        match key.as_str() {
            "v" => {
                let v = field_u64(val, "v")?;
                if v != RESPONSE_VERSION {
                    return Err(format!(
                        "unsupported response version {v} (this client speaks {RESPONSE_VERSION})"
                    ));
                }
            }
            "id" => parsed.id = field_str(val, "id")?,
            "status" => parsed.status = field_str(val, "status")?,
            "digest" => parsed.digest = Some(field_str(val, "digest")?),
            "cache" => parsed.cache = Some(field_str(val, "cache")?),
            "error" => parsed.error = Some(field_str(val, "error")?),
            "wall_ms" | "sim_t_s" => {}
            "retry_after_ms" => parsed.retry_after_ms = Some(field_u64(val, "retry_after_ms")?),
            "seq" => parsed.seq = Some(field_u64(val, "seq")?),
            "records" => {
                let Value::Seq(items) = val else {
                    return Err(format!("`records` must be an array, got {}", val.kind()));
                };
                let mut lines = Vec::with_capacity(items.len());
                for item in items {
                    lines.push(
                        serde_json::to_string(item)
                            .map_err(|e| format!("re-serialize record: {e}"))?,
                    );
                }
                parsed.records = Some(lines);
            }
            "result" => {
                parsed.result_canonical = Some(
                    serde_json::to_string(val).map_err(|e| format!("re-serialize result: {e}"))?,
                )
            }
            "audit" => {
                parsed.audit_canonical = Some(
                    serde_json::to_string(val).map_err(|e| format!("re-serialize audit: {e}"))?,
                )
            }
            other => return Err(format!("unknown response field `{other}`")),
        }
    }
    if parsed.status.is_empty() {
        return Err("response has no `status`".to_string());
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equivalent_requests_share_a_digest() {
        let a = parse_line(r#"{"id":"a","scenario":{"nodes":40,"seed":7}}"#, 0).unwrap();
        let b = parse_line(
            r#"{"scenario":{"seed":7,"horizon_s":50000,"deployment":"uniform","nodes":40},"deadline_s":5}"#,
            1,
        )
        .unwrap();
        let (RequestKind::Work(pa), RequestKind::Work(pb)) = (&a.kind, &b.kind) else {
            panic!("both are work requests");
        };
        assert_eq!(pa.digest(), pb.digest());
        assert_eq!(b.id, "r1", "anonymous requests are named by sequence");
        assert_eq!(b.deadline, Some(Duration::from_secs(5)));
    }

    #[test]
    fn different_scenarios_get_different_digests() {
        let spec = |seed| {
            Payload::Scenario(ScenarioSpec {
                nodes: 40,
                seed,
                horizon_s: DEFAULT_HORIZON_S,
                deployment: DeploymentKind::Uniform,
            })
        };
        assert_ne!(spec(1).digest(), spec(2).digest());
        assert_ne!(
            Payload::Exp("fig2".to_string()).digest(),
            Payload::Exp("fig3".to_string()).digest()
        );
    }

    #[test]
    fn validation_rejects_bad_requests() {
        for (line, needle) in [
            ("not json", "malformed"),
            ("[1,2]", "JSON object"),
            (r#"{"scenario":{"nodes":1}}"#, "nodes"),
            (r#"{"scenario":{"nodes":40,"horizon_s":-5}}"#, "horizon_s"),
            (
                r#"{"scenario":{"nodes":40,"wat":1}}"#,
                "unknown scenario field",
            ),
            (r#"{"exp":"fig99"}"#, "unknown experiment id"),
            (r#"{"op":"reboot"}"#, "unknown op"),
            (r#"{"exp":"fig2","op":"ping"}"#, "mutually exclusive"),
            (r#"{"id":"x"}"#, "exactly one of"),
            (r#"{"exp":"fig2","deadline_s":0}"#, "deadline_s"),
            (r#"{"exp":"fig2","deadline_s":1e20}"#, "deadline_s"),
            (r#"{"exp":"fig2","nope":1}"#, "unknown request field"),
        ] {
            let err = parse_line(line, 0).unwrap_err().detail;
            assert!(err.contains(needle), "line {line}: error `{err}`");
        }
    }

    #[test]
    fn a_rejected_line_keeps_its_readable_id() {
        let late = parse_line(r#"{"deadline_s":1e20,"exp":"fig2","id":"h"}"#, 4).unwrap_err();
        assert_eq!(late.id, "h", "the id is read before any other field");
        assert!(late.detail.contains("deadline_s"), "{}", late.detail);
        assert_eq!(parse_line("not json", 4).unwrap_err().id, "r4");
        let deep = format!(r#" {{ "id" : "d\"1","exp":{}"#, "[".repeat(1000));
        let rejected = parse_line(&deep, 4).unwrap_err();
        assert_eq!(rejected.id, "d\"1", "an id ahead of malformed JSON is read");
        assert!(rejected.detail.contains("nest deeper"), "{rejected:?}");
        for unread in [r#"{"id":"t"#, r#"{"exp":"x","id":"t""#, r#"{"id":7,"#] {
            assert_eq!(parse_line(unread, 4).unwrap_err().id, "r4", "{unread}");
        }
        assert_eq!(
            parse_line(r#"{"id":7,"op":"ping"}"#, 5).unwrap_err().id,
            "r5"
        );
    }

    #[test]
    fn control_ops_parse() {
        for (line, op) in [
            (r#"{"op":"ping"}"#, ControlOp::Ping),
            (r#"{"op":"stats"}"#, ControlOp::Stats),
            (r#"{"op":"shutdown"}"#, ControlOp::Shutdown),
        ] {
            let req = parse_line(line, 3).unwrap();
            assert_eq!(req.kind, RequestKind::Control(op));
        }
    }

    #[test]
    fn scenario_execution_is_deterministic() {
        let payload = Payload::Scenario(ScenarioSpec {
            nodes: 24,
            seed: 7,
            horizon_s: 20_000.0,
            deployment: DeploymentKind::Uniform,
        });
        let a = execute(&payload).expect("runs");
        let b = execute(&payload).expect("runs");
        assert_eq!(a, b, "same spec, same bytes");
        assert!(a.contains("\"report\""));
        assert!(a.contains("\"attack\""));
    }

    #[test]
    fn exp_execution_matches_the_single_shot_runner() {
        let result = execute(&Payload::Exp("fig2".to_string())).expect("fig2 runs");
        let tables = crate::run("fig2").expect("fig2 runs");
        // The daemon's result embeds exactly the single-shot renderings.
        let quoted = serde_json::to_string(&Value::Str(tables[0].render())).unwrap();
        assert!(
            result.contains(&quoted),
            "daemon result must embed the single-shot rendering"
        );
    }

    #[test]
    fn response_lines_round_trip() {
        let ok = ok_line("q\"1", "00deadbeef00cafe", "miss", 1.5, r#"{"x":1}"#, None);
        let parsed = parse_response(&ok).expect("parses");
        assert_eq!(parsed.id, "q\"1");
        assert_eq!(parsed.status, "ok");
        assert_eq!(parsed.digest.as_deref(), Some("00deadbeef00cafe"));
        assert_eq!(parsed.cache.as_deref(), Some("miss"));
        assert_eq!(parsed.result_canonical.as_deref(), Some(r#"{"x":1}"#));

        let err = error_line("q2", "boom\nline two");
        let parsed = parse_response(&err).expect("parses");
        assert_eq!(parsed.status, "error");
        assert_eq!(parsed.error.as_deref(), Some("boom\nline two"));

        let to = timeout_line("q3", 2.5);
        let parsed = parse_response(&to).expect("parses");
        assert_eq!(parsed.status, "timeout");
        assert!(parsed.error.unwrap().contains("2.5 s"));
    }

    #[test]
    fn overloaded_and_invalid_lines_round_trip() {
        let shed = overloaded_line("q7", 125);
        let parsed = parse_response(&shed).expect("parses");
        assert_eq!(parsed.status, "overloaded");
        assert_eq!(parsed.retry_after_ms, Some(125));

        let bad = invalid_line("q8", "request line exceeds 262144 bytes");
        let parsed = parse_response(&bad).expect("parses");
        assert_eq!(parsed.status, "invalid");
        assert!(parsed.error.unwrap().contains("exceeds"));
    }

    #[test]
    fn stream_flag_is_envelope_only_and_scenario_only() {
        let plain = parse_line(r#"{"id":"a","scenario":{"nodes":40,"seed":7}}"#, 0).unwrap();
        let streamed = parse_line(
            r#"{"id":"b","scenario":{"nodes":40,"seed":7},"stream":true}"#,
            1,
        )
        .unwrap();
        assert!(!plain.stream);
        assert!(streamed.stream);
        let (RequestKind::Work(pa), RequestKind::Work(pb)) = (&plain.kind, &streamed.kind) else {
            panic!("both are work requests");
        };
        assert_eq!(pa.digest(), pb.digest(), "stream never enters the digest");
        let err = parse_line(r#"{"exp":"fig2","stream":true}"#, 2).unwrap_err();
        assert!(err.detail.contains("only supported for scenario"));
    }

    #[test]
    fn detector_is_envelope_only_and_scenario_only() {
        let plain = parse_line(r#"{"id":"a","scenario":{"nodes":40,"seed":7}}"#, 0).unwrap();
        let audited = parse_line(
            r#"{"id":"b","scenario":{"nodes":40,"seed":7},"detector":"aggressive"}"#,
            1,
        )
        .unwrap();
        assert_eq!(plain.detector, None);
        assert_eq!(audited.detector.as_deref(), Some("aggressive"));
        let (RequestKind::Work(pa), RequestKind::Work(pb)) = (&plain.kind, &audited.kind) else {
            panic!("both are work requests");
        };
        assert_eq!(pa.digest(), pb.digest(), "detector never enters the digest");
        let err = parse_line(r#"{"exp":"fig2","detector":"default"}"#, 2).unwrap_err();
        assert!(err.detail.contains("only supported for scenario"));
        let err = parse_line(r#"{"scenario":{"nodes":40},"detector":"psychic"}"#, 3).unwrap_err();
        assert!(err.detail.contains("unknown detector preset"));
    }

    #[test]
    fn detector_leaves_result_bytes_identical_and_summarizes_the_audit() {
        // Long enough for the CSA campaign to produce charging sessions the
        // twin can probe (the 20k-horizon spec above finishes before any
        // node even requests a charge).
        let payload = Payload::Scenario(ScenarioSpec {
            nodes: 24,
            seed: 7,
            horizon_s: 400_000.0,
            deployment: DeploymentKind::Uniform,
        });
        let plain = execute(&payload).expect("runs");
        let (audited, summary) =
            execute_with(&payload, Some("aggressive"), None).expect("runs with audit");
        assert_eq!(plain, audited, "the audit is purely observational");
        let summary = summary.expect("scenario with detector yields a summary");
        assert_eq!(summary.preset, "aggressive");
        assert!(summary.probes > 0, "aggressive preset probes every session");
        assert!(summary.spent_j > 0.0);
        // The summary rides in the envelope and survives the response parse.
        let line = ok_line(
            "q1",
            "00deadbeef00cafe",
            "miss",
            1.5,
            &audited,
            Some(&summary),
        );
        let parsed = parse_response(&line).expect("parses");
        let envelope = parsed.audit_canonical.expect("audit field present");
        assert!(envelope.contains("\"preset\":\"aggressive\""));
        assert_eq!(
            parsed.result_canonical.as_deref(),
            parse_response(&ok_line(
                "q1",
                "00deadbeef00cafe",
                "miss",
                1.5,
                &plain,
                None
            ))
            .expect("parses")
            .result_canonical
            .as_deref(),
            "detector and plain responses share one result"
        );
        // Without a detector there is no summary.
        let (_, none) = execute_with(&payload, None, None).expect("runs");
        assert!(none.is_none());
    }

    #[test]
    fn scenario_result_bytes_are_pinned() {
        // The scenario `result` is wire schema and the cached bytes every
        // hit replays: field names, order and float formatting (`null`
        // lifetime, `-0`) are pinned for a campaign that kills a key node
        // and for one where nothing dies.
        let corridor = Payload::Scenario(ScenarioSpec {
            nodes: 24,
            seed: 7,
            horizon_s: 400_000.0,
            deployment: DeploymentKind::Corridor,
        });
        assert_eq!(
            execute(&corridor).expect("runs"),
            "{\"scenario\":{\"nodes\":24,\"seed\":7,\"horizon_s\":400000,\"deployment\":\"corridor\"},\
             \"report\":{\"final_time_s\":400000,\"dead_nodes\":1,\"alive_nodes\":23,\
             \"network_lifetime_s\":0,\"charger_energy_used_j\":55528.655896585355,\
             \"total_delivered_j\":800.3709855940833,\"sessions\":9},\
             \"attack\":{\"targeted\":1,\"exhausted\":1,\"utility\":1.7719298245614035,\
             \"exhausted_ratio\":1,\"key_node_exhausted_ratio\":0.25}}"
        );
        let quiet = Payload::Scenario(ScenarioSpec {
            nodes: 24,
            seed: 7,
            horizon_s: 20_000.0,
            deployment: DeploymentKind::Uniform,
        });
        assert_eq!(
            execute(&quiet).expect("runs"),
            "{\"scenario\":{\"nodes\":24,\"seed\":7,\"horizon_s\":20000,\"deployment\":\"uniform\"},\
             \"report\":{\"final_time_s\":20000,\"dead_nodes\":0,\"alive_nodes\":24,\
             \"network_lifetime_s\":null,\"charger_energy_used_j\":0,\"total_delivered_j\":-0,\
             \"sessions\":0},\"attack\":{\"targeted\":0,\"exhausted\":0,\"utility\":-0,\
             \"exhausted_ratio\":1,\"key_node_exhausted_ratio\":0}}"
        );
    }

    #[test]
    fn audit_envelope_bytes_are_pinned() {
        // The envelope's `audit` field is wire schema: clients parse it by
        // name and order, so its exact bytes are pinned for one fresh
        // detector run (no conviction: a `null` time) and for a summary
        // with a conviction.
        let payload = Payload::Scenario(ScenarioSpec {
            nodes: 24,
            seed: 7,
            horizon_s: 400_000.0,
            deployment: DeploymentKind::Uniform,
        });
        let (result, summary) =
            execute_with(&payload, Some("aggressive"), None).expect("runs with audit");
        let line = ok_line(
            "q1",
            "00deadbeef00cafe",
            "miss",
            1.5,
            &result,
            summary.as_ref(),
        );
        let audit = line
            .split_once("\"audit\":")
            .and_then(|(_, rest)| rest.split_once(",\"result\":"))
            .map(|(audit, _)| audit)
            .expect("audit field precedes result");
        assert_eq!(
            audit,
            "{\"preset\":\"aggressive\",\"probes\":17,\"probe_failures\":0,\
             \"convictions\":0,\"first_conviction_s\":null,\"spent_j\":85}"
        );
        let convicted = AuditSummary {
            preset: "lax".to_string(),
            probes: 3,
            probe_failures: 2,
            convictions: 1,
            first_conviction_s: Some(1234.5),
            spent_j: 2.25,
        };
        let line = ok_line(
            "q2",
            "00deadbeef00cafe",
            "hit",
            0.25,
            "{}",
            Some(&convicted),
        );
        assert_eq!(
            line,
            "{\"v\":1,\"id\":\"q2\",\"status\":\"ok\",\"digest\":\"00deadbeef00cafe\",\
             \"cache\":\"hit\",\"wall_ms\":0.250,\"audit\":{\"preset\":\"lax\",\"probes\":3,\
             \"probe_failures\":2,\"convictions\":1,\"first_conviction_s\":1234.5,\
             \"spent_j\":2.25},\"result\":{}}"
        );
    }

    #[test]
    fn streamed_scenario_yields_valid_frames_and_identical_final_bytes() {
        let payload = Payload::Scenario(ScenarioSpec {
            nodes: 24,
            seed: 7,
            horizon_s: 20_000.0,
            deployment: DeploymentKind::Uniform,
        });
        let plain = execute(&payload).expect("plain run");
        let mut frames: Vec<(f64, Vec<TraceRecord>)> = Vec::new();
        let (streamed, _) = execute_with(
            &payload,
            None,
            Some(&mut |t_s, records| {
                frames.push((t_s, records));
                true
            }),
        )
        .expect("streamed run");
        assert_eq!(plain, streamed, "streamed result is byte-identical");
        assert!(frames.len() > 1, "a 20ks horizon flushes multiple times");
        assert!(
            frames.windows(2).all(|w| w[0].0 <= w[1].0),
            "flushes arrive in simulated-time order"
        );
        // The final batch closes with the final-health snapshot.
        let last = frames.last().and_then(|(_, r)| r.last()).unwrap();
        assert!(matches!(last, TraceRecord::Snapshot { .. }));
        // A frame built from a real batch parses, and every record element
        // is a valid PR 2 JSONL trace line.
        let batch = frames
            .iter()
            .map(|(_, r)| r)
            .find(|r| !r.is_empty())
            .expect("some batch has records");
        let line = progress_line("q1", 0, 1.0, batch);
        let parsed = parse_response(&line).expect("frame parses");
        assert_eq!(parsed.status, "progress");
        assert_eq!(parsed.seq, Some(0));
        for record in parsed.records.expect("frame carries records") {
            wrsn::sim::obs::from_jsonl_line(&record).expect("record is a valid trace line");
        }
    }

    #[test]
    fn a_declining_sink_cancels_a_streamed_run() {
        let payload = Payload::Scenario(ScenarioSpec {
            nodes: 24,
            seed: 7,
            horizon_s: 20_000.0,
            deployment: DeploymentKind::Uniform,
        });
        let mut calls = 0usize;
        let result = execute_with(
            &payload,
            None,
            Some(&mut |_, _| {
                calls += 1;
                false
            }),
        );
        assert_eq!(result, Err(ExecError::Cancelled));
        assert_eq!(calls, 1, "the run stops at the first declined flush");
    }

    /// A scenario long enough for the CSA campaign to charge, and for the
    /// aggressive twin to convict, so every stream carries sessions and the
    /// audited one carries convictions.
    fn charging_spec() -> ScenarioSpec {
        ScenarioSpec {
            nodes: 24,
            seed: 7,
            horizon_s: 1_000_000.0,
            deployment: DeploymentKind::Uniform,
        }
    }

    /// Splits trace records into the event stream (`Event` and `Fault`
    /// records, in order) and the session stream (in order).
    fn split_records(records: &[TraceRecord]) -> (Vec<TraceRecord>, Vec<TraceRecord>) {
        let pick = |keep: fn(&TraceRecord) -> bool| {
            records
                .iter()
                .filter(|r| keep(r))
                .cloned()
                .collect::<Vec<_>>()
        };
        (
            pick(|r| matches!(r, TraceRecord::Event { .. } | TraceRecord::Fault { .. })),
            pick(|r| matches!(r, TraceRecord::Session { .. })),
        )
    }

    #[test]
    fn streamed_frames_carry_exactly_the_records_a_recorder_exports() {
        let spec = charging_spec();
        let mut streamed = Vec::new();
        execute_with(
            &Payload::Scenario(spec.clone()),
            None,
            Some(&mut |_, records| {
                streamed.extend(records);
                true
            }),
        )
        .expect("streamed run");
        let (scenario, mut world) = scenario_world(&spec, None);
        let mut rec = wrsn::sim::StatsRecorder::new();
        world
            .run_with(&mut CsaAttackPolicy::new(scenario.tide_config()), &mut rec)
            .expect("recorded run");
        let (streamed_events, streamed_sessions) = split_records(&streamed);
        let (exported_events, exported_sessions) = split_records(rec.records());
        assert!(!exported_sessions.is_empty(), "the campaign charges");
        assert_eq!(streamed_events, exported_events);
        assert_eq!(streamed_sessions, exported_sessions);
    }

    #[test]
    fn streamed_detector_run_matches_the_plain_and_audited_runs() {
        let payload = Payload::Scenario(charging_spec());
        let plain = execute(&payload).expect("plain run");
        let (_, audited) = execute_with(&payload, Some("aggressive"), None).expect("audited run");
        let mut records = Vec::new();
        let (streamed, summary) = execute_with(
            &payload,
            Some("aggressive"),
            Some(&mut |_, batch| {
                records.extend(batch);
                true
            }),
        )
        .expect("streamed audited run");
        assert_eq!(
            streamed, plain,
            "neither the audit nor the sink moves a byte"
        );
        assert_eq!(summary, audited, "streaming leaves the audit unchanged");
        let summary = summary.expect("scenario with detector yields a summary");
        let conviction_events = records
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    TraceRecord::Event {
                        event: wrsn::sim::SimEvent::AuditConviction { .. },
                        ..
                    }
                )
            })
            .count() as u64;
        if summary.convictions > 0 {
            assert!(conviction_events > 0, "convictions surface in the frames");
        }
        eprintln!(
            "convictions {} events {}",
            summary.convictions, conviction_events
        );
    }

    #[test]
    fn cancelled_token_short_circuits_scenario_execution() {
        use wrsn::sim::cancel::{CancelToken, ScopedCancel};
        let token = CancelToken::new();
        token.cancel();
        let _guard = ScopedCancel::install(token);
        let payload = Payload::Scenario(ScenarioSpec {
            nodes: 24,
            seed: 1,
            horizon_s: 20_000.0,
            deployment: DeploymentKind::Uniform,
        });
        assert_eq!(execute(&payload), Err(ExecError::Cancelled));
    }
}
