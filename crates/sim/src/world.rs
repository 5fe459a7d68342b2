//! The simulation world and its run loop.
//!
//! Time advances in *exact* piecewise-linear segments: between topology
//! changes every battery drains at a constant rate, so the world computes the
//! next node-death instant analytically and never steps over a death. Node
//! deaths trigger routing recomputation (traffic reroutes around the corpse),
//! which is precisely the cascade the attack tries to set off.

use serde::{Deserialize, Serialize};

use wrsn_net::energy::RadioEnergyModel;
use wrsn_net::keynode;
use wrsn_net::metrics::{self, HealthSnapshot};
use wrsn_net::routing::{self, RepairScratch, RoutingTree, TrafficLoad};
use wrsn_net::{EnergyColumnsMut, Network, NetworkEncoder, NodeId};

use crate::audit::{AuditConfig, AuditEncoder, AuditState, SessionObservation};
use crate::charger::{ChargeMode, MobileCharger};
use crate::error::SimError;
use crate::fault::{FaultInjector, FaultKind, FaultPlan};
use crate::obs::{self, Counter, Gauge, Recorder, TraceRecord};
use crate::policy::{ChargerAction, ChargerPolicy, WorldView};
use crate::request::{ChargeRequest, RequestQueue};
use crate::store::Checkpointer;
use crate::trace::{ChargeSession, SimEvent, Trace, TraceEncoder};

/// Static configuration of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Simulation horizon, seconds.
    pub horizon_s: f64,
    /// Radio energy model used to derive node power draw.
    pub radio: RadioEnergyModel,
    /// Sensing radius used for coverage metrics, metres.
    pub sensing_radius_m: f64,
    /// The network is considered "alive" while at least this fraction of
    /// alive nodes can reach the sink; the first crossing below it is the
    /// reported network lifetime.
    pub lifetime_reachability: f64,
    /// Optional depot where [`crate::ChargerAction::Recharge`] swaps the
    /// charger's battery. `None` = finite, non-renewable budget.
    pub depot: Option<wrsn_net::Point>,
    /// Time a depot battery swap takes, seconds.
    pub depot_swap_time_s: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            horizon_s: 86_400.0, // 24 h
            radio: RadioEnergyModel::classical(),
            sensing_radius_m: 10.0,
            lifetime_reachability: 0.9,
            depot: None,
            depot_swap_time_s: 600.0,
        }
    }
}

/// Summary of a finished simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Name of the policy that drove the charger.
    pub policy_name: String,
    /// Time the run ended, seconds.
    pub final_time_s: f64,
    /// Configured horizon, seconds.
    pub horizon_s: f64,
    /// Nodes dead at the end.
    pub dead_nodes: usize,
    /// Nodes alive at the end.
    pub alive_nodes: usize,
    /// Network lifetime (first reachability-threshold crossing), if it
    /// happened.
    pub network_lifetime_s: Option<f64>,
    /// Charger energy consumed (movement + radiation), joules.
    pub charger_energy_used_j: f64,
    /// Total energy delivered to nodes, joules.
    pub total_delivered_j: f64,
    /// Total RF energy radiated in sessions, joules.
    pub total_radiated_j: f64,
    /// Number of charging sessions.
    pub sessions: usize,
    /// Depot battery swaps performed.
    pub depot_visits: usize,
    /// Health snapshot at the end of the run.
    pub final_health: HealthSnapshot,
}

/// Streaming progress hook: called as `(sim_time_s, trace)` at each cadence
/// boundary; returning `false` cancels the run. See
/// [`World::run_with_progress`].
pub type ProgressHook<'a> = &'a mut dyn FnMut(f64, &Trace) -> bool;

/// A runnable WRSN world: network + charger + clock + trace.
///
/// Serializable: a world can be snapshotted to JSON mid- or post-run and
/// reloaded for offline forensics (see the `wrsn` CLI's `audit` command).
/// Policies are not part of the snapshot — they are reattached on `run`.
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct World {
    net: Network,
    charger: MobileCharger,
    config: WorldConfig,
    time_s: f64,
    tree: RoutingTree,
    power_w: Vec<f64>,
    requests: RequestQueue,
    trace: Trace,
    lifetime_s: Option<f64>,
    depot_visits: usize,
    /// Charger energy consumed across all battery fills, including swapped-in
    /// depot batteries.
    energy_used_j: f64,
    /// Attached fault injection, if any. `None` (the default, and what
    /// [`FaultPlan::none`] leaves) keeps the run loop byte-identical to a
    /// world without fault machinery.
    faults: Option<FaultInjector>,
    /// Attached online base-station audit (digital twin + challenge-response
    /// probes), if any. Like `faults`: `None` keeps the run loop and the
    /// snapshot byte-identical to a pre-audit world. Purely observational —
    /// it never perturbs the trajectory.
    audit: Option<AuditState>,
    /// Attached periodic on-disk snapshotter, if any. Pure observation: never
    /// serialized, never part of a [`Checkpoint`], never perturbs the
    /// trajectory.
    ckpt: Option<Checkpointer>,
    scratch: Scratch,
}

/// Reusable hot-loop buffers. Derived state only: everything here is a pure
/// function of the serialized `World` fields and is rebuilt on deserialize,
/// so snapshots stay byte-compatible with the pre-scratch format.
#[derive(Debug, Clone)]
struct Scratch {
    /// Alive mask, kept current across deaths (replaces per-segment
    /// `alive_mask()` allocations).
    alive: Vec<bool>,
    /// Indices of alive nodes, ascending.
    alive_idx: Vec<usize>,
    /// Net battery drain per node, watts, under the current topology and
    /// injection; only entries listed in `alive_idx` are meaningful.
    net_w: Vec<f64>,
    /// Indices of alive nodes with strictly positive net drain, ascending —
    /// the only candidates for the next death / warning-crossing event.
    drain_idx: Vec<usize>,
    /// Nodes that died in the current segment.
    dead: Vec<NodeId>,
    /// Nodes whose warning-threshold status flipped in the current segment
    /// (ascending) — the only nodes whose request status can have changed.
    crossed: Vec<usize>,
    /// Reused buffers of [`RoutingTree::repair_after_deaths`] and
    /// [`TrafficLoad::update_after_repair`].
    repair: RepairScratch,
    /// Traffic load matching `World::tree`, kept so a refresh updates it in
    /// place and recomputes power only where it changed.
    load: TrafficLoad,
    /// Event horizon carried over from the last `advance` exit, keyed by the
    /// injection `(node, watts bits)` it was computed under. While no battery
    /// or topology mutation intervenes, the drain buffers and this horizon
    /// are still exact, so a same-injection `advance` skips its entry
    /// rebuild/scan entirely. Cleared by every out-of-loop mutation
    /// (`refresh_full`, `set_battery_level`).
    horizon: Option<(Option<NodeId>, u64, f64)>,
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch {
            alive: Vec::new(),
            alive_idx: Vec::new(),
            net_w: Vec::new(),
            drain_idx: Vec::new(),
            dead: Vec::new(),
            crossed: Vec::new(),
            repair: RepairScratch::default(),
            load: TrafficLoad {
                rx_bps: Vec::new(),
                tx_bps: Vec::new(),
            },
            horizon: None,
        }
    }
}

// Hand-written so the scratch buffers stay out of snapshots: the JSON shape
// is identical to the previous derived form, and `Scratch` is rebuilt from
// the deserialized fields. `write_json` streams the same fields in the same
// order through a fresh `WorldEncoder`, the one the checkpointer keeps.
impl Serialize for World {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![
            ("net".to_string(), self.net.to_value()),
            ("charger".to_string(), self.charger.to_value()),
            ("config".to_string(), self.config.to_value()),
            ("time_s".to_string(), self.time_s.to_value()),
            ("tree".to_string(), self.tree.to_value()),
            ("power_w".to_string(), self.power_w.to_value()),
            ("requests".to_string(), self.requests.to_value()),
            ("trace".to_string(), self.trace.to_value()),
            ("lifetime_s".to_string(), self.lifetime_s.to_value()),
            ("depot_visits".to_string(), self.depot_visits.to_value()),
            ("energy_used_j".to_string(), self.energy_used_j.to_value()),
        ];
        // Fault state only enters the snapshot when a plan is attached, so
        // fault-free snapshots keep the exact pre-fault byte shape.
        if let Some(faults) = &self.faults {
            entries.push(("faults".to_string(), faults.to_value()));
        }
        // Same deal for the audit: only attached audits enter the snapshot.
        if let Some(audit) = &self.audit {
            entries.push(("audit".to_string(), audit.to_value()));
        }
        serde::Value::Map(entries)
    }

    fn write_json(&self, out: &mut String) -> Result<(), serde::Error> {
        WorldEncoder::default().encode(self, out)
    }
}

/// Encodes a [`World`] as JSON, keeping what earlier encodes of the same
/// world wrote of its network, trace and audit, which barely change between
/// two checkpoints. A [`crate::store::Checkpointer`] keeps one across its
/// checkpoints, and drops it whenever it may no longer match the world:
/// on attach, on [`World::restore`], [`World::set_audit`] and
/// [`World::set_fault_plan`].
#[derive(Debug, Default)]
pub(crate) struct WorldEncoder {
    net: NetworkEncoder,
    trace: TraceEncoder,
    audit: AuditEncoder,
}

impl WorldEncoder {
    /// Appends `world`'s JSON to `out`.
    pub(crate) fn encode(&mut self, world: &World, out: &mut String) -> Result<(), serde::Error> {
        let mut map = serde::json::MapWriter::new(out);
        self.net.encode(&world.net, map.key("net"))?;
        map.field("charger", &world.charger)?;
        map.field("config", &world.config)?;
        map.field("time_s", &world.time_s)?;
        map.field("tree", &world.tree)?;
        map.field("power_w", &world.power_w)?;
        map.field("requests", &world.requests)?;
        self.trace.encode(&world.trace, map.key("trace"))?;
        map.field("lifetime_s", &world.lifetime_s)?;
        map.field("depot_visits", &world.depot_visits)?;
        map.field("energy_used_j", &world.energy_used_j)?;
        if let Some(faults) = &world.faults {
            map.field("faults", faults)?;
        }
        if let Some(audit) = &world.audit {
            self.audit.encode(audit, map.key("audit"))?;
        }
        map.end();
        Ok(())
    }
}

impl Deserialize for World {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = value
            .as_map()
            .ok_or_else(|| serde::Error::expected("map", "World"))?;
        let net: Network = Deserialize::from_value(serde::map_get(entries, "net")?)?;
        let requests = RequestQueue::from_value_within(
            serde::map_get(entries, "requests")?,
            net.node_count(),
        )?;
        let mut world = World {
            net,
            charger: Deserialize::from_value(serde::map_get(entries, "charger")?)?,
            config: Deserialize::from_value(serde::map_get(entries, "config")?)?,
            time_s: Deserialize::from_value(serde::map_get(entries, "time_s")?)?,
            tree: Deserialize::from_value(serde::map_get(entries, "tree")?)?,
            power_w: Deserialize::from_value(serde::map_get(entries, "power_w")?)?,
            requests,
            trace: Deserialize::from_value(serde::map_get(entries, "trace")?)?,
            lifetime_s: Deserialize::from_value(serde::map_get(entries, "lifetime_s")?)?,
            depot_visits: Deserialize::from_value(serde::map_get(entries, "depot_visits")?)?,
            energy_used_j: Deserialize::from_value(serde::map_get(entries, "energy_used_j")?)?,
            faults: match entries.iter().find(|(k, _)| k == "faults") {
                Some((_, v)) => Some(FaultInjector::from_value(v)?),
                None => None,
            },
            audit: match entries.iter().find(|(k, _)| k == "audit") {
                Some((_, v)) => Some(AuditState::from_value(v)?),
                None => None,
            },
            ckpt: None,
            scratch: Scratch::default(),
        };
        world.rebuild_scratch();
        Ok(world)
    }
}

/// Relative tolerance when matching a node's depletion instant.
const DEATH_EPS: f64 = 1e-9;

/// Per-segment inputs of [`apply_segment`]: the current power/drain columns
/// and the injection applied over the segment.
struct Segment<'a> {
    /// Gross per-node power draw, watts (for saturation bookkeeping).
    power_w: &'a [f64],
    /// Net battery drain per node, watts (negative = charging).
    net_w: &'a [f64],
    /// The node receiving wireless charge, if any.
    inject_node: Option<NodeId>,
    /// Effective injected power, watts (after fault degradation).
    eff_w: f64,
    /// Segment length, seconds.
    step: f64,
}

/// Applies one integration segment to every node in `alive_idx`: drains (or
/// charges, for the injected node) each battery over `seg.step` seconds,
/// records deaths in `dead` and warning-threshold crossings in `crossed`
/// (both ascending, since `alive_idx` is), folds the next event horizon into
/// `t_next`, and returns the energy stored in the inject node's battery.
fn apply_segment(
    cols: &mut EnergyColumnsMut<'_>,
    alive_idx: &[usize],
    seg: &Segment<'_>,
    t_next: &mut f64,
    dead: &mut Vec<NodeId>,
    crossed: &mut Vec<usize>,
) -> f64 {
    let mut stored = 0.0;
    for &i in alive_idx {
        let w = seg.net_w[i];
        let nid = NodeId(i);
        if w == 0.0 && seg.inject_node != Some(nid) {
            // Zero drain, no injection: the battery cannot move.
            continue;
        }
        let was_low = cols.needs_charging(i);
        if w > 0.0 {
            cols.discharge(i, w * seg.step);
            // Snap float residue: if the remaining charge lasts under a
            // nanosecond at this drain, the node is dead now.
            if cols.level_j[i] <= w * DEATH_EPS {
                cols.set_level(i, 0.0);
            }
            if cols.depleted[i] {
                // Dead nodes get a full request scan during the topology
                // refresh, so none is queued here.
                dead.push(nid);
            } else {
                let level = cols.level_j[i];
                let warning = cols.warning_j[i];
                *t_next = t_next.min(level / w);
                if level > warning {
                    *t_next = t_next.min((level - warning) / w);
                }
                if cols.needs_charging(i) != was_low {
                    crossed.push(i);
                }
            }
            if seg.inject_node == Some(nid) {
                // Net drain positive means no saturation: the battery
                // absorbed the full injected inflow.
                stored += seg.eff_w * seg.step;
            }
        } else {
            let gained = cols.charge(i, -w * seg.step);
            if cols.needs_charging(i) != was_low {
                crossed.push(i);
            }
            if seg.inject_node == Some(nid) {
                // Saturated batteries absorb less than injected.
                stored += gained + seg.power_w[i] * seg.step;
            }
        }
    }
    stored
}

impl World {
    /// Creates a world at `t = 0` with full batteries.
    pub fn new(net: Network, charger: MobileCharger, config: WorldConfig) -> Self {
        let tree = RoutingTree::shortest_path(&net, &net.alive_mask());
        let mut world = World {
            net,
            charger,
            config,
            time_s: 0.0,
            tree,
            power_w: Vec::new(),
            requests: RequestQueue::new(),
            trace: Trace::new(),
            lifetime_s: None,
            depot_visits: 0,
            energy_used_j: 0.0,
            faults: None,
            audit: None,
            ckpt: None,
            scratch: Scratch::default(),
        };
        world.refresh_full();
        world
    }

    /// Attaches a fault plan (builder form). See [`World::set_fault_plan`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.set_fault_plan(plan);
        self
    }

    /// Attaches a fault plan: its events fire as simulation time crosses them
    /// during [`World::run`]/[`World::advance_by`]. An empty plan
    /// ([`FaultPlan::none`]) detaches fault injection entirely, leaving the
    /// run byte-identical to a world that never had a plan.
    ///
    /// Replaces any previously attached plan and resets its runtime state;
    /// events scheduled before the current time fire on the next advance.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.scratch.horizon = None;
        if let Some(ckpt) = &mut self.ckpt {
            ckpt.forget_encoded();
        }
        self.faults = if plan.is_empty() {
            None
        } else {
            Some(FaultInjector::new(plan))
        };
    }

    /// The attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// Attaches an online audit (builder form). See [`World::set_audit`].
    pub fn with_audit(mut self, config: AuditConfig) -> Self {
        self.set_audit(Some(config));
        self
    }

    /// Attaches (or detaches, with `None`) the base station's online audit:
    /// a digital twin scoring every charging session against the honest
    /// charge model, with seeded challenge-response probes and a k-of-m
    /// conviction rule (see [`crate::audit`]). The audit is purely
    /// observational — attaching it leaves the physics trajectory, trace,
    /// and report byte-identical; only the audit's own ledger (and its
    /// `audit_*` counters) differ.
    ///
    /// Replaces any previously attached audit and resets its state.
    pub fn set_audit(&mut self, config: Option<AuditConfig>) {
        self.audit = config.map(AuditState::new);
        if let Some(ckpt) = &mut self.ckpt {
            ckpt.forget_encoded();
        }
    }

    /// The attached online audit, if any.
    pub fn audit(&self) -> Option<&AuditState> {
        self.audit.as_ref()
    }

    /// Attaches (or detaches, with `None`) a periodic on-disk
    /// [`Checkpointer`]: during [`World::run_with`]/[`World::advance_by`] the
    /// world is persisted to the checkpointer's file at the first
    /// integration-segment boundary at or after each due instant, rolling
    /// atomically so the file always holds the latest complete snapshot. Due
    /// instants fall every [`crate::store::CheckpointPolicy::every_sim_s`]
    /// simulated seconds, the first one interval after the current clock; a
    /// boundary writes at most once, so due instants passed inside one
    /// event-free segment yield a single write. Checkpointing is pure
    /// observation — the trajectory, trace, and snapshots stay byte-identical
    /// to an unobserved run.
    pub fn set_checkpointer(&mut self, ckpt: Option<Checkpointer>) {
        let now_s = self.time_s;
        self.ckpt = ckpt.map(|c| c.armed_at(now_s));
    }

    /// The attached checkpointer, if any.
    pub fn checkpointer(&self) -> Option<&Checkpointer> {
        self.ckpt.as_ref()
    }

    /// Current simulation time, seconds.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// The network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The charger.
    pub fn charger(&self) -> &MobileCharger {
        &self.charger
    }

    /// The recorded trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The current routing tree.
    pub fn tree(&self) -> &RoutingTree {
        &self.tree
    }

    /// Current per-node power draw, watts.
    pub fn power_w(&self) -> &[f64] {
        &self.power_w
    }

    /// Outstanding charging requests.
    pub fn requests(&self) -> &[ChargeRequest] {
        self.requests.pending()
    }

    /// Network lifetime if the reachability threshold was crossed.
    pub fn network_lifetime_s(&self) -> Option<f64> {
        self.lifetime_s
    }

    fn view<'a>(&'a self) -> WorldView<'a> {
        WorldView {
            time_s: self.time_s,
            net: &self.net,
            tree: &self.tree,
            power_w: &self.power_w,
            charger: &self.charger,
            requests: self.requests.pending(),
            horizon_s: self.config.horizon_s,
            depot: self.config.depot,
            radio: self.config.radio,
        }
    }

    /// Recomputes the ascending alive-index list from the alive mask. The
    /// single definition shared by [`World::rebuild_alive`] (full rebuild)
    /// and [`World::refresh_after_deaths`] (post-death repair): both paths
    /// must agree bitwise on iteration order, so there is exactly one.
    fn rebuild_alive_idx(alive: &[bool], alive_idx: &mut Vec<usize>) {
        alive_idx.clear();
        alive_idx.extend((0..alive.len()).filter(|&i| alive[i]));
    }

    /// Rebuilds the alive mask/index and sizes the per-node scratch buffers.
    fn rebuild_alive(&mut self) {
        let n = self.net.node_count();
        let net = &self.net;
        self.scratch.alive.clear();
        self.scratch.alive.extend((0..n).map(|i| net.alive(i)));
        Self::rebuild_alive_idx(&self.scratch.alive, &mut self.scratch.alive_idx);
        self.scratch.net_w.resize(n, 0.0);
    }

    /// Rebuilds all derived scratch state from the serialized fields.
    fn rebuild_scratch(&mut self) {
        self.rebuild_alive();
        self.scratch.load = routing::traffic_load(&self.net, &self.tree, &self.scratch.alive);
    }

    /// Recomputes routing/power from scratch after a topology change, updates
    /// the lifetime marker and the request queue.
    fn refresh_full(&mut self) {
        self.scratch.horizon = None;
        self.rebuild_alive();
        self.tree = RoutingTree::shortest_path(&self.net, &self.scratch.alive);
        self.scratch.load = routing::traffic_load(&self.net, &self.tree, &self.scratch.alive);
        // Includes the disconnected-drain floor: alive-but-disconnected nodes
        // keep listening and beaconing for a route — they are "exhausted in
        // vain", which is exactly the fate the attack inflicts.
        self.power_w = keynode::effective_power_draw_with_tree(
            &self.net,
            &self.scratch.alive,
            &self.config.radio,
            &self.tree,
            &self.scratch.load,
        );
        self.check_lifetime();
        self.scan_requests();
    }

    /// Incremental [`World::refresh_full`] for the advance loop: the nodes in
    /// `scratch.dead` just died, so only their routing subtrees and the nodes
    /// whose traffic load changed need recomputation. Bit-identical to the
    /// full refresh (asserted in debug builds).
    fn refresh_after_deaths(&mut self, rec: &mut dyn Recorder) {
        let Scratch {
            alive,
            alive_idx,
            dead,
            ..
        } = &mut self.scratch;
        for d in dead.iter() {
            alive[d.0] = false;
        }
        Self::rebuild_alive_idx(alive, alive_idx);

        let report = self.tree.repair_after_deaths(
            &self.net,
            &self.scratch.alive,
            self.scratch.alive_idx.len(),
            &self.scratch.dead,
            &mut self.scratch.repair,
        );
        self.scratch.dead.clear();
        if report.full_rebuild {
            rec.add(Counter::RoutingFullBuilds, 1);
        } else {
            rec.add(Counter::RoutingRepairs, 1);
            rec.add(Counter::RoutingRepairRelaxed, report.relaxed as u64);
        }
        // Traffic is re-summed in place over the affected set and the parent
        // chains above it; the repair scratch then lists the nodes whose
        // power inputs may have changed.
        self.scratch.load.update_after_repair(
            &self.net,
            &self.tree,
            &self.scratch.alive,
            &mut self.scratch.repair,
        );
        // Whether repaired incrementally or rebuilt, the tree is bitwise
        // identical to a from-scratch build, so nodes outside the dirty set
        // keep bitwise-identical power entries.
        let recomputed = keynode::update_effective_power(
            &self.net,
            &self.scratch.alive,
            &self.config.radio,
            &self.tree,
            &self.scratch.load,
            self.scratch.repair.dirty(),
            &mut self.power_w,
        );
        rec.add(
            Counter::PowerRecomputesSkipped,
            (self.net.node_count() - recomputed) as u64,
        );
        #[cfg(debug_assertions)]
        {
            let full =
                keynode::effective_power_draw(&self.net, &self.scratch.alive, &self.config.radio);
            debug_assert!(
                self.power_w
                    .iter()
                    .zip(&full)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "incremental power update diverged from the full recomputation"
            );
        }
        self.check_lifetime();
        self.scan_requests();
    }

    /// Sets the battery level of `node` directly and refreshes routing/power.
    ///
    /// Intended for experiment setup and failure injection (e.g. starting a
    /// scenario with half-drained relays).
    ///
    /// # Errors
    ///
    /// Returns [`wrsn_net::NetError::UnknownNode`] for invalid ids.
    pub fn set_battery_level(
        &mut self,
        node: NodeId,
        level_j: f64,
    ) -> Result<(), wrsn_net::NetError> {
        let was_alive = self.net.node(node)?.is_alive();
        self.net.energy_mut().set_level(node.0, level_j);
        let alive_now = self.net.alive(node.0);
        if !alive_now {
            self.trace.record(self.time_s, SimEvent::NodeDied { node });
        }
        if alive_now == was_alive {
            // Routing, power draw and the lifetime marker are functions of
            // the (unchanged) alive set; only this node's request status can
            // have moved — but the level change stales any carried-over
            // event horizon.
            self.scratch.horizon = None;
            self.scan_request_one(node);
        } else {
            self.refresh_full();
        }
        Ok(())
    }

    fn check_lifetime(&mut self) {
        if self.lifetime_s.is_some() {
            return;
        }
        let alive = self.scratch.alive_idx.len();
        if alive == 0 {
            self.lifetime_s = Some(self.time_s);
            return;
        }
        let reach = self.tree.reachable_count() as f64 / alive as f64;
        if reach < self.config.lifetime_reachability {
            self.lifetime_s = Some(self.time_s);
        }
    }

    fn scan_requests(&mut self) {
        for id in 0..self.net.node_count() {
            self.scan_request_one(NodeId(id));
        }
    }

    /// Reconciles one node's charge-request status with its battery state.
    /// Idempotent: rescanning a node whose battery did not change is a no-op
    /// for both the queue and the trace.
    fn scan_request_one(&mut self, nid: NodeId) {
        let i = nid.0;
        if !self.net.alive(i) {
            self.requests.withdraw(nid);
            return;
        }
        if self.net.needs_charging(i) {
            // A fault-armed request loss eats the node's next (re-)issue: the
            // broadcast went out but the charger never heard it.
            if !self.requests.contains(nid) {
                if let Some(faults) = self.faults.as_mut() {
                    if faults.consume_request_loss(nid) {
                        return;
                    }
                }
            }
            let issued = self.requests.issue(ChargeRequest {
                node: nid,
                issued_at_s: self.time_s,
                deficit_j: self.net.capacities_j()[i] - self.net.levels_j()[i],
                residual_j: self.net.levels_j()[i],
            });
            if issued {
                self.trace
                    .record(self.time_s, SimEvent::RequestIssued { node: nid });
            }
        } else {
            self.requests.withdraw(nid);
        }
    }

    /// Per-segment request scan restricted to nodes whose warning-threshold
    /// status actually flipped this segment (collected by the apply loop).
    /// A live node holds a pending request iff it needs charging, and scans
    /// are idempotent, so nodes that did not cross the threshold would have
    /// been no-ops for both the queue and the trace.
    fn scan_crossed(&mut self, rec: &mut dyn Recorder) {
        let crossed = self.scratch.crossed.len();
        rec.add(
            Counter::RequestScansSkipped,
            (self.net.node_count() - crossed) as u64,
        );
        for idx in 0..crossed {
            let i = self.scratch.crossed[idx];
            self.scan_request_one(NodeId(i));
        }
        self.scratch.crossed.clear();
    }

    /// Next interesting instant under the current drain rates: a node death
    /// or a warning-threshold crossing (the latter so charging requests are
    /// issued on time). Only positive-drain nodes can hit either, so the
    /// scan walks `drain_idx` instead of every node. Used at advance entry
    /// and after a topology refresh; steady-state segments fold the same
    /// computation into the apply loop instead.
    fn next_event_horizon(&self) -> f64 {
        let mut t_event = f64::INFINITY;
        let levels = self.net.levels_j();
        let warnings = self.net.warnings_j();
        for idx in 0..self.scratch.drain_idx.len() {
            let i = self.scratch.drain_idx[idx];
            let w = self.scratch.net_w[i];
            let level = levels[i];
            let warning = warnings[i];
            t_event = t_event.min(level / w);
            if level > warning {
                t_event = t_event.min((level - warning) / w);
            }
        }
        t_event
    }

    /// Recomputes per-node net drain and the positive-drain index from the
    /// current power draw and injection. Called whenever `power_w` or the
    /// alive set changes mid-advance.
    fn rebuild_drain(&mut self, inject_node: Option<NodeId>, inject_w: f64) {
        let power_w = &self.power_w;
        let Scratch {
            alive_idx,
            net_w,
            drain_idx,
            ..
        } = &mut self.scratch;
        drain_idx.clear();
        for &i in alive_idx.iter() {
            let mut w = power_w[i];
            if inject_node == Some(NodeId(i)) {
                w -= inject_w;
            }
            net_w[i] = w;
            if w > 0.0 {
                drain_idx.push(i);
            }
        }
    }

    /// The injection power actually reaching `inject_node`'s battery once
    /// fault-injected charging-efficiency degradation is applied.
    fn effective_inject_w(&self, inject_node: Option<NodeId>, inject_w: f64) -> f64 {
        match (inject_node, &self.faults) {
            (Some(node), Some(faults)) => inject_w * faults.efficiency(node),
            _ => inject_w,
        }
    }

    /// Advances time by `dt` seconds while `inject` watts flow *into* the
    /// battery of `inject_node` (the node currently being charged). Handles
    /// node deaths exactly, and lands on (never steps over) scheduled fault
    /// events. Returns the energy actually stored in `inject_node`'s battery
    /// over the interval.
    ///
    /// Allocation-free: drain rates, event-candidate indices and the death
    /// list all live in reusable [`Scratch`] buffers.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the network rejects a node id or a fault event
    /// targets an unknown node.
    fn advance(
        &mut self,
        dt: f64,
        inject_node: Option<NodeId>,
        inject_w: f64,
        rec: &mut dyn Recorder,
    ) -> Result<f64, SimError> {
        debug_assert!(dt >= 0.0 && dt.is_finite());
        let mut remaining = dt;
        let mut stored = 0.0;
        if remaining <= 0.0 {
            return Ok(stored);
        }
        // Supervision hooks resolved once per advance: the thread's
        // cooperative cancellation token (polled every segment) and whether a
        // checkpointer is attached. Both are `None` in unsupervised runs, so
        // the hot loop pays one branch per segment for them.
        let cancel = crate::cancel::current();
        let mut eff_w = self.effective_inject_w(inject_node, inject_w);
        let mut t_event = match self.scratch.horizon {
            // Nothing mutated batteries or drains since the last advance
            // under the same injection: its exit horizon and drain buffers
            // are still exact.
            Some((node, w_bits, h)) if node == inject_node && w_bits == eff_w.to_bits() => h,
            _ => {
                self.rebuild_drain(inject_node, eff_w);
                self.next_event_horizon()
            }
        };
        while remaining > 0.0 {
            if let Some(token) = &cancel {
                if token.is_cancelled() {
                    return Err(SimError::Cancelled);
                }
            }
            rec.add(Counter::AdvanceSegments, 1);
            let mut step = remaining.min(t_event);
            // Land exactly on the next scheduled fault so it is injected at
            // its nominal instant, never stepped over.
            let mut fault_at = None;
            if let Some(at) = self.faults.as_ref().and_then(|f| f.next_event_at()) {
                let until = at - self.time_s;
                if until <= step {
                    step = until.max(0.0);
                    fault_at = Some(at);
                }
            }
            #[cfg(debug_assertions)]
            let pre_total_j: f64 = {
                let levels = self.net.levels_j();
                self.scratch.alive_idx.iter().map(|&i| levels[i]).sum()
            };
            // The horizon for the *next* segment reads exactly the post-step
            // battery levels this loop writes, so it is folded in here: one
            // pass applies the drain, detects deaths and warning crossings,
            // and accumulates the next event time bit-identically to a fresh
            // `next_event_horizon` scan (same nodes ascending, same values).
            let mut t_next = f64::INFINITY;
            let Scratch {
                alive_idx,
                net_w,
                dead,
                crossed,
                ..
            } = &mut self.scratch;
            let seg = Segment {
                power_w: &self.power_w,
                net_w,
                inject_node,
                eff_w,
                step,
            };
            stored += apply_segment(
                &mut self.net.energy_mut(),
                alive_idx,
                &seg,
                &mut t_next,
                dead,
                crossed,
            );
            self.time_s += step;
            remaining -= step;
            if let Some(at) = fault_at {
                // `step` was `at - time_s` in exact arithmetic; snap the float
                // residue so the event fires at its nominal instant instead of
                // spinning on a sub-ulp gap.
                self.time_s = self.time_s.max(at);
            }
            #[cfg(debug_assertions)]
            self.debug_check_energy(pre_total_j, eff_w, step);
            let any_death = !self.scratch.dead.is_empty();
            for idx in 0..self.scratch.dead.len() {
                let node = self.scratch.dead[idx];
                self.trace.record(self.time_s, SimEvent::NodeDied { node });
            }
            if any_death {
                // The refresh rescans every node and the new power vector
                // invalidates the folded horizon: recompute both from scratch.
                self.scratch.crossed.clear();
                rec.add(Counter::TopologyRefreshes, 1);
                self.refresh_after_deaths(rec);
                self.rebuild_drain(inject_node, eff_w);
                t_event = self.next_event_horizon();
            } else if step > 0.0 {
                self.scan_crossed(rec);
                t_event = t_next;
            } else if fault_at.is_none() {
                // No drain anywhere: jump the whole interval. (Nothing
                // changed, so no request scan is due either — scans are
                // idempotent on unchanged batteries.)
                self.scratch.crossed.clear();
                self.time_s += remaining;
                remaining = 0.0;
                t_event = t_next;
            }
            if fault_at.is_some() {
                // Injections mutate the alive set, per-node efficiency, or
                // armed state; drains and the horizon are stale either way.
                self.apply_due_faults(rec)?;
                eff_w = self.effective_inject_w(inject_node, inject_w);
                self.rebuild_drain(inject_node, eff_w);
                t_event = self.next_event_horizon();
            }
            // Segment boundary: persistent state is consistent, so a due
            // checkpoint can be rolled to disk here without perturbing
            // anything the simulation computes.
            if self.ckpt.is_some() {
                self.write_due_checkpoints(rec)?;
            }
        }
        // No trailing scan: every segment that moved a battery already
        // reconciled requests (crossing scan or post-death refresh), so the
        // old closing `scan_requests` only re-walked all nodes for nothing.
        self.scratch.horizon = Some((inject_node, eff_w.to_bits(), t_event));
        Ok(stored)
    }

    /// Rolls a due periodic checkpoint to disk. The checkpointer is detached
    /// while the snapshot is taken so it never captures itself.
    fn write_due_checkpoints(&mut self, rec: &mut dyn Recorder) -> Result<(), SimError> {
        let Some(mut ckpt) = self.ckpt.take() else {
            return Ok(());
        };
        let result = ckpt.write_due(self, rec);
        self.ckpt = Some(ckpt);
        result.map_err(SimError::Store)
    }

    /// Injects every fault event due at the current instant: crashes become
    /// deaths (with routing repair), degradations/stalls/losses arm their
    /// deferred state in the injector. Each injection is recorded as a
    /// [`SimEvent::Fault`] in the trace.
    fn apply_due_faults(&mut self, rec: &mut dyn Recorder) -> Result<(), SimError> {
        while let Some(event) = self.faults.as_mut().and_then(|f| f.pop_due(self.time_s)) {
            self.trace
                .record(self.time_s, SimEvent::Fault { fault: event.kind });
            match event.kind {
                FaultKind::NodeFailure { node } => {
                    if node.0 >= self.net.node_count() {
                        return Err(SimError::FaultTarget(node));
                    }
                    // Crashing a node that already died (or crashed) is a
                    // recorded no-op: the plan is generated blind to the run.
                    if self.net.alive(node.0) {
                        self.net.mark_failed(node)?;
                        self.trace.record(self.time_s, SimEvent::NodeDied { node });
                        self.scratch.dead.push(node);
                        rec.add(Counter::TopologyRefreshes, 1);
                        self.refresh_after_deaths(rec);
                    }
                }
                FaultKind::Degradation { node, factor } => {
                    if node.0 >= self.net.node_count() {
                        return Err(SimError::FaultTarget(node));
                    }
                    let n = self.net.node_count();
                    if let Some(faults) = self.faults.as_mut() {
                        faults.degrade(node, factor, n);
                    }
                }
                FaultKind::ChargerStall { delay_s } => {
                    if let Some(faults) = self.faults.as_mut() {
                        faults.arm_stall(delay_s);
                    }
                }
                FaultKind::RequestLoss { node } => {
                    if node.0 >= self.net.node_count() {
                        return Err(SimError::FaultTarget(node));
                    }
                    // An in-flight request is dropped on the spot; otherwise
                    // the loss arms and eats the node's next issue.
                    if self.requests.contains(node) {
                        self.requests.withdraw(node);
                    } else if let Some(faults) = self.faults.as_mut() {
                        faults.arm_request_loss(node);
                    }
                }
            }
        }
        Ok(())
    }

    /// Debug-only energy-conservation watchdog, run after every integration
    /// segment: no battery may leave `[0, capacity]`, and the network's total
    /// stored energy may not grow by more than the charger injected.
    #[cfg(debug_assertions)]
    fn debug_check_energy(&self, pre_total_j: f64, inject_w: f64, step: f64) {
        let mut post_total_j = 0.0;
        let levels = self.net.levels_j();
        let caps = self.net.capacities_j();
        for &i in &self.scratch.alive_idx {
            let level = levels[i];
            debug_assert!(
                level >= 0.0 && level <= caps[i] * (1.0 + 1e-9),
                "node {i} battery out of range: {level} J of {} J",
                caps[i]
            );
            post_total_j += level;
        }
        let budget = inject_w.max(0.0) * step;
        let tol = 1e-6 + 1e-9 * (pre_total_j.abs() + budget);
        debug_assert!(
            post_total_j <= pre_total_j + budget + tol,
            "energy conservation violated: total rose {} J over a segment that \
             injected at most {budget} J",
            post_total_j - pre_total_j
        );
    }

    /// Executes one policy action; returns `Ok(false)` when the run should
    /// stop.
    fn execute(&mut self, action: ChargerAction, rec: &mut dyn Recorder) -> Result<bool, SimError> {
        match action {
            ChargerAction::Finish => Ok(false),
            ChargerAction::Recharge => {
                let Some(depot) = self.config.depot else {
                    // No depot: a recharge request degrades to a no-op wait so
                    // policies written for depot worlds still run.
                    return self.execute(ChargerAction::Wait(1.0), rec);
                };
                if self.charger.position().distance(depot) > 1e-9
                    && !self.execute(ChargerAction::MoveTo(depot), rec)?
                {
                    return Ok(false);
                }
                let swap = self
                    .config
                    .depot_swap_time_s
                    .min(self.config.horizon_s - self.time_s);
                if swap > 0.0 {
                    self.advance(swap, None, 0.0, rec)?;
                }
                self.charger.refill();
                self.depot_visits += 1;
                self.trace.record(self.time_s, SimEvent::DepotSwap);
                Ok(true)
            }
            ChargerAction::Wait(d) => {
                let d = d.max(0.0).min(self.config.horizon_s - self.time_s);
                if d <= 0.0 {
                    return Ok(self.time_s < self.config.horizon_s);
                }
                rec.add(Counter::Waits, 1);
                self.advance(d, None, 0.0, rec)?;
                Ok(true)
            }
            ChargerAction::MoveTo(dest) => {
                if self.charger.is_exhausted() {
                    self.trace.record(self.time_s, SimEvent::ChargerExhausted);
                    return Ok(false);
                }
                self.trace
                    .record(self.time_s, SimEvent::MoveStarted { dest });
                let e0 = self.charger.energy_j();
                let travelled = self.charger.move_to(dest);
                self.energy_used_j += e0 - self.charger.energy_j();
                // An armed travel stall (fault injection) extends this move:
                // the vehicle is stuck while the network keeps draining.
                let stall = self.faults.as_mut().map_or(0.0, |f| f.take_stall());
                let dt = (travelled / self.charger.speed_mps() + stall)
                    .min(self.config.horizon_s - self.time_s);
                if dt > 0.0 {
                    self.advance(dt, None, 0.0, rec)?;
                }
                self.trace.record(
                    self.time_s,
                    SimEvent::MoveEnded {
                        pos: self.charger.position(),
                    },
                );
                Ok(true)
            }
            ChargerAction::Charge {
                node,
                duration_s,
                mode,
            } => {
                if self.charger.is_exhausted() {
                    self.trace.record(self.time_s, SimEvent::ChargerExhausted);
                    return Ok(false);
                }
                let Ok(target) = self.net.node(node) else {
                    return Ok(true); // unknown node: skip the action
                };
                let node_pos = target.position();
                // Drive to the service point first.
                let park = self.charger.service_point(node_pos);
                if self.charger.position().distance(park) > 1e-9
                    && !self.execute(ChargerAction::MoveTo(park), rec)?
                {
                    return Ok(false);
                }
                let pos = self.charger.position();
                let delivered_w = self.charger.rig().delivered_power(pos, node_pos, mode);
                let radiated_w = self.charger.rig().radiated_power(pos, node_pos, mode);
                // Truncate to horizon and to the charger's energy budget.
                let mut dur = duration_s.max(0.0).min(self.config.horizon_s - self.time_s);
                if radiated_w > 0.0 {
                    dur = dur.min(self.charger.energy_j() / radiated_w);
                }
                if dur <= 0.0 {
                    return Ok(self.time_s < self.config.horizon_s);
                }
                // Serve in chunks so the session ends the moment the served
                // node dies — a charger cannot keep "charging" a corpse.
                let start = self.time_s;
                let level_before = self.net.levels_j()[node.0];
                let mut stored = 0.0;
                let mut remaining = dur;
                let mut guard = 0usize;
                while remaining > 1e-9 && self.net.alive(node.0) {
                    let drain = self.power_w[node.0] - delivered_w;
                    let chunk = if drain > 0.0 {
                        let ttd = self.net.levels_j()[node.0] / drain;
                        remaining.min(ttd.max(1e-6) + 1e-9)
                    } else {
                        remaining
                    };
                    rec.add(Counter::SessionChunks, 1);
                    stored += self.advance(chunk, Some(node), delivered_w, rec)?;
                    remaining -= chunk;
                    guard += 1;
                    if guard > 10_000 {
                        break;
                    }
                }
                let dur_actual = self.time_s - start;
                let radiated_j = radiated_w * dur_actual;
                self.energy_used_j += self.charger.spend(radiated_j);
                self.trace.record_session(ChargeSession {
                    node,
                    start_s: start,
                    duration_s: dur_actual,
                    delivered_j: stored,
                    radiated_j,
                    mode,
                    charger_pos: pos,
                });
                // The base station's digital twin scores the session it just
                // commissioned. The twin believes the charger served honestly
                // — that is the whole point of the audit — so the expected
                // delivery is the *honest-mode* power over the actual
                // duration, whatever mode really ran.
                if let Some(mut audit) = self.audit.take() {
                    let honest_w =
                        self.charger
                            .rig()
                            .delivered_power(pos, node_pos, ChargeMode::Honest);
                    let session = SessionObservation {
                        node,
                        end_s: self.time_s,
                        duration_s: dur_actual,
                        believed_j: honest_w * dur_actual,
                        level_before_j: level_before,
                        level_after_j: self.net.levels_j()[node.0],
                        capacity_j: self.net.capacities_j()[node.0],
                        alive: self.net.alive(node.0),
                        drain_w: self.power_w[node.0],
                    };
                    if let Some(conviction) = audit.observe_session(&session, rec) {
                        self.trace.record(
                            self.time_s,
                            SimEvent::AuditConviction {
                                node: conviction.node,
                            },
                        );
                    }
                    self.audit = Some(audit);
                }
                // A served node no longer needs charging (or is dead).
                self.scan_requests();
                Ok(true)
            }
        }
    }

    /// Advances the world by `dt` seconds with no charger activity: batteries
    /// drain, deaths and scheduled faults fire, requests are issued. The
    /// checkpoint/forensics companion to [`World::run`] — experiments use it
    /// to play a world forward between snapshots without a policy attached.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidDuration`] for negative or non-finite `dt`,
    /// or any error the integrator surfaces.
    pub fn advance_by(&mut self, dt: f64) -> Result<(), SimError> {
        self.advance_by_with(dt, &mut obs::NullRecorder)
    }

    /// [`World::advance_by`] with an observing recorder (engine counters,
    /// including [`Counter::CheckpointsWritten`] from an attached
    /// checkpointer, land in `rec`).
    ///
    /// # Errors
    ///
    /// See [`World::advance_by`].
    pub fn advance_by_with(&mut self, dt: f64, rec: &mut dyn Recorder) -> Result<(), SimError> {
        if !dt.is_finite() || dt < 0.0 {
            return Err(SimError::InvalidDuration {
                what: "advance_by",
                value: dt,
            });
        }
        self.advance(dt, None, 0.0, rec)?;
        Ok(())
    }

    /// Captures the complete simulation state — batteries, clock, routing,
    /// pending requests, trace, fault-injection state — as a [`Checkpoint`].
    /// Restoring it with [`World::restore`] and re-advancing reproduces the
    /// uninterrupted run bitwise.
    pub fn snapshot(&self) -> Checkpoint {
        let mut state = self.clone();
        // The snapshotter itself is runtime supervision, not simulation
        // state: a restored world keeps (or re-attaches) its own.
        state.ckpt = None;
        Checkpoint { state }
    }

    /// Restores the world to a [`Checkpoint`] taken earlier (or deserialized
    /// from disk). All derived scratch state — including the carried-over
    /// event horizon — is invalidated and rebuilt, so the restored world's
    /// subsequent trajectory is bitwise identical to the uninterrupted one.
    pub fn restore(&mut self, checkpoint: &Checkpoint) {
        // Supervision attachments survive a restore: a world resuming from
        // disk keeps writing its periodic checkpoints.
        let ckpt = self.ckpt.take();
        *self = checkpoint.state.clone();
        self.ckpt = ckpt.map(|c| c.armed_at(self.time_s));
        self.scratch = Scratch::default();
        self.rebuild_scratch();
    }

    /// Runs the world under `policy` until the policy finishes or the horizon
    /// is reached, then free-runs the network to the horizon. Returns the run
    /// report; the detailed trace stays available via [`World::trace`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the engine hits an inconsistent state (stale
    /// node id, fault event targeting an unknown node) instead of panicking.
    pub fn run<P: ChargerPolicy + ?Sized>(
        &mut self,
        policy: &mut P,
    ) -> Result<SimReport, SimError> {
        self.run_with(policy, &mut obs::NullRecorder)
    }

    /// Like [`World::run`], but reports engine counters, timing spans and the
    /// full trace into `rec`. With a [`obs::NullRecorder`] this is exactly
    /// `run`; a recorder never influences the simulation itself.
    ///
    /// On completion the *entire* recorded trace (including any events
    /// predating this call, e.g. deaths injected via
    /// [`World::set_battery_level`]) is exported as
    /// [`TraceRecord::Event`]/[`TraceRecord::Session`] records, followed by
    /// one [`TraceRecord::Snapshot`] of the final network health.
    ///
    /// # Errors
    ///
    /// See [`World::run`].
    pub fn run_with<P: ChargerPolicy + ?Sized>(
        &mut self,
        policy: &mut P,
        rec: &mut dyn Recorder,
    ) -> Result<SimReport, SimError> {
        rec.span_enter("world_run");
        let result = self.run_loop(policy, rec, None);
        rec.span_exit("world_run");
        result
    }

    /// Like [`World::run_with`], but additionally calls `progress` with the
    /// live [`Trace`] whenever the simulation clock crosses a `cadence_s`
    /// boundary — the hook behind the service's streaming responses. The hook
    /// observes the trace read-only; returning `false` cancels the run with
    /// [`SimError::Cancelled`] at that boundary (cooperative client-side
    /// cancellation). With a hook that always returns `true` the simulated
    /// trajectory, report, and trace are bitwise identical to
    /// [`World::run_with`] — the hook only *reads*.
    ///
    /// # Errors
    ///
    /// See [`World::run`]; additionally [`SimError::Cancelled`] when the hook
    /// declines to continue.
    pub fn run_with_progress<P: ChargerPolicy + ?Sized>(
        &mut self,
        policy: &mut P,
        rec: &mut dyn Recorder,
        cadence_s: f64,
        progress: ProgressHook<'_>,
    ) -> Result<SimReport, SimError> {
        rec.span_enter("world_run");
        let result = self.run_loop(policy, rec, Some((cadence_s.max(1e-9), progress)));
        rec.span_exit("world_run");
        result
    }

    fn run_loop<P: ChargerPolicy + ?Sized>(
        &mut self,
        policy: &mut P,
        rec: &mut dyn Recorder,
        mut progress: Option<(f64, ProgressHook<'_>)>,
    ) -> Result<SimReport, SimError> {
        let mut guard = 0usize;
        let mut next_flush = progress.as_ref().map(|(cadence, _)| self.time_s + cadence);
        while self.time_s < self.config.horizon_s {
            rec.add(Counter::PolicyDecisions, 1);
            rec.span_enter("policy_decide");
            let action = policy.next_action_observed(&self.view(), rec);
            rec.span_exit("policy_decide");
            let t_before = self.time_s;
            rec.span_enter("execute");
            let keep_going = self.execute(action, rec);
            rec.span_exit("execute");
            if !keep_going? {
                break;
            }
            if let (Some((cadence, hook)), Some(flush_at)) =
                (progress.as_mut(), next_flush.as_mut())
            {
                // One flush per crossing, however many cadence intervals the
                // executed action spanned — frames track wall progress, they
                // do not replay every boundary of a long travel leg.
                if self.time_s >= *flush_at {
                    if !hook(self.time_s, &self.trace) {
                        return Err(SimError::Cancelled);
                    }
                    *flush_at = self.time_s + *cadence;
                }
            }
            if self.time_s == t_before {
                guard += 1;
                // A policy may legitimately issue a few zero-time actions
                // (e.g. MoveTo its current position) but not forever.
                if guard > 10_000 {
                    break;
                }
            } else {
                guard = 0;
            }
        }
        // Free-run the network (no charger activity) to the horizon.
        if self.time_s < self.config.horizon_s {
            let left = self.config.horizon_s - self.time_s;
            self.advance(left, None, 0.0, rec)?;
        }
        self.trace.record(self.time_s, SimEvent::HorizonReached);
        let report = self.report(policy.name());
        if rec.enabled() {
            obs::export_trace(rec, &self.trace);
            rec.emit(&TraceRecord::Snapshot {
                t_s: self.time_s,
                health: report.final_health,
            });
            self.charger.observe(rec);
            rec.gauge(Gauge::SimTimeS, self.time_s);
            rec.gauge(Gauge::AliveNodes, report.alive_nodes as f64);
            rec.gauge(Gauge::PendingRequests, self.requests.pending().len() as f64);
        }
        Ok(report)
    }

    /// Builds a report for the current state.
    pub fn report(&self, policy_name: &str) -> SimReport {
        let alive = self.net.alive_mask().iter().filter(|&&a| a).count();
        SimReport {
            policy_name: policy_name.to_string(),
            final_time_s: self.time_s,
            horizon_s: self.config.horizon_s,
            dead_nodes: self.net.node_count() - alive,
            alive_nodes: alive,
            network_lifetime_s: self.lifetime_s,
            charger_energy_used_j: self.energy_used_j,
            total_delivered_j: self.trace.total_delivered_j(),
            total_radiated_j: self.trace.total_radiated_j(),
            sessions: self.trace.sessions().len(),
            depot_visits: self.depot_visits,
            final_health: metrics::snapshot(&self.net, self.config.sensing_radius_m, 20),
        }
    }
}

/// A frozen copy of a [`World`]'s complete simulation state, taken with
/// [`World::snapshot`] and re-applied with [`World::restore`].
///
/// Serializes to the exact same JSON shape as the world itself, so a
/// checkpoint file is also a valid forensic snapshot for the `wrsn` CLI's
/// `audit` command. Derived scratch state is never captured; restore rebuilds
/// it, which is what makes restore + re-advance bitwise identical to an
/// uninterrupted run.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    state: World,
}

impl Checkpoint {
    /// Read access to the frozen state (e.g. for inspecting the clock without
    /// restoring).
    pub fn world(&self) -> &World {
        &self.state
    }
}

impl Serialize for Checkpoint {
    fn to_value(&self) -> serde::Value {
        self.state.to_value()
    }

    fn write_json(&self, out: &mut String) -> Result<(), serde::Error> {
        self.state.write_json(out)
    }
}

impl Deserialize for Checkpoint {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Checkpoint {
            state: World::from_value(value)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charger::ChargeMode;
    use wrsn_net::deploy;
    use wrsn_net::energy::Battery;
    use wrsn_net::node::SensorNode;
    use wrsn_net::{Point, Region};

    fn tiny_world(horizon: f64) -> World {
        // Three nodes in a line, sink at the left.
        let nodes: Vec<SensorNode> = (0..3)
            .map(|i| {
                SensorNode::with_battery(
                    Point::new(10.0 * (i + 1) as f64, 0.0),
                    Battery::new(100.0, 20.0),
                )
            })
            .collect();
        let net = Network::build(nodes, Point::ORIGIN, 12.0);
        let charger = MobileCharger::standard(Point::new(0.0, 5.0));
        World::new(
            net,
            charger,
            WorldConfig {
                horizon_s: horizon,
                ..WorldConfig::default()
            },
        )
    }

    #[test]
    fn idle_run_drains_nodes_to_death() {
        let mut w = tiny_world(1.0e6);
        let report = w.run(&mut crate::policy::IdlePolicy).expect("run");
        // 100 J at ≈1 mW idle+traffic drain: all dead long before 1e6 s.
        assert_eq!(report.dead_nodes, 3);
        assert_eq!(report.alive_nodes, 0);
        assert!(report.network_lifetime_s.is_some());
        assert_eq!(report.policy_name, "idle");
    }

    #[test]
    fn death_order_follows_power_draw() {
        let mut w = tiny_world(1.0e6);
        w.run(&mut crate::policy::IdlePolicy).expect("run");
        let deaths = w.trace().death_times();
        assert_eq!(deaths.len(), 3);
        // Node 0 relays everything → dies first.
        assert_eq!(deaths[0].0, NodeId(0));
        assert!(deaths[0].1 <= deaths[1].1 && deaths[1].1 <= deaths[2].1);
    }

    #[test]
    fn requests_issued_when_threshold_crossed() {
        let mut w = tiny_world(1.0e6);
        w.run(&mut crate::policy::IdlePolicy).expect("run");
        let issued = w
            .trace()
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, SimEvent::RequestIssued { .. }))
            .count();
        assert_eq!(issued, 3, "each node should have requested charging once");
    }

    /// A policy that charges node 2 once, honestly, then finishes.
    struct ChargeOnce(bool);
    impl ChargerPolicy for ChargeOnce {
        fn next_action(&mut self, _view: &WorldView<'_>) -> ChargerAction {
            if self.0 {
                ChargerAction::Finish
            } else {
                self.0 = true;
                ChargerAction::Charge {
                    node: NodeId(2),
                    duration_s: 400.0,
                    mode: ChargeMode::Honest,
                }
            }
        }
        fn name(&self) -> &str {
            "charge-once"
        }
    }

    #[test]
    fn honest_charge_delivers_energy_and_spends_budget() {
        let mut w = tiny_world(3600.0);
        w.set_battery_level(NodeId(2), 25.0).unwrap();
        let report = w.run(&mut ChargeOnce(false)).expect("run");
        assert_eq!(report.sessions, 1);
        let s = w.trace().sessions()[0];
        assert_eq!(s.mode, ChargeMode::Honest);
        assert!(s.delivered_j > 0.0, "delivered = {}", s.delivered_j);
        assert!(s.radiated_j > 0.0);
        assert!(report.charger_energy_used_j > s.radiated_j * 0.99);
        // The charger parked ~1 m from the node.
        let node_pos = w.network().positions()[2];
        assert!((s.charger_pos.distance(node_pos) - 1.0).abs() < 1e-6);
    }

    /// A policy that spoof-charges node 2 once.
    struct SpoofOnce(bool);
    impl ChargerPolicy for SpoofOnce {
        fn next_action(&mut self, _view: &WorldView<'_>) -> ChargerAction {
            if self.0 {
                ChargerAction::Finish
            } else {
                self.0 = true;
                ChargerAction::Charge {
                    node: NodeId(2),
                    duration_s: 400.0,
                    mode: ChargeMode::Spoofed,
                }
            }
        }
        fn name(&self) -> &str {
            "spoof-once"
        }
    }

    #[test]
    fn spoofed_charge_radiates_but_delivers_almost_nothing() {
        let mut honest_w = tiny_world(3600.0);
        honest_w.set_battery_level(NodeId(2), 25.0).unwrap();
        honest_w.run(&mut ChargeOnce(false)).expect("run");
        let honest = honest_w.trace().sessions()[0];

        let mut spoof_w = tiny_world(3600.0);
        spoof_w.set_battery_level(NodeId(2), 25.0).unwrap();
        spoof_w.run(&mut SpoofOnce(false)).expect("run");
        let spoof = spoof_w.trace().sessions()[0];

        assert!(spoof.radiated_j >= honest.radiated_j * 0.99);
        assert!(
            spoof.delivered_j < 0.02 * honest.delivered_j.max(1e-12),
            "spoof delivered {} vs honest {}",
            spoof.delivered_j,
            honest.delivered_j
        );
    }

    #[test]
    fn horizon_truncates_runs() {
        let mut w = tiny_world(50.0);
        let report = w.run(&mut crate::policy::IdlePolicy).expect("run");
        assert!((report.final_time_s - 50.0).abs() < 1e-9);
        assert_eq!(report.dead_nodes, 0, "nothing dies in 50 s");
    }

    #[test]
    fn battery_saturation_limits_delivered_energy() {
        // Node 2 is full at t=0; charging it stores almost nothing beyond its
        // ongoing drain.
        let mut w = tiny_world(3600.0);
        let report = w.run(&mut ChargeOnce(false)).expect("run");
        let s = w.trace().sessions()[0];
        let headroom_plus_drain = 0.0 + w.power_w()[2] * s.duration_s + 1.0;
        assert!(
            s.delivered_j <= headroom_plus_drain + 100.0,
            "delivered = {}",
            s.delivered_j
        );
        let _ = report;
    }

    #[test]
    fn exhausted_charger_cannot_charge() {
        let nodes = deploy::uniform(&Region::square(30.0), 5, 1);
        let net = Network::build(nodes, Point::ORIGIN, 15.0);
        let charger = MobileCharger::standard(Point::ORIGIN).with_energy(1e-6);
        let mut w = World::new(
            net,
            charger,
            WorldConfig {
                horizon_s: 100.0,
                ..WorldConfig::default()
            },
        );
        let report = w.run(&mut ChargeOnce(false)).expect("run");
        // The charge action is refused; world free-runs to the horizon.
        assert_eq!(report.sessions, 0);
        assert!((report.final_time_s - 100.0).abs() < 1e-9);
    }

    #[test]
    fn recharge_without_depot_degrades_to_waiting() {
        struct RechargeOnce(bool);
        impl ChargerPolicy for RechargeOnce {
            fn next_action(&mut self, _view: &WorldView<'_>) -> ChargerAction {
                if self.0 {
                    ChargerAction::Finish
                } else {
                    self.0 = true;
                    ChargerAction::Recharge
                }
            }
        }
        let mut w = tiny_world(100.0);
        let report = w.run(&mut RechargeOnce(false)).expect("run");
        assert_eq!(report.depot_visits, 0);
    }

    #[test]
    fn recharge_at_depot_refills_and_counts() {
        struct SpendThenRecharge(u32);
        impl ChargerPolicy for SpendThenRecharge {
            fn next_action(&mut self, view: &WorldView<'_>) -> ChargerAction {
                self.0 += 1;
                match self.0 {
                    1 => ChargerAction::MoveTo(Point::new(30.0, 0.0)),
                    2 => {
                        assert!(view.charger.energy_j() < view.charger.capacity_j());
                        ChargerAction::Recharge
                    }
                    _ => {
                        assert_eq!(view.charger.energy_j(), view.charger.capacity_j());
                        ChargerAction::Finish
                    }
                }
            }
        }
        let nodes: Vec<SensorNode> = (0..3)
            .map(|i| {
                SensorNode::with_battery(
                    Point::new(10.0 * (i + 1) as f64, 0.0),
                    Battery::new(100.0, 20.0),
                )
            })
            .collect();
        let net = Network::build(nodes, Point::ORIGIN, 12.0);
        let charger = MobileCharger::standard(Point::new(0.0, 5.0));
        let mut w = World::new(
            net,
            charger,
            WorldConfig {
                horizon_s: 10_000.0,
                depot: Some(Point::new(0.0, 5.0)),
                ..WorldConfig::default()
            },
        );
        let report = w.run(&mut SpendThenRecharge(0)).expect("run");
        assert_eq!(report.depot_visits, 1);
        // Energy used includes everything spent before the swap.
        assert!(report.charger_energy_used_j > 0.0);
        assert!(w
            .trace()
            .events()
            .iter()
            .any(|(_, e)| matches!(e, SimEvent::DepotSwap)));
    }

    #[test]
    fn world_time_monotone_under_mixed_actions() {
        struct Mixed(u32);
        impl ChargerPolicy for Mixed {
            fn next_action(&mut self, view: &WorldView<'_>) -> ChargerAction {
                self.0 += 1;
                match self.0 {
                    1 => ChargerAction::MoveTo(Point::new(20.0, 20.0)),
                    2 => ChargerAction::Wait(10.0),
                    3 => ChargerAction::Charge {
                        node: NodeId(1),
                        duration_s: 30.0,
                        mode: ChargeMode::Honest,
                    },
                    _ => {
                        assert!(view.time_s > 0.0);
                        ChargerAction::Finish
                    }
                }
            }
        }
        let mut w = tiny_world(1000.0);
        let report = w.run(&mut Mixed(0)).expect("run");
        assert!((report.final_time_s - 1000.0).abs() < 1e-9);
        assert_eq!(report.sessions, 1);
    }

    use crate::fault::{FaultConfig, FaultEvent, FaultPlan};

    #[test]
    fn empty_fault_plan_leaves_run_byte_identical() {
        let mut plain = tiny_world(1.0e6);
        let mut planned = tiny_world(1.0e6);
        planned.set_fault_plan(FaultPlan::none());
        assert!(planned.fault_injector().is_none());
        plain.run(&mut crate::policy::IdlePolicy).expect("run");
        planned.run(&mut crate::policy::IdlePolicy).expect("run");
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&planned).unwrap(),
            "FaultPlan::none() must not perturb the run"
        );
    }

    #[test]
    fn node_failure_fault_kills_node_with_residual_charge() {
        let mut w = tiny_world(1.0e6);
        w.set_fault_plan(FaultPlan::from_events(vec![FaultEvent {
            at_s: 50.0,
            kind: FaultKind::NodeFailure { node: NodeId(1) },
        }]));
        w.run(&mut crate::policy::IdlePolicy).expect("run");
        let node = w.network().node(NodeId(1)).unwrap();
        assert!(node.has_failed());
        assert!(
            node.battery().level_j() > 0.0,
            "a crashed node keeps residual charge"
        );
        let death = w.trace().death_time_of(NodeId(1)).expect("death recorded");
        assert!((death - 50.0).abs() < 1e-9, "died at {death}, not 50 s");
        assert!(w.trace().events().iter().any(|(t, e)| *t == death
            && matches!(
                e,
                SimEvent::Fault {
                    fault: FaultKind::NodeFailure { node }
                } if *node == NodeId(1)
            )));
    }

    #[test]
    fn degradation_fault_reduces_delivered_energy() {
        let mut healthy = tiny_world(3600.0);
        healthy.set_battery_level(NodeId(2), 25.0).unwrap();
        healthy.run(&mut ChargeOnce(false)).expect("run");
        let full = healthy.trace().sessions()[0].delivered_j;

        let mut degraded = tiny_world(3600.0);
        degraded.set_battery_level(NodeId(2), 25.0).unwrap();
        degraded.set_fault_plan(FaultPlan::from_events(vec![FaultEvent {
            at_s: 0.0,
            kind: FaultKind::Degradation {
                node: NodeId(2),
                factor: 1e-6,
            },
        }]));
        degraded.run(&mut ChargeOnce(false)).expect("run");
        let crippled = degraded.trace().sessions()[0].delivered_j;
        assert!(
            crippled < 0.05 * full,
            "degraded node stored {crippled} J vs healthy {full} J"
        );
    }

    #[test]
    fn charger_stall_fault_delays_the_next_move() {
        struct WaitThenMove(u32);
        impl ChargerPolicy for WaitThenMove {
            fn next_action(&mut self, _view: &WorldView<'_>) -> ChargerAction {
                self.0 += 1;
                match self.0 {
                    1 => ChargerAction::Wait(10.0),
                    2 => ChargerAction::MoveTo(Point::new(20.0, 20.0)),
                    _ => ChargerAction::Finish,
                }
            }
        }
        let move_end = |w: &World| {
            w.trace()
                .events()
                .iter()
                .find_map(|(t, e)| matches!(e, SimEvent::MoveEnded { .. }).then_some(*t))
                .expect("move ended")
        };
        let mut plain = tiny_world(10_000.0);
        plain.run(&mut WaitThenMove(0)).expect("run");
        let mut stalled = tiny_world(10_000.0);
        // The stall fires during the initial wait, so it is armed by the time
        // the move starts (a stall only delays moves started after it fires).
        stalled.set_fault_plan(FaultPlan::from_events(vec![FaultEvent {
            at_s: 5.0,
            kind: FaultKind::ChargerStall { delay_s: 123.0 },
        }]));
        stalled.run(&mut WaitThenMove(0)).expect("run");
        assert!(
            (move_end(&stalled) - move_end(&plain) - 123.0).abs() < 1e-9,
            "stall must add exactly its delay to the move"
        );
    }

    #[test]
    fn request_loss_fault_delays_the_nodes_request() {
        let issue_time = |w: &World| {
            w.trace()
                .events()
                .iter()
                .find_map(|(t, e)| {
                    matches!(e, SimEvent::RequestIssued { node } if *node == NodeId(2))
                        .then_some(*t)
                })
                .expect("node 2 requests eventually")
        };
        let mut plain = tiny_world(1.0e6);
        plain.run(&mut crate::policy::IdlePolicy).expect("run");
        let mut lossy = tiny_world(1.0e6);
        lossy.set_fault_plan(FaultPlan::from_events(vec![FaultEvent {
            at_s: 1.0,
            kind: FaultKind::RequestLoss { node: NodeId(2) },
        }]));
        lossy.run(&mut crate::policy::IdlePolicy).expect("run");
        // The threshold-crossing broadcast is lost; the charger only hears
        // node 2 when the request is re-issued at a later network event.
        assert!(
            issue_time(&lossy) > issue_time(&plain),
            "lost request must delay the charger hearing node 2 ({} vs {})",
            issue_time(&lossy),
            issue_time(&plain)
        );
    }

    #[test]
    fn fault_targeting_unknown_node_is_a_typed_error() {
        let mut w = tiny_world(1.0e6);
        w.set_fault_plan(FaultPlan::from_events(vec![FaultEvent {
            at_s: 10.0,
            kind: FaultKind::NodeFailure { node: NodeId(99) },
        }]));
        let err = w.advance_by(100.0).unwrap_err();
        assert_eq!(err, crate::error::SimError::FaultTarget(NodeId(99)));
    }

    #[test]
    fn advance_by_rejects_invalid_durations() {
        let mut w = tiny_world(1.0e6);
        assert!(w.advance_by(-1.0).is_err());
        assert!(w.advance_by(f64::NAN).is_err());
        assert!(w.advance_by(f64::INFINITY).is_err());
        w.advance_by(10.0).expect("valid duration");
        assert!((w.time_s() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_restore_readvance_is_bitwise_identical() {
        let cfg = FaultConfig {
            node_failures: 1,
            degradations: 1,
            request_losses: 1,
            ..FaultConfig::default()
        };
        let mut uninterrupted = tiny_world(1.0e6);
        uninterrupted.set_fault_plan(FaultPlan::generate(9, 3, 5.0e5, &cfg));
        uninterrupted.advance_by(40_000.0).expect("advance");
        let checkpoint = uninterrupted.snapshot();
        uninterrupted.advance_by(60_000.0).expect("advance");

        let mut resumed = tiny_world(1.0);
        resumed.restore(&checkpoint);
        assert_eq!(resumed.time_s(), checkpoint.world().time_s());
        resumed.advance_by(60_000.0).expect("advance");
        assert_eq!(
            serde_json::to_string(&uninterrupted).unwrap(),
            serde_json::to_string(&resumed).unwrap(),
            "restore + re-advance must be bitwise identical"
        );
    }

    #[test]
    fn checkpoint_serde_round_trips_through_world_shape() {
        let mut w = tiny_world(1.0e6);
        w.set_fault_plan(FaultPlan::generate(3, 3, 1.0e5, &FaultConfig::uniform(1)));
        w.advance_by(5_000.0).expect("advance");
        let checkpoint = w.snapshot();
        let json = serde_json::to_string(&checkpoint).unwrap();
        // The checkpoint's JSON *is* a world snapshot.
        let as_world: World = serde_json::from_str(&json).unwrap();
        assert_eq!(as_world.time_s(), w.time_s());
        let back: Checkpoint = serde_json::from_str(&json).unwrap();
        let mut restored = tiny_world(1.0);
        restored.restore(&back);
        restored.advance_by(20_000.0).expect("advance");
        w.advance_by(20_000.0).expect("advance");
        assert_eq!(
            serde_json::to_string(&w).unwrap(),
            serde_json::to_string(&restored).unwrap()
        );
    }
}
