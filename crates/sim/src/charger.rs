//! The mobile charger (MC): motion, energy budget and the two-antenna rig.
//!
//! The rig is where the physics of the Charging Spoofing Attack lives at
//! simulation level: in [`ChargeMode::Honest`] the primary antenna delivers
//! the empirical model's power; in [`ChargeMode::Spoofed`] the helper antenna
//! is tuned by [`wrsn_em::CancelController`] so the victim harvests only the
//! residual left by the attacker's (configurable) phase/amplitude errors —
//! while the rig radiates just as much RF as an honest charge, which is what
//! external observers see.

use serde::{Deserialize, Serialize};

use wrsn_em::{CancelController, Transmitter};
use wrsn_net::Point;

/// How the charger serves a node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChargeMode {
    /// Deliver real energy (what a benign charger does).
    Honest,
    /// Radiate like an honest charge but cancel the field at the victim.
    Spoofed,
    /// Radiate like a spoofed charge but *detune* the cancellation so the
    /// victim still harvests `fraction` of the honest power — the adaptive
    /// attacker's concession to challenge-response auditing: real energy
    /// spent to keep a probed residual above the conviction threshold.
    Partial {
        /// Fraction of the honest delivered power the victim harvests,
        /// clamped to `[0, 1]`.
        fraction: f64,
    },
}

impl ChargeMode {
    /// Whether this mode runs the cancellation helper at all (spoofed or
    /// partial service) — i.e. the charger is attacking, not serving.
    pub fn is_attack(&self) -> bool {
        !matches!(self, ChargeMode::Honest)
    }
}

/// The charger's transmit hardware: a primary antenna plus a cancellation
/// helper offset `helper_offset_m` metres from it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChargerRig {
    primary: Transmitter,
    /// Lateral offset of the helper antenna from the primary, metres.
    helper_offset_m: f64,
    /// Attacker's residual phase error when cancelling, radians.
    phase_error_rad: f64,
    /// Attacker's relative amplitude error when cancelling.
    amplitude_error: f64,
}

impl ChargerRig {
    /// A rig built from the given primary transmitter template with the
    /// default 0.3 m helper offset and small calibration errors (0.05 rad,
    /// 2 % amplitude) representative of a practical attacker.
    fn new(primary: Transmitter) -> Self {
        ChargerRig {
            primary,
            helper_offset_m: 0.3,
            phase_error_rad: 0.05,
            amplitude_error: 0.02,
        }
    }

    /// A Powercast-class rig.
    fn powercast() -> Self {
        ChargerRig::new(Transmitter::powercast())
    }

    /// The primary transmitter template.
    pub fn primary(&self) -> &Transmitter {
        &self.primary
    }

    /// Where the helper antenna sits when serving a victim: on a turret,
    /// `helper_offset_m` from the primary *toward* the victim, so it is
    /// always the nearer antenna and can match the primary's arrival
    /// amplitude at full cancellation depth. (A fixed-side helper would leak
    /// milliwatts whenever the victim sat on its far side — enough to
    /// accidentally keep a disconnected victim alive forever.)
    fn helper_pos(&self, charger_pos: Point, victim: Point) -> Point {
        if charger_pos.distance(victim) < 1e-9 {
            Point::new(charger_pos.x + self.helper_offset_m, charger_pos.y)
        } else {
            charger_pos.toward(victim, self.helper_offset_m)
        }
    }

    /// DC power (W) the victim at `victim` harvests while the charger parks at
    /// `charger_pos` and serves in `mode`.
    pub fn delivered_power(&self, charger_pos: Point, victim: Point, mode: ChargeMode) -> f64 {
        let primary = self.primary.at(charger_pos.x, charger_pos.y);
        match mode {
            ChargeMode::Honest => primary.solo_power_at(victim.into_tuple()),
            ChargeMode::Spoofed => {
                let hp = self.helper_pos(charger_pos, victim);
                let helper = self.primary.at(hp.x, hp.y);
                CancelController::new(&primary, &helper).residual_with_errors(
                    victim.into_tuple(),
                    self.phase_error_rad,
                    self.amplitude_error,
                )
            }
            // A detuned cancellation: the victim harvests the chosen fraction
            // of the honest power, plus the attacker's unavoidable residual
            // leakage (same calibration errors as a full spoof).
            ChargeMode::Partial { fraction } => {
                let honest = primary.solo_power_at(victim.into_tuple());
                let hp = self.helper_pos(charger_pos, victim);
                let helper = self.primary.at(hp.x, hp.y);
                let residual = CancelController::new(&primary, &helper).residual_with_errors(
                    victim.into_tuple(),
                    self.phase_error_rad,
                    self.amplitude_error,
                );
                (honest * fraction.clamp(0.0, 1.0) + residual).min(honest)
            }
        }
    }

    /// RF power (W) the rig radiates while serving in `mode` — what an
    /// external observer (or a trajectory auditor) can measure. A spoofing rig
    /// radiates the primary's rated power *plus* the helper's cancelling
    /// power, so it looks at least as busy as an honest charger.
    pub fn radiated_power(&self, charger_pos: Point, victim: Point, mode: ChargeMode) -> f64 {
        let rated = wrsn_em::constants::DEFAULT_TX_POWER_W;
        match mode {
            ChargeMode::Honest => rated,
            // Both antennas run whether the cancellation is full or detuned:
            // externally a partial spoof is indistinguishable from a full one.
            ChargeMode::Spoofed | ChargeMode::Partial { .. } => {
                let primary = self.primary.at(charger_pos.x, charger_pos.y);
                let hp = self.helper_pos(charger_pos, victim);
                let helper = self.primary.at(hp.x, hp.y);
                let k = CancelController::new(&primary, &helper)
                    .solve(victim.into_tuple())
                    .helper_power_factor;
                rated * (1.0 + k)
            }
        }
    }
}

impl Default for ChargerRig {
    fn default() -> Self {
        ChargerRig::powercast()
    }
}

/// A mobile charger: position, speed, finite energy budget and a rig.
///
/// # Example
///
/// ```
/// use wrsn_net::Point;
/// use wrsn_sim::MobileCharger;
///
/// let mc = MobileCharger::standard(Point::new(0.0, 0.0));
/// assert!(mc.energy_j() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MobileCharger {
    position: Point,
    speed_mps: f64,
    energy_j: f64,
    capacity_j: f64,
    /// Locomotion cost, joules per metre.
    move_cost_j_per_m: f64,
    /// Distance at which the charger parks from a node it serves, metres.
    service_distance_m: f64,
    rig: ChargerRig,
}

/// Default charger energy budget: 2 MJ (service-vehicle battery).
pub const DEFAULT_MC_ENERGY_J: f64 = 2.0e6;

/// Default charger travel speed: 5 m/s.
pub const DEFAULT_MC_SPEED_MPS: f64 = 5.0;

/// Default locomotion cost: 50 J per metre.
pub const DEFAULT_MOVE_COST_J_PER_M: f64 = 50.0;

/// Default service (parking) distance from a node: 1 m.
pub const DEFAULT_SERVICE_DISTANCE_M: f64 = 1.0;

impl MobileCharger {
    /// A charger with the standard parameters at `start`.
    pub fn standard(start: Point) -> Self {
        MobileCharger {
            position: start,
            speed_mps: DEFAULT_MC_SPEED_MPS,
            energy_j: DEFAULT_MC_ENERGY_J,
            capacity_j: DEFAULT_MC_ENERGY_J,
            move_cost_j_per_m: DEFAULT_MOVE_COST_J_PER_M,
            service_distance_m: DEFAULT_SERVICE_DISTANCE_M,
            rig: ChargerRig::powercast(),
        }
    }

    /// Sets the travel speed (m/s), returning the charger.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not finite and positive.
    pub fn with_speed(mut self, speed: f64) -> Self {
        assert!(speed.is_finite() && speed > 0.0, "speed must be positive");
        self.speed_mps = speed;
        self
    }

    /// Sets the energy budget (J), returning the charger.
    ///
    /// # Panics
    ///
    /// Panics if `energy_j` is not finite and positive.
    pub fn with_energy(mut self, energy_j: f64) -> Self {
        assert!(
            energy_j.is_finite() && energy_j > 0.0,
            "energy must be positive"
        );
        self.energy_j = energy_j;
        self.capacity_j = energy_j;
        self
    }

    /// Sets the parking distance from served nodes (m), returning the
    /// charger.
    ///
    /// # Panics
    ///
    /// Panics if `d` is not finite and positive.
    pub fn with_service_distance(mut self, d: f64) -> Self {
        assert!(
            d.is_finite() && d > 0.0,
            "service distance must be positive"
        );
        self.service_distance_m = d;
        self
    }

    /// Current position.
    pub fn position(&self) -> Point {
        self.position
    }

    /// Travel speed, m/s.
    pub fn speed_mps(&self) -> f64 {
        self.speed_mps
    }

    /// Remaining energy, joules.
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Initial energy budget, joules.
    pub fn capacity_j(&self) -> f64 {
        self.capacity_j
    }

    /// Locomotion cost, J/m.
    pub fn move_cost_j_per_m(&self) -> f64 {
        self.move_cost_j_per_m
    }

    /// Parking distance from a served node, metres.
    pub fn service_distance_m(&self) -> f64 {
        self.service_distance_m
    }

    /// The rig.
    pub fn rig(&self) -> &ChargerRig {
        &self.rig
    }

    /// Travel time to `dest` at the configured speed, seconds.
    pub fn travel_time_to(&self, dest: Point) -> f64 {
        self.position.distance(dest) / self.speed_mps
    }

    /// The point the charger parks at to serve a node at `node_pos`: on the
    /// segment from its current position, `service_distance_m` short of the
    /// node (or its current position if already close enough).
    pub fn service_point(&self, node_pos: Point) -> Point {
        let d = self.position.distance(node_pos);
        if d <= self.service_distance_m {
            self.position
        } else {
            node_pos.toward(self.position, self.service_distance_m)
        }
    }

    /// Moves toward `dest`, spending locomotion energy; if the budget runs out
    /// en route, stops where the energy ends. Returns the distance actually
    /// travelled, metres.
    pub fn move_to(&mut self, dest: Point) -> f64 {
        let d = self.position.distance(dest);
        if d == 0.0 {
            return 0.0;
        }
        let affordable = if self.move_cost_j_per_m > 0.0 {
            self.energy_j / self.move_cost_j_per_m
        } else {
            f64::INFINITY
        };
        let travelled = d.min(affordable);
        self.position = self.position.lerp(dest, travelled / d);
        self.energy_j = (self.energy_j - travelled * self.move_cost_j_per_m).max(0.0);
        travelled
    }

    /// Refills the charger's own battery to capacity (a depot battery swap).
    /// Returns the energy added.
    pub fn refill(&mut self) -> f64 {
        let added = self.capacity_j - self.energy_j;
        self.energy_j = self.capacity_j;
        added
    }

    /// Spends `energy_j` from the budget (saturating); returns the energy
    /// actually spent.
    pub fn spend(&mut self, energy_j: f64) -> f64 {
        let e = energy_j.max(0.0).min(self.energy_j);
        self.energy_j -= e;
        e
    }

    /// Whether the budget is effectively exhausted.
    pub fn is_exhausted(&self) -> bool {
        self.energy_j <= 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_mode_delivers_model_power() {
        let rig = ChargerRig::powercast();
        let p = rig.delivered_power(Point::ORIGIN, Point::new(1.0, 0.0), ChargeMode::Honest);
        let expect = Transmitter::powercast().model().power_at(1.0);
        assert!((p - expect).abs() < 1e-12);
    }

    #[test]
    fn spoofed_mode_delivers_almost_nothing() {
        let rig = ChargerRig::powercast();
        let charger = Point::ORIGIN;
        let victim = Point::new(1.0, 0.0);
        let honest = rig.delivered_power(charger, victim, ChargeMode::Honest);
        let spoofed = rig.delivered_power(charger, victim, ChargeMode::Spoofed);
        assert!(
            spoofed < 0.01 * honest,
            "spoofed {spoofed} vs honest {honest}"
        );
    }

    #[test]
    fn partial_mode_delivers_the_requested_fraction() {
        let rig = ChargerRig::powercast();
        let c = Point::ORIGIN;
        let v = Point::new(1.0, 0.0);
        let honest = rig.delivered_power(c, v, ChargeMode::Honest);
        let partial = rig.delivered_power(c, v, ChargeMode::Partial { fraction: 0.35 });
        // Fraction of honest plus the (tiny) cancellation residual.
        assert!(
            partial >= 0.35 * honest && partial < 0.37 * honest,
            "partial {partial} vs honest {honest}"
        );
        // Out-of-range fractions clamp rather than exceed honest power.
        let over = rig.delivered_power(c, v, ChargeMode::Partial { fraction: 7.0 });
        assert!(over <= honest + 1e-12);
        let under = rig.delivered_power(c, v, ChargeMode::Partial { fraction: -1.0 });
        let spoofed = rig.delivered_power(c, v, ChargeMode::Spoofed);
        assert!((under - spoofed).abs() < 1e-15, "fraction 0 == full spoof");
    }

    #[test]
    fn partial_radiates_like_a_full_spoof() {
        let rig = ChargerRig::powercast();
        let c = Point::ORIGIN;
        let v = Point::new(1.0, 0.0);
        let spoofed = rig.radiated_power(c, v, ChargeMode::Spoofed);
        let partial = rig.radiated_power(c, v, ChargeMode::Partial { fraction: 0.35 });
        assert_eq!(partial, spoofed, "externally indistinguishable");
    }

    #[test]
    fn attack_mode_predicate() {
        assert!(!ChargeMode::Honest.is_attack());
        assert!(ChargeMode::Spoofed.is_attack());
        assert!(ChargeMode::Partial { fraction: 0.5 }.is_attack());
    }

    #[test]
    fn spoofed_radiates_at_least_as_much_as_honest() {
        let rig = ChargerRig::powercast();
        let c = Point::ORIGIN;
        let v = Point::new(1.0, 0.0);
        let honest = rig.radiated_power(c, v, ChargeMode::Honest);
        let spoofed = rig.radiated_power(c, v, ChargeMode::Spoofed);
        assert!(spoofed >= honest);
    }

    #[test]
    fn move_to_spends_energy_linearly() {
        let mut mc = MobileCharger::standard(Point::ORIGIN);
        let e0 = mc.energy_j();
        let travelled = mc.move_to(Point::new(100.0, 0.0));
        assert_eq!(travelled, 100.0);
        assert!((e0 - mc.energy_j() - 100.0 * DEFAULT_MOVE_COST_J_PER_M).abs() < 1e-9);
        assert_eq!(mc.position(), Point::new(100.0, 0.0));
    }

    #[test]
    fn move_to_stops_when_energy_runs_out() {
        let mut mc = MobileCharger::standard(Point::ORIGIN).with_energy(500.0);
        // 500 J at 50 J/m affords 10 m.
        let travelled = mc.move_to(Point::new(100.0, 0.0));
        assert!((travelled - 10.0).abs() < 1e-9);
        assert!(mc.is_exhausted());
        assert!((mc.position().x - 10.0).abs() < 1e-9);
    }

    #[test]
    fn service_point_is_offset_from_node() {
        let mc = MobileCharger::standard(Point::ORIGIN);
        let node = Point::new(10.0, 0.0);
        let sp = mc.service_point(node);
        assert!((sp.distance(node) - DEFAULT_SERVICE_DISTANCE_M).abs() < 1e-9);
    }

    #[test]
    fn service_point_when_already_close_is_current_position() {
        let mc = MobileCharger::standard(Point::new(9.7, 0.0));
        let node = Point::new(10.0, 0.0);
        assert_eq!(mc.service_point(node), mc.position());
    }

    #[test]
    fn spend_saturates() {
        let mut mc = MobileCharger::standard(Point::ORIGIN).with_energy(100.0);
        assert_eq!(mc.spend(60.0), 60.0);
        assert_eq!(mc.spend(60.0), 40.0);
        assert!(mc.is_exhausted());
    }

    #[test]
    fn travel_time_uses_speed() {
        let mc = MobileCharger::standard(Point::ORIGIN).with_speed(2.0);
        assert!((mc.travel_time_to(Point::new(10.0, 0.0)) - 5.0).abs() < 1e-12);
    }
}
