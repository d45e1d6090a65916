//! Ground-station contact and bent-pipe downlink latency.
//!
//! One of the paper's motivations: "moving satellite-generated data to
//! Earth before processing increases latency — current EO image processing
//! latencies are measured in hours, due in large part to the time it takes
//! an LEO satellite to orbit above a downlink station" (citing L2D2). This
//! module models that bent-pipe path so the in-space alternative can be
//! compared quantitatively.

use sudc_units::{Gigabits, GigabitsPerSecond, Seconds};

use crate::constants::R_EARTH;
use crate::orbit::CircularOrbit;

/// Deterministic single-pass geometry for a ground station with an
/// elevation mask.
///
/// The Earth-central angle from the station to the edge of coverage at
/// elevation `ε` is `λ = acos((R⊕/r) cos ε) − ε` (standard LEO coverage
/// geometry); an overhead pass sweeps `2λ` of the orbit, so the maximum
/// pass duration is `2λ / ω` with `ω` the orbital angular rate. Earth
/// rotation over one LEO pass (< 0.1° of longitude per minute of pass) is
/// neglected, keeping the model closed-form and deterministic — exactly
/// what the discrete-event simulator needs for reproducible downlink
/// windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassGeometry {
    /// The satellite's orbit.
    pub orbit: CircularOrbit,
    /// Minimum usable elevation above the horizon, in degrees `[0, 90]`.
    pub min_elevation_deg: f64,
}

impl PassGeometry {
    /// Creates a pass geometry.
    ///
    /// # Panics
    ///
    /// Panics if the elevation mask is outside `[0, 90]` degrees.
    #[must_use]
    pub fn new(orbit: CircularOrbit, min_elevation_deg: f64) -> Self {
        assert!(
            (0.0..=90.0).contains(&min_elevation_deg),
            "elevation mask must be in [0, 90] degrees, got {min_elevation_deg}"
        );
        Self {
            orbit,
            min_elevation_deg,
        }
    }

    /// Maximum Earth-central angle (radians) between station and satellite
    /// while the satellite is above the elevation mask. Zero at a 90°
    /// mask (only the zenith point qualifies); largest at the horizon.
    #[must_use]
    pub fn max_central_angle(&self) -> f64 {
        let eps = self.min_elevation_deg.to_radians();
        let ratio = R_EARTH / self.orbit.radius().value();
        (ratio * eps.cos()).acos() - eps
    }

    /// Duration of an overhead (through-zenith) pass — the longest pass the
    /// station can see. A 90° elevation mask yields a zero-duration pass.
    #[must_use]
    pub fn max_pass_duration(&self) -> Seconds {
        let omega = 2.0 * std::f64::consts::PI / self.orbit.period().value();
        Seconds::new(2.0 * self.max_central_angle() / omega)
    }
}

/// Daily passes a *polar* ground station sees from a polar orbit: every
/// revolution crosses the pole region, so the station gets one pass per
/// orbit — the upper bound `passes_per_day` approximates for mid-latitude
/// stations with the 0.28 visibility factor.
#[must_use]
pub fn polar_station_passes_per_day(orbit: CircularOrbit) -> f64 {
    86_400.0 / orbit.period().value()
}

/// A ground-station network serving a LEO downlink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundNetwork {
    /// Number of geographically distributed stations.
    pub stations: u32,
    /// Mean usable contact duration per pass.
    pub pass_duration: Seconds,
    /// Mean passes per station per day for the orbit's inclination band.
    pub passes_per_station_per_day: f64,
    /// Downlink rate during contact.
    pub downlink_rate: GigabitsPerSecond,
}

impl GroundNetwork {
    /// A typical commercial EO ground segment: a handful of polar-ish
    /// stations, ~8-minute passes, X-band class downlink.
    ///
    /// # Panics
    ///
    /// Panics if `stations` is zero.
    #[must_use]
    pub fn commercial(stations: u32) -> Self {
        assert!(stations > 0, "a ground network needs at least one station");
        Self {
            stations,
            pass_duration: Seconds::new(8.0 * 60.0),
            passes_per_station_per_day: 4.0,
            downlink_rate: GigabitsPerSecond::new(0.5),
        }
    }

    /// Total contacts per day across the network.
    #[must_use]
    pub fn contacts_per_day(&self) -> f64 {
        f64::from(self.stations) * self.passes_per_station_per_day
    }

    /// Mean gap between downlink opportunities.
    #[must_use]
    pub fn mean_contact_gap(&self) -> Seconds {
        Seconds::new(86_400.0 / self.contacts_per_day())
    }

    /// Data movable to the ground per day.
    #[must_use]
    pub fn daily_capacity(&self) -> Gigabits {
        self.downlink_rate * (self.pass_duration * self.contacts_per_day())
    }

    /// Mean bent-pipe latency for an image produced at a uniformly random
    /// time: half the contact gap (waiting for a station) plus the queueing
    /// delay from the downlink deficit, plus transmission.
    ///
    /// If the satellite produces data faster than the network can drain it
    /// (`production_rate > capacity`), the backlog grows without bound and
    /// the latency is unbounded; this returns `None` in that regime — the
    /// "downlink deficit" the paper's cited works address.
    #[must_use]
    pub fn mean_latency(
        &self,
        production_rate: GigabitsPerSecond,
        image_size: Gigabits,
    ) -> Option<Seconds> {
        let capacity_rate = self.daily_capacity().value() / 86_400.0;
        if production_rate.value() >= capacity_rate {
            return None;
        }
        let wait = self.mean_contact_gap() * 0.5;
        // Mean backlog at contact start: production over the gap, drained at
        // the downlink rate while also receiving new data.
        let gap = self.mean_contact_gap();
        let backlog = production_rate * gap;
        let drain_rate = self.downlink_rate.value() - production_rate.value();
        let queueing = Seconds::new(backlog.value() / drain_rate.max(1e-9) / 2.0);
        let transmission = Seconds::new(image_size.value() / self.downlink_rate.value());
        Some(wait + queueing + transmission)
    }
}

/// Number of daily passes a single mid-latitude station sees from a LEO
/// orbit (a helper for sizing [`GroundNetwork::passes_per_station_per_day`]).
#[must_use]
pub fn passes_per_day(orbit: CircularOrbit) -> f64 {
    // A LEO satellite completes ~14-16 orbits/day; a mid-latitude station
    // is visible on roughly a quarter to a third of them.
    let orbits_per_day = 86_400.0 / orbit.period().value();
    orbits_per_day * 0.28
}

#[cfg(test)]
mod tests {
    use super::*;

    fn network() -> GroundNetwork {
        GroundNetwork::commercial(3)
    }

    #[test]
    fn latency_is_hours_for_a_sparse_network() {
        // Paper: "current EO image processing latencies are measured in
        // hours".
        let production = GigabitsPerSecond::new(0.02);
        let image = Gigabits::new(0.8); // one 8k x 8k 12-bit frame
        let latency = network().mean_latency(production, image).unwrap();
        let hours = latency.value() / 3600.0;
        assert!(hours > 1.0 && hours < 12.0, "bent-pipe latency {hours} h");
    }

    #[test]
    fn downlink_deficit_is_detected() {
        // Producing faster than the network drains -> unbounded backlog.
        let production = GigabitsPerSecond::new(0.2);
        let image = Gigabits::new(0.8);
        assert!(network().mean_latency(production, image).is_none());
        let capacity_rate = network().daily_capacity().value() / 86_400.0;
        assert!(production.value() > capacity_rate);
    }

    #[test]
    fn more_stations_cut_latency() {
        let production = GigabitsPerSecond::new(0.02);
        let image = Gigabits::new(0.8);
        let sparse = GroundNetwork::commercial(2)
            .mean_latency(production, image)
            .unwrap();
        let dense = GroundNetwork::commercial(12)
            .mean_latency(production, image)
            .unwrap();
        assert!(dense < sparse);
    }

    #[test]
    fn daily_capacity_accounting() {
        let n = network();
        let expected = 0.5 * 480.0 * 12.0; // rate x pass seconds x contacts
        assert!((n.daily_capacity().value() - expected).abs() < 1e-9);
    }

    #[test]
    fn leo_sees_a_few_passes_per_station() {
        let p = passes_per_day(CircularOrbit::reference_leo());
        assert!(p > 3.0 && p < 6.0, "passes/day {p}");
    }

    #[test]
    #[should_panic(expected = "at least one station")]
    fn empty_network_panics() {
        let _ = GroundNetwork::commercial(0);
    }

    #[test]
    fn zenith_only_mask_gives_a_zero_duration_pass() {
        // ε = 90°: the coverage cone degenerates to the zenith point.
        let g = PassGeometry::new(CircularOrbit::reference_leo(), 90.0);
        assert!(g.max_central_angle().abs() < 1e-12);
        assert!(g.max_pass_duration().value().abs() < 1e-9);
    }

    #[test]
    fn zero_duration_passes_put_any_production_in_deficit() {
        // A network whose every pass has zero usable duration moves no
        // data: mean_latency must report the deficit, not divide by zero.
        let degenerate = GroundNetwork {
            stations: 3,
            pass_duration: Seconds::ZERO,
            passes_per_station_per_day: 4.0,
            downlink_rate: GigabitsPerSecond::new(0.5),
        };
        assert!((degenerate.daily_capacity().value()).abs() < 1e-12);
        assert!(degenerate
            .mean_latency(GigabitsPerSecond::new(1e-6), Gigabits::new(0.8))
            .is_none());
    }

    #[test]
    fn horizon_mask_matches_the_geometric_horizon_angle() {
        // ε = 0 exactly: λ = acos(R⊕/r), the satellite's horizon circle.
        let orbit = CircularOrbit::reference_leo();
        let g = PassGeometry::new(orbit, 0.0);
        let expected = (crate::constants::R_EARTH / orbit.radius().value()).acos();
        assert!((g.max_central_angle() - expected).abs() < 1e-12);
        // A horizon-to-horizon LEO pass lasts on the order of 10 minutes.
        let minutes = g.max_pass_duration().value() / 60.0;
        assert!(minutes > 5.0 && minutes < 20.0, "pass {minutes} min");
    }

    #[test]
    fn tighter_elevation_masks_shorten_passes_monotonically() {
        let orbit = CircularOrbit::reference_leo();
        let mut last = f64::INFINITY;
        for mask in [0.0, 5.0, 10.0, 30.0, 60.0, 89.0, 90.0] {
            let d = PassGeometry::new(orbit, mask).max_pass_duration().value();
            assert!(d < last, "mask {mask}: {d} !< {last}");
            assert!(d >= 0.0);
            last = d;
        }
    }

    #[test]
    fn polar_station_sees_every_orbit_of_a_polar_satellite() {
        let orbit = CircularOrbit::reference_leo();
        let passes = polar_station_passes_per_day(orbit);
        let orbits = 86_400.0 / orbit.period().value();
        assert!((passes - orbits).abs() < 1e-12);
        // ~15 revolutions/day in LEO, and strictly more than the
        // mid-latitude approximation in `passes_per_day`.
        assert!(passes > 14.0 && passes < 17.0, "passes/day {passes}");
        assert!(passes > passes_per_day(orbit));
    }

    #[test]
    #[should_panic(expected = "elevation mask")]
    fn negative_elevation_mask_panics() {
        let _ = PassGeometry::new(CircularOrbit::reference_leo(), -1.0);
    }
}
