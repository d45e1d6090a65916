//! Tier pricing derived from the workspace's physical and cost models.
//!
//! Everything in [`RouterConfig::try_reference`] is computed once, up front,
//! from the same models the rest of the workspace uses — Table III
//! service times (`sudc-compute`), pass geometry and ground-network
//! capacity (`sudc-orbital`), the reference `DynamicScenario`
//! (`sudc-core::dynamics`), and the SSCM-based TCO (`sudc-core::tco`) —
//! so the per-request hot path in [`crate::engine`] is pure table
//! lookups and a handful of multiply-adds.

use sudc_compute::hardware::{h100, radeon_780m, rtx_3090};
use sudc_compute::workloads::suite;
use sudc_compute::NetworkId;
use sudc_core::dynamics::{DynamicScenario, REQUIRED_NODES};
use sudc_core::tco::{TcoLine, OPS_COST_PER_YEAR};
use sudc_core::Scenario;
use sudc_errors::{Diagnostics, SudcError};
use sudc_orbital::contact::{passes_per_day, polar_station_passes_per_day, GroundNetwork};
use sudc_orbital::orbit::CircularOrbit;
use sudc_sscm::Subsystem;

use crate::tier::Tier;

/// Number of applications (the ten Table III CNN workloads).
pub const APPS: usize = 10;

/// Latitude bins of the ground-pass wait table: one per degree,
/// -90° … +90° inclusive.
pub const LAT_BINS: usize = 181;

/// Reference fleet size used to derive the tasking stream's physical
/// scenario (matches `SimConfig::reference_operations`).
pub const REFERENCE_FLEET: u32 = 64;

/// Ground stations in the commercial downlink network the ground tiers
/// price against (matches the Ext. A bent-pipe baseline).
pub const GROUND_STATIONS: u32 = 3;

/// Fixed WAN bulk-transfer leg between the ground station and a cloud
/// region: provisioning plus a transcontinental transfer window, seconds.
/// The per-bit WAN time at ≥10 Gbit/s is negligible next to this.
pub const CLOUD_WAN_S: f64 = 30.0;

/// Terrestrial fiber moves a bit roughly an order of magnitude cheaper
/// than the space downlink segment; the cloud tier pays this fraction of
/// the downlink $/Gbit again for its WAN leg.
pub const CLOUD_WAN_COST_FRACTION: f64 = 0.1;

/// Target sustained utilization of the ground network when deriving the
/// steady-state downlink queueing term (running the shared stations
/// hotter than this makes the backlog integral blow up).
const GROUND_TARGET_UTILIZATION: f64 = 0.7;

/// Latency and cost coefficients for one `(application, tier)` pair.
///
/// The engine evaluates a request of payload `G` Gbit captured at
/// latitude bin `b` as:
///
/// ```text
/// latency = fixed_s + per_gbit_s * G + wait_scale * lat_wait_s[b]
/// cost    = per_gbit_usd * G
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierTerms {
    /// Payload-independent latency: batch accumulation, insight-telemetry
    /// delivery, steady-state downlink queueing, WAN legs.
    pub fixed_s: f64,
    /// Payload-proportional latency: transfer over the bottleneck link
    /// plus inference service per Gbit of pixels.
    pub per_gbit_s: f64,
    /// Multiplier on the latitude-binned ground-pass wait (0 for orbital
    /// tiers whose insights ride the always-on telemetry path, 1 for
    /// tiers that must downlink the raw payload through a pass).
    pub wait_scale: f64,
    /// Cost per Gbit of payload: compute occupancy plus data movement.
    pub per_gbit_usd: f64,
}

impl TierTerms {
    fn zero() -> Self {
        Self {
            fixed_s: 0.0,
            per_gbit_s: 0.0,
            wait_scale: 0.0,
            per_gbit_usd: 0.0,
        }
    }
}

/// Immutable pricing tables the placement engine scores against.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Extra wait beyond its deadline a request may tolerate before it is
    /// rejected outright instead of deferred (one mean contact gap: the
    /// next pass could still serve it).
    pub defer_horizon_s: f64,
    /// Raw size of one reference image, Gbit (converts payload Gbit to
    /// image-equivalents).
    pub image_gbit: f64,
    /// `terms[app][tier.index()]` — the memoized per-(app, tier) cost
    /// and latency coefficients.
    pub terms: [[TierTerms; Tier::COUNT]; APPS],
    /// Mean wait for the next usable ground pass, by capture latitude
    /// (1° bins, -90° at index 0). Commercial networks are polar-heavy,
    /// so high-latitude captures wait less.
    pub lat_wait_s: [f64; LAT_BINS],
    /// Sustained ground-segment drain rate, Gbit/s. The engine budgets
    /// raw-payload downlink against this — the paper's downlink deficit
    /// is what makes orbit-vs-ground placement non-trivial.
    pub ground_capacity_gbit_per_s: f64,
    /// Sustained SµDC compute-ingest rate, Gbit/s: the constellation's
    /// `REQUIRED_NODES` nodes each turn one reference image around every
    /// `per_image_service` seconds. Tasking placed on the SµDC is
    /// budgeted against this.
    pub sudc_capacity_gbit_per_s: f64,
    /// Largest payload the capturing satellite's embedded accelerator
    /// can hold — one reference frame. Multi-frame strips cannot run
    /// onboard.
    pub onboard_max_gbit: f64,
    /// When set, a request's *first* deferral re-enters the next block's
    /// admission queue ahead of that block's own arrivals and competes
    /// for its fresh capacity budget (one re-entry per request; a second
    /// deferral is final). Routing then runs blocks sequentially instead
    /// of sharding them across workers, since block `b+1`'s input depends
    /// on block `b`'s verdicts.
    pub readmit_deferred: bool,
    /// Per-block SµDC compute-pool fractions from the health plane's
    /// degraded-mode accounting (`sudc_health::PoolTimeline`): block `b`
    /// budgets `sudc_capacity_gbit_per_s * sudc_pool_fraction[b]` for
    /// orbital placement, so a fleet the failure detector has declared
    /// degraded re-prices orbit-vs-ground live. Empty (the default)
    /// means a full pool everywhere; blocks past the end hold the last
    /// sampled fraction (the fleet stays degraded until the next
    /// observation says otherwise).
    pub sudc_pool_fraction: Vec<f64>,
}

impl RouterConfig {
    /// Prices the four tiers from the paper's reference scenario.
    ///
    /// # Errors
    ///
    /// Returns the design-pipeline error if the reference scenario fails
    /// to size or cost (never expected for the built-in scenario).
    pub fn try_reference() -> Result<Self, SudcError> {
        let d = DynamicScenario::from_scenario(Scenario::Reference, REFERENCE_FLEET)?;
        let design = Scenario::Reference.try_design()?;
        let tco = design.try_tco()?;

        let image_gbit = d.image_size.value();
        let network = GroundNetwork::commercial(GROUND_STATIONS);
        let orbit = CircularOrbit::reference_leo();

        // --- latency building blocks -----------------------------------
        // Insights are ~KB and ride the always-on telemetry path; their
        // delivery cost is pure transmission (the Ext. A convention).
        let insight_tx_s = d.insight_size.value() / d.downlink_rate.value();
        // Mean residence in a forming batch: half the time to fill one,
        // capped by the batch timeout.
        let arrival = d.arrival_rate();
        let accumulation_s =
            0.5 * (f64::from(d.batch_target) / arrival).min(d.batch_timeout.value());
        // Steady-state downlink queueing at the target utilization,
        // extracted from the bent-pipe latency model by subtracting the
        // pass wait and transmission it also folds in.
        let capacity_rate = network.daily_capacity().value() / 86_400.0;
        let production =
            sudc_units::GigabitsPerSecond::new(capacity_rate * GROUND_TARGET_UTILIZATION);
        let bent_pipe = network
            .mean_latency(production, d.image_size)
            .expect("target utilization below capacity");
        let queueing_s = (bent_pipe.value()
            - network.mean_contact_gap().value() * 0.5
            - image_gbit / network.downlink_rate.value())
        .max(0.0);

        // --- hardware ratios -------------------------------------------
        // Onboard flight computers carry embedded-class accelerators; the
        // SµDC and ground edge carry RTX 3090-class parts (Table III's
        // profiling platform); cloud regions carry H100-class parts.
        let slowdown_onboard = rtx_3090().fp32.value() / radeon_780m().fp32.value();
        let speedup_cloud = h100().fp32.value() / rtx_3090().fp32.value();

        // --- cost building blocks --------------------------------------
        // All-in orbital cost per image-equivalent insight: the SµDC TCO
        // amortized over every insight the constellation delivers in the
        // design lifetime (the sudc-chaos pricing idiom).
        let lifetime_s = design.lifetime.to_seconds().value();
        let usd_sudc_per_image = tco.total().value() / (arrival * lifetime_s);
        let usd_sudc_per_gbit = usd_sudc_per_image / image_gbit;
        // Ground edge buys the same silicon without launch, bus, thermal,
        // or flight-ops overhead: the compute-payload share of the TCO.
        let hw_share = tco.share(TcoLine::Satellite(Subsystem::ComputePayload));
        let usd_ground_compute_per_gbit = usd_sudc_per_gbit * hw_share;
        // Cloud prices compute by accelerator occupancy: the same job
        // holds an H100 for a fraction of the RTX 3090's time.
        let usd_cloud_compute_per_gbit = usd_ground_compute_per_gbit / speedup_cloud;
        // Onboard insights occupy the scarce, slowdown×-slower bus
        // accelerator; price the occupancy at the SµDC's rate
        // (conservative — bus watts are at least as dear).
        let usd_onboard_per_gbit = usd_sudc_per_gbit * slowdown_onboard;
        // Ground-segment cost per downlinked Gbit: yearly operations
        // spread over the bits the network can move in a year.
        let usd_downlink_per_gbit =
            OPS_COST_PER_YEAR.value() / (network.daily_capacity().value() * 365.0);

        // --- per-(app, tier) tables ------------------------------------
        let workloads = suite();
        assert_eq!(workloads.len(), APPS, "Table III suite size");
        assert_eq!(NetworkId::all().len(), APPS, "NetworkId::all size");
        let mean_svc: f64 = workloads
            .iter()
            .map(|w| w.inference_time.value())
            .sum::<f64>()
            / workloads.len() as f64;
        let mut terms = [[TierTerms::zero(); Tier::COUNT]; APPS];
        for (a, w) in workloads.iter().enumerate() {
            // Per-batch inference over the Table III reference batch of
            // 16, then per Gbit of payload pixels.
            let svc_per_image = w.inference_time.value() / 16.0;
            let svc_per_gbit = svc_per_image / image_gbit;
            // Compute-heavier apps occupy the accelerator longer; scale
            // the occupancy-priced cost terms accordingly.
            let occupancy = w.inference_time.value() / mean_svc;
            terms[a][Tier::Onboard.index()] = TierTerms {
                fixed_s: insight_tx_s,
                per_gbit_s: svc_per_gbit * slowdown_onboard,
                wait_scale: 0.0,
                per_gbit_usd: usd_onboard_per_gbit * occupancy,
            };
            terms[a][Tier::OrbitalSudc.index()] = TierTerms {
                fixed_s: accumulation_s + insight_tx_s,
                per_gbit_s: 1.0 / d.isl_rate.value() + svc_per_gbit,
                wait_scale: 0.0,
                per_gbit_usd: usd_sudc_per_gbit * occupancy,
            };
            terms[a][Tier::GroundEdge.index()] = TierTerms {
                fixed_s: queueing_s,
                per_gbit_s: 1.0 / network.downlink_rate.value() + svc_per_gbit,
                wait_scale: 1.0,
                per_gbit_usd: usd_downlink_per_gbit + usd_ground_compute_per_gbit * occupancy,
            };
            terms[a][Tier::Cloud.index()] = TierTerms {
                fixed_s: queueing_s + CLOUD_WAN_S,
                per_gbit_s: 1.0 / network.downlink_rate.value() + svc_per_gbit / speedup_cloud,
                wait_scale: 1.0,
                per_gbit_usd: usd_downlink_per_gbit * (1.0 + CLOUD_WAN_COST_FRACTION)
                    + usd_cloud_compute_per_gbit * occupancy,
            };
        }

        // --- latitude wait table ---------------------------------------
        // Commercial EO networks are polar-heavy: a high-latitude capture
        // reaches a usable station sooner. Interpolate contact frequency
        // between the mid-latitude and polar pass rates, invert to a
        // wait, and normalize the area-weighted mean wait to the
        // network's half contact gap so the fleet-average matches the
        // bent-pipe model.
        let f_mid = passes_per_day(orbit);
        let f_polar = polar_station_passes_per_day(orbit);
        let mut raw = [0.0_f64; LAT_BINS];
        let mut weighted = 0.0;
        let mut weight = 0.0;
        for (b, slot) in raw.iter_mut().enumerate() {
            let lat_deg = b as f64 - 90.0;
            let frac = lat_deg.abs() / 90.0;
            let freq = f_mid + (f_polar - f_mid) * frac;
            *slot = 1.0 / freq.max(1e-9);
            let w = lat_deg.to_radians().cos().max(0.0);
            weighted += *slot * w;
            weight += w;
        }
        let mean_raw = weighted / weight;
        let scale = network.mean_contact_gap().value() * 0.5 / mean_raw;
        let mut lat_wait_s = [0.0_f64; LAT_BINS];
        for (b, slot) in lat_wait_s.iter_mut().enumerate() {
            *slot = raw[b] * scale;
        }

        // SµDC ingest: REQUIRED_NODES nodes, each turning one reference
        // image around every per_image_service seconds (the dynamics
        // model's utilization-bearing service time, not the raw Table III
        // batch time).
        let sudc_capacity = f64::from(REQUIRED_NODES) * image_gbit / d.per_image_service.value();

        Ok(Self {
            defer_horizon_s: network.mean_contact_gap().value(),
            image_gbit,
            terms,
            lat_wait_s,
            ground_capacity_gbit_per_s: capacity_rate,
            sudc_capacity_gbit_per_s: sudc_capacity,
            onboard_max_gbit: image_gbit,
            readmit_deferred: false,
            sudc_pool_fraction: Vec::new(),
        })
    }

    /// Re-prices the orbital SµDC tier for a fleet whose GPU-class parts
    /// are replaced by the accelerators the `sudc-accel` DSE selects.
    ///
    /// `per_app_improvement[a]` is app `a`'s energy-efficiency improvement
    /// over the RTX 3090-class baseline (e.g. each network's
    /// per-network-accelerator improvement from the sweep), in
    /// [`suite`]/[`NetworkId::all`] order. `hardware_price_premium` is the
    /// cost multiple of the specialized silicon over the commodity part.
    /// The SµDC's compute-occupancy price scales by `premium /
    /// improvement`: energy efficiency shrinks the power/thermal/solar
    /// share that dominates the orbital TCO, while the premium covers the
    /// custom parts. Onboard and ground tiers keep their reference
    /// hardware, so only the `OrbitalSudc` column moves — the default
    /// [`RouterConfig::try_reference`] pricing is untouched.
    ///
    /// # Errors
    ///
    /// Returns a [`SudcError`] naming each non-positive or non-finite
    /// factor, or any table entry the re-pricing invalidates.
    pub fn try_with_accelerator_repricing(
        mut self,
        per_app_improvement: &[f64; APPS],
        hardware_price_premium: f64,
    ) -> Result<Self, SudcError> {
        let mut d = Diagnostics::new("RouterConfig::try_with_accelerator_repricing");
        d.positive("hardware_price_premium", hardware_price_premium);
        for (a, &f) in per_app_improvement.iter().enumerate() {
            d.positive(format_args!("per_app_improvement[{a}]"), f);
        }
        d.finish()?;
        for (a, row) in self.terms.iter_mut().enumerate() {
            row[Tier::OrbitalSudc.index()].per_gbit_usd *=
                hardware_price_premium / per_app_improvement[a];
        }
        self.try_validate()?;
        Ok(self)
    }

    /// Installs the health plane's per-block degraded-pool fractions
    /// (e.g. `sudc_health::PoolTimeline::try_fractions` over a recorded
    /// fault stream). Each block's SµDC ingest budget scales by its
    /// fraction; ground tiers keep their full capacity, so degradation
    /// pushes marginal work groundward exactly as the paper's
    /// orbit-vs-ground economics dictate.
    ///
    /// # Errors
    ///
    /// Returns a [`SudcError`] naming each fraction outside `[0, 1]` or
    /// non-finite, and rejecting an empty slice (use the default config
    /// for a full pool).
    pub fn try_with_degraded_pools(mut self, fractions: &[f64]) -> Result<Self, SudcError> {
        let mut d = Diagnostics::new("RouterConfig::try_with_degraded_pools");
        d.ensure(
            !fractions.is_empty(),
            "fractions.len()",
            fractions.len(),
            "at least one block fraction",
        );
        for (b, &f) in fractions.iter().enumerate() {
            d.unit_interval(format_args!("fractions[{b}]"), f);
        }
        d.finish()?;
        self.sudc_pool_fraction = fractions.to_vec();
        self.try_validate()?;
        Ok(self)
    }

    /// The SµDC pool fraction block `b` routes against: 1 with no
    /// degraded-pool table installed, otherwise the block's entry
    /// (clamped to the last entry past the sampled horizon).
    #[must_use]
    pub fn pool_fraction(&self, block: u64) -> f64 {
        match self.sudc_pool_fraction.as_slice() {
            [] => 1.0,
            table => {
                let idx = (block as usize).min(table.len() - 1);
                table[idx]
            }
        }
    }

    /// Validates every table entry, collecting all violations.
    ///
    /// # Errors
    ///
    /// Returns a [`SudcError`] naming each non-finite or out-of-range
    /// coefficient.
    pub fn try_validate(&self) -> Result<(), SudcError> {
        let mut d = Diagnostics::new("RouterConfig");
        d.non_negative("defer_horizon_s", self.defer_horizon_s);
        d.positive("image_gbit", self.image_gbit);
        d.positive(
            "ground_capacity_gbit_per_s",
            self.ground_capacity_gbit_per_s,
        );
        d.positive("sudc_capacity_gbit_per_s", self.sudc_capacity_gbit_per_s);
        d.positive("onboard_max_gbit", self.onboard_max_gbit);
        for (a, row) in self.terms.iter().enumerate() {
            for (t, terms) in row.iter().enumerate() {
                let tier = Tier::from_index(t);
                d.non_negative(format_args!("terms[{a}][{tier}].fixed_s"), terms.fixed_s);
                d.non_negative(
                    format_args!("terms[{a}][{tier}].per_gbit_s"),
                    terms.per_gbit_s,
                );
                d.in_range(
                    format_args!("terms[{a}][{tier}].wait_scale"),
                    terms.wait_scale,
                    0.0,
                    1.0,
                );
                d.non_negative(
                    format_args!("terms[{a}][{tier}].per_gbit_usd"),
                    terms.per_gbit_usd,
                );
            }
        }
        for (b, w) in self.lat_wait_s.iter().enumerate() {
            d.non_negative(format_args!("lat_wait_s[{b}]"), *w);
        }
        for (b, f) in self.sudc_pool_fraction.iter().enumerate() {
            d.unit_interval(format_args!("sudc_pool_fraction[{b}]"), *f);
        }
        d.finish()
    }

    /// Latitude-bin index for a capture latitude in degrees (clamped to
    /// the poles, rounded half away from zero; NaN maps to bin 0).
    ///
    /// Rounds by truncation plus a half test rather than `f64::round`,
    /// which is a libm call on targets without a rounding instruction
    /// (the x86-64 baseline); the two agree on every input, and
    /// `x - t` is exact because `t` is `x`'s integer part.
    #[must_use]
    #[inline]
    pub fn lat_bin(lat_deg: f64) -> usize {
        let x = lat_deg.clamp(-90.0, 90.0) + 90.0;
        let t = x as usize;
        t + usize::from(x - t as f64 >= 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_config_validates() {
        let cfg = RouterConfig::try_reference().unwrap();
        cfg.try_validate().expect("reference config must validate");
    }

    #[test]
    fn bad_table_entries_are_named_in_exact_text() {
        let mut cfg = RouterConfig::try_reference().unwrap();
        cfg.terms[3][Tier::GroundEdge.index()].wait_scale = 1.5;
        cfg.lat_wait_s[7] = -2.0;
        assert_eq!(
            cfg.try_validate().unwrap_err().to_string(),
            "invalid RouterConfig: `terms[3][ground_edge].wait_scale` = 1.5 (allowed: in [0, 1]); \
             `lat_wait_s[7]` = -2 (allowed: non-negative and finite)"
        );
    }

    #[test]
    fn orbital_tiers_skip_the_pass_wait_and_ground_tiers_pay_it() {
        let cfg = RouterConfig::try_reference().unwrap();
        for row in &cfg.terms {
            assert_eq!(row[Tier::Onboard.index()].wait_scale, 0.0);
            assert_eq!(row[Tier::OrbitalSudc.index()].wait_scale, 0.0);
            assert_eq!(row[Tier::GroundEdge.index()].wait_scale, 1.0);
            assert_eq!(row[Tier::Cloud.index()].wait_scale, 1.0);
        }
    }

    #[test]
    fn polar_captures_wait_less_than_equatorial() {
        let cfg = RouterConfig::try_reference().unwrap();
        let equator = cfg.lat_wait_s[RouterConfig::lat_bin(0.0)];
        let polar = cfg.lat_wait_s[RouterConfig::lat_bin(85.0)];
        assert!(polar < equator, "polar {polar} vs equator {equator}");
    }

    #[test]
    fn accelerator_repricing_moves_only_the_orbital_column() {
        let reference = RouterConfig::try_reference().unwrap();
        let improvement = [50.0; APPS];
        let repriced = reference
            .clone()
            .try_with_accelerator_repricing(&improvement, 3.0)
            .expect("repricing must validate");
        for (a, (before, after)) in reference.terms.iter().zip(&repriced.terms).enumerate() {
            let t = Tier::OrbitalSudc.index();
            let expected = before[t].per_gbit_usd * 3.0 / 50.0;
            assert!(
                (after[t].per_gbit_usd - expected).abs() <= expected * 1e-12,
                "app {a} orbital per-Gbit cost"
            );
            for tier in [Tier::Onboard, Tier::GroundEdge, Tier::Cloud] {
                assert_eq!(
                    before[tier.index()],
                    after[tier.index()],
                    "app {a} tier {tier} must keep reference pricing"
                );
            }
        }
        // The reference config itself is untouched by the builder.
        assert_eq!(reference, RouterConfig::try_reference().unwrap());
    }

    #[test]
    fn accelerator_repricing_rejects_hostile_factors() {
        let mut improvement = [50.0; APPS];
        improvement[3] = 0.0;
        improvement[7] = f64::NAN;
        let err = RouterConfig::try_reference()
            .unwrap()
            .try_with_accelerator_repricing(&improvement, 3.0)
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("per_app_improvement[3]"), "{msg}");
        assert!(msg.contains("per_app_improvement[7]"), "{msg}");
        assert!(RouterConfig::try_reference()
            .unwrap()
            .try_with_accelerator_repricing(&[50.0; APPS], f64::INFINITY)
            .is_err());
    }

    #[test]
    fn tier_cost_ordering_matches_the_derivation() {
        let cfg = RouterConfig::try_reference().unwrap();
        let row = &cfg.terms[0];
        let sudc = row[Tier::OrbitalSudc.index()].per_gbit_usd;
        let onboard = row[Tier::Onboard.index()].per_gbit_usd;
        let edge = row[Tier::GroundEdge.index()].per_gbit_usd;
        let cloud = row[Tier::Cloud.index()].per_gbit_usd;
        // SµDC amortization is the cheapest path; onboard pays the
        // embedded-accelerator occupancy premium; ground tiers are
        // dominated by the downlink $/Gbit, and cloud adds the WAN
        // surcharge on top of the same downlink.
        assert!(onboard > sudc, "onboard occupancy premium");
        assert!(edge > sudc, "downlink dominates orbital amortization");
        assert!(cloud > edge, "WAN surcharge");
        // Cloud still buys *compute* cheaper: its surcharge over the edge
        // stays below the WAN fraction of the edge's all-in rate, which
        // requires the cloud compute residual to undercut the edge's.
        assert!(cloud - edge < edge * CLOUD_WAN_COST_FRACTION);
    }

    #[test]
    fn degraded_pools_validate_and_clamp_past_the_horizon() {
        let cfg = RouterConfig::try_reference()
            .unwrap()
            .try_with_degraded_pools(&[1.0, 0.5, 0.75])
            .expect("valid fractions");
        assert_eq!(cfg.pool_fraction(0), 1.0);
        assert_eq!(cfg.pool_fraction(1), 0.5);
        // Past the sampled horizon the fleet stays at the last
        // observation.
        assert_eq!(cfg.pool_fraction(2), 0.75);
        assert_eq!(cfg.pool_fraction(99), 0.75);
        // No table installed means a full pool everywhere.
        assert_eq!(RouterConfig::try_reference().unwrap().pool_fraction(7), 1.0);
    }

    #[test]
    fn degraded_pools_reject_hostile_fractions() {
        for bad in [
            [1.0, -0.1],
            [0.5, 1.5],
            [f64::NAN, 0.5],
            [0.5, f64::INFINITY],
        ] {
            let err = RouterConfig::try_reference()
                .unwrap()
                .try_with_degraded_pools(&bad)
                .unwrap_err();
            assert!(
                err.to_string().contains("fractions[1]")
                    || err.to_string().contains("fractions[0]"),
                "{err}"
            );
        }
        assert!(RouterConfig::try_reference()
            .unwrap()
            .try_with_degraded_pools(&[])
            .is_err());
    }

    #[test]
    fn lat_bin_clamps_and_rounds() {
        assert_eq!(RouterConfig::lat_bin(-90.0), 0);
        assert_eq!(RouterConfig::lat_bin(0.0), 90);
        assert_eq!(RouterConfig::lat_bin(90.0), 180);
        assert_eq!(RouterConfig::lat_bin(200.0), 180);
        assert_eq!(RouterConfig::lat_bin(f64::NEG_INFINITY), 0);
    }

    #[test]
    fn lat_bin_matches_libm_round() {
        // The form `lat_bin` replaced, kept as the oracle.
        let oracle = |lat: f64| (lat.clamp(-90.0, 90.0) + 90.0).round() as usize;
        let mut inputs = vec![0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        // Every 1/8 degree from -200 to 200 (exact in binary).
        inputs.extend((-1600..=1600).map(|i| f64::from(i) / 8.0));
        // Both neighbours of every half degree, where rounding flips.
        for i in -400..=400 {
            let half = f64::from(i) / 2.0;
            inputs.extend([half.next_up(), half.next_down()]);
        }
        for lat in inputs {
            assert_eq!(RouterConfig::lat_bin(lat), oracle(lat), "lat {lat:?}");
        }
        assert_eq!(RouterConfig::lat_bin(f64::NAN), 0);
    }
}
