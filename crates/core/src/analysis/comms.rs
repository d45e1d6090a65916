//! Communication analyses: ISL cost sensitivity (Fig. 7), saturation
//! requirements (Fig. 8), and compression impact (Fig. 10).

use sudc_comms::compression::Compression;
use sudc_comms::requirements::{saturation_rate, DEFAULT_BITS_PER_PIXEL};
use sudc_compute::workloads::{self, Workload};
use sudc_errors::SudcError;
use sudc_units::{GigabitsPerSecond, Watts};

use crate::design::SuDcDesign;

/// Fig. 7: TCO vs. provisioned ISL capacity, relative to a no-ISL design
/// of the same compute power.
///
/// # Errors
///
/// Propagates [`SudcError`].
pub fn tco_vs_isl(
    compute_power: Watts,
    rates: &[GigabitsPerSecond],
) -> Result<Vec<(GigabitsPerSecond, f64)>, SudcError> {
    let baseline = SuDcDesign::builder()
        .compute_power(compute_power)
        .isl_rate(GigabitsPerSecond::ZERO)
        .try_build()?
        .try_tco()?
        .total();
    rates
        .iter()
        .map(|&rate| {
            let tco = SuDcDesign::builder()
                .compute_power(compute_power)
                .isl_rate(rate)
                .try_build()?
                .try_tco()?
                .total();
            Ok((rate, tco / baseline))
        })
        .collect()
}

/// One Fig. 8 row: the ISL rate that saturates each power budget for one
/// application.
#[derive(Debug, Clone)]
pub struct SaturationRow {
    /// Application name.
    pub workload: &'static str,
    /// `(compute power, required ISL rate)` points.
    pub requirements: Vec<(Watts, GigabitsPerSecond)>,
}

/// Fig. 8: ISL data rates required to saturate RTX 3090 payloads of the
/// given sizes, per application.
#[must_use]
pub fn isl_saturation_table(powers: &[Watts]) -> Vec<SaturationRow> {
    workloads::suite()
        .iter()
        .map(|w| SaturationRow {
            workload: w.name,
            requirements: powers
                .iter()
                .map(|&p| (p, saturation_rate(p, w.efficiency, DEFAULT_BITS_PER_PIXEL)))
                .collect(),
        })
        .collect()
}

/// Worst-case (most lightweight application) saturation rate for a budget.
#[must_use]
pub fn worst_case_isl(compute_power: Watts) -> GigabitsPerSecond {
    let lightest: Workload = workloads::most_lightweight();
    saturation_rate(compute_power, lightest.efficiency, DEFAULT_BITS_PER_PIXEL)
}

/// Representative-mix (geomean-efficiency) saturation rate for a budget.
#[must_use]
pub fn typical_isl(compute_power: Watts) -> GigabitsPerSecond {
    saturation_rate(
        compute_power,
        crate::design::typical_efficiency(),
        DEFAULT_BITS_PER_PIXEL,
    )
}

/// One Fig. 10 series: TCO vs. compute-energy-efficiency scalar for one
/// compression algorithm, relative to the uncompressed, scalar-1 design.
#[derive(Debug, Clone)]
pub struct CompressionSeries {
    /// Compression algorithm.
    pub compression: Compression,
    /// `(efficiency scalar, relative TCO)` points.
    pub points: Vec<(f64, f64)>,
}

/// Fig. 10: TCO vs. energy efficiency for a SµDC of `baseline_power` under
/// different compression algorithms.
///
/// The workload (pixel throughput) is held constant: an efficiency scalar
/// `s` shrinks compute power to `baseline/s`, while the ISL must still
/// carry the full pixel stream — compressed by the chosen algorithm. As
/// `s → ∞` the ISL dominates TCO, which is where compression's savings
/// saturate (the paper's 11.7 / 20.5 / 26.5 % asymptotes).
///
/// # Errors
///
/// Propagates [`SudcError`].
pub fn compression_impact(
    baseline_power: Watts,
    scalars: &[f64],
) -> Result<Vec<CompressionSeries>, SudcError> {
    let raw_isl = worst_case_isl(baseline_power);
    let baseline = tco_at(baseline_power, 1.0, raw_isl)?;
    Compression::all()
        .into_iter()
        .map(|algo| {
            let points = scalars
                .iter()
                .map(|&s| {
                    let tco = tco_at(baseline_power, s, algo.compressed_rate(raw_isl))?;
                    Ok((s, tco / baseline))
                })
                .collect::<Result<Vec<_>, SudcError>>()?;
            Ok(CompressionSeries {
                compression: algo,
                points,
            })
        })
        .collect()
}

fn tco_at(
    baseline_power: Watts,
    scalar: f64,
    isl: GigabitsPerSecond,
) -> Result<sudc_units::Usd, SudcError> {
    Ok(SuDcDesign::builder()
        .compute_power(baseline_power)
        .efficiency_factor(scalar)
        .isl_rate(isl)
        .try_build()?
        .try_tco()?
        .total())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isl_under_25gbps_costs_under_30_percent_at_500w() {
        // Paper: "a 500 W SµDC needs no more than 25 Gbit/s ISL ... which
        // corresponds to a less than 30% increase in TCO".
        let need = worst_case_isl(Watts::new(500.0));
        assert!(need.value() < 25.0);
        let curve = tco_vs_isl(Watts::new(500.0), &[need]).unwrap();
        assert!(curve[0].1 < 1.30, "TCO factor {}", curve[0].1);
        assert!(curve[0].1 > 1.02, "ISL must cost something: {}", curve[0].1);
    }

    #[test]
    fn bigger_sudcs_see_smaller_relative_isl_impact() {
        // Paper: 4 kW and 10 kW both see < 26% increase for worst-case ISLs.
        for kw in [4.0, 10.0] {
            let p = Watts::from_kilowatts(kw);
            let need = worst_case_isl(p);
            let curve = tco_vs_isl(p, &[need]).unwrap();
            assert!(curve[0].1 < 1.26, "{kw} kW: factor {}", curve[0].1);
        }
    }

    #[test]
    fn tco_increases_monotonically_with_isl() {
        let rates: Vec<GigabitsPerSecond> = [0.0, 10.0, 25.0, 50.0, 100.0]
            .iter()
            .map(|&r| GigabitsPerSecond::new(r))
            .collect();
        let curve = tco_vs_isl(Watts::from_kilowatts(4.0), &rates).unwrap();
        for pair in curve.windows(2) {
            assert!(pair[1].1 >= pair[0].1);
        }
    }

    #[test]
    fn saturation_table_covers_all_apps() {
        let table = isl_saturation_table(&[Watts::new(500.0), Watts::from_kilowatts(10.0)]);
        assert_eq!(table.len(), 10);
        for row in &table {
            assert!(
                row.requirements[1].1 > row.requirements[0].1,
                "{}",
                row.workload
            );
        }
    }

    #[test]
    fn compression_saves_a_few_percent_today() {
        // Paper Fig. 10: at today's efficiency (scalar 1), CCSDS < 3%,
        // JPEG2000 ~5%, neural ~8% TCO savings.
        let series = compression_impact(Watts::from_kilowatts(4.0), &[1.0]).unwrap();
        let saving = |algo: Compression| {
            1.0 - series
                .iter()
                .find(|s| s.compression == algo)
                .unwrap()
                .points[0]
                .1
        };
        assert!(saving(Compression::Ccsds121) < 0.05);
        assert!(saving(Compression::Ccsds121) > 0.0);
        assert!(saving(Compression::Jpeg2000Lossless) < 0.09);
        assert!(saving(Compression::NeuralQuasiLossless) < 0.14);
        assert!(saving(Compression::NeuralQuasiLossless) > saving(Compression::Jpeg2000Lossless));
        assert!(saving(Compression::Jpeg2000Lossless) > saving(Compression::Ccsds121));
    }

    #[test]
    fn compression_savings_grow_with_energy_efficiency() {
        // Paper Fig. 10: "asymptotically, the compression algorithms provide
        // 11.7%, 20.5%, and 26.5% decreases in TCO".
        let series = compression_impact(Watts::from_kilowatts(4.0), &[1.0, 1000.0]).unwrap();
        for s in &series {
            if s.compression == Compression::None {
                continue;
            }
            let today = s.points[0].1;
            let future = s.points[1].1;
            let none = series
                .iter()
                .find(|x| x.compression == Compression::None)
                .unwrap();
            let saving_today = 1.0 - today / none.points[0].1;
            let saving_future = 1.0 - future / none.points[1].1;
            assert!(
                saving_future > 1.5 * saving_today,
                "{}: {saving_today} -> {saving_future}",
                s.compression
            );
        }
    }
}
