//! Community calibration: fit the cost model's CERs from observed
//! (driver, cost) data — the workflow an SSCM licensee or mission office
//! would use to replace the shipped synthetic coefficients with real ones.
//!
//! ```text
//! cargo run --example cer_calibration
//! ```

use space_udc::sscm::calibration::{sample_cer, try_fit_cer, Observation};
use space_udc::sscm::sensitivity::try_tornado;
use space_udc::sscm::subsystems::SubsystemCers;
use space_udc::sscm::SscmInputs;
use space_udc::units::Usd;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Round-trip sanity: the fitter recovers a shipped CER exactly.
    let cers = SubsystemCers::sudc_default();
    let obs = sample_cer(&cers.power.re, &[600.0, 1300.0, 3000.0, 9000.0, 27_000.0]);
    let fit = try_fit_cer(&obs)?;
    println!("== Round-trip on the shipped power-subsystem RE CER ==");
    println!(
        "  true exponent {:.3}  fitted {:.3}  (R² = {:.6})",
        cers.power.re.exponent, fit.cer.exponent, fit.r_squared
    );

    // 2. "Community data": a noisy survey of six imaginary programs.
    println!("\n== Fitting a structure CER from (noisy) program data ==");
    let survey = [
        (45.0, 1.1e6),
        (85.0, 1.9e6),
        (120.0, 2.1e6),
        (200.0, 3.2e6),
        (310.0, 3.9e6),
        (520.0, 5.8e6),
    ];
    let observations: Vec<Observation> = survey
        .iter()
        .map(|&(driver, cost)| Observation {
            driver,
            cost: Usd::new(cost),
        })
        .collect();
    let fit = try_fit_cer(&observations)?;
    println!(
        "  fitted: {:.2} $M at {:.0} kg reference, exponent {:.3}, R² = {:.3}",
        fit.cer.base.as_millions(),
        fit.cer.reference,
        fit.cer.exponent,
        fit.r_squared
    );
    for &(driver, cost) in &survey {
        println!(
            "  {driver:>6.0} kg: observed {:>4.1} $M  predicted {:>4.1} $M",
            cost / 1e6,
            fit.cer.evaluate(driver).as_millions()
        );
    }

    // 3. Which coefficients matter? The tornado tells a calibrator where to
    //    spend their data-collection effort.
    println!("\n== Where calibration effort pays off (±30% tornado) ==");
    for bar in try_tornado(&cers, &SscmInputs::reference(), 0.3)?
        .iter()
        .take(5)
    {
        println!(
            "  {:18} swing {:>5.1}% of first-unit cost",
            bar.driver.to_string(),
            100.0 * bar.relative_swing
        );
    }
    Ok(())
}
