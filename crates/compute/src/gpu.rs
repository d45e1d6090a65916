//! Batch-size-aware GPU energy model.
//!
//! The paper's methodology (§IV-B): "To find the most energy efficient batch
//! sizes, we ran inference 100 times on different batch sizes, and used
//! Python NVML to measure the average GPU utilization and power
//! consumption." We reproduce the *shape* of that measurement with a
//! standard analytic model: per-image energy falls with batch size as fixed
//! launch/idle overheads amortize, approaching an asymptote.

use sudc_errors::{Diagnostics, SudcError};
use sudc_units::{Joules, Seconds};

use crate::workloads::Workload;

/// An analytic per-application GPU energy model fitted to a Table III row.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuEnergyModel {
    /// Asymptotic (large-batch) energy per image.
    pub asymptotic_energy: Joules,
    /// Fixed overhead energy per batch (kernel launches, host sync).
    pub batch_overhead: Joules,
    /// Batch size at which Table III's numbers were measured.
    pub reference_batch: u32,
}

impl GpuEnergyModel {
    /// Fits the model to a workload's measured operating point, assuming the
    /// measurement used the energy-minimizing batch size (so the measured
    /// energy sits near the asymptote, with a 10 % residual overhead).
    #[must_use]
    pub fn fit(workload: &Workload) -> Self {
        let batch_energy: Joules = workload.gpu_power * workload.inference_time;
        let reference_batch = 16;
        let per_image = batch_energy / f64::from(reference_batch);
        Self {
            asymptotic_energy: per_image * 0.9,
            batch_overhead: per_image * 0.1 * f64::from(reference_batch),
            reference_batch,
        }
    }

    /// Energy per image at the given batch size.
    ///
    /// # Errors
    ///
    /// Returns a structured error naming `batch` if it is zero.
    pub fn energy_per_image(&self, batch: u32) -> Result<Joules, SudcError> {
        let mut d = Diagnostics::new("GpuEnergyModel::energy_per_image");
        d.positive_count("batch", u64::from(batch));
        d.finish()?;
        Ok(self.energy_at(batch))
    }

    /// [`Self::energy_per_image`] for a batch known to be positive.
    fn energy_at(&self, batch: u32) -> Joules {
        self.asymptotic_energy + self.batch_overhead / f64::from(batch)
    }

    /// Smallest batch size whose per-image energy is within `tolerance`
    /// (e.g. 0.05 = 5 %) of the asymptote — the "energy-minimizing batch
    /// size" the paper waits to accumulate.
    #[must_use]
    pub fn energy_minimizing_batch(&self, tolerance: f64) -> u32 {
        let mut batch = 1;
        let limit = self.asymptotic_energy * (1.0 + tolerance);
        while self.energy_at(batch) > limit && batch < 1 << 16 {
            batch *= 2;
        }
        batch
    }

    /// Time to accumulate `batch` images at `images_per_minute` (the
    /// batching latency the paper accepts: "it may take up to several
    /// minutes for an energy-minimizing batch size to be reached").
    ///
    /// # Errors
    ///
    /// Returns a structured error naming `images_per_minute` unless it is
    /// positive and finite and the accumulation time it gives is finite
    /// (a subnormal rate would take forever).
    pub fn batch_accumulation_time(
        batch: u32,
        images_per_minute: f64,
    ) -> Result<Seconds, SudcError> {
        let seconds = f64::from(batch) / images_per_minute * 60.0;
        let mut d = Diagnostics::new("GpuEnergyModel::batch_accumulation_time");
        if d.positive("images_per_minute", images_per_minute) {
            d.ensure(
                seconds.is_finite(),
                "images_per_minute",
                images_per_minute,
                format_args!("a rate at which {batch} images accumulate in finite time"),
            );
        }
        d.finish()?;
        Ok(Seconds::new(seconds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::by_name;
    use proptest::prelude::*;

    fn model() -> GpuEnergyModel {
        GpuEnergyModel::fit(&by_name("Flood Detection").unwrap())
    }

    #[test]
    fn energy_falls_with_batch_size() {
        let m = model();
        assert!(m.energy_per_image(1).unwrap() > m.energy_per_image(4).unwrap());
        assert!(m.energy_per_image(4).unwrap() > m.energy_per_image(64).unwrap());
    }

    #[test]
    fn energy_approaches_asymptote() {
        let m = model();
        let e = m.energy_per_image(1 << 14).unwrap();
        assert!((e / m.asymptotic_energy - 1.0) < 0.001);
    }

    #[test]
    fn minimizing_batch_is_found() {
        let m = model();
        let b = m.energy_minimizing_batch(0.05);
        assert!(b >= 16, "needs a real batch, got {b}");
        assert!(m.energy_per_image(b).unwrap() <= m.asymptotic_energy * 1.05);
    }

    #[test]
    fn batch_accumulation_takes_minutes_at_six_images_per_minute() {
        // Paper: "it may take up to several minutes for an energy-minimizing
        // batch size to be reached" at ~6 images/min.
        let m = model();
        let b = m.energy_minimizing_batch(0.05);
        let t = GpuEnergyModel::batch_accumulation_time(b, 6.0).unwrap();
        assert!(t.value() > 60.0, "accumulation {t}");
        assert!(t.value() < 3600.0, "but under an hour: {t}");
    }

    #[test]
    fn degenerate_inputs_are_errors_naming_their_field() {
        let err = model().energy_per_image(0).unwrap_err();
        assert_eq!(err.violations()[0].path, "batch", "{err}");
        for rate in [0.0, -6.0, f64::NAN, f64::MIN_POSITIVE] {
            let err = GpuEnergyModel::batch_accumulation_time(16, rate).unwrap_err();
            assert_eq!(err.violations()[0].path, "images_per_minute", "{err}");
        }
    }

    proptest! {
        #[test]
        fn energy_monotone_nonincreasing_in_batch(b in 1u32..10_000) {
            let m = model();
            prop_assert!(m.energy_per_image(b + 1).unwrap() <= m.energy_per_image(b).unwrap());
        }
    }
}
