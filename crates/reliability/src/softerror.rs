//! Soft-error impact on ImageNet classification (paper §VIII, Fig. 27).
//!
//! The paper's pessimistic model: *every* soft error that lands in a
//! network's state produces an incorrect inference, and soft errors never
//! accidentally correct one. Under those assumptions the accuracy at a
//! per-bit fault probability `ε` is
//! `accuracy(ε) = base_accuracy × (1 − ε)^bits` — a survival function in
//! the network's parameter-bit count. Because real ANNs mask the vast
//! majority of single-bit upsets, this is a hard lower bound, which is why
//! a 20 % software-hardening overhead is conservative.

use sudc_compute::networks::NetworkId;
use sudc_errors::{Diagnostics, SudcError};

/// Bits per parameter (FP16 deployment).
const BITS_PER_PARAM: f64 = 16.0;

/// An ImageNet classifier evaluated under soft errors.
#[derive(Debug, Clone)]
pub struct ImageNetModel {
    /// The underlying network.
    pub network: NetworkId,
    /// Published fault-free ImageNet top-1 accuracy.
    pub base_accuracy: f64,
    /// Parameter count.
    pub parameters: u64,
}

/// The classification networks Fig. 27 evaluates.
#[must_use]
pub fn imagenet_suite() -> Vec<ImageNetModel> {
    let classifiers = [
        (NetworkId::ResNet50, 0.761),
        (NetworkId::Vgg16, 0.715),
        (NetworkId::DenseNet121, 0.744),
        (NetworkId::InceptionV3, 0.779),
    ];
    classifiers
        .into_iter()
        .map(|(network, base_accuracy)| ImageNetModel {
            network,
            base_accuracy,
            parameters: network.network().total_weights(),
        })
        .collect()
}

impl ImageNetModel {
    /// Checks the model's own parameters: the base accuracy must be a
    /// probability and the parameter count non-zero.
    ///
    /// # Errors
    ///
    /// Returns a structured error naming every invalid field.
    ///
    /// Kept without a non-test caller: `tests/panic_freedom.rs` checks that it
    /// flags exactly the invalid models.
    pub fn try_validate(&self) -> Result<(), SudcError> {
        let mut d = Diagnostics::new("ImageNetModel");
        d.unit_interval("base_accuracy", self.base_accuracy);
        d.positive_count("parameters", self.parameters);
        d.finish()
    }

    /// Probability that an inference sees at least one corrupted bit at
    /// per-bit-per-inference fault probability `epsilon`.
    ///
    /// # Errors
    ///
    /// Returns a structured error if `epsilon` is not a probability in
    /// `[0, 1]`.
    pub fn try_corruption_probability(&self, epsilon: f64) -> Result<f64, SudcError> {
        if !(epsilon.is_finite() && (0.0..=1.0).contains(&epsilon)) {
            return Err(SudcError::single(
                "ImageNetModel::corruption_probability",
                "epsilon",
                epsilon,
                "epsilon must be a probability in [0, 1]",
            ));
        }
        let bits = self.parameters as f64 * BITS_PER_PARAM;
        // powf underflow can leave a tiny negative residue at epsilon ≈ 1;
        // clamp so the result is always a probability.
        Ok((1.0 - (1.0 - epsilon).powf(bits)).clamp(0.0, 1.0))
    }

    /// Pessimistic accuracy under faults: every corrupted inference is
    /// wrong.
    ///
    /// # Errors
    ///
    /// Returns a structured error if `epsilon` is not a probability in
    /// `[0, 1]`.
    pub fn try_accuracy_under_faults(&self, epsilon: f64) -> Result<f64, SudcError> {
        Ok(self.base_accuracy * (1.0 - self.try_corruption_probability(epsilon)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn suite_covers_the_classifiers() {
        let suite = imagenet_suite();
        assert_eq!(suite.len(), 4);
        for m in &suite {
            assert!(m.base_accuracy > 0.7 && m.base_accuracy < 0.8);
            assert!(m.parameters > 1_000_000);
        }
    }

    #[test]
    fn zero_fault_rate_preserves_accuracy() {
        for m in imagenet_suite() {
            assert!((m.try_accuracy_under_faults(0.0).unwrap() - m.base_accuracy).abs() < 1e-12);
        }
    }

    #[test]
    fn bigger_networks_are_more_vulnerable() {
        // VGG-16's ~138M parameters absorb more upsets than ResNet-50's 25M.
        let suite = imagenet_suite();
        let vgg = suite
            .iter()
            .find(|m| m.network == NetworkId::Vgg16)
            .unwrap();
        let resnet = suite
            .iter()
            .find(|m| m.network == NetworkId::ResNet50)
            .unwrap();
        assert!(vgg.parameters > resnet.parameters);
        let retained =
            |m: &ImageNetModel| m.try_accuracy_under_faults(1e-10).unwrap() / m.base_accuracy;
        assert!(retained(vgg) < retained(resnet));
    }

    #[test]
    fn accuracy_collapses_at_high_fault_rates() {
        for m in imagenet_suite() {
            assert!(m.try_accuracy_under_faults(1e-6).unwrap() < 0.01 * m.base_accuracy);
        }
    }

    #[test]
    fn epsilon_zero_means_no_corruption() {
        for m in imagenet_suite() {
            assert_eq!(m.try_corruption_probability(0.0).unwrap(), 0.0);
            assert_eq!(m.try_accuracy_under_faults(0.0).unwrap(), m.base_accuracy);
        }
    }

    #[test]
    fn epsilon_one_corrupts_everything() {
        for m in imagenet_suite() {
            assert_eq!(m.try_corruption_probability(1.0).unwrap(), 1.0);
            assert_eq!(m.try_accuracy_under_faults(1.0).unwrap(), 0.0);
        }
    }

    #[test]
    fn corruption_probability_is_always_a_probability() {
        // Including values where (1 - eps)^bits underflows or rounds.
        let m = &imagenet_suite()[0];
        for eps in [0.0, 1e-300, 1e-12, 1e-9, 1e-6, 0.1, 0.5, 1.0 - 1e-16, 1.0] {
            let p = m.try_corruption_probability(eps).unwrap();
            assert!((0.0..=1.0).contains(&p), "eps {eps} -> p {p}");
        }
    }

    #[test]
    fn invalid_epsilon_is_a_structured_error() {
        let m = &imagenet_suite()[0];
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = m.try_corruption_probability(bad).unwrap_err();
            assert_eq!(err.violations().len(), 1);
            assert_eq!(err.violations()[0].path, "epsilon");
            assert!(m.try_accuracy_under_faults(bad).is_err());
        }
    }

    #[test]
    fn out_of_range_epsilon_is_rejected() {
        let err = imagenet_suite()[0]
            .try_corruption_probability(1.5)
            .unwrap_err();
        assert!(err.to_string().contains("epsilon"), "{err}");
    }

    #[test]
    fn suite_models_validate() {
        for m in imagenet_suite() {
            m.try_validate().unwrap();
        }
        let bad = ImageNetModel {
            network: NetworkId::ResNet50,
            base_accuracy: 1.5,
            parameters: 0,
        };
        assert_eq!(bad.try_validate().unwrap_err().violations().len(), 2);
    }

    #[test]
    fn corruption_probability_grows_with_parameter_count() {
        // Strict monotonicity: doubling the parameter count always raises
        // the chance an inference sees a corrupted bit.
        let mut m = imagenet_suite()[0].clone();
        let mut prev = m.try_corruption_probability(1e-11).unwrap();
        for _ in 0..8 {
            m.parameters *= 2;
            let next = m.try_corruption_probability(1e-11).unwrap();
            assert!(next > prev, "params {}: {next} !> {prev}", m.parameters);
            prev = next;
        }
    }

    proptest! {
        #[test]
        fn accuracy_nonincreasing_in_fault_rate(
            e1 in 0.0..1e-8f64,
            e2 in 0.0..1e-8f64,
        ) {
            let m = &imagenet_suite()[0];
            let (lo, hi) = if e1 <= e2 { (e1, e2) } else { (e2, e1) };
            prop_assert!(m.try_accuracy_under_faults(hi).unwrap() <= m.try_accuracy_under_faults(lo).unwrap() + 1e-12);
        }
    }
}
