//! On-board compression algorithms that shrink ISL capacity needs (Fig. 10).
//!
//! The paper evaluates three algorithms as upper bounds on TCO savings
//! (decompression power excluded):
//!
//! - **CCSDS 121** — the standard lossless space compressor (< 3 % TCO
//!   saving at today's compute efficiency);
//! - **lossless JPEG 2000** (5 %);
//! - **high-PSNR quasi-lossless neural compression** (8 %).

use sudc_units::GigabitsPerSecond;

/// Compression choices for EO imagery on the EO-satellite → SµDC path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Compression {
    /// No compression: raw sensor data crosses the ISL.
    #[default]
    None,
    /// CCSDS 121.0-B lossless (Rice) compression.
    Ccsds121,
    /// Lossless JPEG 2000.
    Jpeg2000Lossless,
    /// Learned quasi-lossless compression at high PSNR (Bacchus et al.).
    NeuralQuasiLossless,
}

impl Compression {
    /// Achieved compression ratio on multispectral EO imagery.
    ///
    /// Ratios follow the published ranges for each family: Rice-based CCSDS
    /// ~1.6:1 on raw imagery, lossless JPEG 2000 ~2.2:1, and learned
    /// quasi-lossless codecs ~4:1 at high PSNR.
    #[must_use]
    pub fn ratio(self) -> f64 {
        match self {
            Self::None => 1.0,
            Self::Ccsds121 => 1.6,
            Self::Jpeg2000Lossless => 2.2,
            Self::NeuralQuasiLossless => 4.0,
        }
    }

    /// ISL rate needed after compressing a raw stream of `raw` capacity.
    ///
    /// ```
    /// use sudc_comms::compression::Compression;
    /// use sudc_units::GigabitsPerSecond;
    ///
    /// let needed = Compression::Jpeg2000Lossless.compressed_rate(GigabitsPerSecond::new(22.0));
    /// assert_eq!(needed, GigabitsPerSecond::new(10.0));
    /// ```
    #[must_use]
    pub fn compressed_rate(self, raw: GigabitsPerSecond) -> GigabitsPerSecond {
        raw / self.ratio()
    }

    /// Data volume after compressing `raw` gigabits.
    #[must_use]
    pub fn compressed_volume(self, raw: sudc_units::Gigabits) -> sudc_units::Gigabits {
        raw / self.ratio()
    }

    /// All modeled algorithms, in Fig. 10's order.
    #[must_use]
    pub fn all() -> [Self; 4] {
        [
            Self::None,
            Self::Ccsds121,
            Self::Jpeg2000Lossless,
            Self::NeuralQuasiLossless,
        ]
    }
}

impl core::fmt::Display for Compression {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match self {
            Self::None => "uncompressed",
            Self::Ccsds121 => "CCSDS 121",
            Self::Jpeg2000Lossless => "lossless JPEG 2000",
            Self::NeuralQuasiLossless => "neural quasi-lossless",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ratios_are_ordered_by_sophistication() {
        assert!(Compression::None.ratio() < Compression::Ccsds121.ratio());
        assert!(Compression::Ccsds121.ratio() < Compression::Jpeg2000Lossless.ratio());
        assert!(Compression::Jpeg2000Lossless.ratio() < Compression::NeuralQuasiLossless.ratio());
    }

    #[test]
    fn display_names_are_human_readable() {
        assert_eq!(Compression::Ccsds121.to_string(), "CCSDS 121");
    }

    #[test]
    fn compressed_volume_matches_rate_semantics() {
        let v = Compression::Ccsds121.compressed_volume(sudc_units::Gigabits::new(16.0));
        assert_eq!(v, sudc_units::Gigabits::new(10.0));
    }

    #[test]
    fn default_is_uncompressed() {
        assert_eq!(Compression::default(), Compression::None);
    }

    proptest! {
        #[test]
        fn compression_never_increases_rate(raw in 0.0..1000.0f64) {
            let raw = GigabitsPerSecond::new(raw);
            for algo in Compression::all() {
                prop_assert!(algo.compressed_rate(raw) <= raw);
            }
        }
    }
}
