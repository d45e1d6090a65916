//! Accelerator configurations and the paper's 7 168-point design space.
//!
//! "Dimensions in the design space exploration are the length of the PE grid
//! in x and y dimensions and the size of input feature, weight, and
//! accumulation buffers. A total of 7168 designs were evaluated." We sweep
//! 7 × 4 PE-grid shapes and 8 × 8 × 4 buffer sizings: 7·4·8·8·4 = 7 168.

use sudc_errors::{Diagnostics, SudcError};

/// PE-grid x-dimension options.
pub const PE_X_OPTIONS: [u32; 7] = [4, 8, 12, 16, 20, 24, 28];
/// PE-grid y-dimension options.
pub const PE_Y_OPTIONS: [u32; 4] = [8, 16, 32, 64];
/// Input-feature buffer sizes, KiB.
pub const IFMAP_KIB_OPTIONS: [u32; 8] = [8, 16, 24, 32, 48, 64, 96, 128];
/// Weight buffer sizes, KiB.
pub const WEIGHT_KIB_OPTIONS: [u32; 8] = [8, 16, 24, 32, 48, 64, 96, 128];
/// Accumulation (psum) buffer sizes, KiB.
pub const PSUM_KIB_OPTIONS: [u32; 4] = [8, 16, 32, 64];

/// One Eyeriss-like row-stationary accelerator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AcceleratorConfig {
    /// PE-grid width.
    pub pe_x: u32,
    /// PE-grid height.
    pub pe_y: u32,
    /// Input-feature global buffer, KiB.
    pub ifmap_kib: u32,
    /// Weight global buffer, KiB.
    pub weight_kib: u32,
    /// Accumulation global buffer, KiB.
    pub psum_kib: u32,
}

impl AcceleratorConfig {
    /// Total PE count.
    #[must_use]
    pub fn pes(self) -> u32 {
        self.pe_x * self.pe_y
    }

    /// Total on-chip buffering, KiB.
    #[must_use]
    pub fn total_buffer_kib(self) -> u32 {
        self.ifmap_kib + self.weight_kib + self.psum_kib
    }

    /// Validates the configuration for use in the cost model.
    ///
    /// Every dimension must be a positive count: a zero PE axis makes the
    /// cycle count infinite, and a zero psum buffer makes the accumulation
    /// spill factor infinite — both would silently poison every geomean
    /// they touch instead of failing loudly.
    ///
    /// # Errors
    /// Returns a [`SudcError`] listing every zero dimension.
    pub fn try_validate(self) -> Result<Self, SudcError> {
        let mut d = Diagnostics::new("AcceleratorConfig");
        d.positive_count("pe_x", u64::from(self.pe_x));
        d.positive_count("pe_y", u64::from(self.pe_y));
        d.positive_count("ifmap_kib", u64::from(self.ifmap_kib));
        d.positive_count("weight_kib", u64::from(self.weight_kib));
        d.positive_count("psum_kib", u64::from(self.psum_kib));
        d.into_result(self)
    }

    /// A mid-sized reference design (16×16 PEs, 64/64/32 KiB buffers).
    ///
    /// Kept without a non-test caller: `tests/panic_freedom.rs` builds its
    /// malformed DSE sweeps around it.
    #[must_use]
    pub fn reference() -> Self {
        Self {
            pe_x: 16,
            pe_y: 16,
            ifmap_kib: 64,
            weight_kib: 64,
            psum_kib: 32,
        }
    }
}

impl core::fmt::Display for AcceleratorConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}x{} PEs, {}+{}+{} KiB",
            self.pe_x, self.pe_y, self.ifmap_kib, self.weight_kib, self.psum_kib
        )
    }
}

/// Enumerates the full 7 168-design space in a deterministic order.
#[must_use]
pub fn design_space() -> Vec<AcceleratorConfig> {
    let mut space = Vec::with_capacity(PE_X_OPTIONS.len() * PE_Y_OPTIONS.len() * 8 * 8 * 4);
    for &pe_x in &PE_X_OPTIONS {
        for &pe_y in &PE_Y_OPTIONS {
            for &ifmap_kib in &IFMAP_KIB_OPTIONS {
                for &weight_kib in &WEIGHT_KIB_OPTIONS {
                    for &psum_kib in &PSUM_KIB_OPTIONS {
                        space.push(AcceleratorConfig {
                            pe_x,
                            pe_y,
                            ifmap_kib,
                            weight_kib,
                            psum_kib,
                        });
                    }
                }
            }
        }
    }
    space
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn space_has_exactly_7168_designs() {
        assert_eq!(design_space().len(), 7168);
    }

    #[test]
    fn designs_are_unique() {
        let set: HashSet<_> = design_space().into_iter().collect();
        assert_eq!(set.len(), 7168);
    }

    #[test]
    fn reference_design_is_in_the_space() {
        assert!(design_space().contains(&AcceleratorConfig::reference()));
    }

    #[test]
    fn pes_and_buffers_accumulate() {
        let c = AcceleratorConfig::reference();
        assert_eq!(c.pes(), 256);
        assert_eq!(c.total_buffer_kib(), 160);
    }

    #[test]
    fn validation_rejects_zero_dimensions() {
        assert!(AcceleratorConfig::reference().try_validate().is_ok());
        for config in design_space() {
            assert!(config.try_validate().is_ok());
        }
        let bad = AcceleratorConfig {
            pe_x: 0,
            psum_kib: 0,
            ..AcceleratorConfig::reference()
        };
        let err = bad.try_validate().unwrap_err();
        assert_eq!(err.violations().len(), 2);
        assert!(err.to_string().contains("pe_x"));
        assert!(err.to_string().contains("psum_kib"));
    }

    #[test]
    fn display_is_informative() {
        let s = AcceleratorConfig::reference().to_string();
        assert!(s.contains("16x16"));
        assert!(s.contains("KiB"));
    }
}
