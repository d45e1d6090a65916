//! Numeric precision modes and their energy/accuracy trade.
//!
//! The paper's efficiency story leans on low precision: the A100/H100
//! advantage comes from TF32 tensor cores, and the accelerator limit study
//! assumes 16-bit arithmetic. This module makes the precision axis explicit
//! so payload designers can trade arithmetic energy against accuracy
//! retention.

/// A numeric precision for inference arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// IEEE single precision (the RTX 3090 baseline measurements).
    Fp32,
    /// NVIDIA TF32 tensor-core format (FP32 range, 10-bit mantissa).
    Tf32,
    /// Half precision — the accelerator DSE's working format.
    #[default]
    Fp16,
    /// 8-bit integer with per-channel quantization.
    Int8,
}

impl Precision {
    /// All modes, highest precision first.
    #[must_use]
    pub fn all() -> [Self; 4] {
        [Self::Fp32, Self::Tf32, Self::Fp16, Self::Int8]
    }

    /// MAC energy relative to an FP32 MAC in the same technology node
    /// (quadratic-in-mantissa multiplier energy dominates).
    #[must_use]
    pub fn mac_energy_factor(self) -> f64 {
        match self {
            Self::Fp32 => 1.0,
            Self::Tf32 => 0.45,
            Self::Fp16 => 0.30,
            Self::Int8 => 0.12,
        }
    }

    /// Operand width in bits (drives buffer/DRAM traffic).
    #[must_use]
    pub fn bits(self) -> u32 {
        match self {
            Self::Fp32 | Self::Tf32 => 32,
            Self::Fp16 => 16,
            Self::Int8 => 8,
        }
    }

    /// Typical ImageNet top-1 accuracy retained after post-training
    /// conversion, relative to FP32.
    #[must_use]
    pub fn accuracy_retention(self) -> f64 {
        match self {
            Self::Fp32 => 1.0,
            Self::Tf32 => 0.9995,
            Self::Fp16 => 0.999,
            Self::Int8 => 0.99,
        }
    }
}

impl core::fmt::Display for Precision {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Self::Fp32 => "FP32",
            Self::Tf32 => "TF32",
            Self::Fp16 => "FP16",
            Self::Int8 => "INT8",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_precision_is_cheaper() {
        let all = Precision::all();
        for pair in all.windows(2) {
            assert!(pair[1].mac_energy_factor() < pair[0].mac_energy_factor() + 1e-12);
            assert!(pair[1].bits() <= pair[0].bits());
        }
    }

    #[test]
    fn accuracy_retention_degrades_gracefully() {
        for p in Precision::all() {
            assert!(p.accuracy_retention() > 0.98);
            assert!(p.accuracy_retention() <= 1.0);
        }
        assert!(Precision::Int8.accuracy_retention() < Precision::Fp16.accuracy_retention());
    }

    #[test]
    fn display_names() {
        assert_eq!(Precision::Int8.to_string(), "INT8");
    }
}
