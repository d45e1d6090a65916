//! Processing-hardware catalog (paper Table II).
//!
//! Price, TDP, and TFLOPS for several GPGPU architectures, plus radiation-
//! hardened processors for comparison. TID data for the rad-hard parts is
//! from NASA's COTS GPU qualification report cited by the paper.

use sudc_units::{KradSi, Teraflops, Usd, Watts};

/// Hardware family, which determines the role a part can play in a SµDC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HardwareKind {
    /// Commodity consumer GPU (e.g. RTX 3090).
    CommodityGpu,
    /// Datacenter GPU with tensor cores (e.g. A100/H100).
    DatacenterGpu,
    /// Integrated/embedded GPU (e.g. Radeon 780M).
    EmbeddedGpu,
    /// Radiation-hardened processor or FPGA.
    RadHard,
}

/// One catalog entry: a processing architecture a SµDC could fly.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Family.
    pub kind: HardwareKind,
    /// Minimum TID tolerated before failure.
    pub tid_tolerance: KradSi,
    /// Unit price (`None` where the paper lists N/A).
    pub price: Option<Usd>,
    /// Thermal design power (`None` where the paper lists N/A).
    pub tdp: Option<Watts>,
    /// IEEE FP32 throughput.
    pub fp32: Teraflops,
    /// TF32 tensor-core throughput, where the part has tensor cores.
    pub tf32: Option<Teraflops>,
}

impl HardwareSpec {
    /// Best available throughput: TF32 tensor cores if present, else FP32.
    #[must_use]
    pub fn peak_flops(&self) -> Teraflops {
        self.tf32.unwrap_or(self.fp32)
    }

    /// Peak TFLOPS per dollar (the metric terrestrial buyers optimize).
    ///
    /// Returns `None` if the price is unknown.
    ///
    /// Kept without a non-test caller: `tests/paper_claims.rs` checks the
    /// paper's FLOPs-per-dollar contrast (the H100 below the RTX 3090) with it.
    #[must_use]
    pub fn flops_per_dollar(&self) -> Option<f64> {
        self.price.map(|p| self.peak_flops().value() / p.value())
    }
}

/// NVIDIA RTX 3090 — the paper's commodity GPU baseline.
#[must_use]
pub fn rtx_3090() -> HardwareSpec {
    HardwareSpec {
        name: "RTX 3090",
        kind: HardwareKind::CommodityGpu,
        tid_tolerance: KradSi::new(2.0),
        price: Some(Usd::new(1690.0)),
        tdp: Some(Watts::new(350.0)),
        fp32: Teraflops::new(35.58),
        tf32: None,
    }
}

/// NVIDIA A100 (tensor-core datacenter GPU).
#[must_use]
pub fn a100() -> HardwareSpec {
    HardwareSpec {
        name: "A100",
        kind: HardwareKind::DatacenterGpu,
        tid_tolerance: KradSi::new(2.0),
        price: Some(Usd::new(17_210.0)),
        tdp: Some(Watts::new(300.0)),
        fp32: Teraflops::new(19.5),
        tf32: Some(Teraflops::new(156.0)),
    }
}

/// NVIDIA H100 (tensor-core datacenter GPU).
#[must_use]
pub fn h100() -> HardwareSpec {
    HardwareSpec {
        name: "H100",
        kind: HardwareKind::DatacenterGpu,
        tid_tolerance: KradSi::new(2.0),
        price: Some(Usd::new(43_989.0)),
        tdp: Some(Watts::new(350.0)),
        fp32: Teraflops::new(51.0),
        tf32: Some(Teraflops::new(756.0)),
    }
}

/// AMD Radeon 780M (integrated GPU).
#[must_use]
pub fn radeon_780m() -> HardwareSpec {
    HardwareSpec {
        name: "Radeon 780M",
        kind: HardwareKind::EmbeddedGpu,
        tid_tolerance: KradSi::new(2.0),
        price: None,
        tdp: Some(Watts::new(15.0)),
        fp32: Teraflops::new(8.29),
        tf32: None,
    }
}

/// BAE RAD750 — the canonical rad-hard flight computer.
#[must_use]
pub fn rad750() -> HardwareSpec {
    HardwareSpec {
        name: "BAE RAD750",
        kind: HardwareKind::RadHard,
        tid_tolerance: KradSi::new(200.0),
        price: Some(Usd::new(200_000.0)),
        tdp: Some(Watts::new(5.0)),
        fp32: Teraflops::new(0.00027),
        tf32: None,
    }
}

/// Rad-hard MPC8548E PowerPC.
#[must_use]
pub fn mpc8548e() -> HardwareSpec {
    HardwareSpec {
        name: "MPC8548E",
        kind: HardwareKind::RadHard,
        tid_tolerance: KradSi::new(100.0),
        price: Some(Usd::new(200_000.0)),
        tdp: Some(Watts::new(5.0)),
        fp32: Teraflops::new(0.008),
        tf32: None,
    }
}

/// Xilinx Virtex-5QV rad-hard FPGA.
#[must_use]
pub fn virtex_5qv() -> HardwareSpec {
    HardwareSpec {
        name: "Virtex-5QV",
        kind: HardwareKind::RadHard,
        tid_tolerance: KradSi::new(1000.0),
        price: Some(Usd::new(75_000.0)),
        tdp: Some(Watts::new(15.0)),
        fp32: Teraflops::new(0.08),
        tf32: None,
    }
}

/// Xilinx Kintex UltraScale XQR rad-tolerant FPGA (FP32 estimated from DSP
/// count, as in the paper).
#[must_use]
pub fn kintex_ultrascale_xqr() -> HardwareSpec {
    HardwareSpec {
        name: "Kintex UltraScale XQR",
        kind: HardwareKind::RadHard,
        tid_tolerance: KradSi::new(100.0),
        price: None,
        tdp: None,
        fp32: Teraflops::new(0.65),
        tf32: None,
    }
}

/// The full Table II catalog, in the paper's row order.
#[must_use]
pub fn catalog() -> Vec<HardwareSpec> {
    vec![
        rtx_3090(),
        a100(),
        h100(),
        radeon_780m(),
        rad750(),
        mpc8548e(),
        virtex_5qv(),
        kintex_ultrascale_xqr(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_all_table_ii_rows() {
        assert_eq!(catalog().len(), 8);
    }

    #[test]
    fn a100_and_h100_flops_per_watt_advantage_over_3090() {
        // Paper: "the A100 and H100 have max FLOPs/W advantage of 5.1x and
        // 21.2x, respectively, over RTX 3090".
        let flops_per_watt = |hw: HardwareSpec| hw.peak_flops().value() / hw.tdp.unwrap().value();
        let base = flops_per_watt(rtx_3090());
        let a = flops_per_watt(a100()) / base;
        let h = flops_per_watt(h100()) / base;
        assert!((a - 5.1).abs() < 0.1, "A100 advantage {a}");
        assert!((h - 21.2).abs() < 0.3, "H100 advantage {h}");
    }

    #[test]
    fn a100_and_h100_flops_per_dollar_disadvantage() {
        // Paper: "their max FLOPs/$ are worse - 0.50x and 0.82x than the
        // RTX 3090".
        let base = rtx_3090().flops_per_dollar().unwrap();
        let a = a100().flops_per_dollar().unwrap() / base;
        let h = h100().flops_per_dollar().unwrap() / base;
        assert!((a - 0.43).abs() < 0.1, "A100 ratio {a}");
        assert!((h - 0.82).abs() < 0.05, "H100 ratio {h}");
    }

    #[test]
    fn virtex_is_27x_less_efficient_than_h100_fp32() {
        // Paper §VIII: "the rad-hard Virtex-5QV FPGA is 27x less energy-
        // efficient than H100 in an IEEE FP32 comparison ... 405x less if
        // the H100 utilizes its tensor cores".
        let h100_fp32 = h100().fp32.value() / h100().tdp.unwrap().value();
        let virtex = virtex_5qv().fp32.value() / virtex_5qv().tdp.unwrap().value();
        let ratio = h100_fp32 / virtex;
        assert!((ratio - 27.0).abs() < 1.0, "FP32 ratio {ratio}");
        let h100_tf32 = h100().peak_flops().value() / h100().tdp.unwrap().value();
        let tf_ratio = h100_tf32 / virtex;
        assert!((tf_ratio - 405.0).abs() < 10.0, "TF32 ratio {tf_ratio}");
    }

    #[test]
    fn rad_hard_parts_tolerate_more_dose() {
        for part in [rad750(), mpc8548e(), virtex_5qv(), kintex_ultrascale_xqr()] {
            assert!(part.tid_tolerance >= KradSi::new(100.0), "{}", part.name);
        }
        assert!(rtx_3090().tid_tolerance < KradSi::new(100.0));
    }

    #[test]
    fn peak_flops_prefers_tensor_cores() {
        assert_eq!(a100().peak_flops(), Teraflops::new(156.0));
        assert_eq!(rtx_3090().peak_flops(), Teraflops::new(35.58));
    }

    #[test]
    fn missing_data_yields_none_not_garbage() {
        assert!(radeon_780m().flops_per_dollar().is_none());
        assert!(kintex_ultrascale_xqr().tdp.is_none());
    }
}
