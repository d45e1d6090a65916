//! Per-access energy table — the Accelergy role in the paper's framework.
//!
//! Values follow the ordering of the well-known Eyeriss energy hierarchy
//! (Chen et al.): a register-file access is cheap, a NoC hop and a
//! global-buffer access cost a few × more, and DRAM costs orders of
//! magnitude more than a 16-bit MAC. Buffer access energy grows with
//! capacity (CACTI-style ~√size scaling).

/// Energy per elementary action, picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyTable {
    /// One 16-bit multiply-accumulate.
    pub mac_pj: f64,
    /// One PE register-file access.
    pub rf_pj: f64,
    /// One on-chip network hop (PE-to-PE / buffer-to-PE).
    pub noc_pj: f64,
    /// One global-buffer access at the reference capacity.
    pub glb_base_pj: f64,
    /// Reference global-buffer capacity for `glb_base_pj`, KiB.
    pub glb_reference_kib: f64,
    /// One DRAM access per 16-bit word.
    pub dram_pj: f64,
    /// Static/leakage energy per PE per cycle.
    pub static_pe_pj: f64,
    /// SRAM leakage per KiB of on-chip buffering per cycle. Retention
    /// power is proportional to capacity, so a design provisioned with
    /// large buffers pays this on *every* cycle of *every* layer — the
    /// physical reason a per-layer design (small buffers where the
    /// working set is small) beats a global compromise.
    pub static_sram_pj_per_kib: f64,
    /// Fixed system energy per cycle regardless of array size (control,
    /// clock tree, DRAM interface idle) — this is what makes undersized
    /// arrays pay for their longer runtimes.
    pub system_static_pj: f64,
    /// DRAM interface bandwidth, 16-bit words per array cycle. A layer
    /// whose DRAM traffic exceeds `compute_cycles × bandwidth` runs
    /// memory-bound: the array stalls and leaks for the full transfer
    /// time (roofline coupling). Undersized buffers therefore cost twice
    /// — refetch energy *and* stall leakage.
    pub dram_words_per_cycle: f64,
    /// Energy-and-bandwidth premium per *re-fetched* DRAM word relative
    /// to compulsory streaming traffic (≥ 1). Compulsory first-touch
    /// streams amortize row activations over long bursts; multi-pass
    /// re-fetch from an undersized buffer re-opens rows and loses that
    /// locality, so each re-fetched word costs more energy and consumes
    /// more of the interface's effective bandwidth.
    pub dram_refetch_pj_factor: f64,
}

impl EnergyTable {
    /// Same-node (Samsung 8 nm-class, the RTX 3090's node) energy
    /// hierarchy — the table the DSE uses so the accelerator-vs-GPU
    /// comparison is iso-technology, as in the paper's limit study.
    /// Dynamic access energies scale down steeply from the 45 nm-era
    /// Eyeriss values (logic scales far better than wires and DRAM
    /// interfaces),
    /// while leakage becomes a first-order term at 8 nm — the static
    /// entries here are calibrated, together with the DRAM roofline,
    /// so the sweep reproduces Fig. 17's improvement hierarchy (~50×
    /// global, per-layer ≈ 2× global).
    #[must_use]
    pub fn samsung_8nm_class() -> Self {
        Self {
            mac_pj: 0.02,
            rf_pj: 0.008,
            noc_pj: 0.03,
            glb_base_pj: 0.08,
            glb_reference_kib: 64.0,
            dram_pj: 14.0,
            static_pe_pj: 0.9,
            static_sram_pj_per_kib: 6.0,
            system_static_pj: 150.0,
            dram_words_per_cycle: 5.0,
            dram_refetch_pj_factor: 1.5,
        }
    }

    /// Validates the table for use in the cost model: dynamic access
    /// energies must be positive and finite (a zero or NaN energy turns
    /// every downstream geomean into noise), leakage terms non-negative.
    ///
    /// # Errors
    /// Returns a [`sudc_errors::SudcError`] listing every bad entry.
    pub fn try_validate(&self) -> Result<Self, sudc_errors::SudcError> {
        let mut d = sudc_errors::Diagnostics::new("EnergyTable");
        d.positive("mac_pj", self.mac_pj);
        d.positive("rf_pj", self.rf_pj);
        d.positive("noc_pj", self.noc_pj);
        d.positive("glb_base_pj", self.glb_base_pj);
        d.positive("glb_reference_kib", self.glb_reference_kib);
        d.positive("dram_pj", self.dram_pj);
        d.non_negative("static_pe_pj", self.static_pe_pj);
        d.non_negative("static_sram_pj_per_kib", self.static_sram_pj_per_kib);
        d.non_negative("system_static_pj", self.system_static_pj);
        d.positive("dram_words_per_cycle", self.dram_words_per_cycle);
        d.ensure(
            self.dram_refetch_pj_factor.is_finite() && self.dram_refetch_pj_factor >= 1.0,
            "dram_refetch_pj_factor",
            self.dram_refetch_pj_factor,
            "finite and >= 1",
        );
        d.into_result(*self)
    }

    /// Access energy of a global buffer of `capacity_kib`, pJ.
    ///
    /// Scales as the square root of capacity around the reference point
    /// (CACTI-style wordline/bitline growth).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_kib` is not positive.
    #[must_use]
    pub fn glb_access_pj(&self, capacity_kib: f64) -> f64 {
        assert!(
            capacity_kib > 0.0,
            "buffer capacity must be positive, got {capacity_kib}"
        );
        self.glb_base_pj * (capacity_kib / self.glb_reference_kib).sqrt()
    }

    /// Effective DRAM word count for energy and roofline purposes:
    /// compulsory words at par, re-fetched words at the row-buffer
    /// premium.
    #[must_use]
    pub fn dram_effective_words(&self, total_words: f64, refetch_words: f64) -> f64 {
        total_words + (self.dram_refetch_pj_factor - 1.0) * refetch_words
    }

    /// DRAM energy of `effective_words` ([`Self::dram_effective_words`]):
    /// re-fetch words cost a row-buffer-locality premium in both energy
    /// and effective bandwidth.
    pub(crate) fn dram_energy(&self, effective_words: f64) -> f64 {
        effective_words * self.dram_pj
    }

    /// Cycles the DRAM interface needs for `effective_words`.
    pub(crate) fn dram_stall_cycles(&self, effective_words: f64) -> f64 {
        effective_words / self.dram_words_per_cycle
    }

    /// Leakage energy per cycle of a design: PE leakage scales with array
    /// size, SRAM retention with provisioned buffer capacity, plus the
    /// fixed system floor.
    #[must_use]
    pub fn leakage_pj_per_cycle(&self, pes: f64, buffer_kib: f64) -> f64 {
        pes * self.static_pe_pj + buffer_kib * self.static_sram_pj_per_kib + self.system_static_pj
    }
}

impl EnergyTable {
    /// Rescales the table's arithmetic and traffic energies for a numeric
    /// precision (the shipped tables assume 16-bit operands).
    #[must_use]
    pub fn for_precision(mut self, precision: sudc_compute::precision::Precision) -> Self {
        use sudc_compute::precision::Precision;
        let base = Precision::Fp16;
        let mac_scale = precision.mac_energy_factor() / base.mac_energy_factor();
        let width_scale = f64::from(precision.bits()) / f64::from(base.bits());
        self.mac_pj *= mac_scale;
        self.rf_pj *= width_scale;
        self.noc_pj *= width_scale;
        self.glb_base_pj *= width_scale;
        self.dram_pj *= width_scale;
        self
    }
}

impl Default for EnergyTable {
    fn default() -> Self {
        Self::samsung_8nm_class()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_is_ordered() {
        let t = EnergyTable::samsung_8nm_class();
        assert!(t.rf_pj < t.noc_pj);
        assert!(t.noc_pj < t.glb_base_pj);
        assert!(t.glb_base_pj < t.dram_pj);
        assert!(t.dram_pj / t.mac_pj > 50.0, "DRAM must dominate MACs");
    }

    #[test]
    fn glb_energy_scales_with_sqrt_capacity() {
        let t = EnergyTable::samsung_8nm_class();
        let e64 = t.glb_access_pj(64.0);
        let e256 = t.glb_access_pj(256.0);
        assert!((e256 / e64 - 2.0).abs() < 1e-9);
        assert!((e64 - t.glb_base_pj).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = EnergyTable::samsung_8nm_class().glb_access_pj(0.0);
    }

    #[test]
    fn leakage_grows_with_array_and_buffer_capacity() {
        let t = EnergyTable::default();
        let lean = t.leakage_pj_per_cycle(64.0, 24.0);
        let lush = t.leakage_pj_per_cycle(896.0, 320.0);
        assert!(lush > lean);
        // SRAM retention must be a real specialization axis: on a
        // mid-sized array, provisioned capacity contributes on the same
        // order as the PE array itself.
        let buffers_only = t.leakage_pj_per_cycle(0.0, 160.0) - t.system_static_pj;
        let pes_only = t.leakage_pj_per_cycle(256.0, 0.0) - t.system_static_pj;
        assert!(buffers_only > 0.2 * pes_only);
    }

    #[test]
    fn validation_accepts_shipped_tables_and_rejects_hostile_ones() {
        assert!(EnergyTable::samsung_8nm_class().try_validate().is_ok());
        let bad = EnergyTable {
            glb_base_pj: 0.0,
            dram_pj: f64::NAN,
            ..EnergyTable::default()
        };
        let err = bad.try_validate().unwrap_err();
        assert_eq!(err.violations().len(), 2);
        assert!(err.to_string().contains("glb_base_pj"));
        assert!(err.to_string().contains("dram_pj"));
    }

    #[test]
    fn precision_rescaling_orders_tables() {
        use sudc_compute::precision::Precision;
        let base = EnergyTable::samsung_8nm_class();
        let int8 = base.for_precision(Precision::Int8);
        let fp32 = base.for_precision(Precision::Fp32);
        assert!(int8.mac_pj < base.mac_pj);
        assert!(fp32.mac_pj > base.mac_pj);
        assert!(int8.dram_pj < fp32.dram_pj);
        // FP16 is the identity.
        let same = base.for_precision(Precision::Fp16);
        assert!((same.mac_pj - base.mac_pj).abs() < 1e-12);
    }
}
