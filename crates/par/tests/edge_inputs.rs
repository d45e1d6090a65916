//! Property tests pinning the executor's behavior on degenerate inputs.
//!
//! Empty and single-element slices exercise the inline fast path
//! (`bounds.len() <= 1`), where an off-by-one in chunking would silently
//! drop or duplicate work. Every primitive must match its serial
//! equivalent exactly, at every thread count.

use proptest::prelude::*;
use sudc_par::{par_map_threads, par_reduce_threads};

proptest! {
    #[test]
    fn par_map_on_empty_input_is_empty(workers in 1usize..16) {
        let items: Vec<f64> = Vec::new();
        let got = par_map_threads(workers, &items, |_, &x: &f64| x * 2.0);
        prop_assert!(got.is_empty());
    }

    #[test]
    fn par_map_on_single_element_matches_serial(
        workers in 1usize..16,
        x in -1e9..1e9f64,
    ) {
        let got = par_map_threads(workers, &[x], |i, &v| (i, v * 3.0));
        prop_assert_eq!(got, vec![(0usize, x * 3.0)]);
    }

    #[test]
    fn par_reduce_on_empty_input_returns_init(workers in 1usize..16) {
        let items: Vec<u64> = Vec::new();
        let sum = par_reduce_threads(workers, &items, || 7u64, |a, _, &x| a + x, |a, b| a + b);
        prop_assert_eq!(sum, 7);
    }

    #[test]
    fn par_reduce_on_single_element_matches_serial_fold(
        workers in 1usize..16,
        x in 0u64..1_000_000,
    ) {
        let serial = [x].iter().fold(1u64, |a, &v| a + v);
        let parallel =
            par_reduce_threads(workers, &[x], || 1u64, |a, _, &v| a + v, |a, b| a + b);
        prop_assert_eq!(parallel, serial);
    }

    #[test]
    fn small_inputs_match_serial_at_every_worker_count(
        workers in 1usize..16,
        values in proptest::collection::vec(-1e6..1e6f64, 0..3),
    ) {
        // The general small-slice property: map preserves order and
        // reduce matches a left fold.
        let mapped = par_map_threads(workers, &values, |_, &v| v.abs());
        let serial_map: Vec<f64> = values.iter().map(|v| v.abs()).collect();
        prop_assert_eq!(mapped, serial_map);

        let folded = par_reduce_threads(workers, &values, || 0.0, |a, _, &v| a + v, |a, b| a + b);
        let serial_fold: f64 = values.iter().sum();
        prop_assert!((folded - serial_fold).abs() < 1e-9);
    }
}
