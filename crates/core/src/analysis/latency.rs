//! Bent-pipe vs. in-space processing latency (paper §I and §IV-A).
//!
//! The paper motivates SµDCs partly by latency: bent-pipe processing waits
//! hours for a downlink window, while in-space processing waits only for an
//! energy-minimizing batch to accumulate (minutes) plus inference time —
//! "this latency is still significantly better than the latency achieved
//! using a traditional bent-pipe downlink model".

use sudc_comms::compression::Compression;
use sudc_compute::gpu::GpuEnergyModel;
use sudc_compute::workloads::Workload;
use sudc_errors::SudcError;
use sudc_orbital::contact::GroundNetwork;
use sudc_orbital::imaging::Imager;
use sudc_orbital::CircularOrbit;
use sudc_units::{Gigabits, Seconds};

/// Latency of the two processing paths for one workload.
#[derive(Debug, Clone)]
pub struct LatencyComparison {
    /// Application evaluated.
    pub workload: &'static str,
    /// Mean bent-pipe latency (`None` when the downlink is in deficit).
    pub bent_pipe: Option<Seconds>,
    /// In-space latency: batch accumulation + inference.
    pub in_space: Seconds,
}

impl LatencyComparison {
    /// Speedup of in-space processing over the bent pipe, if the bent pipe
    /// keeps up at all.
    #[must_use]
    pub fn speedup(&self) -> Option<f64> {
        self.bent_pipe.map(|bp| bp.value() / self.in_space.value())
    }
}

/// Compares bent-pipe and in-space latency for one workload on one EO
/// satellite and ground network.
///
/// # Errors
///
/// Returns a structured error if the imager's frame rate on `orbit` is
/// not positive and finite.
pub fn compare_latency(
    workload: &Workload,
    imager: Imager,
    orbit: CircularOrbit,
    network: &GroundNetwork,
) -> Result<LatencyComparison, SudcError> {
    // The bent pipe gets the same courtesies a real system has: the imager
    // duty-cycles (eclipse/ocean) and the downlink is CCSDS-compressed.
    let duty = sudc_constellation::eo::DEFAULT_IMAGING_DUTY_CYCLE;
    let downlink = Compression::Ccsds121;
    let production = downlink.compressed_rate(imager.data_rate(orbit) * duty);
    let image_size = downlink.compressed_volume(Gigabits::new(
        imager.pixels_per_frame() as f64 * f64::from(imager.bits_per_pixel) / 1e9,
    ));
    let bent_pipe = network.mean_latency(production, image_size);

    let model = GpuEnergyModel::fit(workload);
    let batch = model.energy_minimizing_batch(0.05);
    let images_per_minute = imager.frames_per_minute(orbit);
    let accumulation = GpuEnergyModel::batch_accumulation_time(batch, images_per_minute)?;
    let in_space = accumulation + workload.inference_time;

    Ok(LatencyComparison {
        workload: workload.name,
        bent_pipe,
        in_space,
    })
}

/// The full Table III suite compared on the reference orbit/imager against
/// a ground network of `stations` stations.
///
/// # Errors
///
/// Returns the first workload's error from [`compare_latency`].
pub fn latency_table(stations: u32) -> Result<Vec<LatencyComparison>, SudcError> {
    let network = GroundNetwork::commercial(stations);
    sudc_compute::workloads::suite()
        .iter()
        .map(|w| {
            compare_latency(
                w,
                Imager::reference(),
                CircularOrbit::reference_leo(),
                &network,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_space_processing_is_minutes_not_hours() {
        for cmp in latency_table(3).unwrap() {
            let minutes = cmp.in_space.value() / 60.0;
            assert!(
                minutes > 0.3 && minutes < 60.0,
                "{}: in-space latency {minutes} min",
                cmp.workload
            );
        }
    }

    #[test]
    fn bent_pipe_is_much_slower_when_it_works_at_all() {
        for cmp in latency_table(3).unwrap() {
            match cmp.speedup() {
                Some(s) => assert!(s > 3.0, "{}: speedup only {s}", cmp.workload),
                None => {
                    // Downlink deficit: in-space wins by definition.
                }
            }
        }
    }

    #[test]
    fn dense_ground_networks_narrow_the_gap_but_do_not_close_it() {
        let sparse = latency_table(2).unwrap();
        let dense = latency_table(16).unwrap();
        for (s, d) in sparse.iter().zip(&dense) {
            if let (Some(sl), Some(dl)) = (s.bent_pipe, d.bent_pipe) {
                assert!(dl < sl);
                assert!(dl > d.in_space, "{}", d.workload);
            }
        }
    }
}
