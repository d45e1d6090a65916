//! Earth-observation application workloads (paper Table III, Fig. 13).
//!
//! Ten applications profiled on an RTX 3090 with offline batch processing:
//! drawn power, GPU utilization, per-batch inference time, and the energy
//! efficiency (kpixel/J) that drives both ISL sizing (Fig. 8) and SµDC
//! compute-power sizing.

use sudc_units::{KilopixelsPerJoule, Seconds, Watts};

use crate::networks::NetworkId;

/// Image-processing task class (Fig. 13's middle column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// Assign a label to an entire image.
    ImageClassification,
    /// Locate and classify objects within an image.
    ObjectRecognition,
    /// Predict a continuous quantity per image or pixel.
    ImageRegression,
    /// Label every pixel.
    ImageSegmentation,
    /// Joint semantic + instance segmentation.
    PanopticSegmentation,
}

/// One Table III row: an EO application profiled on the RTX 3090 baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Application name.
    pub name: &'static str,
    /// Task class.
    pub task: Task,
    /// CNN the application deploys.
    pub network: NetworkId,
    /// Mean GPU power drawn while batch processing.
    pub gpu_power: Watts,
    /// Mean GPU utilization in [0, 1].
    pub utilization: f64,
    /// Per-batch inference time.
    pub inference_time: Seconds,
    /// Energy efficiency on the RTX 3090.
    pub efficiency: KilopixelsPerJoule,
    /// Number of 4 kW RTX 3090 SµDCs needed to support a 64-satellite EO
    /// constellation (Table III's rightmost column).
    pub sudcs_for_64_sats: u32,
}

/// The full Table III workload suite, in the paper's row order.
#[must_use]
pub fn suite() -> Vec<Workload> {
    vec![
        Workload {
            name: "Air Pollution",
            task: Task::ImageRegression,
            network: NetworkId::InceptionV3,
            gpu_power: Watts::new(119.0),
            utilization: 0.25,
            inference_time: Seconds::new(0.59),
            efficiency: KilopixelsPerJoule::new(1168.0),
            sudcs_for_64_sats: 1,
        },
        Workload {
            name: "Crop Monitoring",
            task: Task::ImageClassification,
            network: NetworkId::DenseNet121,
            gpu_power: Watts::new(222.0),
            utilization: 0.42,
            inference_time: Seconds::new(1.57),
            efficiency: KilopixelsPerJoule::new(395.0),
            sudcs_for_64_sats: 1,
        },
        Workload {
            name: "Flood Detection",
            task: Task::ImageSegmentation,
            network: NetworkId::UNet,
            gpu_power: Watts::new(325.0),
            utilization: 0.88,
            inference_time: Seconds::new(5.53),
            efficiency: KilopixelsPerJoule::new(307.0),
            sudcs_for_64_sats: 1,
        },
        Workload {
            name: "Aircraft Detection",
            task: Task::ObjectRecognition,
            network: NetworkId::FastDetectorCnn,
            gpu_power: Watts::new(124.0),
            utilization: 0.26,
            inference_time: Seconds::new(0.26),
            efficiency: KilopixelsPerJoule::new(74.0),
            sudcs_for_64_sats: 1,
        },
        Workload {
            name: "Forage Quality Estimation",
            task: Task::ImageRegression,
            network: NetworkId::ResNet50,
            gpu_power: Watts::new(129.0),
            utilization: 0.27,
            inference_time: Seconds::new(0.56),
            efficiency: KilopixelsPerJoule::new(843.0),
            sudcs_for_64_sats: 1,
        },
        Workload {
            name: "Urban Emergency Detection",
            task: Task::ImageClassification,
            network: NetworkId::Vgg16,
            gpu_power: Watts::new(266.0),
            utilization: 0.72,
            inference_time: Seconds::new(2.04),
            efficiency: KilopixelsPerJoule::new(569.0),
            sudcs_for_64_sats: 1,
        },
        Workload {
            name: "Oil Spill Monitoring",
            task: Task::ImageSegmentation,
            network: NetworkId::DeepLabV3,
            gpu_power: Watts::new(347.0),
            utilization: 0.98,
            inference_time: Seconds::new(3.84),
            efficiency: KilopixelsPerJoule::new(231.0),
            sudcs_for_64_sats: 1,
        },
        Workload {
            name: "Traffic Monitoring",
            task: Task::ObjectRecognition,
            network: NetworkId::TinyDetectorCnn,
            gpu_power: Watts::new(19.0),
            utilization: 0.009,
            inference_time: Seconds::new(2.72),
            efficiency: KilopixelsPerJoule::new(2597.0),
            sudcs_for_64_sats: 1,
        },
        Workload {
            name: "Land Surface Clustering",
            task: Task::ImageClassification,
            network: NetworkId::ConvAutoencoder,
            gpu_power: Watts::new(108.0),
            utilization: 0.02,
            inference_time: Seconds::new(0.35),
            efficiency: KilopixelsPerJoule::new(2175.0),
            sudcs_for_64_sats: 1,
        },
        Workload {
            name: "Panoptic Segmentation",
            task: Task::PanopticSegmentation,
            network: NetworkId::PanopticFpn,
            gpu_power: Watts::new(160.0),
            utilization: 0.80,
            inference_time: Seconds::new(7.81),
            efficiency: KilopixelsPerJoule::new(20.0),
            sudcs_for_64_sats: 4,
        },
    ]
}

/// Looks up a workload by (case-insensitive) name.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    suite()
        .into_iter()
        .find(|w| w.name.eq_ignore_ascii_case(name))
}

/// The workload with the highest kpixel/J — the "most lightweight"
/// application, which sets the worst-case ISL requirement (Fig. 8).
#[must_use]
pub fn most_lightweight() -> Workload {
    suite()
        .into_iter()
        .max_by(|a, b| a.efficiency.partial_cmp(&b.efficiency).expect("finite"))
        .expect("suite is non-empty")
}

/// The workload with the lowest kpixel/J — the most compute-hungry.
#[must_use]
pub fn most_compute_intensive() -> Workload {
    suite()
        .into_iter()
        .min_by(|a, b| a.efficiency.partial_cmp(&b.efficiency).expect("finite"))
        .expect("suite is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_table_iii_size() {
        assert_eq!(suite().len(), 10);
    }

    #[test]
    fn all_rows_are_physical() {
        for w in suite() {
            assert!(w.gpu_power.value() > 0.0, "{}", w.name);
            assert!(w.utilization > 0.0 && w.utilization <= 1.0, "{}", w.name);
            assert!(w.inference_time.value() > 0.0, "{}", w.name);
            assert!(w.efficiency.value() > 0.0, "{}", w.name);
            assert!(w.sudcs_for_64_sats >= 1, "{}", w.name);
        }
    }

    #[test]
    fn traffic_monitoring_is_most_lightweight() {
        let w = most_lightweight();
        assert_eq!(w.name, "Traffic Monitoring");
        assert_eq!(w.efficiency, KilopixelsPerJoule::new(2597.0));
    }

    #[test]
    fn panoptic_is_most_compute_intensive_and_needs_four_sudcs() {
        let w = most_compute_intensive();
        assert_eq!(w.name, "Panoptic Segmentation");
        assert_eq!(w.sudcs_for_64_sats, 4);
        assert!(suite()
            .iter()
            .filter(|x| x.name != "Panoptic Segmentation")
            .all(|x| x.sudcs_for_64_sats == 1));
    }

    #[test]
    fn oil_spill_nearly_saturates_the_gpu() {
        let w = by_name("Oil Spill Monitoring").unwrap();
        assert!(w.utilization > 0.95);
        assert!(w.gpu_power.value() > 340.0);
    }

    #[test]
    fn every_task_class_is_represented() {
        let tasks: std::collections::HashSet<_> = suite().into_iter().map(|w| w.task).collect();
        assert!(tasks.contains(&Task::ImageClassification));
        assert!(tasks.contains(&Task::ObjectRecognition));
        assert!(tasks.contains(&Task::ImageRegression));
        assert!(tasks.contains(&Task::ImageSegmentation));
        assert!(tasks.contains(&Task::PanopticSegmentation));
    }

    #[test]
    fn networks_are_distinct_per_application() {
        let nets: std::collections::HashSet<_> = suite().into_iter().map(|w| w.network).collect();
        assert_eq!(nets.len(), 10, "each app deploys its own network");
    }
}
