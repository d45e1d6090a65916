//! Degraded-mode pool accounting from a recorded fault stream.

use sudc_bus::{BusLog, FaultKind, HealthEvent, Payload, Tick};
use sudc_errors::{Diagnostics, SudcError};

/// The compute pool as the health plane *observed* it over a recorded
/// run: a step function of alive SµDC nodes, driven purely by published
/// verdicts and recoveries — DEAD declarations shrink the pool,
/// readmissions and spare promotions restore it. Ground-truth failures
/// the detector has not yet declared do **not** move the timeline;
/// that blindness window is exactly the detection latency.
///
/// [`PoolTimeline::try_fractions`] resamples the step function into
/// per-block capacity fractions for the router
/// (`RouterConfig::try_with_degraded_pools`), closing the loop:
/// recorded telemetry → detector verdicts → re-priced orbit-vs-ground
/// placement.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolTimeline {
    required: u32,
    /// `(tick, alive)` state changes, nondecreasing ticks; implicit
    /// initial state `(0, required)`.
    steps: Vec<(Tick, u32)>,
    /// Horizon of the recorded run (tick of the last record).
    end: Tick,
}

impl PoolTimeline {
    /// Replays the health verdicts of a recorded bus session into an
    /// observed-pool timeline over a `required`-node compute pool.
    ///
    /// # Errors
    /// Returns a [`SudcError`] if `required` is zero or the log is
    /// malformed (see [`BusLog::try_visit`]).
    pub fn try_from_log(log: &BusLog, required: u32) -> Result<Self, SudcError> {
        let mut d = Diagnostics::new("PoolTimeline::try_from_log");
        d.positive_count("required", u64::from(required));
        d.finish()?;
        let mut steps: Vec<(Tick, u32)> = Vec::new();
        let mut alive = required;
        let mut end: Tick = 0;
        log.try_visit(|s| {
            end = s.tick;
            let next = match s.payload {
                Payload::Health {
                    event: HealthEvent::Dead,
                    ..
                } => alive.saturating_sub(1),
                Payload::Health {
                    event: HealthEvent::Readmit,
                    ..
                } => (alive + 1).min(required),
                Payload::Fault {
                    kind: FaultKind::Promotion,
                    count,
                } => (alive + count as u32).min(required),
                _ => alive,
            };
            if next != alive {
                alive = next;
                steps.push((s.tick, alive));
            }
        })?;
        Ok(Self {
            required,
            steps,
            end,
        })
    }

    /// The pool size the contract requires (the 100 % level).
    #[must_use]
    pub fn required(&self) -> u32 {
        self.required
    }

    /// Observed alive nodes at `tick`.
    #[must_use]
    pub fn alive_at(&self, tick: Tick) -> u32 {
        self.steps
            .iter()
            .take_while(|(t, _)| *t <= tick)
            .last()
            .map_or(self.required, |(_, a)| *a)
    }

    /// Smallest observed pool over the whole run.
    #[must_use]
    pub fn min_alive(&self) -> u32 {
        self.steps
            .iter()
            .map(|(_, a)| *a)
            .min()
            .unwrap_or(self.required)
    }

    /// Resamples the timeline into `blocks` equal spans of the recorded
    /// horizon, returning each span's time-weighted mean alive fraction
    /// (in `[0, 1]`) — the per-block SµDC pool fractions the router's
    /// degraded re-pricing consumes.
    ///
    /// # Errors
    /// Returns a [`SudcError`] if `blocks` is zero.
    pub fn try_fractions(&self, blocks: usize) -> Result<Vec<f64>, SudcError> {
        let mut d = Diagnostics::new("PoolTimeline::try_fractions");
        d.positive_count("blocks", blocks as u64);
        d.finish()?;
        if self.end == 0 {
            return Ok(vec![1.0; blocks]);
        }
        let mut out = Vec::with_capacity(blocks);
        let span = self.end as f64 / blocks as f64;
        for b in 0..blocks {
            let lo = (b as f64 * span).round() as Tick;
            let hi = (((b + 1) as f64) * span).round() as Tick;
            let hi = hi.max(lo + 1);
            // Integrate the step function over [lo, hi).
            let mut weighted: u128 = 0;
            let mut cursor = lo;
            let mut alive = self.alive_at(lo);
            for &(t, a) in self.steps.iter().filter(|(t, _)| *t > lo && *t < hi) {
                weighted += u128::from(alive) * u128::from(t - cursor);
                cursor = t;
                alive = a;
            }
            weighted += u128::from(alive) * u128::from(hi - cursor);
            out.push(weighted as f64 / ((hi - lo) as f64 * f64::from(self.required)));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sudc_bus::Sample;

    fn log_of(samples: &[Sample]) -> BusLog {
        let mut log = BusLog::new();
        for s in samples {
            log.push(s);
        }
        log
    }

    fn dead(tick: Tick, node: u32) -> Sample {
        Sample {
            tick,
            payload: Payload::Health {
                event: HealthEvent::Dead,
                node,
                value: 0,
            },
        }
    }

    fn promotion(tick: Tick) -> Sample {
        Sample {
            tick,
            payload: Payload::Fault {
                kind: FaultKind::Promotion,
                count: 1,
            },
        }
    }

    #[test]
    fn verdicts_step_the_observed_pool() {
        let log = log_of(&[
            dead(100, 3),
            dead(250, 7),
            promotion(400),
            Sample {
                tick: 1000,
                payload: Payload::Heartbeat { node: 0 },
            },
        ]);
        let tl = PoolTimeline::try_from_log(&log, 10).unwrap();
        assert_eq!(tl.alive_at(0), 10);
        assert_eq!(tl.alive_at(100), 9);
        assert_eq!(tl.alive_at(300), 8);
        assert_eq!(tl.alive_at(400), 9);
        assert_eq!(tl.min_alive(), 8);
        // One block over the whole horizon: time-weighted mean.
        let f = tl.try_fractions(1).unwrap();
        let expected = (10.0 * 100.0 + 9.0 * 150.0 + 8.0 * 150.0 + 9.0 * 600.0) / (1000.0 * 10.0);
        assert!((f[0] - expected).abs() < 1e-12, "{} vs {expected}", f[0]);
        // Four blocks of 250 ticks: the deepest dip (alive 8 over
        // 250..400) lands in block 1, and the recovered tail stays at 9.
        let f4 = tl.try_fractions(4).unwrap();
        assert!(f4[1] < f4[0] && f4[1] < f4[3], "{f4:?}");
        assert!(f4.iter().all(|x| (0.0..=1.0).contains(x)));
    }

    #[test]
    fn fault_free_logs_yield_a_full_pool() {
        let log = log_of(&[Sample {
            tick: 500,
            payload: Payload::Heartbeat { node: 1 },
        }]);
        let tl = PoolTimeline::try_from_log(&log, 4).unwrap();
        assert_eq!(tl.min_alive(), 4);
        assert_eq!(tl.try_fractions(3).unwrap(), vec![1.0; 3]);
        // An empty log is a degenerate full pool.
        let empty = PoolTimeline::try_from_log(&BusLog::new(), 4).unwrap();
        assert_eq!(empty.try_fractions(2).unwrap(), vec![1.0; 2]);
    }

    #[test]
    fn hostile_inputs_are_rejected() {
        assert!(PoolTimeline::try_from_log(&BusLog::new(), 0).is_err());
        let tl = PoolTimeline::try_from_log(&BusLog::new(), 4).unwrap();
        assert!(tl.try_fractions(0).is_err());
    }
}
