//! The sim's attachment to the `sudc-bus` data plane.
//!
//! The kernel never mutates its [`RunTrace`] directly: every pipeline
//! hop — capture, filter verdict, batch dispatch, compute completion,
//! downlink delivery, fault event, telemetry settlement — is published
//! as a typed [`Payload`] on the standard topic table, and
//! `TraceBuilder` is the subscriber that folds the stream back into a
//! `RunTrace`. The kernel always delivers to a `TraceBuilder` first and
//! then to whatever the caller attached (see [`crate::kernel::try_run`]).
//! Because the builder performs *exactly* the mutations the kernel used
//! to perform inline, in the same order, every run is trace-equal to
//! the pre-bus kernel's — the fingerprint pins in `kernel.rs`, taken
//! from that kernel, hold that line.
//!
//! The payoff is [`replay`]: a recorded [`BusLog`] re-drives a fresh
//! `TraceBuilder` and reproduces the live run's `RunTrace` byte for
//! byte, without re-executing the kernel — the foundation for shipping
//! topic streams across process (or shard) boundaries.

use sudc_bus::{BusLog, FaultKind, HealthEvent, Payload, Sample, Subscriber};
use sudc_errors::SudcError;

use crate::config::SimConfig;
use crate::event::Tick;
use crate::metrics::RunTrace;

/// Subscriber that folds the standard topic stream into a [`RunTrace`],
/// mutation-for-mutation identical to the pre-bus kernel.
#[derive(Debug)]
pub(crate) struct TraceBuilder {
    trace: RunTrace,
    duration_ticks: Tick,
}

impl TraceBuilder {
    /// A builder for a run of `cfg` (the trace's integrals and
    /// serialization gates come from the config, so replaying a log
    /// against a different config is meaningless).
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        Self {
            trace: RunTrace::new(cfg),
            duration_ticks: cfg.duration_ticks,
        }
    }

    /// The folded trace (complete only after a `Finish` sample).
    pub(crate) fn into_trace(self) -> RunTrace {
        self.trace
    }

    /// Folds one sample into the trace. The live kernel's stream is
    /// well-formed by construction and folds with `CHECKED = false`;
    /// [`replay`] folds a log from outside with `CHECKED = true`, which
    /// turns a counter overflow or a backwards integration into an
    /// error. Inlined so the replay loop's payload match merges with the
    /// decoder's tag dispatch.
    #[inline(always)]
    fn apply<const CHECKED: bool>(&mut self, s: &Sample) -> Result<(), SudcError> {
        let t = &mut self.trace;
        // Adds to a trace counter; checked, an overflow is an error.
        macro_rules! add {
            ($counter:ident, $count:expr) => {
                add_count::<CHECKED>(&mut t.$counter, $count, stringify!($counter), s)?
            };
        }
        match s.payload {
            Payload::Capture { filtered, .. } => {
                t.captured += 1;
                if filtered {
                    t.filtered_out += 1;
                } else {
                    t.arrived += 1;
                }
            }
            Payload::Processed { capture } => {
                t.processed += 1;
                t.record_processing_latency(s.tick - capture);
            }
            Payload::Delivered { capture } => {
                t.delivered += 1;
                t.record_delivery_latency(s.tick - capture);
            }
            Payload::Settle {
                events,
                busy,
                batch_queue,
                downlink_queue,
                full,
            } => {
                if CHECKED && s.tick < t.integrated_to() {
                    return Err(backwards(s, "Settle tick", s.tick, t.integrated_to()));
                }
                t.advance_to(
                    s.tick,
                    busy,
                    batch_queue as usize,
                    downlink_queue as usize,
                    full,
                );
                add!(events, events);
            }
            Payload::QueueDepth { downlink, len } => {
                if downlink {
                    t.note_downlink_queue_len(len as usize);
                } else {
                    t.note_batch_queue_len(len as usize);
                }
            }
            Payload::Backlog {
                isl,
                batch,
                downlink,
                oldest_age,
            } => {
                t.record_backlog_sample(
                    isl as usize,
                    batch as usize,
                    downlink as usize,
                    oldest_age,
                );
            }
            Payload::BatchDispatched { timeout, .. } => {
                if timeout {
                    t.timeout_batches += 1;
                }
                t.batches += 1;
            }
            Payload::Finish {
                busy,
                batch_queue,
                downlink_queue,
                full,
                peak_event_queue,
            } => {
                if CHECKED && self.duration_ticks < t.integrated_to() {
                    return Err(backwards(
                        s,
                        "Finish duration_ticks",
                        self.duration_ticks,
                        t.integrated_to(),
                    ));
                }
                t.peak_event_queue = peak_event_queue as usize;
                t.finish(
                    self.duration_ticks,
                    busy,
                    batch_queue as usize,
                    downlink_queue as usize,
                    full,
                );
            }
            Payload::Fault { kind, count } => match kind {
                FaultKind::BatchOverflow => add!(shed_batch_overflow, count),
                FaultKind::DownlinkOverflow => add!(shed_downlink_overflow, count),
                FaultKind::DeadlineShed => add!(shed_deadline, count),
                FaultKind::Corrupted => add!(corrupted, count),
                FaultKind::Retry => add!(retries, count),
                FaultKind::RetryExhausted => add!(retry_exhausted, count),
                FaultKind::NodeFailure => add!(failures, count),
                FaultKind::Promotion => add!(promotions, count),
                FaultKind::DormantDeath => add!(dormant_deaths, count),
                FaultKind::StormKill => {
                    // A storm latch-up is both a node failure and a storm
                    // statistic — one event, two counters.
                    add!(failures, count);
                    add!(storm_node_kills, count);
                }
                FaultKind::IslFlap => add!(isl_flaps, count),
                FaultKind::Blackout => add!(blackout_windows, count),
            },
            Payload::Heartbeat { .. } => t.heartbeats += 1,
            Payload::Health { event, value, .. } => match event {
                HealthEvent::Suspect => t.suspects += 1,
                HealthEvent::FalseSuspect => t.false_suspects += 1,
                HealthEvent::Dead => {
                    t.detections += 1;
                    // `value` carries the ground-truth failure → DEAD
                    // declaration gap, so replay reproduces the latency
                    // population without re-running the detector.
                    t.record_detection_latency(value);
                }
                HealthEvent::Readmit => t.readmissions += 1,
            },
        }
        Ok(())
    }
}

/// Adds `count` to a trace counter; checked, an overflow is an error
/// naming the counter and the sample that carried it.
#[inline(always)]
fn add_count<const CHECKED: bool>(
    counter: &mut u64,
    count: u64,
    name: &'static str,
    s: &Sample,
) -> Result<(), SudcError> {
    if CHECKED {
        match counter.checked_add(count) {
            Some(sum) => *counter = sum,
            None => return Err(overflow(s, name, count, *counter)),
        }
    } else {
        *counter += count;
    }
    Ok(())
}

#[cold]
#[inline(never)]
fn overflow(s: &Sample, name: &str, count: u64, total: u64) -> SudcError {
    SudcError::single(
        "replay",
        format!("{name} (record at tick {})", s.tick),
        count,
        format!("a count that keeps the total ({total}) within u64"),
    )
}

#[cold]
#[inline(never)]
fn backwards(s: &Sample, target: &str, to: Tick, integrated: Tick) -> SudcError {
    SudcError::single(
        "replay",
        format!("{target} (record at tick {})", s.tick),
        to,
        format!("a tick no earlier than the trace's integrated time ({integrated})"),
    )
}

impl Subscriber for TraceBuilder {
    #[inline]
    fn deliver(&mut self, sample: &Sample) {
        // Unchecked: the fold cannot fail.
        let _ = self.apply::<false>(sample);
    }
}

/// Re-drives a recorded topic stream through a fresh `TraceBuilder`,
/// reproducing the live run's [`RunTrace`] byte for byte. `cfg` must be
/// the configuration the log was recorded under.
///
/// Decoding and folding are one pass: the decoder and the fold inline
/// into a single loop, so each record is dispatched on its tag once.
///
/// # Errors
///
/// Returns a [`SudcError`] if the log is malformed (see
/// [`BusLog::try_visit`]), or if it decodes but no run could have
/// published it: a fault or event count that overflows its counter, or
/// a `Settle`/`Finish` that would integrate the trace backwards in time
/// (a `Settle` past `cfg.duration_ticks` before a `Finish`). The first
/// problem in log order is reported.
pub fn replay(cfg: &SimConfig, log: &BusLog) -> Result<RunTrace, SudcError> {
    let mut builder = TraceBuilder::new(cfg);
    let mut folded = Ok(());
    let decoded = log.try_visit(
        #[inline(always)]
        |s| {
            if folded.is_ok() {
                folded = builder.apply::<true>(s);
            }
        },
    );
    folded?;
    decoded?;
    Ok(builder.into_trace())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, GroundBlackouts, IslFlaps, StormModel};
    use crate::kernel;
    use sudc_units::Seconds;

    fn stress_faults() -> FaultConfig {
        FaultConfig {
            upset_probability: 0.05,
            storm: Some(StormModel {
                period_ticks: 4000,
                duration_ticks: 600,
                offset_ticks: 1000,
                seu_multiplier: 20.0,
                node_kill_probability: 0.2,
                major_probability: 0.25,
                major_multiplier: 3.0,
            }),
            isl: Some(IslFlaps {
                links: 3,
                mean_up_ticks: 2000.0,
                mean_down_ticks: 400.0,
            }),
            ground: Some(GroundBlackouts {
                blackout_probability: 0.3,
            }),
            ..FaultConfig::default()
        }
    }

    #[test]
    fn recorded_replay_reproduces_the_live_trace() {
        let cfg = SimConfig::reference_operations(Seconds::new(1800.0));
        let (trace, log) = kernel::run_recorded(&cfg, 7);
        assert!(log.records() > 0);
        assert_eq!(replay(&cfg, &log).unwrap(), trace);
    }

    #[test]
    fn recorded_replay_survives_every_fault_process() {
        let cfg =
            SimConfig::reference_operations(Seconds::new(1800.0)).with_faults(stress_faults());
        let (trace, log) = kernel::run_recorded(&cfg, 21);
        assert_eq!(replay(&cfg, &log).unwrap(), trace);
        // The wire format round-trips the stream exactly.
        let reparsed = BusLog::try_from_bytes(log.as_bytes()).unwrap();
        assert_eq!(replay(&cfg, &reparsed).unwrap(), trace);
    }

    #[test]
    fn recording_does_not_perturb_the_trace() {
        let cfg =
            SimConfig::reference_operations(Seconds::new(1800.0)).with_faults(stress_faults());
        let live = kernel::run(&cfg, 3);
        let (recorded, _) = kernel::run_recorded(&cfg, 3);
        assert_eq!(live, recorded);
    }

    fn log_of(samples: &[(Tick, Payload)]) -> BusLog {
        let mut log = BusLog::new();
        for &(tick, payload) in samples {
            log.push(&Sample { tick, payload });
        }
        log
    }

    #[test]
    fn replay_rejects_fault_counts_that_overflow_a_counter() {
        let cfg = SimConfig::reference_operations(Seconds::new(60.0));
        let kill = Payload::Fault {
            kind: FaultKind::StormKill,
            count: u64::MAX,
        };
        let err = replay(&cfg, &log_of(&[(3, kill), (4, kill)])).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid replay: `failures (record at tick 4)` = 18446744073709551615 \
             (allowed: a count that keeps the total (18446744073709551615) within u64)"
        );
        // One such fault alone is representable and replays.
        assert_eq!(
            replay(&cfg, &log_of(&[(3, kill)])).unwrap().failures,
            u64::MAX
        );
        // Settle's event count is a counter too.
        let settle = Payload::Settle {
            events: u64::MAX,
            busy: 0,
            batch_queue: 0,
            downlink_queue: 0,
            full: true,
        };
        let err = replay(&cfg, &log_of(&[(1, settle), (2, settle)])).unwrap_err();
        assert!(err.violations()[0].path.starts_with("events"), "{err}");
    }

    #[test]
    fn replay_rejects_a_settle_past_the_run_before_its_finish() {
        let cfg = SimConfig::reference_operations(Seconds::new(60.0));
        let end = cfg.duration_ticks;
        let settle = Payload::Settle {
            events: 1,
            busy: 2,
            batch_queue: 0,
            downlink_queue: 0,
            full: true,
        };
        let finish = Payload::Finish {
            busy: 0,
            batch_queue: 0,
            downlink_queue: 0,
            full: true,
            peak_event_queue: 1,
        };
        let err = replay(&cfg, &log_of(&[(end + 5, settle), (end + 5, finish)])).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "invalid replay: `Finish duration_ticks (record at tick {})` = {end} \
                 (allowed: a tick no earlier than the trace's integrated time ({}))",
                end + 5,
                end + 5
            )
        );
        // A Settle after the Finish would integrate backwards too.
        let err = replay(&cfg, &log_of(&[(1, finish), (2, settle)])).unwrap_err();
        assert!(err.violations()[0].path.starts_with("Settle tick"), "{err}");
        // Settling exactly at the run's end is how every run finishes.
        assert!(replay(&cfg, &log_of(&[(end, settle), (end, finish)])).is_ok());
    }
}
