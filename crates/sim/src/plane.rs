//! The sim's attachment to the `sudc-bus` data plane.
//!
//! The kernel never mutates its [`RunTrace`] directly: every pipeline
//! hop — capture, filter verdict, batch dispatch, compute completion,
//! downlink delivery, fault event, telemetry settlement — is published
//! as a typed [`Payload`](sudc_bus::Payload) on the standard topic
//! table, and the `RunTrace` is itself the subscriber that folds the
//! stream back into counters, histograms and integrals. The kernel
//! always delivers to its trace first and then to whatever the caller
//! attached (see [`crate::kernel::try_run`]). Every run is trace-equal
//! to the pre-bus kernel's apart from the `events` diagnostic (the
//! kernel no longer queues dark captures) — the fingerprint pins in
//! `kernel.rs`, taken from that kernel, hold that line.
//!
//! Settlement is sparse: a `Settle` is published only after a tick that
//! changed the settled state (busy nodes, queue depths, full
//! capability), and says that the state it carries held since the
//! previous one. The fold integrates `dt × state` exactly, so a log with
//! a `Settle` per tick — as logs recorded before settlement went sparse
//! are — replays to the same trace.
//!
//! The payoff is [`replay`]: a recorded [`BusLog`] re-drives a fresh
//! `RunTrace` and reproduces the live run's trace byte for byte,
//! without re-executing the kernel — the foundation for shipping topic
//! streams across process (or shard) boundaries.

use sudc_bus::BusLog;
use sudc_errors::SudcError;

use crate::config::SimConfig;
use crate::metrics::RunTrace;

/// Re-drives a recorded topic stream through a fresh [`RunTrace`]'s
/// fold, reproducing the live run's trace byte for byte. `cfg` must be
/// the configuration the log was recorded under (the trace's integrals
/// and serialization gates come from it).
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
    let mut trace = RunTrace::new(cfg);
    let mut folded = Ok(());
    let decoded = log.try_visit(
        #[inline(always)]
        |s| {
            if folded.is_ok() {
                folded = trace.apply::<true>(s);
            }
        },
    );
    folded?;
    decoded?;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Tick;
    use crate::kernel::{self, tests::stress_faults};
    use sudc_bus::{FaultKind, Payload, Sample};
    use sudc_units::Seconds;

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
