//! Property tests for the bus's binary log ([`BusLog`]).
//!
//! Three properties: every nondecreasing stream of samples round-trips
//! encode → decode unchanged, boundary values included; no hostile log
//! — such a stream, or any truncation or byte mutation of a real
//! recorded run — makes the decoder, the sim's replay fold or the
//! health plane's pool timeline panic (a hostile log either fails to
//! decode with an error, or decodes and then replays to a trace or an
//! error); and extra zero-event `Settle`s inside a recorded run's
//! constant-state intervals replay to the same trace.

use std::sync::OnceLock;

use proptest::collection;
use proptest::prelude::*;
use space_udc::bus::{
    BusLog, BusStats, FaultKind, HealthEvent, Payload, Sample, TOPIC_CAPTURES, TOPIC_FAULTS,
    TOPIC_INSIGHTS, TOPIC_TELEMETRY,
};
use space_udc::chaos::Campaign;
use space_udc::health::{HealthConfig, PoolTimeline};
use space_udc::par::rng::Rng64;
use space_udc::sim::{replay, run_recorded, try_run, RunTrace, SimConfig, DEFAULT_SEED};
use space_udc::units::Seconds;

/// Values where LEB128 and the u32 fields change shape.
const EDGES: [u64; 8] = [0, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX];

/// A field value from one random word: an edge value three times in
/// four, else a raw draw.
fn value(w: u64) -> u64 {
    if w & 3 != 0 {
        EDGES[(w >> 2) as usize % EDGES.len()]
    } else {
        w >> (w % 64)
    }
}

/// A `u32` field value from one random word, edges included.
fn value_u32(w: u64) -> u32 {
    u32::try_from(value(w)).unwrap_or(u32::MAX)
}

/// A capture tick for a latency-bearing sample at `tick`: ages 0, 127,
/// 128 and `tick` itself, else any age up to the tick.
fn capture(tick: u64, w: u64) -> u64 {
    let age = match w % 5 {
        0 => 0,
        1 => 127,
        2 => 128,
        3 => tick,
        _ => value(w >> 3) % tick.saturating_add(1).max(1),
    };
    tick - age.min(tick)
}

/// One sample of the variant `w` selects, at `tick`.
fn sample(tick: u64, w: u64, x: u64) -> Sample {
    let b = |bit: u32| x >> bit & 1 == 1;
    let payload = match w % 11 {
        0 => Payload::Capture {
            sat: value_u32(x),
            filtered: b(7),
        },
        1 => Payload::Processed {
            capture: capture(tick, x),
        },
        2 => Payload::Delivered {
            capture: capture(tick, x),
        },
        3 => Payload::Settle {
            events: value(x),
            busy: value_u32(x.rotate_left(13)),
            batch_queue: value(x.rotate_left(29)),
            downlink_queue: value(x.rotate_left(41)),
            full: b(3),
        },
        4 => Payload::QueueDepth {
            downlink: b(5),
            len: value(x),
        },
        5 => Payload::Backlog {
            isl: value(x),
            batch: value(x.rotate_left(17)),
            downlink: value(x.rotate_left(33)),
            oldest_age: b(9).then(|| value(x.rotate_left(49))),
        },
        6 => Payload::BatchDispatched {
            size: value(x),
            timeout: b(11),
        },
        7 => Payload::Fault {
            kind: FaultKind::ALL[(x >> 56) as usize % FaultKind::ALL.len()],
            count: value(x),
        },
        8 => Payload::Finish {
            busy: value_u32(x),
            batch_queue: value(x.rotate_left(19)),
            downlink_queue: value(x.rotate_left(37)),
            full: b(2),
            peak_event_queue: value(x.rotate_left(53)),
        },
        9 => Payload::Heartbeat { node: value_u32(x) },
        _ => Payload::Health {
            event: HealthEvent::ALL[(x >> 60) as usize % HealthEvent::ALL.len()],
            node: value_u32(x.rotate_left(23)),
            value: value(x),
        },
    };
    Sample { tick, payload }
}

/// The log of a recorded composed run, and the config it was recorded
/// under: combined chaos with the independent node MTTF of
/// `Campaign::infant_mortality`, two cold spares and the closed-loop
/// health plane, run long enough (240 s) for the detector's 180 s DEAD
/// floor. Nodes fail, go SUSPECT and DEAD, and spares are promoted, so
/// the log carries real failure, verdict and promotion records, and
/// backlog samples and heartbeats. The two health events this run does
/// not produce, a refuted suspicion (`FalseSuspect`) and a readmission
/// after probation (`Readmit`), are appended at the final tick: the log
/// then carries every record kind.
///
/// The fleet is an eighth of the reference one (8 satellites; the
/// compute nodes, which fail, are unchanged). The truncation test
/// replays every prefix, so its cost grows with the square of the log,
/// and at 64 satellites the log is five times longer.
fn recorded() -> &'static (SimConfig, BusLog) {
    static RUN: OnceLock<(SimConfig, BusLog)> = OnceLock::new();
    RUN.get_or_init(|| {
        let duration = Seconds::new(240.0);
        let base = SimConfig::reference_operations(duration);
        let spared = SimConfig {
            satellites: base.satellites / 8,
            nodes: base.required + 2,
            ..base
        };
        let cfg = Campaign {
            node_mttf: Campaign::infant_mortality(duration).node_mttf,
            ..Campaign::combined(duration)
        }
        .apply(&spared)
        .with_health(HealthConfig::standard());
        let (t, mut log) = run_recorded(&cfg, DEFAULT_SEED);
        assert!(
            t.detections > 0 && t.promotions > 0,
            "the fixture must walk failure -> DEAD -> promotion"
        );
        let tick = cfg.duration_ticks;
        for event in [HealthEvent::FalseSuspect, HealthEvent::Readmit] {
            log.push(&Sample {
                tick,
                payload: Payload::Health {
                    event,
                    node: 2,
                    value: 1800,
                },
            });
        }
        (cfg, log)
    })
}

/// The settled state a `Settle` or `Finish` carries: busy nodes, batch-
/// and downlink-queue depths, full capability.
type State = (u32, u64, u64, bool);

/// The state `payload` closes an interval with, and the events it
/// carries, if it is a `Settle` or the `Finish`.
fn closes(payload: Payload) -> Option<(State, u64)> {
    match payload {
        Payload::Settle {
            events,
            busy,
            batch_queue,
            downlink_queue,
            full,
        } => Some(((busy, batch_queue, downlink_queue, full), events)),
        Payload::Finish {
            busy,
            batch_queue,
            downlink_queue,
            full,
            ..
        } => Some(((busy, batch_queue, downlink_queue, full), 0)),
        _ => None,
    }
}

/// Every sample of `log`, in order.
fn decode(log: &BusLog) -> Vec<Sample> {
    let mut samples = Vec::new();
    log.try_visit(|s| samples.push(*s))
        .expect("recorded log decodes");
    samples
}

/// The per-topic ledger of a composed run (combined chaos, closed-loop
/// health, recording and counting attached together): captures and
/// insights are published exactly once per trace count, every sample is
/// both recorded and counted, and the log replays to the live trace.
/// Telemetry (`Settle`, `QueueDepth`) and faults (multi-count `Fault`)
/// carry samples the trace does not count one for one, so those two
/// topics are bounded from below. A `Settle` is published only after a
/// tick that changed the settled state, so no two in a row carry the
/// same state, and their event counts add up to the run's. A
/// `QueueDepth` is published only at a new peak of its queue, so each
/// queue's lengths strictly increase and end at the trace's maximum.
fn check_topic_ledger(cfg: &SimConfig, seed: u64) -> RunTrace {
    let (t, (log, stats)) = try_run(cfg, seed, (BusLog::new(), BusStats::default()))
        .expect("the composed config is valid");
    assert_eq!(stats.published(TOPIC_CAPTURES), t.captured, "seed {seed}");
    assert_eq!(
        stats.published(TOPIC_INSIGHTS),
        t.processed + t.delivered,
        "seed {seed}"
    );
    // Every dispatch and heartbeat, plus the one `Finish`.
    assert!(
        stats.published(TOPIC_TELEMETRY) > t.batches + t.heartbeats,
        "seed {seed}"
    );
    assert!(
        stats.published(TOPIC_FAULTS)
            >= t.suspects + t.false_suspects + t.detections + t.readmissions,
        "seed {seed}"
    );
    assert_eq!(log.records(), stats.total(), "seed {seed}");
    let samples = decode(&log);
    for (downlink, max) in [
        (false, t.max_batch_queue()),
        (true, t.max_downlink_backlog()),
    ] {
        let lens: Vec<u64> = samples
            .iter()
            .filter_map(|s| match s.payload {
                Payload::QueueDepth { downlink: d, len } if d == downlink => Some(len),
                _ => None,
            })
            .collect();
        if let Some(w) = lens.windows(2).find(|w| w[0] >= w[1]) {
            panic!(
                "seed {seed}: downlink={downlink} QueueDepth {} then {}",
                w[0], w[1]
            );
        }
        assert_eq!(
            lens.last().copied(),
            (max > 0).then_some(max as u64),
            "seed {seed}: downlink={downlink}"
        );
    }
    let settles: Vec<(State, u64)> = samples
        .iter()
        .filter(|s| matches!(s.payload, Payload::Settle { .. }))
        .filter_map(|s| closes(s.payload))
        .collect();
    if let Some(w) = settles.windows(2).find(|w| w[0].0 == w[1].0) {
        panic!("seed {seed}: two Settles in a row carry {:?}", w[0].0);
    }
    assert_eq!(
        settles.iter().map(|&(_, events)| events).sum::<u64>(),
        t.events,
        "seed {seed}"
    );
    assert_eq!(
        replay(cfg, &log).expect("recorded log replays"),
        t,
        "seed {seed}"
    );
    t
}

#[test]
fn topic_counters_track_the_pipeline() {
    let duration = Seconds::new(1800.0);
    let base = SimConfig::reference_operations(duration);
    let combined = Campaign::combined(duration);
    let cfg = combined.apply(&base).with_health(HealthConfig::standard());
    // A seed under which the storms kill nodes inside the horizon (the
    // infant mortality never fires on this config: see
    // `Campaign::combined`); the default seed draws a failure-free run,
    // which would leave the detector's verdicts unexercised.
    let t = check_topic_ledger(&cfg, 3);
    assert!(t.detections > 0, "the run must reach a DEAD declaration");

    // The same composition with a finite independent node MTTF (that of
    // `Campaign::infant_mortality`), under which the weak cohorts fail
    // early, and two cold spares to promote: every seed then walks the
    // recovery path (failure, DEAD verdict, spare promotion), so the
    // debug node, detector and capture ledgers run on it at each seed,
    // including those that draw no failure above.
    let spared = SimConfig {
        nodes: base.required + 2,
        ..base
    };
    let mttf = Campaign {
        node_mttf: Campaign::infant_mortality(duration).node_mttf,
        ..combined
    }
    .apply(&spared)
    .with_health(HealthConfig::standard());
    for seed in [DEFAULT_SEED, 1, 2, 5, 7, 9, 11] {
        let t = check_topic_ledger(&mttf, seed);
        assert!(t.failures > 0, "seed {seed}: no node failed");
        assert!(t.detections > 0, "seed {seed}: no DEAD declaration");
        assert!(t.promotions > 0, "seed {seed}: no spare promoted");
    }
}

/// Decodes `bytes`; if they decode, replays them and builds the pool
/// timeline. Only a panic fails: any result, error or not, passes.
fn survives(cfg: &SimConfig, bytes: &[u8]) -> Result<(), TestCaseError> {
    let Ok(log) = BusLog::try_from_bytes(bytes) else {
        return Ok(());
    };
    prop_assert_eq!(log.as_bytes(), bytes);
    let _ = replay(cfg, &log);
    let _ = PoolTimeline::try_from_log(&log, cfg.required);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_env_cases(64))]

    #[test]
    fn every_payload_roundtrips_through_the_log(
        words in collection::vec(0u64..u64::MAX, 1..400),
    ) {
        let mut log = BusLog::new();
        let mut samples = Vec::new();
        let mut tick = 0u64;
        for pair in words.chunks(2) {
            let w = pair[0];
            let x = pair.get(1).copied().unwrap_or(!w);
            tick = tick.saturating_add(match w >> 60 {
                0..=7 => 0,
                8..=13 => value(w >> 8) % 1024,
                _ => value(w >> 8),
            });
            let s = sample(tick, w >> 4, x);
            log.push(&s);
            samples.push(s);
        }
        let reparsed = BusLog::try_from_bytes(log.as_bytes());
        prop_assert!(reparsed.is_ok(), "{reparsed:?}");
        let reparsed = reparsed.unwrap_or_default();
        prop_assert_eq!(&reparsed, &log);
        prop_assert_eq!(reparsed.records(), samples.len() as u64);
        let mut decoded = Vec::new();
        prop_assert!(reparsed.try_visit(|s| decoded.push(*s)).is_ok());
        prop_assert_eq!(decoded, samples);
        // Edge values make these hostile to the folds: counts that
        // overflow, settles past the run's end, verdicts for any node.
        survives(&recorded().0, log.as_bytes())?;
    }

    #[test]
    fn hostile_logs_decode_or_fail_and_never_panic_the_folds(
        cut in 0u64..u64::MAX,
        edits in collection::vec(0u64..u64::MAX, 0..6),
    ) {
        let (cfg, log) = recorded();
        let whole = log.as_bytes();
        let mut bytes = whole[..(cut % (whole.len() as u64 + 1)) as usize].to_vec();
        survives(cfg, &bytes)?;
        for e in edits {
            if bytes.is_empty() {
                break;
            }
            let at = (e >> 8) as usize % bytes.len();
            match e % 4 {
                // Overwrite one byte.
                0 | 1 => bytes[at] = (e >> 40) as u8,
                // Drop one byte.
                2 => {
                    bytes.remove(at);
                }
                // Splice in a u64::MAX varint: giant ticks, counts, ages.
                _ => {
                    let max = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
                    bytes.splice(at..at, max);
                }
            }
            survives(cfg, &bytes)?;
        }
    }

    /// A `Settle` says its state held from the previous one up to its
    /// tick, and the trace integrates `dt × state` exactly, so splitting
    /// an interval with zero-event `Settle`s that repeat the state of the
    /// one closing it (the `Finish`, for the last) changes no integral,
    /// no event count and no backlog sample's tick. A log with one
    /// `Settle` per handled tick is such a split of the sparse one.
    #[test]
    fn zero_event_settles_inside_constant_intervals_replay_to_the_same_trace(
        seed in 0u64..u64::MAX,
    ) {
        let (cfg, log) = recorded();
        let mut rng = Rng64::new(seed);
        let mut split = BusLog::new();
        let (mut open_tick, mut pending) = (0, Vec::new());
        for s in decode(log) {
            if let Some((state, _)) = closes(s.payload) {
                // Up to two extra closes at ticks in [open_tick, s.tick],
                // each placed after every sample at or before its tick.
                let mut ticks: Vec<u64> = (0..rng.next_below(3))
                    .map(|_| open_tick + rng.next_below(s.tick - open_tick + 1))
                    .collect();
                ticks.sort_unstable();
                let (busy, batch_queue, downlink_queue, full) = state;
                let mut held = std::mem::take(&mut pending).into_iter().peekable();
                for tick in ticks {
                    while let Some(h) = held.next_if(|h: &Sample| h.tick <= tick) {
                        split.push(&h);
                    }
                    split.push(&Sample {
                        tick,
                        payload: Payload::Settle {
                            events: 0,
                            busy,
                            batch_queue,
                            downlink_queue,
                            full,
                        },
                    });
                }
                held.for_each(|h| split.push(&h));
                split.push(&s);
                open_tick = s.tick;
            } else {
                pending.push(s);
            }
        }
        pending.iter().for_each(|h| split.push(h));
        prop_assert!(split.records() > log.records());
        let original = replay(cfg, log).expect("recorded log replays");
        prop_assert_eq!(replay(cfg, &split).map_err(|e| e.to_string()), Ok(original));
    }
}

/// Every prefix of the recorded log is rejected, or decodes to a log
/// that replays without a panic; the whole log replays.
#[test]
fn every_truncation_of_a_recorded_run_is_rejected_or_replayed() {
    let (cfg, log) = recorded();
    assert!(replay(cfg, log).is_ok());
    let bytes = log.as_bytes();
    for cut in 0..bytes.len() {
        if let Err(TestCaseError::Fail(msg)) = survives(cfg, &bytes[..cut]) {
            panic!("cut {cut}: {msg}");
        }
    }
}
