//! Compact binary recording of a bus session (the hdds-recording
//! idiom): every published sample appended to a delta-encoded log that
//! can re-drive any subscriber deterministically.
//!
//! ## Wire format
//!
//! A log is a flat byte stream of records. Each record is:
//!
//! ```text
//! tag:u8  dtick:varint  fields…
//! ```
//!
//! `dtick` is the tick delta since the previous record (publication
//! ticks are nondecreasing, so deltas are small and LEB128-friendly).
//! Integers are unsigned LEB128 varints; booleans are one byte, `0` or
//! `1`. Latency-bearing payloads (`Processed`, `Delivered`) encode the
//! capture tick as an *age* (`tick - capture`), which is tiny compared
//! to the absolute tick.
//!
//! ## Decoding
//!
//! Decoding is one validating pass, and a truncated or corrupted log is
//! rejected rather than misread. The first malformed field ends the pass
//! with a structured [`SudcError`] naming its field and byte offset.
//! Rejected are:
//!
//! - a log that ends inside a record;
//! - an unknown record tag, `FaultKind` or `HealthEvent` byte;
//! - a boolean byte other than `0` or `1`;
//! - a varint wider than 64 bits, or above `u32::MAX` in a `u32` field;
//! - a `dtick` that carries the tick past `u64::MAX`;
//! - an age larger than its record's tick (a capture before tick zero).
//!
//! Reads return `Option`s and a failure is recorded once, out of line,
//! so the loop carries no error values. A one-byte varint (most fields)
//! is read inline. The visitor is called from inside each tag's arm, so
//! a fold inlined into [`BusLog::try_visit`] (the sim's replay) shares
//! the decoder's one dispatch per record.

use crate::sample::{FaultKind, HealthEvent, Payload, Sample, Tick};
use sudc_errors::{SudcError, Violation};

const TAG_CAPTURE: u8 = 1;
const TAG_PROCESSED: u8 = 2;
const TAG_DELIVERED: u8 = 3;
const TAG_SETTLE: u8 = 4;
const TAG_QUEUE_DEPTH: u8 = 5;
const TAG_BACKLOG: u8 = 6;
const TAG_BATCH_DISPATCHED: u8 = 7;
const TAG_FAULT: u8 = 8;
const TAG_FINISH: u8 = 9;
const TAG_HEARTBEAT: u8 = 10;
const TAG_HEALTH: u8 = 11;
const UNKNOWN_TAG: &str = "a known record tag (1..=11)";

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_bool(out: &mut Vec<u8>, b: bool) {
    out.push(u8::from(b));
}

/// The offending value of a decode failure.
#[derive(Debug, Clone, Copy)]
enum Found {
    EndOfLog,
    Value(u64),
}

/// The first decode failure: field, byte offset, value found and what
/// was allowed. Rendered into a [`SudcError`] only once, when the decode
/// gives up.
#[derive(Debug, Clone, Copy)]
struct Fault {
    path: &'static str,
    pos: usize,
    found: Found,
    allowed: &'static str,
}

impl Fault {
    /// Out of line and cold, so every branch into a failure is laid out
    /// off the decode loop's hot path.
    #[cold]
    #[inline(never)]
    fn new(path: &'static str, pos: usize, found: Found, allowed: &'static str) -> Self {
        Self {
            path,
            pos,
            found,
            allowed,
        }
    }

    #[cold]
    fn violation(self) -> Violation {
        Violation {
            path: format!("{} (byte offset {})", self.path, self.pos),
            value: match self.found {
                Found::EndOfLog => "end of log".to_string(),
                Found::Value(v) => v.to_string(),
            },
            allowed: self.allowed.to_string(),
        }
    }
}

/// The rest of a multi-byte varint whose first byte was `first`, read
/// from `bytes[pos..]`: the offset after it, and its value or why it is
/// not one (the log ends, or it is wider than 64 bits).
#[inline(never)]
fn varint_tail(bytes: &[u8], mut pos: usize, first: u8) -> (usize, Result<u64, Found>) {
    let mut v = u64::from(first & 0x7f);
    let mut shift = 7u32;
    loop {
        let Some(&b) = bytes.get(pos) else {
            return (pos, Err(Found::EndOfLog));
        };
        pos += 1;
        if shift >= 64 || (shift == 63 && (b & 0x7f) > 1) {
            return (pos, Err(Found::Value(b.into())));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return (pos, Ok(v));
        }
        shift += 7;
    }
}

/// Streaming decoder state over a log's bytes. Every read returns an
/// `Option`; a `None` means [`Cursor::fail`] has recorded why.
///
/// No out-of-line function takes the cursor by reference (the varint
/// tail gets the offset by value, a failure is built by value), so its
/// offset stays in a register through the decode loop instead of being
/// stored and reloaded on every byte.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    fault: Option<Fault>,
}

impl<'a> Cursor<'a> {
    /// Records a failure at the current offset.
    #[inline(always)]
    fn fail<T>(&mut self, path: &'static str, found: Found, allowed: &'static str) -> Option<T> {
        self.fault = Some(Fault::new(path, self.pos, found, allowed));
        None
    }

    #[inline(always)]
    fn byte(&mut self, path: &'static str) -> Option<u8> {
        match self.bytes.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Some(b)
            }
            None => self.fail(path, Found::EndOfLog, "at least one more byte"),
        }
    }

    /// An unsigned LEB128 varint. Most fields fit one byte, so that case
    /// is inlined and longer encodings take [`varint_tail`].
    #[inline(always)]
    fn varint(&mut self, path: &'static str) -> Option<u64> {
        let b = self.byte(path)?;
        if b < 0x80 {
            return Some(u64::from(b));
        }
        let (pos, tail) = varint_tail(self.bytes, self.pos, b);
        self.pos = pos;
        match tail {
            Ok(v) => Some(v),
            Err(Found::EndOfLog) => self.fail(path, Found::EndOfLog, "at least one more byte"),
            Err(found) => self.fail(path, found, "a varint that fits in 64 bits"),
        }
    }

    /// A varint that must fit a `u32` field (`sat`, `busy`). The wire
    /// format carries u64 varints, so a hostile or corrupt log can
    /// encode values above `u32::MAX`; a plain `as u32` cast would wrap
    /// silently past full-decode validation.
    #[inline(always)]
    fn varint_u32(&mut self, path: &'static str) -> Option<u32> {
        let v = self.varint(path)?;
        match u32::try_from(v) {
            Ok(v) => Some(v),
            Err(_) => self.fail(path, Found::Value(v), "a varint that fits in 32 bits"),
        }
    }

    #[inline(always)]
    fn boolean(&mut self, path: &'static str) -> Option<bool> {
        match self.byte(path)? {
            0 => Some(false),
            1 => Some(true),
            other => self.fail(path, Found::Value(other.into()), "a boolean byte (0 or 1)"),
        }
    }

    /// The capture tick of a latency-bearing record at `tick`, encoded
    /// as an age. An age past the tick would name a capture before tick
    /// zero, which no encoder writes.
    #[inline(always)]
    fn capture(&mut self, tick: Tick) -> Option<Tick> {
        let age = self.varint("age")?;
        match tick.checked_sub(age) {
            Some(capture) => Some(capture),
            None => self.fail(
                "age",
                Found::Value(age),
                "an age no larger than the record's tick",
            ),
        }
    }

    /// Decodes the record at the cursor, whose predecessor was published
    /// at `tick`, hands it to `f` and returns its tick. `f` is called
    /// from each tag's arm, with the payload variant known there, so a
    /// visitor inlined here (the replay fold) needs no second dispatch
    /// on the payload: one tag match per record serves both.
    #[inline(always)]
    fn record(&mut self, tick: Tick, f: &mut impl FnMut(&Sample)) -> Option<Tick> {
        let tag = self.byte("tag")?;
        if !(TAG_CAPTURE..=TAG_HEALTH).contains(&tag) {
            return self.fail("tag", Found::Value(tag.into()), UNKNOWN_TAG);
        }
        let dtick = self.varint("dtick")?;
        let Some(tick) = tick.checked_add(dtick) else {
            return self.fail(
                "dtick",
                Found::Value(dtick),
                "a tick delta that keeps the tick within u64",
            );
        };
        // Builds the sample inside the arm and visits it there.
        macro_rules! emit {
            ($p:expr) => {{
                let payload = $p;
                f(&Sample { tick, payload })
            }};
        }
        match tag {
            TAG_CAPTURE => emit!(Payload::Capture {
                sat: self.varint_u32("sat")?,
                filtered: self.boolean("filtered")?,
            }),
            TAG_PROCESSED => emit!(Payload::Processed {
                capture: self.capture(tick)?,
            }),
            TAG_DELIVERED => emit!(Payload::Delivered {
                capture: self.capture(tick)?,
            }),
            TAG_SETTLE => emit!(Payload::Settle {
                events: self.varint("events")?,
                busy: self.varint_u32("busy")?,
                batch_queue: self.varint("batch_queue")?,
                downlink_queue: self.varint("downlink_queue")?,
                full: self.boolean("full")?,
            }),
            TAG_QUEUE_DEPTH => emit!(Payload::QueueDepth {
                downlink: self.boolean("downlink")?,
                len: self.varint("len")?,
            }),
            TAG_BACKLOG => {
                let isl = self.varint("isl")?;
                let batch = self.varint("batch")?;
                let downlink = self.varint("downlink")?;
                let oldest_age = if self.boolean("has_age")? {
                    Some(self.varint("oldest_age")?)
                } else {
                    None
                };
                emit!(Payload::Backlog {
                    isl,
                    batch,
                    downlink,
                    oldest_age,
                })
            }
            TAG_BATCH_DISPATCHED => emit!(Payload::BatchDispatched {
                size: self.varint("size")?,
                timeout: self.boolean("timeout")?,
            }),
            TAG_FAULT => {
                let raw = self.byte("fault kind")?;
                let Some(kind) = FaultKind::from_wire_tag(raw) else {
                    return self.fail(
                        "fault kind",
                        Found::Value(raw.into()),
                        "a known FaultKind wire tag",
                    );
                };
                emit!(Payload::Fault {
                    kind,
                    count: self.varint("count")?,
                })
            }
            TAG_FINISH => emit!(Payload::Finish {
                busy: self.varint_u32("busy")?,
                batch_queue: self.varint("batch_queue")?,
                downlink_queue: self.varint("downlink_queue")?,
                full: self.boolean("full")?,
                peak_event_queue: self.varint("peak_event_queue")?,
            }),
            TAG_HEARTBEAT => emit!(Payload::Heartbeat {
                node: self.varint_u32("node")?,
            }),
            TAG_HEALTH => {
                let raw = self.byte("health event")?;
                let Some(event) = HealthEvent::from_wire_tag(raw) else {
                    return self.fail(
                        "health event",
                        Found::Value(raw.into()),
                        "a known HealthEvent wire tag",
                    );
                };
                emit!(Payload::Health {
                    event,
                    node: self.varint_u32("node")?,
                    value: self.varint("value")?,
                })
            }
            other => return self.fail("tag", Found::Value(other.into()), UNKNOWN_TAG),
        }
        Some(tick)
    }
}

/// An append-only binary log of every sample published on a bus.
///
/// Comparing two logs with `==` compares the encoded bytes — two runs
/// that produce equal logs published identical streams.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BusLog {
    bytes: Vec<u8>,
    records: u64,
    last_tick: Tick,
}

impl BusLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one sample.
    ///
    /// Publication ticks must be nondecreasing, and latency-bearing
    /// payloads must carry `capture <= tick` — both hold for every
    /// stream the sim kernel publishes, and both are `debug_assert`ed.
    pub fn push(&mut self, sample: &Sample) {
        debug_assert!(
            sample.tick >= self.last_tick,
            "publication ticks must be nondecreasing"
        );
        let out = &mut self.bytes;
        let dtick = sample.tick.saturating_sub(self.last_tick);
        match sample.payload {
            Payload::Capture { sat, filtered } => {
                out.push(TAG_CAPTURE);
                put_varint(out, dtick);
                put_varint(out, u64::from(sat));
                put_bool(out, filtered);
            }
            Payload::Processed { capture } => {
                debug_assert!(capture <= sample.tick);
                out.push(TAG_PROCESSED);
                put_varint(out, dtick);
                put_varint(out, sample.tick.saturating_sub(capture));
            }
            Payload::Delivered { capture } => {
                debug_assert!(capture <= sample.tick);
                out.push(TAG_DELIVERED);
                put_varint(out, dtick);
                put_varint(out, sample.tick.saturating_sub(capture));
            }
            Payload::Settle {
                events,
                busy,
                batch_queue,
                downlink_queue,
                full,
            } => {
                out.push(TAG_SETTLE);
                put_varint(out, dtick);
                put_varint(out, events);
                put_varint(out, u64::from(busy));
                put_varint(out, batch_queue);
                put_varint(out, downlink_queue);
                put_bool(out, full);
            }
            Payload::QueueDepth { downlink, len } => {
                out.push(TAG_QUEUE_DEPTH);
                put_varint(out, dtick);
                put_bool(out, downlink);
                put_varint(out, len);
            }
            Payload::Backlog {
                isl,
                batch,
                downlink,
                oldest_age,
            } => {
                out.push(TAG_BACKLOG);
                put_varint(out, dtick);
                put_varint(out, isl);
                put_varint(out, batch);
                put_varint(out, downlink);
                put_bool(out, oldest_age.is_some());
                if let Some(age) = oldest_age {
                    put_varint(out, age);
                }
            }
            Payload::BatchDispatched { size, timeout } => {
                out.push(TAG_BATCH_DISPATCHED);
                put_varint(out, dtick);
                put_varint(out, size);
                put_bool(out, timeout);
            }
            Payload::Fault { kind, count } => {
                out.push(TAG_FAULT);
                put_varint(out, dtick);
                out.push(kind.wire_tag());
                put_varint(out, count);
            }
            Payload::Finish {
                busy,
                batch_queue,
                downlink_queue,
                full,
                peak_event_queue,
            } => {
                out.push(TAG_FINISH);
                put_varint(out, dtick);
                put_varint(out, u64::from(busy));
                put_varint(out, batch_queue);
                put_varint(out, downlink_queue);
                put_bool(out, full);
                put_varint(out, peak_event_queue);
            }
            Payload::Heartbeat { node } => {
                out.push(TAG_HEARTBEAT);
                put_varint(out, dtick);
                put_varint(out, u64::from(node));
            }
            Payload::Health { event, node, value } => {
                out.push(TAG_HEALTH);
                put_varint(out, dtick);
                out.push(event.wire_tag());
                put_varint(out, u64::from(node));
                put_varint(out, value);
            }
        }
        self.last_tick = sample.tick;
        self.records += 1;
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Encoded size in bytes.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// The raw encoded log.
    ///
    /// Kept without a non-test caller: with [`BusLog::try_from_bytes`] it
    /// is the log's byte form for storage outside the program. The
    /// round-trip and hostile-input properties in `tests/bus_log_model.rs`
    /// go through it, and a log inspector (ROADMAP.md item 1) will too.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Parses and validates a log from raw bytes (a full decode pass —
    /// a truncated or corrupt log is rejected up front).
    ///
    /// Kept without a non-test caller: this is the decoder's entry point
    /// for bytes from outside the program. The hostile-input properties in
    /// `tests/bus_log_model.rs` (truncations, byte edits, spliced varints)
    /// hold it to "decode or fail, never panic", and a log inspector
    /// (ROADMAP.md item 1) will read logs through it.
    ///
    /// # Errors
    /// Returns a [`SudcError`] naming the byte offset and field of the
    /// first malformed record.
    pub fn try_from_bytes(bytes: &[u8]) -> Result<Self, SudcError> {
        let mut log = Self {
            bytes: bytes.to_vec(),
            records: 0,
            last_tick: 0,
        };
        let mut records = 0u64;
        let mut last = 0u64;
        Self::visit_bytes(bytes, |s| {
            records += 1;
            last = s.tick;
        })?;
        log.records = records;
        log.last_tick = last;
        Ok(log)
    }

    /// Decodes every sample in order, invoking `f` on each. `f` is
    /// called from the decoder's arm for the record's tag, so a visitor
    /// that inlines here matches on a payload variant already known.
    ///
    /// # Errors
    /// Returns a [`SudcError`] naming the byte offset and field of the
    /// first malformed record.
    #[inline]
    pub fn try_visit(&self, f: impl FnMut(&Sample)) -> Result<u64, SudcError> {
        Self::visit_bytes(&self.bytes, f)?;
        Ok(self.records)
    }

    #[inline]
    fn visit_bytes(bytes: &[u8], mut f: impl FnMut(&Sample)) -> Result<(), SudcError> {
        let mut c = Cursor {
            bytes,
            pos: 0,
            fault: None,
        };
        let mut tick: Tick = 0;
        while c.pos < c.bytes.len() {
            let Some(next) = c.record(tick, &mut f) else {
                let violation = c.fault.map(Fault::violation);
                return Err(SudcError::new("BusLog", violation.into_iter().collect()));
            };
            tick = next;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every sample of a valid `log`, in order.
    fn decode(log: &BusLog) -> Vec<Sample> {
        let mut out = Vec::new();
        log.try_visit(|s| out.push(*s)).expect("valid log");
        out
    }

    fn roundtrip(samples: &[Sample]) {
        let mut log = BusLog::new();
        for s in samples {
            log.push(s);
        }
        let reparsed = BusLog::try_from_bytes(log.as_bytes()).expect("valid log");
        assert_eq!(reparsed, log);
        assert_eq!(decode(&reparsed), samples);
    }

    #[test]
    fn every_payload_roundtrips() {
        roundtrip(&[
            Sample {
                tick: 0,
                payload: Payload::Settle {
                    events: 3,
                    busy: 0,
                    batch_queue: 0,
                    downlink_queue: 0,
                    full: true,
                },
            },
            Sample {
                tick: 0,
                payload: Payload::Capture {
                    sat: 17,
                    filtered: false,
                },
            },
            Sample {
                tick: 5,
                payload: Payload::Capture {
                    sat: 300,
                    filtered: true,
                },
            },
            Sample {
                tick: 9,
                payload: Payload::QueueDepth {
                    downlink: false,
                    len: 4,
                },
            },
            Sample {
                tick: 9,
                payload: Payload::BatchDispatched {
                    size: 16,
                    timeout: false,
                },
            },
            Sample {
                tick: 40,
                payload: Payload::Processed { capture: 0 },
            },
            Sample {
                tick: 41,
                payload: Payload::QueueDepth {
                    downlink: true,
                    len: 1,
                },
            },
            Sample {
                tick: 50,
                payload: Payload::Backlog {
                    isl: 1,
                    batch: 2,
                    downlink: 3,
                    oldest_age: Some(10),
                },
            },
            Sample {
                tick: 51,
                payload: Payload::Backlog {
                    isl: 0,
                    batch: 0,
                    downlink: 0,
                    oldest_age: None,
                },
            },
            Sample {
                tick: 60,
                payload: Payload::Fault {
                    kind: FaultKind::StormKill,
                    count: 2,
                },
            },
            Sample {
                tick: 90,
                payload: Payload::Delivered { capture: 5 },
            },
            Sample {
                tick: 93,
                payload: Payload::Heartbeat { node: 7 },
            },
            Sample {
                tick: 95,
                payload: Payload::Health {
                    event: HealthEvent::Dead,
                    node: 7,
                    value: 120,
                },
            },
            Sample {
                tick: 95,
                payload: Payload::Health {
                    event: HealthEvent::Readmit,
                    node: 2,
                    value: 0,
                },
            },
            Sample {
                tick: 100,
                payload: Payload::Finish {
                    busy: 0,
                    batch_queue: 0,
                    downlink_queue: 0,
                    full: true,
                    peak_event_queue: 12,
                },
            },
        ]);
    }

    #[test]
    fn truncated_and_corrupt_logs_are_rejected() {
        let mut log = BusLog::new();
        log.push(&Sample {
            tick: 7,
            payload: Payload::Capture {
                sat: 1,
                filtered: false,
            },
        });
        let bytes = log.as_bytes();
        // Truncation at every prefix must fail (except the empty log).
        for cut in 1..bytes.len() {
            assert!(BusLog::try_from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
        // An unknown tag fails with a structured error naming the offset.
        let err = BusLog::try_from_bytes(&[0xEE]).unwrap_err();
        assert!(err.violations()[0].path.contains("tag"));
        // A non-boolean boolean byte fails.
        let mut bad = bytes.to_vec();
        *bad.last_mut().unwrap() = 7;
        assert!(BusLog::try_from_bytes(&bad).is_err());
    }

    #[test]
    fn out_of_range_u32_varints_are_rejected_not_wrapped() {
        // Hand-encode records whose `sat`/`busy` varints exceed
        // u32::MAX. These are valid 64-bit varints, so the old `as u32`
        // cast would have wrapped them silently (e.g. u32::MAX + 1 → 0).
        let overflowing = [u64::from(u32::MAX) + 1, u64::MAX];
        for value in overflowing {
            // TAG_CAPTURE: tag, dtick=0, sat=value, filtered=0.
            let mut capture = vec![TAG_CAPTURE, 0];
            put_varint(&mut capture, value);
            put_bool(&mut capture, false);
            let err = BusLog::try_from_bytes(&capture).unwrap_err();
            let v = &err.violations()[0];
            assert!(v.path.contains("sat"), "path={}", v.path);
            assert!(v.value.contains(&value.to_string()), "value={}", v.value);

            // TAG_SETTLE: tag, dtick=0, events=1, busy=value, …
            let mut settle = vec![TAG_SETTLE, 0, 1];
            put_varint(&mut settle, value);
            settle.extend_from_slice(&[0, 0, 1]);
            let err = BusLog::try_from_bytes(&settle).unwrap_err();
            assert!(err.violations()[0].path.contains("busy"));

            // TAG_FINISH: tag, dtick=0, busy=value, …
            let mut finish = vec![TAG_FINISH, 0];
            put_varint(&mut finish, value);
            finish.extend_from_slice(&[0, 0, 1, 0]);
            let err = BusLog::try_from_bytes(&finish).unwrap_err();
            assert!(err.violations()[0].path.contains("busy"));
        }
        // The boundary value itself still decodes.
        let mut ok = vec![TAG_CAPTURE, 0];
        put_varint(&mut ok, u64::from(u32::MAX));
        put_bool(&mut ok, true);
        let log = BusLog::try_from_bytes(&ok).unwrap();
        assert_eq!(
            decode(&log)[0].payload,
            Payload::Capture {
                sat: u32::MAX,
                filtered: true,
            }
        );
    }

    #[test]
    fn unknown_health_event_tags_are_rejected() {
        // TAG_HEALTH: tag, dtick=0, event tag beyond HealthEvent::ALL.
        let bad = [TAG_HEALTH, 0, HealthEvent::ALL.len() as u8, 0, 0];
        let err = BusLog::try_from_bytes(&bad).unwrap_err();
        assert!(err.violations()[0].path.contains("health event"));
    }

    /// The full `Display` text of every decode failure kind, pinned as
    /// literals so a decoder rewrite cannot drift the diagnostics. A
    /// record only starts where bytes remain, so a cut straight after
    /// the tag lands in `dtick`; the `tag` path reports unknown tags.
    #[test]
    fn decode_errors_keep_their_exact_text() {
        let mut two_pow_32 = vec![TAG_CAPTURE, 0];
        put_varint(&mut two_pow_32, 1 << 32);
        two_pow_32.push(0);
        let mut wide = vec![TAG_CAPTURE];
        wide.extend_from_slice(&[0xFF; 9]);
        wide.push(0x02);
        let mut eleven_bytes = vec![TAG_PROCESSED, 0];
        eleven_bytes.extend_from_slice(&[0x80; 9]);
        eleven_bytes.extend_from_slice(&[0x81, 0x00]);
        let cases: [(&[u8], &str); 18] = [
            (
                &[TAG_CAPTURE],
                "`dtick (byte offset 1)` = end of log (allowed: at least one more byte)",
            ),
            (
                &[TAG_CAPTURE, 0x80],
                "`dtick (byte offset 2)` = end of log (allowed: at least one more byte)",
            ),
            (
                &[TAG_PROCESSED, 0],
                "`age (byte offset 2)` = end of log (allowed: at least one more byte)",
            ),
            (
                &[TAG_SETTLE, 0, 0x81],
                "`events (byte offset 3)` = end of log (allowed: at least one more byte)",
            ),
            (
                &[TAG_CAPTURE, 0],
                "`sat (byte offset 2)` = end of log (allowed: at least one more byte)",
            ),
            (
                &[TAG_HEARTBEAT, 3, 0x80],
                "`node (byte offset 3)` = end of log (allowed: at least one more byte)",
            ),
            (
                &[TAG_CAPTURE, 0, 0],
                "`filtered (byte offset 3)` = end of log (allowed: at least one more byte)",
            ),
            (
                &[TAG_FAULT, 0],
                "`fault kind (byte offset 2)` = end of log (allowed: at least one more byte)",
            ),
            (
                &[TAG_HEALTH, 0],
                "`health event (byte offset 2)` = end of log (allowed: at least one more byte)",
            ),
            (
                &[0xEE],
                "`tag (byte offset 1)` = 238 (allowed: a known record tag (1..=11))",
            ),
            (
                &[TAG_HEARTBEAT, 0, 1, 0],
                "`tag (byte offset 4)` = 0 (allowed: a known record tag (1..=11))",
            ),
            (
                &[TAG_CAPTURE, 0, 0, 7],
                "`filtered (byte offset 4)` = 7 (allowed: a boolean byte (0 or 1))",
            ),
            (
                &[TAG_BACKLOG, 0, 0, 0, 0, 2],
                "`has_age (byte offset 6)` = 2 (allowed: a boolean byte (0 or 1))",
            ),
            (
                &wide,
                "`dtick (byte offset 11)` = 2 (allowed: a varint that fits in 64 bits)",
            ),
            (
                &eleven_bytes,
                "`age (byte offset 13)` = 0 (allowed: a varint that fits in 64 bits)",
            ),
            (
                &two_pow_32,
                "`sat (byte offset 7)` = 4294967296 (allowed: a varint that fits in 32 bits)",
            ),
            (
                &[TAG_FAULT, 0, 12, 0],
                "`fault kind (byte offset 3)` = 12 (allowed: a known FaultKind wire tag)",
            ),
            (
                &[TAG_HEALTH, 0, 4, 0, 0],
                "`health event (byte offset 3)` = 4 (allowed: a known HealthEvent wire tag)",
            ),
        ];
        for (bytes, want) in cases {
            let err = BusLog::try_from_bytes(bytes).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("invalid BusLog: {want}"),
                "{bytes:?}"
            );
        }
    }

    #[test]
    fn a_dtick_overflowing_the_tick_is_rejected() {
        // Two deltas summing past u64::MAX: the second record's tick
        // does not exist, so the log is rejected, not wrapped.
        let mut bytes = vec![TAG_HEARTBEAT];
        put_varint(&mut bytes, u64::MAX);
        bytes.extend_from_slice(&[0, TAG_HEARTBEAT, 1, 0]);
        let err = BusLog::try_from_bytes(&bytes).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid BusLog: `dtick (byte offset 14)` = 1 \
             (allowed: a tick delta that keeps the tick within u64)"
        );
        // Landing exactly on u64::MAX is still a tick.
        let mut edge = vec![TAG_HEARTBEAT];
        put_varint(&mut edge, u64::MAX - 1);
        edge.extend_from_slice(&[0, TAG_HEARTBEAT, 1, 0]);
        let log = BusLog::try_from_bytes(&edge).unwrap();
        assert_eq!(decode(&log)[1].tick, u64::MAX);
    }

    #[test]
    fn an_age_older_than_its_tick_is_rejected() {
        // Processed and Delivered at tick 5 with age 6 would name a
        // capture before tick zero; they used to decode as capture 0.
        for tag in [TAG_PROCESSED, TAG_DELIVERED] {
            let err = BusLog::try_from_bytes(&[tag, 5, 6]).unwrap_err();
            assert_eq!(
                err.to_string(),
                "invalid BusLog: `age (byte offset 3)` = 6 \
                 (allowed: an age no larger than the record's tick)"
            );
        }
        // age == tick is a capture at tick zero.
        let log = BusLog::try_from_bytes(&[TAG_DELIVERED, 5, 5]).unwrap();
        assert_eq!(decode(&log)[0].payload, Payload::Delivered { capture: 0 });
    }

    #[test]
    fn empty_log_is_valid() {
        let log = BusLog::try_from_bytes(&[]).unwrap();
        assert_eq!(log.records(), 0);
        assert_eq!(log.byte_len(), 0);
    }
}
