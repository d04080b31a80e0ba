//! [`Snapshot`]: a hand-rolled, byte-stable binary codec for checkpoints.
//!
//! The workspace vendors no serialization framework (the build environment
//! is offline), so the journal format is written by hand against one hard
//! requirement: **equal values encode to equal bytes, on every platform,
//! forever**. The journal's determinism checks byte-diff two encodings, and
//! checked-in journals must stay readable across toolchain upgrades, so the
//! encoding may depend on nothing incidental — no hash-map iteration order,
//! no pointer widths, no endianness of the host.
//!
//! The rules, in full:
//!
//! * Every integer is little-endian and fixed-width; `usize` travels as
//!   `u64` (and decoding rejects values that do not fit the host's `usize`).
//! * `bool` is one byte, `0` or `1`; any other value is a decode error.
//! * `Vec<T>` and `String` are a `u64` length followed by the elements /
//!   UTF-8 bytes. Tuples and structs are their fields in declaration order,
//!   nothing else — no tags, no padding.
//! * `Option<T>` is a `0`/`1` presence byte, then the value if present.
//! * `BTreeMap<K, V>` is exactly the bytes of its entries as a `Vec<(K, V)>`
//!   in key order, and decoding refuses keys that are not strictly
//!   increasing, so bytes that decode re-encode to themselves. `HashMap` has
//!   no impl: its order is history, so map-shaped state is a `BTreeMap` or a
//!   sorted `Vec` (`SimCheckpoint`), which makes encoding a pure function of
//!   the state.
//!
//! Decoding is strict: truncated input, an invalid byte, an oversized
//! length, or trailing bytes after the value are all errors, never silently
//! accepted — a journal either round-trips exactly or is rejected.

use std::collections::BTreeMap;
use std::fmt;

/// A decode failure (see [`Snapshot::decode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value did.
    Truncated {
        /// Bytes still needed.
        wanted: usize,
        /// Offset at which they were needed.
        at: usize,
    },
    /// A byte or value that no encoder emits.
    Invalid {
        /// What was being decoded.
        what: &'static str,
        /// Offset of the offending bytes.
        at: usize,
    },
    /// The value decoded but bytes remained (see `Reader::finish`).
    Trailing {
        /// Leftover byte count.
        remaining: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { wanted, at } => {
                write!(
                    f,
                    "input truncated: {wanted} more bytes needed at offset {at}"
                )
            }
            CodecError::Invalid { what, at } => {
                write!(f, "invalid {what} at offset {at}")
            }
            CodecError::Trailing { remaining } => {
                write!(f, "{remaining} trailing bytes after the value")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// A cursor over encoded bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current offset into the input.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                wanted: n - self.remaining(),
                at: self.pos,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Asserts the input is fully consumed (a whole-value decode must end
    /// exactly at the end of its bytes).
    pub(crate) fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Trailing {
                remaining: self.remaining(),
            })
        }
    }
}

/// A value with a stable byte encoding (module docs for the format rules).
///
/// This trait is local to `mfd-replay`, so it can be implemented here for
/// the workspace's foreign checkpoint types (`ExecCheckpoint`,
/// `SimCheckpoint`, `ReliableState`, …) without orphan-rule friction.
pub trait Snapshot {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the reader, consuming exactly its bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated, invalid, or oversized input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>
    where
        Self: Sized;
}

/// Encodes a value to fresh bytes.
pub fn to_bytes<T: Snapshot>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a whole buffer as one value (trailing bytes are an error).
///
/// # Errors
///
/// Exactly as [`Snapshot::decode`], plus [`CodecError::Trailing`].
pub fn from_bytes<T: Snapshot>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

impl Snapshot for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(r.take(1)?[0])
    }
}

impl Snapshot for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(u32::from_le_bytes(r.take(4)?.try_into().unwrap()))
    }
}

impl Snapshot for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(u64::from_le_bytes(r.take(8)?.try_into().unwrap()))
    }
}

impl Snapshot for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(i64::from_le_bytes(r.take(8)?.try_into().unwrap()))
    }
}

impl Snapshot for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let at = r.pos();
        let wide = u64::decode(r)?;
        usize::try_from(wide).map_err(|_| CodecError::Invalid {
            what: "usize (does not fit the host)",
            at,
        })
    }
}

impl Snapshot for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let at = r.pos();
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid { what: "bool", at }),
        }
    }
}

impl Snapshot for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let at = r.pos();
        let len = usize::decode(r)?;
        if len > r.remaining() {
            return Err(CodecError::Invalid {
                what: "string length",
                at,
            });
        }
        String::from_utf8(r.take(len)?.to_vec()).map_err(|_| CodecError::Invalid {
            what: "utf-8 string",
            at,
        })
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let at = r.pos();
        match r.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(CodecError::Invalid {
                what: "option tag",
                at,
            }),
        }
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let at = r.pos();
        let len = usize::decode(r)?;
        // Every element costs at least one byte, so a length beyond the
        // remaining input is corrupt — reject it before allocating.
        if len > r.remaining() {
            return Err(CodecError::Invalid {
                what: "vec length",
                at,
            });
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

/// Exactly the bytes of its entries as a `Vec<(K, V)>`, in key order.
impl<K: Snapshot + Ord, V: Snapshot> Snapshot for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for (key, value) in self {
            key.encode(out);
            value.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let at = r.pos();
        let entries = Vec::<(K, V)>::decode(r)?;
        if entries.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(CodecError::Invalid {
                what: "map keys (not strictly increasing)",
                at,
            });
        }
        Ok(entries.into_iter().collect())
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Snapshot, B: Snapshot, C: Snapshot> Snapshot for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<A: Snapshot, B: Snapshot, C: Snapshot, D: Snapshot> Snapshot for (A, B, C, D) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
        self.3.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?, D::decode(r)?))
    }
}

// ---------------------------------------------------------------------------
// Workspace checkpoint types (fields in declaration order, always)
// ---------------------------------------------------------------------------

impl Snapshot for mfd_congest::Message {
    fn encode(&self, out: &mut Vec<u8>) {
        self.src.encode(out);
        self.dst.encode(out);
        self.words.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(mfd_congest::Message {
            src: usize::decode(r)?,
            dst: usize::decode(r)?,
            words: usize::decode(r)?,
        })
    }
}

impl Snapshot for mfd_congest::meter::PhaseRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.rounds.encode(out);
        self.messages.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(mfd_congest::meter::PhaseRecord {
            name: String::decode(r)?,
            rounds: u64::decode(r)?,
            messages: u64::decode(r)?,
        })
    }
}

impl Snapshot for mfd_congest::MeterParts {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rounds.encode(out);
        self.messages.encode(out);
        self.capacity_words.encode(out);
        self.max_words_on_edge.encode(out);
        self.phases.encode(out);
        self.phase_start.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(mfd_congest::MeterParts {
            rounds: u64::decode(r)?,
            messages: u64::decode(r)?,
            capacity_words: usize::decode(r)?,
            max_words_on_edge: usize::decode(r)?,
            phases: Vec::decode(r)?,
            phase_start: Option::decode(r)?,
        })
    }
}

impl<M: Snapshot> Snapshot for mfd_runtime::Envelope<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.src.encode(out);
        self.msg.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(mfd_runtime::Envelope {
            src: usize::decode(r)?,
            msg: M::decode(r)?,
        })
    }
}

impl<S: Snapshot, M: Snapshot> Snapshot for mfd_runtime::ExecCheckpoint<S, M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.round.encode(out);
        self.states.encode(out);
        self.halted.encode(out);
        self.inbox.encode(out);
        self.meter.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(mfd_runtime::ExecCheckpoint {
            round: u64::decode(r)?,
            states: Vec::decode(r)?,
            halted: Vec::decode(r)?,
            inbox: Vec::decode(r)?,
            meter: mfd_congest::MeterParts::decode(r)?,
        })
    }
}

impl<M: Snapshot> Snapshot for mfd_sim::PacketCheckpoint<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.time.encode(out);
        self.seq_key.encode(out);
        self.src.encode(out);
        self.dst.encode(out);
        self.tag.encode(out);
        self.payload.encode(out);
        self.halt.encode(out);
        self.notice.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(mfd_sim::PacketCheckpoint {
            time: u64::decode(r)?,
            seq_key: u64::decode(r)?,
            src: usize::decode(r)?,
            dst: usize::decode(r)?,
            tag: u64::decode(r)?,
            payload: Vec::decode(r)?,
            halt: bool::decode(r)?,
            notice: bool::decode(r)?,
        })
    }
}

impl<M: Snapshot> Snapshot for mfd_sim::VertexCheckpoint<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.halted.encode(out);
        self.crashed.encode(out);
        self.next_round.encode(out);
        self.completion.encode(out);
        self.pending.encode(out);
        self.late.encode(out);
        self.nbr_final_tag.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(mfd_sim::VertexCheckpoint {
            halted: bool::decode(r)?,
            crashed: bool::decode(r)?,
            next_round: u64::decode(r)?,
            completion: u64::decode(r)?,
            pending: Vec::decode(r)?,
            late: Vec::decode(r)?,
            nbr_final_tag: Vec::decode(r)?,
        })
    }
}

impl Snapshot for mfd_sim::SimStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.packets.encode(out);
        self.payload_packets.encode(out);
        self.pure_pulses.encode(out);
        self.payload_messages.encode(out);
        self.dropped_packets.encode(out);
        self.lost_messages.encode(out);
        self.duplicated_messages.encode(out);
        self.slipped_messages.encode(out);
        self.slipped_delivered.encode(out);
        self.stale_slipped.encode(out);
        self.crash_notices.encode(out);
        self.crashed_vertices.encode(out);
        self.peak_in_flight.encode(out);
        self.edges.encode(out);
        self.edge_in_flight_peak.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(mfd_sim::SimStats {
            packets: u64::decode(r)?,
            payload_packets: u64::decode(r)?,
            pure_pulses: u64::decode(r)?,
            payload_messages: u64::decode(r)?,
            dropped_packets: u64::decode(r)?,
            lost_messages: u64::decode(r)?,
            duplicated_messages: u64::decode(r)?,
            slipped_messages: u64::decode(r)?,
            slipped_delivered: u64::decode(r)?,
            stale_slipped: u64::decode(r)?,
            crash_notices: u64::decode(r)?,
            crashed_vertices: u64::decode(r)?,
            peak_in_flight: usize::decode(r)?,
            edges: Vec::decode(r)?,
            edge_in_flight_peak: Vec::decode(r)?,
        })
    }
}

impl<S: Snapshot, M: Snapshot> Snapshot for mfd_sim::SimCheckpoint<S, M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.round.encode(out);
        self.states.encode(out);
        self.vx.encode(out);
        self.queue.encode(out);
        self.seq.encode(out);
        self.pending_rounds.encode(out);
        self.meter.encode(out);
        self.round_pop.encode(out);
        self.live.encode(out);
        self.frontier.encode(out);
        self.makespan.encode(out);
        self.in_flight.encode(out);
        self.edge_peak.encode(out);
        self.cur_in_flight.encode(out);
        self.stats.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(mfd_sim::SimCheckpoint {
            round: u64::decode(r)?,
            states: Vec::decode(r)?,
            vx: Vec::decode(r)?,
            queue: Vec::decode(r)?,
            seq: u64::decode(r)?,
            pending_rounds: Vec::decode(r)?,
            meter: mfd_congest::MeterParts::decode(r)?,
            round_pop: Vec::decode(r)?,
            live: usize::decode(r)?,
            frontier: u64::decode(r)?,
            makespan: u64::decode(r)?,
            in_flight: Vec::decode(r)?,
            edge_peak: Vec::decode(r)?,
            cur_in_flight: usize::decode(r)?,
            stats: mfd_sim::SimStats::decode(r)?,
        })
    }
}

impl Snapshot for mfd_trace::EngineKind {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            mfd_trace::EngineKind::Executor => 0,
            mfd_trace::EngineKind::Sim => 1,
        });
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let at = r.pos();
        match r.take(1)?[0] {
            0 => Ok(mfd_trace::EngineKind::Executor),
            1 => Ok(mfd_trace::EngineKind::Sim),
            _ => Err(CodecError::Invalid {
                what: "engine kind",
                at,
            }),
        }
    }
}

impl Snapshot for mfd_trace::DigestState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.engine.encode(out);
        self.heads.encode(out);
        self.current.encode(out);
        self.pending.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(mfd_trace::DigestState {
            engine: Option::decode(r)?,
            heads: Vec::decode(r)?,
            current: Vec::decode(r)?,
            pending: Vec::decode(r)?,
        })
    }
}

impl<M: Snapshot> Snapshot for mfd_faults::Frame<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.ack.encode(out);
        self.boundary_round.encode(out);
        self.boundary_cum.encode(out);
        self.fin.encode(out);
        self.payload.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(mfd_faults::Frame {
            ack: u64::decode(r)?,
            boundary_round: u64::decode(r)?,
            boundary_cum: u64::decode(r)?,
            fin: bool::decode(r)?,
            payload: Vec::decode(r)?,
        })
    }
}

impl<M: Snapshot> Snapshot for mfd_faults::EdgeTx<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.sent.encode(out);
        self.acked.encode(out);
        self.tx_next.encode(out);
        self.last_progress.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(mfd_faults::EdgeTx {
            sent: Vec::decode(r)?,
            acked: u64::decode(r)?,
            tx_next: u64::decode(r)?,
            last_progress: u64::decode(r)?,
        })
    }
}

impl<M: Snapshot> Snapshot for mfd_faults::EdgeRx<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.pending.encode(out);
        self.prefix.encode(out);
        self.delivered.encode(out);
        self.peer_round.encode(out);
        self.peer_cum.encode(out);
        self.peer_fin.encode(out);
        self.last_heard.encode(out);
        self.dead.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(mfd_faults::EdgeRx {
            pending: BTreeMap::decode(r)?,
            prefix: u64::decode(r)?,
            delivered: u64::decode(r)?,
            peer_round: u64::decode(r)?,
            peer_cum: u64::decode(r)?,
            peer_fin: bool::decode(r)?,
            last_heard: u64::decode(r)?,
            dead: bool::decode(r)?,
        })
    }
}

impl<S: Snapshot, M: Snapshot> Snapshot for mfd_faults::ReliableState<S, M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.inner.encode(out);
        self.inner_round.encode(out);
        self.inner_halted.encode(out);
        self.tx.encode(out);
        self.rx.encode(out);
        self.close_at.encode(out);
        self.done.encode(out);
        self.frames_sent.encode(out);
        self.payload_frames.encode(out);
        self.fresh_sent.encode(out);
        self.retransmitted.encode(out);
        self.delivered_inner.encode(out);
        self.peers_excused.encode(out);
        self.trace_log.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(mfd_faults::ReliableState {
            inner: S::decode(r)?,
            inner_round: u64::decode(r)?,
            inner_halted: bool::decode(r)?,
            tx: Vec::decode(r)?,
            rx: Vec::decode(r)?,
            close_at: Option::decode(r)?,
            done: bool::decode(r)?,
            frames_sent: u64::decode(r)?,
            payload_frames: u64::decode(r)?,
            fresh_sent: u64::decode(r)?,
            retransmitted: u64::decode(r)?,
            delivered_inner: u64::decode(r)?,
            peers_excused: u64::decode(r)?,
            trace_log: Vec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Snapshot + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = to_bytes(&value);
        let back: T = from_bytes(&bytes).expect("decode what we encoded");
        assert_eq!(back, value);
        // And the codec is a pure function of the value.
        assert_eq!(to_bytes(&back), bytes);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u64);
        round_trip(u64::MAX);
        round_trip(42u32);
        round_trip(-7i64);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(String::from("α-synchronizer"));
        round_trip(String::new());
        round_trip(Option::<u64>::None);
        round_trip(Some(9u64));
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip((1u64, true));
        round_trip((1u64, 2usize, String::from("x")));
        round_trip((1u64, 2u64, 3usize, false));
    }

    #[test]
    fn integers_are_little_endian_and_fixed_width() {
        assert_eq!(to_bytes(&1u64), [1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(to_bytes(&0x0102_0304u32), [4, 3, 2, 1]);
        assert_eq!(to_bytes(&1usize).len(), 8);
    }

    #[test]
    fn strict_decoding_rejects_bad_input() {
        // Truncation.
        assert!(matches!(
            from_bytes::<u64>(&[1, 2, 3]),
            Err(CodecError::Truncated { .. })
        ));
        // Invalid bool byte.
        assert!(matches!(
            from_bytes::<bool>(&[2]),
            Err(CodecError::Invalid { what: "bool", .. })
        ));
        // Invalid option tag.
        assert!(matches!(
            from_bytes::<Option<u64>>(&[9]),
            Err(CodecError::Invalid { .. })
        ));
        // Oversized vec length never allocates.
        let mut huge = to_bytes(&u64::MAX);
        huge.push(0);
        assert!(matches!(
            from_bytes::<Vec<u64>>(&huge),
            Err(CodecError::Invalid {
                what: "vec length",
                ..
            })
        ));
        // Trailing bytes are an error.
        let mut padded = to_bytes(&7u64);
        padded.push(0);
        assert!(matches!(
            from_bytes::<u64>(&padded),
            Err(CodecError::Trailing { remaining: 1 })
        ));
        // Non-UTF-8 string bytes.
        let mut bad = to_bytes(&1usize);
        bad.push(0xFF);
        assert!(matches!(
            from_bytes::<String>(&bad),
            Err(CodecError::Invalid {
                what: "utf-8 string",
                ..
            })
        ));
    }

    #[test]
    fn maps_are_their_sorted_entries_and_decode_only_canonical_bytes() {
        type Pending = BTreeMap<u64, (u64, u64)>;
        let map: Pending = [(3, (1, 30)), (1, (0, 10)), (2, (0, 20))].into();
        round_trip(map.clone());
        let entries: Vec<(u64, (u64, u64))> = map.clone().into_iter().collect();
        assert_eq!(to_bytes(&map), to_bytes(&entries));
        // An unsorted key, and a repeated one: `collect` would reorder the
        // first and drop an entry of the second, so neither re-encodes.
        let unsorted = vec![(2u64, (0u64, 20u64)), (1, (0, 10))];
        let repeated = vec![(1u64, (0u64, 10u64)), (1, (0, 11))];
        for forged in [unsorted, repeated] {
            assert_eq!(
                from_bytes::<Pending>(&to_bytes(&forged)),
                Err(CodecError::Invalid {
                    what: "map keys (not strictly increasing)",
                    at: 0,
                })
            );
        }
    }

    #[test]
    fn meter_parts_round_trip() {
        round_trip(mfd_congest::MeterParts {
            rounds: 12,
            messages: 340,
            capacity_words: 1,
            max_words_on_edge: 3,
            phases: vec![mfd_congest::meter::PhaseRecord {
                name: "merge".into(),
                rounds: 4,
                messages: 80,
            }],
            phase_start: Some(("refine".into(), 12, 340)),
        });
    }

    #[test]
    fn digest_state_round_trips() {
        round_trip(mfd_trace::DigestState {
            engine: Some(mfd_trace::EngineKind::Sim),
            heads: vec![(0, 7), (1, 9)],
            current: vec![1, 2, 3],
            pending: vec![(2, vec![(0, 5), (2, 8)])],
        });
    }
}
