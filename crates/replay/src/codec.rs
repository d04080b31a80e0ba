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
//!   nothing else — no tags, no padding. A struct's format is declared once,
//!   as its field list, with `snapshot_struct!`, which writes both encode and
//!   decode from it; only formats that are not "fields in order" are written
//!   out by hand.
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
// Declared formats: one field list writes both halves
// ---------------------------------------------------------------------------

/// Implements [`Snapshot`] for each listed struct as its fields in the order
/// listed, which must be declaration order: `path<Params> { field, … }`,
/// every type parameter bounded by `Snapshot`. Encode and decode are written
/// from the one list, so they cannot drift apart, and the decoding struct
/// literal makes a field left off the list a compile error.
macro_rules! snapshot_struct {
    ($($($seg:ident)::+ $(<$($p:ident),+>)? { $($field:ident),+ $(,)? })+) => {$(
        impl$(<$($p: $crate::codec::Snapshot),+>)? $crate::codec::Snapshot
            for $($seg)::+ $(<$($p),+>)?
        {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::codec::Snapshot::encode(&self.$field, out);)+
            }

            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok($($seg)::+ { $($field: $crate::codec::Snapshot::decode(r)?),+ })
            }
        }
    )+};
}
pub(crate) use snapshot_struct;

/// Fixed-width integers: little-endian, exactly their width.
macro_rules! snapshot_int {
    ($($int:ty),+) => {$(
        impl Snapshot for $int {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let bytes = r.take(std::mem::size_of::<$int>())?;
                Ok(<$int>::from_le_bytes(bytes.try_into().unwrap()))
            }
        }
    )+};
}
snapshot_int!(u8, u32, u64, i64);

/// Tuples: their fields in order. Each arity is listed as
/// `(TypeParam field_index, …)`.
macro_rules! snapshot_tuple {
    ($(($($p:ident $i:tt),+))+) => {$(
        impl<$($p: Snapshot),+> Snapshot for ($($p,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$i.encode(out);)+
            }

            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(($($p::decode(r)?,)+))
            }
        }
    )+};
}
snapshot_tuple!((A 0, B 1) (A 0, B 1, C 2) (A 0, B 1, C 2, D 3));

snapshot_struct! {
    mfd_congest::Message { src, dst, words }
    mfd_congest::meter::PhaseRecord { name, rounds, messages }
    mfd_congest::MeterParts {
        rounds, messages, capacity_words, max_words_on_edge, phases, phase_start,
    }
    mfd_runtime::Envelope<M> { src, msg }
    mfd_runtime::ExecCheckpoint<S, M> { round, states, halted, inbox, meter }
    mfd_sim::PacketCheckpoint<M> { time, seq_key, src, dst, tag, payload, halt, notice }
    mfd_sim::VertexCheckpoint<M> {
        halted, crashed, next_round, completion, pending, late, nbr_final_tag,
    }
    mfd_sim::SimStats {
        packets, payload_packets, pure_pulses, payload_messages, dropped_packets,
        lost_messages, duplicated_messages, slipped_messages, slipped_delivered,
        stale_slipped, crash_notices, crashed_vertices, peak_in_flight, edges,
        edge_in_flight_peak,
    }
    mfd_sim::SimCheckpoint<S, M> {
        round, states, vx, queue, seq, pending_rounds, meter, round_pop, live,
        frontier, makespan, in_flight, edge_peak, cur_in_flight, stats,
    }
    mfd_trace::DigestState { engine, heads, current, pending }
    mfd_faults::Frame<M> { ack, boundary_round, boundary_cum, fin, payload }
    mfd_faults::EdgeTx<M> { sent, acked, tx_next, last_progress }
    mfd_faults::EdgeRx<M> {
        pending, prefix, delivered, peer_round, peer_cum, peer_fin, last_heard, dead,
    }
    mfd_faults::ReliableState<S, M> {
        inner, inner_round, inner_halted, tx, rx, close_at, done, frames_sent,
        payload_frames, fresh_sent, retransmitted, delivered_inner, peers_excused,
        trace_log,
    }
}

// ---------------------------------------------------------------------------
// Hand-written formats: each is something other than "fields in order"
// ---------------------------------------------------------------------------

/// Travels as a `u64`, so the bytes do not depend on the host's width.
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

/// One byte that must be `0` or `1`.
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

/// A length, then bytes that must be UTF-8.
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

/// A presence byte, then the value if present.
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

/// A length, then the elements; the length is checked before allocating.
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

/// Exactly the bytes of its entries as a `Vec<(K, V)>`, in key order; keys
/// that are not strictly increasing are refused.
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

/// An enum: one tag byte per variant.
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
        // Every declared format, with non-default values.
        strict(&(7u8, 1u32, -2i64));
        strict(&(1u64, 2usize, String::from("x"), true));
        strict(&mfd_congest::Message::word(3, 4));
        strict(&meter());
        let envelope = mfd_runtime::Envelope { src: 5, msg: 7u64 };
        strict(&envelope);
        strict(&mfd_runtime::ExecCheckpoint {
            round: 3,
            states: vec![10u64, 11],
            halted: vec![false, true],
            inbox: vec![vec![envelope], vec![]],
            meter: meter(),
        });
        strict(&sim_checkpoint(1u64, 7u64));
        strict(&mfd_trace::DigestState {
            engine: Some(mfd_trace::EngineKind::Sim),
            heads: vec![(0, 7), (1, 9)],
            current: vec![1, 2, 3],
            pending: vec![(2, vec![(0, 5), (2, 8)])],
        });
        let frame = mfd_faults::Frame {
            ack: 2,
            boundary_round: 3,
            boundary_cum: 4,
            fin: true,
            payload: vec![(1, 0, 7u64)],
        };
        let reliable = mfd_faults::ReliableState {
            inner: 5u64,
            inner_round: 2,
            inner_halted: false,
            tx: vec![mfd_faults::EdgeTx {
                sent: vec![(1, 7u64), (2, 8)],
                acked: 1,
                tx_next: 3,
                last_progress: 2,
            }],
            rx: vec![mfd_faults::EdgeRx {
                pending: [(2, (1, 7u64)), (4, (2, 9))].into(),
                prefix: 1,
                delivered: 1,
                peer_round: 2,
                peer_cum: 3,
                peer_fin: true,
                last_heard: 4,
                dead: false,
            }],
            close_at: Some(6),
            done: false,
            frames_sent: 7,
            payload_frames: 3,
            fresh_sent: 2,
            retransmitted: 1,
            delivered_inner: 1,
            peers_excused: 1,
            trace_log: vec![(1, 2, 3, 4)],
        };
        strict(&frame);
        strict(&reliable);
        // A faulted event-engine checkpoint: adapter states, frames in flight.
        strict(&sim_checkpoint(reliable, frame));
        strict(&crate::JournalHeader {
            engine: mfd_trace::EngineKind::Executor,
            n: 64,
            seed: 7,
            every: 4,
            label: "wheel-64/bfs".into(),
        });
    }

    /// encode → decode → encode gives the same bytes, and every strict
    /// prefix of the encoding is refused with a `CodecError` (a panic fails
    /// the test).
    fn strict<T: Snapshot>(value: &T) {
        let name = std::any::type_name::<T>();
        let bytes = to_bytes(value);
        let back: T = from_bytes(&bytes).expect("decode what we encoded");
        assert_eq!(to_bytes(&back), bytes, "{name}");
        for cut in 0..bytes.len() {
            assert!(
                from_bytes::<T>(&bytes[..cut]).is_err(),
                "{name}: a {cut}-byte prefix decoded"
            );
        }
    }

    fn meter() -> mfd_congest::MeterParts {
        mfd_congest::MeterParts {
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
        }
    }

    /// A mid-run event-engine checkpoint: queued packets, pending and late
    /// buffers, one reconstructed round, and counters.
    fn sim_checkpoint<S: Clone, M: Clone>(state: S, msg: M) -> mfd_sim::SimCheckpoint<S, M> {
        let vertex = mfd_sim::VertexCheckpoint {
            halted: false,
            crashed: true,
            next_round: 3,
            completion: 8,
            pending: vec![(3, vec![(1, vec![(msg.clone(), 1)])])],
            late: vec![(4, vec![(1, 2, 0, msg.clone())])],
            nbr_final_tag: vec![(1, 5)],
        };
        let packet = mfd_sim::PacketCheckpoint {
            time: 9,
            seq_key: 4,
            src: 0,
            dst: 1,
            tag: 2,
            payload: vec![(msg.clone(), 1, 0), (msg, 1, 2)],
            halt: true,
            notice: false,
        };
        mfd_sim::SimCheckpoint {
            round: 2,
            states: vec![state.clone(), state],
            vx: vec![vertex.clone(), vertex],
            queue: vec![packet.clone(), packet],
            seq: 11,
            pending_rounds: vec![vec![mfd_congest::Message::word(0, 1)]],
            meter: meter(),
            round_pop: vec![(3, 1)],
            live: 1,
            frontier: 3,
            makespan: 9,
            in_flight: vec![1],
            edge_peak: vec![2],
            cur_in_flight: 1,
            stats: mfd_sim::SimStats {
                packets: 20,
                pure_pulses: 6,
                lost_messages: 1,
                peak_in_flight: 3,
                edges: vec![(0, 1)],
                edge_in_flight_peak: vec![2],
                ..Default::default()
            },
        }
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
        round_trip(meter());
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
