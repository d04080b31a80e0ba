//! The run journal: an append-only record of one run's digest chain with
//! periodic full-state checkpoints.
//!
//! A journal is written alongside a checkpointed run and is the durable
//! artifact of the replay layer. Its byte format is a magic string followed
//! by tagged records, in strictly this order:
//!
//! 1. one **header** (engine, vertex count, seed, checkpoint cadence,
//!    label),
//! 2. per sealed round, in round order, one **head** record — the digest
//!    chain head after that round (round 0 is the initial configuration),
//! 3. interleaved after their round's head, **checkpoint** records: the
//!    engine's complete state ([`Snapshot`]-encoded), the digest sink's
//!    journaling state, and the chain head at the checkpoint's round as a
//!    tamper-evident stamp,
//! 4. one **end** record repeating the round count and final head.
//!
//! Everything in the format is byte-stable ([`crate::codec`] module docs),
//! so re-journaling the same run produces the same bytes — the CI determinism
//! check is a plain byte diff.
//!
//! # Integrity
//!
//! [`Journal::verify`] checks the whole file without re-running anything:
//! heads must cover rounds `0..rounds` contiguously, every checkpoint's
//! stamp must equal the chain head at its round, the checkpoint's exported
//! digest state must agree with the journaled chain prefix, and — the
//! non-trivial part — each checkpoint's carried per-vertex digest vector
//! must *re-fold* to its round's chain link
//! (`head[r] = fnv1a(head[r-1], fold(current))`). A flipped byte in either
//! the chain or a checkpoint breaks at least one of these.
//!
//! [`Journal::from_bytes`] runs the same checks after parsing, so a loaded
//! journal is always a verified one; `verify` stays public for tools that
//! build journals in memory.

use std::fmt;

use mfd_trace::{fnv1a_fold, DigestSink, DigestState, EngineKind, FNV_OFFSET};

use crate::codec::{from_bytes, snapshot_struct, CodecError, Reader, Snapshot};

/// The journal magic: file format name and version in eight bytes.
pub const MAGIC: &[u8; 8] = b"MFDJRNL1";

const TAG_HEADER: u8 = 1;
const TAG_HEAD: u8 = 2;
const TAG_CHECKPOINT: u8 = 3;
const TAG_END: u8 = 4;

/// Identity of the run a journal records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// The engine that produced the run.
    pub engine: EngineKind,
    /// Vertex count of the graph.
    pub n: u64,
    /// The run's seed.
    pub seed: u64,
    /// Requested checkpoint cadence, in sealed rounds.
    pub every: u64,
    /// Free-form run label (graph and program names, fault configuration).
    pub label: String,
}

snapshot_struct! {
    JournalHeader { engine, n, seed, every, label }
}

/// One full-state checkpoint inside a journal.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalCheckpoint {
    /// The sealed round the engine state is consistent at.
    pub round: u64,
    /// The digest-chain head at that round — the stamp [`Journal::verify`]
    /// checks against the journaled chain.
    pub head: u64,
    /// The digest sink's complete journaling state at the capture instant
    /// (restore it alongside the engine to continue the chain seamlessly).
    pub digests: DigestState,
    /// The engine checkpoint, [`Snapshot`]-encoded
    /// (`ExecCheckpoint`/`SimCheckpoint` per the header's engine).
    pub payload: Vec<u8>,
}

/// Hand-written: the payload is copied in bulk after its own length check,
/// not decoded byte by byte as a `Vec<u8>` (the bytes are the same).
impl Snapshot for JournalCheckpoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.round.encode(out);
        self.head.encode(out);
        self.digests.encode(out);
        self.payload.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(JournalCheckpoint {
            round: u64::decode(r)?,
            head: u64::decode(r)?,
            digests: DigestState::decode(r)?,
            payload: {
                let at = r.pos();
                let len = usize::decode(r)?;
                if len > r.remaining() {
                    return Err(CodecError::Invalid {
                        what: "checkpoint payload length",
                        at,
                    });
                }
                r.take(len)?.to_vec()
            },
        })
    }
}

/// A journal integrity failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The input does not start with [`MAGIC`].
    BadMagic,
    /// A record failed to decode.
    Codec(CodecError),
    /// A record tag no writer emits.
    UnknownRecord {
        /// The tag byte.
        tag: u8,
    },
    /// Records out of the header/heads/end order, or a missing end record.
    Malformed {
        /// What was violated.
        what: &'static str,
    },
    /// Head records do not cover rounds contiguously from 0.
    NonContiguousHeads {
        /// Expected round of the next head record.
        expected: u64,
        /// Round actually found.
        got: u64,
    },
    /// A checkpoint's stamped head disagrees with the journaled chain, or
    /// its digest state does not re-fold to its chain link.
    ChainBreak {
        /// The checkpoint's round.
        round: u64,
        /// The chain's head at that round.
        expected: u64,
        /// The checkpoint's claim.
        got: u64,
    },
    /// The end record disagrees with the chain.
    EndMismatch {
        /// Rounds and final head per the end record.
        end: (u64, u64),
        /// Rounds and final head per the chain.
        chain: (u64, u64),
    },
    /// [`Journal::record`] got a round the sink has not sealed yet.
    Unsealed {
        /// The checkpoint's round.
        round: u64,
    },
    /// [`Journal::record`] found the sink's chain entry at a round's index
    /// labelled with another round: the engine did not seal every round.
    ChainIndex {
        /// The checkpoint's round.
        round: u64,
        /// The round the chain entry at that index carries.
        index: u64,
    },
    /// [`Journal::record`] got a round not past the last checkpoint's.
    OutOfOrder {
        /// The checkpoint's round.
        round: u64,
        /// The last journaled checkpoint's round.
        last: u64,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::BadMagic => write!(f, "not a journal: bad magic"),
            JournalError::Codec(e) => write!(f, "journal record: {e}"),
            JournalError::UnknownRecord { tag } => write!(f, "unknown record tag {tag}"),
            JournalError::Malformed { what } => write!(f, "malformed journal: {what}"),
            JournalError::NonContiguousHeads { expected, got } => {
                write!(f, "head records skip: expected round {expected}, got {got}")
            }
            JournalError::ChainBreak {
                round,
                expected,
                got,
            } => write!(
                f,
                "chain break at round {round}: chain head {expected:#018x}, checkpoint claims {got:#018x}"
            ),
            JournalError::EndMismatch { end, chain } => write!(
                f,
                "end record claims {} rounds / head {:#018x}, chain has {} / {:#018x}",
                end.0, end.1, chain.0, chain.1
            ),
            JournalError::Unsealed { round } => {
                write!(f, "checkpoint at round {round} before the sink sealed it")
            }
            JournalError::ChainIndex { round, index } => write!(
                f,
                "checkpoint at round {round}: the chain entry there is round {index}"
            ),
            JournalError::OutOfOrder { round, last } => write!(
                f,
                "checkpoint at round {round} after one at round {last}: rounds must increase"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<CodecError> for JournalError {
    fn from(e: CodecError) -> Self {
        JournalError::Codec(e)
    }
}

/// One run's digest chain plus periodic full-state checkpoints (module docs
/// for the byte format and integrity model).
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    /// Run identity.
    pub header: JournalHeader,
    /// Chain head per sealed round; index is the round (0 = initial
    /// configuration).
    pub heads: Vec<u64>,
    /// Checkpoints in round order.
    pub checkpoints: Vec<JournalCheckpoint>,
}

impl Journal {
    /// An empty journal for a run described by `header`.
    pub fn new(header: JournalHeader) -> Self {
        Journal {
            header,
            heads: Vec::new(),
            checkpoints: Vec::new(),
        }
    }

    /// Records one engine checkpoint, stamping it with the digest head at
    /// its round and capturing the sink's journaling state. Call right
    /// after the round sealed with the sink at that instant — a session's
    /// `observer()`.
    ///
    /// # Errors
    ///
    /// [`JournalError::Unsealed`] if the sink has not sealed `round` yet,
    /// [`JournalError::ChainIndex`] if its chain entry there carries another
    /// round, and [`JournalError::OutOfOrder`] if `round` is not past the
    /// last checkpoint's. The journal is left unchanged.
    pub fn record<C: Snapshot>(
        &mut self,
        round: u64,
        sink: &DigestSink,
        checkpoint: &C,
    ) -> Result<(), JournalError> {
        let (index, head) = sink
            .head_at(round as usize)
            .ok_or(JournalError::Unsealed { round })?;
        if index != round {
            return Err(JournalError::ChainIndex { round, index });
        }
        if let Some(last) = self.checkpoints.last().filter(|c| c.round >= round) {
            return Err(JournalError::OutOfOrder {
                round,
                last: last.round,
            });
        }
        self.checkpoints.push(JournalCheckpoint {
            round,
            head,
            digests: sink.export(),
            payload: crate::codec::to_bytes(checkpoint),
        });
        Ok(())
    }

    /// Finishes the journal after the run: copies the sink's full chain in
    /// and verifies every checkpoint stamp against it.
    ///
    /// # Errors
    ///
    /// [`JournalError`] if a checkpoint does not cohere with the chain —
    /// possible only if sink or checkpoints were mixed up across runs.
    pub fn seal(&mut self, sink: &DigestSink) -> Result<(), JournalError> {
        self.heads = sink.chain();
        self.verify()
    }

    /// The chain head per round — the reference input for
    /// [`DigestSink::with_reference`] and `first_divergence`.
    pub fn chain(&self) -> &[u64] {
        &self.heads
    }

    /// Sealed rounds in the journal (head count; round 0 included).
    pub fn rounds(&self) -> u64 {
        self.heads.len() as u64
    }

    /// The latest checkpoint at or below `round`, if any — the resume point
    /// for time-traveling to `round`.
    pub fn checkpoint_at(&self, round: u64) -> Option<&JournalCheckpoint> {
        self.checkpoints.iter().rev().find(|c| c.round <= round)
    }

    /// Decodes a checkpoint's engine state
    /// (`ExecCheckpoint`/`SimCheckpoint`, matching the header's engine).
    ///
    /// # Errors
    ///
    /// [`CodecError`] if `C` does not match what was journaled.
    pub fn decode_checkpoint<C: Snapshot>(
        &self,
        checkpoint: &JournalCheckpoint,
    ) -> Result<C, CodecError> {
        from_bytes(&checkpoint.payload)
    }

    /// A digest sink restored to the checkpoint's capture instant: feed it
    /// to the engine's `restore` and the continued chain
    /// extends this journal's chain seamlessly.
    pub fn restore_sink(checkpoint: &JournalCheckpoint) -> DigestSink {
        DigestSink::restore(checkpoint.digests.clone())
    }

    /// Checks the journal's internal coherence end-to-end (module docs).
    ///
    /// # Errors
    ///
    /// The first [`JournalError`] encountered, scanning checkpoints in
    /// round order.
    pub fn verify(&self) -> Result<(), JournalError> {
        for cp in &self.checkpoints {
            let round = cp.round as usize;
            let &chain_head = self.heads.get(round).ok_or(JournalError::Malformed {
                what: "checkpoint beyond the journaled chain",
            })?;
            if cp.head != chain_head {
                return Err(JournalError::ChainBreak {
                    round: cp.round,
                    expected: chain_head,
                    got: cp.head,
                });
            }
            // The exported sink must have sealed exactly rounds 0..=round,
            // agreeing with the journaled chain prefix.
            let exported: Vec<u64> = cp.digests.heads.iter().map(|&(_, h)| h).collect();
            if exported != self.heads[..=round] {
                return Err(JournalError::Malformed {
                    what: "checkpoint digest state disagrees with the chain prefix",
                });
            }
            // Re-fold the carried per-vertex digests into the chain link:
            // head[r] must equal fnv1a(head[r-1], fold(current)). This ties
            // the full-state side of the checkpoint to the chain.
            let round_digest = cp
                .digests
                .current
                .iter()
                .fold(FNV_OFFSET, |acc, &d| fnv1a_fold(acc, d));
            let prev = if round == 0 {
                FNV_OFFSET
            } else {
                self.heads[round - 1]
            };
            let refolded = fnv1a_fold(prev, round_digest);
            if refolded != chain_head {
                return Err(JournalError::ChainBreak {
                    round: cp.round,
                    expected: chain_head,
                    got: refolded,
                });
            }
        }
        Ok(())
    }

    /// Serializes the journal (module docs for the record layout). The
    /// output is a pure function of the journal's contents.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(TAG_HEADER);
        self.header.encode(&mut out);
        let mut cps = self.checkpoints.iter().peekable();
        for (round, &head) in self.heads.iter().enumerate() {
            out.push(TAG_HEAD);
            (round as u64).encode(&mut out);
            head.encode(&mut out);
            while cps.peek().is_some_and(|c| c.round == round as u64) {
                out.push(TAG_CHECKPOINT);
                cps.next().unwrap().encode(&mut out);
            }
        }
        out.push(TAG_END);
        self.rounds().encode(&mut out);
        self.heads
            .last()
            .copied()
            .unwrap_or(FNV_OFFSET)
            .encode(&mut out);
        out
    }

    /// Parses and verifies a serialized journal.
    ///
    /// # Errors
    ///
    /// [`JournalError`] on any parse or integrity failure — a journal that
    /// loads is a journal that verifies.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, JournalError> {
        let mut r = Reader::new(bytes);
        if r.take(MAGIC.len()).map_err(JournalError::Codec)? != MAGIC {
            return Err(JournalError::BadMagic);
        }
        if u8::decode(&mut r)? != TAG_HEADER {
            return Err(JournalError::Malformed {
                what: "first record is not the header",
            });
        }
        let header = JournalHeader::decode(&mut r)?;
        let mut journal = Journal::new(header);
        let mut end: Option<(u64, u64)> = None;
        while r.remaining() > 0 {
            match u8::decode(&mut r)? {
                TAG_HEAD => {
                    let round = u64::decode(&mut r)?;
                    let head = u64::decode(&mut r)?;
                    if round != journal.rounds() {
                        return Err(JournalError::NonContiguousHeads {
                            expected: journal.rounds(),
                            got: round,
                        });
                    }
                    journal.heads.push(head);
                }
                TAG_CHECKPOINT => {
                    let cp = JournalCheckpoint::decode(&mut r)?;
                    if journal.heads.len() as u64 != cp.round + 1 {
                        return Err(JournalError::Malformed {
                            what: "checkpoint not interleaved after its round's head",
                        });
                    }
                    journal.checkpoints.push(cp);
                }
                TAG_END => {
                    end = Some((u64::decode(&mut r)?, u64::decode(&mut r)?));
                    r.finish().map_err(JournalError::Codec)?;
                }
                TAG_HEADER => {
                    return Err(JournalError::Malformed {
                        what: "second header record",
                    });
                }
                tag => return Err(JournalError::UnknownRecord { tag }),
            }
        }
        let Some(end) = end else {
            return Err(JournalError::Malformed {
                what: "missing end record (journal truncated?)",
            });
        };
        let chain = (
            journal.rounds(),
            journal.heads.last().copied().unwrap_or(FNV_OFFSET),
        );
        if end != chain {
            return Err(JournalError::EndMismatch { end, chain });
        }
        journal.verify()?;
        Ok(journal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_trace::TraceSink;

    fn header() -> JournalHeader {
        JournalHeader {
            engine: EngineKind::Executor,
            n: 3,
            seed: 7,
            every: 2,
            label: "test/cv".into(),
        }
    }

    /// Drives a sink through `rounds` rounds of synthetic digests and
    /// journals a checkpoint (with `payload` as the engine state) every
    /// other round.
    fn build(rounds: u64) -> (Journal, DigestSink) {
        let mut sink = DigestSink::new();
        let mut journal = Journal::new(header());
        for r in 0..rounds {
            for v in 0..3usize {
                sink.vertex_digest(EngineKind::Executor, r, v, (v as u64 + 1) * (r + 1));
            }
            sink.round_sealed(EngineKind::Executor, r);
            if r > 0 && r % 2 == 0 {
                journal
                    .record(r, &sink, &(r, vec![1u64, 2, 3]))
                    .expect("round r is sealed and past the last checkpoint");
            }
        }
        journal.seal(&sink).expect("freshly built journals verify");
        (journal, sink)
    }

    #[test]
    fn round_trips_byte_identically() {
        let (journal, _) = build(9);
        let bytes = journal.to_bytes();
        let back = Journal::from_bytes(&bytes).expect("own output loads");
        assert_eq!(back, journal);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn nearest_checkpoint_lookup() {
        let (journal, _) = build(9); // checkpoints at rounds 2, 4, 6, 8
        assert_eq!(journal.checkpoint_at(1), None);
        assert_eq!(journal.checkpoint_at(2).unwrap().round, 2);
        assert_eq!(journal.checkpoint_at(5).unwrap().round, 4);
        assert_eq!(journal.checkpoint_at(100).unwrap().round, 8);
        let cp = journal.checkpoint_at(7).unwrap();
        let (round, payload): (u64, Vec<u64>) = journal.decode_checkpoint(cp).unwrap();
        assert_eq!((round, payload), (6, vec![1, 2, 3]));
    }

    #[test]
    fn restored_sink_continues_the_chain() {
        let (journal, full) = build(9);
        let cp = journal.checkpoint_at(6).unwrap();
        let mut resumed = Journal::restore_sink(cp);
        for r in cp.round + 1..9 {
            for v in 0..3usize {
                resumed.vertex_digest(EngineKind::Executor, r, v, (v as u64 + 1) * (r + 1));
            }
            resumed.round_sealed(EngineKind::Executor, r);
        }
        assert_eq!(resumed.chain(), full.chain());
    }

    #[test]
    fn verify_catches_tampering() {
        let (journal, _) = build(9);

        // A flipped chain head breaks the stamped checkpoint.
        let mut tampered = journal.clone();
        tampered.heads[4] ^= 1;
        assert!(matches!(
            tampered.verify(),
            Err(JournalError::ChainBreak { round: 4, .. })
        ));

        // A tampered per-vertex digest no longer re-folds to the chain link.
        let mut tampered = journal.clone();
        tampered.checkpoints[1].digests.current[0] ^= 1;
        assert!(matches!(
            tampered.verify(),
            Err(JournalError::ChainBreak { round: 4, .. })
        ));

        // A checkpoint whose stamp was edited along with its digest state
        // still disagrees with the journaled chain prefix.
        let mut tampered = journal;
        tampered.checkpoints[0].head ^= 1;
        assert!(matches!(
            tampered.verify(),
            Err(JournalError::ChainBreak { round: 2, .. })
        ));
    }

    #[test]
    fn from_bytes_rejects_corruption() {
        let (journal, _) = build(5);
        let bytes = journal.to_bytes();
        assert_eq!(
            Journal::from_bytes(b"NOTAJRNL"),
            Err(JournalError::BadMagic)
        );
        // Truncation loses the end record.
        assert!(matches!(
            Journal::from_bytes(&bytes[..bytes.len() - 1]),
            Err(JournalError::Codec(_)) | Err(JournalError::Malformed { .. })
        ));
        // A flipped bit in round 0's head: no checkpoint stamps round 0
        // directly, but every checkpoint's exported chain prefix covers it.
        let mut corrupt = bytes.clone();
        let first_head = MAGIC.len() + 1 + crate::codec::to_bytes(&journal.header).len() + 1 + 8;
        corrupt[first_head] ^= 1;
        assert!(Journal::from_bytes(&corrupt).is_err());
    }

    #[test]
    fn record_refuses_unsealed_and_out_of_order_rounds() {
        let mut sink = DigestSink::new();
        for r in 0..2 {
            sink.vertex_digest(EngineKind::Executor, r, 0, 1);
            sink.round_sealed(EngineKind::Executor, r);
        }
        let mut journal = Journal::new(header());
        assert_eq!(journal.record(1, &sink, &1u64), Ok(()));
        assert_eq!(
            journal.record(3, &sink, &1u64),
            Err(JournalError::Unsealed { round: 3 })
        );
        assert_eq!(
            journal.record(1, &sink, &1u64),
            Err(JournalError::OutOfOrder { round: 1, last: 1 })
        );
        assert_eq!(
            journal.record(0, &sink, &1u64),
            Err(JournalError::OutOfOrder { round: 0, last: 1 })
        );
        // A sink whose chain skips a round: its second entry is round 2.
        let mut skipping = DigestSink::new();
        for r in [0, 2] {
            skipping.vertex_digest(EngineKind::Executor, r, 0, 1);
            skipping.round_sealed(EngineKind::Executor, r);
        }
        assert_eq!(
            Journal::new(header()).record(1, &skipping, &1u64),
            Err(JournalError::ChainIndex { round: 1, index: 2 })
        );
        assert_eq!(journal.checkpoints.len(), 1, "refusals change nothing");
    }
}
