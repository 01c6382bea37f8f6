//! The wire messages of the PBS protocol.
//!
//! One reconciliation round exchanges two message batches:
//!
//! * Alice → Bob: one [`GroupSketch`] per still-unverified group pair — the
//!   BCH syndrome sketch ξ_A of her parity bitmap (Line 1 of Procedure 2),
//! * Bob → Alice: one [`GroupReport`] per sketch — either the decoded
//!   differing bin positions with their XOR sums and (on first contact) the
//!   group checksum (Line 3 of Procedure 2), or a BCH-decoding-failure flag
//!   (§3.2).
//!
//! Each message declares its own size in bits, once ([`GroupSketch::wire_bits`],
//! [`GroupReport::wire_bits`]), following Formula (1): `t·log n` for the
//! sketch and `log n + log|U|` per reported bin plus `log|U|` for a
//! checksum. Both consumers call that one declaration: the driver feeds it
//! — at `(m, universe_bits)` — into the [`protocol::Transcript`], so
//! communication overhead is measured, not estimated, and the encoder of
//! [`crate::wire`] emits exactly that many bits per message at the widths
//! its batch header states.

use bch::Sketch;

/// Identifier of a group-pair session.
///
/// Top-level groups get ids `1..=g`; when a group suffers a BCH decoding
/// failure and is split three ways (§3.2), its children get ids derived
/// deterministically from the parent id, so both parties agree on the ids
/// (and on every hash seed derived from them) without any extra
/// communication.
pub type SessionId = u64;

/// Child session ids created by the three-way split of §3.2.
///
/// Ids are derived by hashing `(parent, k)`; the top bit is forced so child
/// ids can never collide with the small integers used for top-level groups,
/// and a 63-bit hash keeps collisions between children of different parents
/// out of practical reach.
pub(crate) fn child_sessions(parent: SessionId) -> [SessionId; 3] {
    let child = |k: u64| xhash::derive_seed(parent, 0xC41D_0000 + k) | (1u64 << 63);
    [child(1), child(2), child(3)]
}

/// Alice → Bob: the BCH sketch of one group's parity bitmap for this round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSketch {
    /// Which group-pair session this sketch belongs to.
    pub session: SessionId,
    /// Round number (1-based); both sides derive the round's bin-partition
    /// hash function from it (§2.4 requires a fresh hash per round).
    pub round: u32,
    /// The syndrome sketch ξ_A of Alice's parity bitmap.
    pub sketch: Sketch,
    /// `true` when Alice has not yet received `c(B_i)` for this session and
    /// Bob should include it in his report (first round of a session).
    pub needs_checksum: bool,
}

impl GroupSketch {
    /// Size in bits: `t · log₂(n+1)` (Formula (1), first term) — what the
    /// transcript charges and what [`crate::wire::encode_sketches`] spends
    /// on the syndromes.
    pub fn wire_bits(&self, m: u32) -> u64 {
        self.sketch.wire_bits(m)
    }
}

/// One differing bin, as decoded by Bob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinInfo {
    /// The 1-based bin position (a "bit error position" of §2.2.2).
    pub position: u64,
    /// The XOR sum of Bob's elements hashed to that bin (Procedure 1).
    pub xor_sum: u64,
}

/// The body of Bob's per-session report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupReportBody {
    /// BCH decoding succeeded: the differing bins and, if requested, the
    /// checksum `c(B_i)`.
    Decoded {
        /// Differing bins with Bob-side XOR sums.
        bins: Vec<BinInfo>,
        /// `c(B_i)`, included when Alice flagged `needs_checksum`.
        checksum: Option<u64>,
    },
    /// BCH decoding failed (more than `t` differing bins); both sides must
    /// split this session three ways before the next round (§3.2).
    DecodeFailed,
}

/// Declared cost in bits of the §3.2 decoding-failure flag: the report tag
/// of [`crate::wire`], which is all a failed report spends beyond naming its
/// session.
pub(crate) const FAILURE_FLAG_BITS: u32 = 2;

/// Bob → Alice: the decoded report for one session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupReport {
    /// Which session this report answers.
    pub session: SessionId,
    /// Decoded bins or a failure flag.
    pub body: GroupReportBody,
}

impl GroupReport {
    /// Size in bits, following Formula (1): each bin costs a position plus
    /// an XOR sum, a checksum costs one more sum. The transcript charges it
    /// at `(log₂(n+1), log|U|)`; [`crate::wire::encode_reports`] spends it
    /// at the widths its batch header states — those of the largest
    /// position and sum present. A §3.2 decoding failure costs its flag,
    /// `FAILURE_FLAG_BITS`, at any widths.
    pub fn wire_bits(&self, position_bits: u32, value_bits: u32) -> u64 {
        match &self.body {
            GroupReportBody::Decoded { bins, checksum } => {
                let per_bin = (position_bits + value_bits) as u64;
                let checksum_bits = if checksum.is_some() {
                    value_bits as u64
                } else {
                    0
                };
                bins.len() as u64 * per_bin + checksum_bits
            }
            GroupReportBody::DecodeFailed => FAILURE_FLAG_BITS as u64,
        }
    }
}

/// Outcome of one round on Alice's side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundStatus {
    /// Number of distinct elements recovered (and applied) in this round.
    pub recovered_this_round: usize,
    /// Number of sessions still unverified after this round.
    pub active_sessions: usize,
    /// `true` when every session's checksum has verified — reconciliation is
    /// complete.
    pub all_verified: bool,
    /// Per-group layer reports in the batch that decoded successfully.
    /// With [`RoundStatus::layers_failed`], what
    /// [`crate::AliceSession::next_pipeline_depth`] reads of the last trip:
    /// after mostly-failed decodes the next trip does not speculate.
    pub layers_decoded: u32,
    /// Per-group layer reports in the batch whose BCH decode failed.
    pub layers_failed: u32,
    /// Group-layers this trip sent beyond its first — what pipelining
    /// speculated: `(layers − 1) ×` the sessions unverified when the batch
    /// went out. Zero on a one-layer trip.
    pub speculative_layers: u32,
    /// Those of [`RoundStatus::speculative_layers`] whose report reached a
    /// group an earlier layer of the trip had already verified — sent,
    /// decoded and reported for nothing. The rest found their group still
    /// unverified, i.e. saved it a round trip or at least tried to.
    pub speculative_unused: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_session_ids_are_unique_and_nested() {
        let mut all = std::collections::HashSet::new();
        for parent in 1..=20_000u64 {
            for c in child_sessions(parent) {
                assert!(c > 20_000, "child id {c} collides with a top-level id");
                assert!(all.insert(c), "duplicate child id {c}");
            }
        }
        // Grandchildren stay unique too.
        let grand = child_sessions(child_sessions(7)[2]);
        for g in grand {
            assert!(all.insert(g), "grandchild id collides");
        }
        // Deterministic: both parties derive the same ids.
        assert_eq!(child_sessions(42), child_sessions(42));
    }

    #[test]
    fn sketch_wire_size_is_t_log_n() {
        let sketch = Sketch::zero(13);
        let msg = GroupSketch {
            session: 1,
            round: 1,
            sketch,
            needs_checksum: true,
        };
        assert_eq!(msg.wire_bits(7), 13 * 7);
    }

    #[test]
    fn report_wire_size_follows_formula_one() {
        let report = GroupReport {
            session: 3,
            body: GroupReportBody::Decoded {
                bins: vec![
                    BinInfo {
                        position: 5,
                        xor_sum: 0xAA,
                    },
                    BinInfo {
                        position: 9,
                        xor_sum: 0xBB,
                    },
                ],
                checksum: Some(123),
            },
        };
        // 2 bins × (7 + 32) + 32-bit checksum
        assert_eq!(report.wire_bits(7, 32), 2 * 39 + 32);
        let no_checksum = GroupReport {
            session: 3,
            body: GroupReportBody::Decoded {
                bins: vec![BinInfo {
                    position: 5,
                    xor_sum: 0xAA,
                }],
                checksum: None,
            },
        };
        assert_eq!(no_checksum.wire_bits(7, 32), 39);
        let failed = GroupReport {
            session: 3,
            body: GroupReportBody::DecodeFailed,
        };
        assert_eq!(failed.wire_bits(7, 32), 2);
    }
}
