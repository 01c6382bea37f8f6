//! Message transcripts and communication accounting.

/// Direction of a protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Alice → Bob.
    AliceToBob,
    /// Bob → Alice.
    BobToAlice,
}

/// Aggregate communication statistics of a reconciliation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Bytes sent from Alice to Bob.
    pub bytes_alice_to_bob: u64,
    /// Bytes sent from Bob to Alice.
    pub bytes_bob_to_alice: u64,
    /// Number of messages exchanged (either direction).
    pub messages: u32,
}

impl CommStats {
    /// Total bytes exchanged in both directions — the paper's
    /// "data transmitted" metric (Figures 1b, 2b, 3b, 5).
    pub fn total_bytes(&self) -> u64 {
        self.bytes_alice_to_bob + self.bytes_bob_to_alice
    }
}

/// A ledger of all messages exchanged during a reconciliation run.
///
/// Schemes record every payload they *would* put on the wire; the transcript
/// sums them so the experiment harness reports measured (not estimated)
/// communication overhead, including any extra rounds. The paper accounts
/// several sub-byte quantities (bit-error positions of `log n` bits each),
/// so the ledger keeps bits per direction and rounds up only in
/// [`Transcript::stats`].
#[derive(Debug, Clone, Default)]
pub struct Transcript {
    alice_to_bob_bits: u64,
    bob_to_alice_bits: u64,
    messages: u32,
}

impl Transcript {
    /// Create an empty transcript.
    pub fn new() -> Self {
        Transcript::default()
    }

    /// Record a message of `bits` bits.
    pub fn send_bits(&mut self, direction: Direction, bits: u64) {
        match direction {
            Direction::AliceToBob => self.alice_to_bob_bits += bits,
            Direction::BobToAlice => self.bob_to_alice_bits += bits,
        }
        self.messages += 1;
    }

    /// Collapse the ledger into aggregate [`CommStats`]. Bits are converted
    /// to bytes per direction, rounding up.
    pub fn stats(&self) -> CommStats {
        CommStats {
            bytes_alice_to_bob: self.alice_to_bob_bits.div_ceil(8),
            bytes_bob_to_alice: self.bob_to_alice_bits.div_ceil(8),
            messages: self.messages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transcript_accumulates_bits() {
        let mut t = Transcript::new();
        t.send_bits(Direction::AliceToBob, 13 * 7);
        t.send_bits(Direction::BobToAlice, 20 * 8);
        t.send_bits(Direction::AliceToBob, 50);
        let s = t.stats();
        assert_eq!(s.bytes_alice_to_bob, 18); // ceil(141 / 8)
        assert_eq!(s.bytes_bob_to_alice, 20);
        assert_eq!(s.messages, 3);
        assert_eq!(s.total_bytes(), 38);
    }

    #[test]
    fn empty_transcript() {
        let t = Transcript::new();
        assert_eq!(t.stats(), CommStats::default());
    }
}
