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

/// A record of one logical message.
#[derive(Debug, Clone)]
struct MessageRecord {
    /// Direction of the message.
    direction: Direction,
    /// A short label describing the payload (e.g. `"bch-sketch"`).
    label: &'static str,
    /// Payload size in **bits** — the paper accounts several sub-byte
    /// quantities (bit-error positions of `log n` bits each), so the ledger
    /// keeps bit precision and rounds up only at the aggregate level.
    bits: u64,
    /// Size of the message as actually *serialized* for a transport, in
    /// bytes. The paper's accounting (`bits`) charges the
    /// information-theoretic payload; a real wire format pays fixed-width
    /// fields and per-message headers on top. [`Transcript::send_bits`]
    /// defaults this to `ceil(bits / 8)`; [`Transcript::send_encoded`]
    /// records the measured encoding.
    wire_bytes: u64,
}

/// A ledger of all messages exchanged during a reconciliation run.
///
/// Schemes record every payload they *would* put on the wire; the transcript
/// sums them so the experiment harness reports measured (not estimated)
/// communication overhead, including any extra rounds.
#[derive(Debug, Clone, Default)]
pub struct Transcript {
    records: Vec<MessageRecord>,
    round_trips: u32,
}

impl Transcript {
    /// Create an empty transcript.
    pub fn new() -> Self {
        Transcript::default()
    }

    /// Record one request-response exchange on the transport. Protocol
    /// rounds and round trips coincide in the classic protocol, but a
    /// pipelined transport packs several rounds into one trip — this
    /// counter ledgers the wall-clock-relevant quantity separately from the
    /// paper's round numbering.
    pub fn record_round_trip(&mut self) {
        self.round_trips += 1;
    }

    /// Number of request-response exchanges recorded with
    /// [`Transcript::record_round_trip`]. Zero when the driver never
    /// recorded any (e.g. purely in-process runs that predate pipelining).
    pub fn round_trips(&self) -> u32 {
        self.round_trips
    }

    /// Record a message of `bits` bits. The serialized size defaults to the
    /// byte-rounded payload; use [`Transcript::send_encoded`] when the actual
    /// encoding was measured.
    pub fn send_bits(&mut self, direction: Direction, label: &'static str, bits: u64) {
        self.send_encoded(direction, label, bits, bits.div_ceil(8));
    }

    /// Record a message with both its information-theoretic payload (`bits`,
    /// the paper's accounting) and its measured serialized size
    /// (`wire_bytes`). The networked subsystem uses this to keep the two
    /// ledgers — what the paper charges and what a socket would carry —
    /// side by side in one transcript.
    pub fn send_encoded(
        &mut self,
        direction: Direction,
        label: &'static str,
        bits: u64,
        wire_bytes: u64,
    ) {
        self.records.push(MessageRecord {
            direction,
            label,
            bits,
            wire_bytes,
        });
    }

    /// Total bits sent in the given direction.
    fn bits_in_direction(&self, direction: Direction) -> u64 {
        self.records
            .iter()
            .filter(|r| r.direction == direction)
            .map(|r| r.bits)
            .sum()
    }

    /// Total bits for messages carrying the given label.
    pub fn bits_for_label(&self, label: &str) -> u64 {
        self.records
            .iter()
            .filter(|r| r.label == label)
            .map(|r| r.bits)
            .sum()
    }

    /// Total serialized bytes for messages carrying the given label — e.g.
    /// the `"delta-batch"` ledger a delta-subscription run keeps beside its
    /// reconciliation bytes, so tests can pin "delta bytes are
    /// O(|changes|)" against measured encodings rather than wall time.
    pub fn wire_bytes_for_label(&self, label: &str) -> u64 {
        self.records
            .iter()
            .filter(|r| r.label == label)
            .map(|r| r.wire_bytes)
            .sum()
    }

    /// Total serialized bytes in both directions — the number a byte counter
    /// on the connection would report for the payloads recorded here.
    pub fn wire_bytes_total(&self) -> u64 {
        self.records.iter().map(|r| r.wire_bytes).sum()
    }

    /// Collapse the ledger into aggregate [`CommStats`]. Bits are converted
    /// to bytes per direction, rounding up.
    pub fn stats(&self) -> CommStats {
        let a2b = self.bits_in_direction(Direction::AliceToBob);
        let b2a = self.bits_in_direction(Direction::BobToAlice);
        CommStats {
            bytes_alice_to_bob: a2b.div_ceil(8),
            bytes_bob_to_alice: b2a.div_ceil(8),
            messages: self.records.len() as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transcript_accumulates_bits() {
        let mut t = Transcript::new();
        t.send_bits(Direction::AliceToBob, "bch-sketch", 13 * 7);
        t.send_bits(Direction::BobToAlice, "xor-sums", 20 * 8);
        t.send_bits(Direction::AliceToBob, "bch-sketch", 50);
        assert_eq!(t.bits_in_direction(Direction::AliceToBob), 141);
        assert_eq!(t.bits_in_direction(Direction::BobToAlice), 160);
        assert_eq!(t.bits_for_label("bch-sketch"), 141);
        let s = t.stats();
        assert_eq!(s.bytes_alice_to_bob, 18); // ceil(141 / 8)
        assert_eq!(s.bytes_bob_to_alice, 20);
        assert_eq!(s.messages, 3);
        assert_eq!(s.total_bytes(), 38);
        // Without measured encodings the wire ledger is the per-message
        // byte-rounded payload: ceil(91/8) + 20 + ceil(50/8).
        assert_eq!(t.wire_bytes_total(), 12 + 20 + 7);
    }

    #[test]
    fn measured_encodings_are_ledgered_separately() {
        let mut t = Transcript::new();
        t.send_encoded(Direction::AliceToBob, "framed-sketch", 13 * 7, 120);
        t.send_encoded(Direction::BobToAlice, "framed-report", 64, 33);
        t.send_bits(Direction::AliceToBob, "bch-sketch", 9);
        assert_eq!(t.bits_in_direction(Direction::AliceToBob), 91 + 9);
        assert_eq!(t.wire_bytes_total(), 120 + 33 + 2);
        assert_eq!(t.wire_bytes_for_label("framed-sketch"), 120);
        assert_eq!(t.wire_bytes_for_label("absent"), 0);
        // The paper-accounting aggregate is untouched by wire sizes
        // (bits summed per direction, then rounded: ceil(100/8) + ceil(64/8)).
        assert_eq!(t.stats().total_bytes(), 13 + 8);
    }

    #[test]
    fn empty_transcript() {
        let t = Transcript::new();
        assert_eq!(t.stats().total_bytes(), 0);
        assert_eq!(t.round_trips(), 0);
    }

    #[test]
    fn round_trips_ledger_independently_of_messages() {
        // A pipelined exchange: one trip carries two rounds' sketches.
        let mut t = Transcript::new();
        t.record_round_trip();
        t.send_bits(Direction::AliceToBob, "bch-sketch", 100);
        t.send_bits(Direction::AliceToBob, "bch-sketch", 100);
        t.send_bits(Direction::BobToAlice, "bin-report", 50);
        assert_eq!(t.round_trips(), 1);
        assert_eq!(t.stats().messages, 3);
    }
}
