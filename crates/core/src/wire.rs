//! Bit-packed encoding of the PBS protocol messages (wire v5).
//!
//! A batch is one bit string: a fixed header that states every field width
//! once, then the messages back to back with no per-message padding. Each
//! message spends exactly the bits it declares — [`GroupSketch::wire_bits`]
//! / [`GroupReport::wire_bits`], the Formula (1) terms the transcript
//! accounting charges — plus the few framing bits named below (a session
//! id code, a flag or tag, a bin count), so a batch's length is Formula (1)
//! plus stated headers, rounded up to a byte — which is what the encoders
//! reserve and what they are held to.
//!
//! # Bit order
//!
//! Bit `k` of the string is bit `k mod 8` of byte `⌊k / 8⌋`, least
//! significant first, and a `w`-bit field is written least-significant bit
//! first. A field of 8, 16, 32 or 64 bits that starts on a byte boundary —
//! every header field does — therefore reads as a little-endian integer.
//! The last byte is padded with zero bits; a decoder refuses anything else
//! after the last message.
//!
//! # Sketch batch
//!
//! ```text
//! header    m: 8 | id_bits: 8 | t: 16 | sections: 32
//! section   round: 32 | count: 32                        × sections
//! sketch    needs_checksum: 1 | id code | t × m syndrome bits
//! ```
//!
//! A section is a run of sketches of one protocol round (a pipelined batch
//! is layer-major, so one section per layer); the sketches follow the
//! section table in order. Every sketch of a batch has capacity `t ≥ 1`.
//!
//! # Report batch
//!
//! ```text
//! header    count: 32 | id_bits: 8 | count_bits: 8 | position_bits: 8 | value_bits: 8
//! report    id code | tag: 2 | [checksum: value_bits] | [bins: count_bits | bins × (position: position_bits | xor_sum: value_bits)]
//! ```
//!
//! Tag 0 is a decoded report, 1 a decoded report with `c(B_i)`, 2 a BCH
//! decoding failure (nothing follows: the tag is the §3.2 flag, the
//! report's declared `FAILURE_FLAG_BITS`), 3 is refused. The widths are
//! those of the largest bin count, position and XOR sum / checksum in the
//! batch — for an honest Bob at most `⌈log₂(t+1)⌉`, `log₂(n+1)` and
//! `log|U|` — so the decoder needs no session context and no `u64` is ever
//! truncated. A position is stated at one bit or more.
//!
//! # What a decoder allocates
//!
//! No record is empty — a sketch is at least 3 bits, a report at least 3, a
//! bin at least 1; a header that says otherwise (`t = 0` with sketches to
//! follow, `position_bits = 0`) is refused — and every stated count is
//! checked against the bits left, at the record's smallest size, before it
//! is allocated. A decoded batch therefore never holds more records than
//! its buffer has bits.
//!
//! # Session id code
//!
//! `1` — the previous id plus one (the previous id is 0 at the start of a
//! sketch section and of a report batch: first-round groups are numbered
//! `1..=g`, one bit each). `00` + `id_bits` bits — any other id below 2⁶³
//! (a later round's surviving groups). `01` + 64 bits — an id with the top
//! bit set (a §3.2 child session).

use crate::messages::{
    BinInfo, GroupReport, GroupReportBody, GroupSketch, SessionId, FAILURE_FLAG_BITS,
};
use bch::Sketch;

/// Errors produced when decoding a wire buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the declared content.
    Truncated,
    /// A tag had an unknown value.
    BadTag(u8),
    /// A sketch batch stated a field degree outside `1..=32`.
    BadFieldDegree(u8),
    /// A batch header stated a field width above 64 bits, or no bits at
    /// all for a field every record carries: a bin's position, a sketch's
    /// syndromes (`t = 0` in a batch that has sketches).
    BadWidth(u8),
    /// A batch header (or a report's bin count) stated more records than
    /// the bits after it can hold.
    BadCount(u64),
    /// Bytes, or nonzero padding bits, after the last message.
    Trailing,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire buffer truncated"),
            WireError::BadTag(t) => write!(f, "unknown tag {t:#x}"),
            WireError::BadFieldDegree(m) => write!(f, "field degree {m} outside 1..=32"),
            WireError::BadWidth(w) => write!(f, "stated field width {w} outside its range"),
            WireError::BadCount(n) => {
                write!(f, "stated count {n} exceeds what the buffer can hold")
            }
            WireError::Trailing => write!(f, "data after the last message"),
        }
    }
}

impl std::error::Error for WireError {}

/// Largest field degree a sketch batch may state.
const MAX_FIELD_DEGREE: u32 = 32;

/// Header of either batch kind, and one entry of a sketch batch's section
/// table.
const HEADER_BITS: u64 = 64;
const SECTION_BITS: u64 = 64;

/// The `needs_checksum` flag of a sketch; the tag of a report, which on a
/// failed report is the §3.2 flag the report itself declares.
const FLAG_BITS: u32 = 1;
const TAG_BITS: u32 = FAILURE_FLAG_BITS;

const TAG_DECODED: u64 = 0;
const TAG_DECODED_WITH_CHECKSUM: u64 = 1;
const TAG_FAILED: u64 = 2;

/// Number of bits needed to write `value` (0 for 0).
fn bit_len(value: u64) -> u32 {
    64 - value.leading_zeros()
}

fn low_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// `true` for the §3.2 child ids, which take the 64-bit escape.
fn is_child(id: SessionId) -> bool {
    id >> 63 == 1
}

/// Width of the explicit short form of the session id code: that of the
/// largest id in the batch that is not a child id.
fn short_id_bits(ids: impl Iterator<Item = SessionId>) -> u32 {
    bit_len(ids.filter(|&id| !is_child(id)).max().unwrap_or(0))
}

/// The three forms of the session id code (module docs).
#[derive(Clone, Copy)]
enum IdCode {
    /// `1`: the previous id plus one.
    Next,
    /// `00` + the id at the batch's `id_bits`.
    Short,
    /// `01` + the id at 64 bits.
    Child,
}

impl IdCode {
    fn of(previous: SessionId, id: SessionId) -> Self {
        if id == previous.wrapping_add(1) {
            IdCode::Next
        } else if is_child(id) {
            IdCode::Child
        } else {
            IdCode::Short
        }
    }

    fn bits(self, id_bits: u32) -> u64 {
        match self {
            IdCode::Next => 1,
            IdCode::Short => 2 + id_bits as u64,
            IdCode::Child => 2 + 64,
        }
    }
}

struct BitWriter {
    out: Vec<u8>,
    /// Bits not yet flushed to `out`, low bits first; `filled < 64` of them.
    acc: u64,
    filled: u32,
}

impl BitWriter {
    fn with_capacity(bits: u64) -> Self {
        BitWriter {
            out: Vec::with_capacity(bits.div_ceil(8) as usize),
            acc: 0,
            filled: 0,
        }
    }

    fn bit_len(&self) -> u64 {
        self.out.len() as u64 * 8 + self.filled as u64
    }

    /// Append the low `width ≤ 64` bits of `value`.
    fn put(&mut self, value: u64, width: u32) {
        debug_assert!(width <= 64 && value & !low_mask(width) == 0);
        if width == 0 {
            return;
        }
        let value = value & low_mask(width);
        self.acc |= value << self.filled;
        let total = self.filled + width;
        if total < 64 {
            self.filled = total;
            return;
        }
        self.out.extend_from_slice(&self.acc.to_le_bytes());
        // What of `value` did not fit the flushed word.
        let fitted = 64 - self.filled;
        self.acc = if fitted == 64 { 0 } else { value >> fitted };
        self.filled = total - 64;
    }

    fn put_id(&mut self, previous: SessionId, id: SessionId, id_bits: u32) {
        match IdCode::of(previous, id) {
            IdCode::Next => self.put(1, 1),
            IdCode::Short => {
                self.put(0b00, 2);
                self.put(id, id_bits);
            }
            IdCode::Child => {
                self.put(0b10, 2);
                self.put(id, 64);
            }
        }
    }

    fn finish(mut self) -> Vec<u8> {
        let tail = self.filled.div_ceil(8) as usize;
        self.out.extend_from_slice(&self.acc.to_le_bytes()[..tail]);
        self.out
    }
}

struct BitReader<'a> {
    buf: &'a [u8],
    /// Bits consumed so far.
    pos: u64,
}

impl<'a> BitReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0 }
    }

    fn remaining(&self) -> u64 {
        self.buf.len() as u64 * 8 - self.pos
    }

    /// Read a `width ≤ 64`-bit field.
    fn take(&mut self, width: u32) -> Result<u64, WireError> {
        debug_assert!(width <= 64);
        if width as u64 > self.remaining() {
            return Err(WireError::Truncated);
        }
        let (byte, shift) = ((self.pos / 8) as usize, (self.pos % 8) as u32);
        self.pos += width as u64;
        // A field spans at most nine bytes; the buffer's last few fields
        // are read through a zero-padded copy.
        let tail = &self.buf[byte..];
        let window = match tail.first_chunk::<16>() {
            Some(chunk) => *chunk,
            None => {
                let mut padded = [0u8; 16];
                padded[..tail.len()].copy_from_slice(tail);
                padded
            }
        };
        Ok((u128::from_le_bytes(window) >> shift) as u64 & low_mask(width))
    }

    /// Read a stated field width, which may not exceed 64 bits.
    fn take_width(&mut self) -> Result<u32, WireError> {
        let width = self.take(8)? as u8;
        if width > 64 {
            return Err(WireError::BadWidth(width));
        }
        Ok(width as u32)
    }

    /// Check a stated record count against the bits left — a record cannot
    /// be smaller than `min_record_bits ≥ 1` — so a hostile count is refused
    /// *before* the allocator is asked for it.
    fn check_count(&self, count: u64, min_record_bits: u64) -> Result<usize, WireError> {
        if count > self.remaining() / min_record_bits {
            return Err(WireError::BadCount(count));
        }
        Ok(count as usize)
    }

    fn take_id(&mut self, previous: SessionId, id_bits: u32) -> Result<SessionId, WireError> {
        if self.take(1)? == 1 {
            Ok(previous.wrapping_add(1))
        } else if self.take(1)? == 1 {
            self.take(64)
        } else {
            self.take(id_bits)
        }
    }

    /// Nothing but the last byte's zero padding may follow the last message.
    fn finish(mut self) -> Result<(), WireError> {
        let padding = self.remaining();
        if padding >= 8 || self.take(padding as u32)? != 0 {
            return Err(WireError::Trailing);
        }
        Ok(())
    }
}

/// The runs of consecutive sketches sharing a protocol round.
fn sections(batch: &[GroupSketch]) -> impl Iterator<Item = &[GroupSketch]> {
    batch.chunk_by(|a, b| a.round == b.round)
}

/// Exact size in bits of [`encode_sketches`]' output before the final
/// byte's padding: the header, one table entry per section, and per sketch
/// its flag, its id code and its declared [`GroupSketch::wire_bits`].
fn sketch_batch_bits(batch: &[GroupSketch], m: u32, id_bits: u32) -> u64 {
    let mut bits = HEADER_BITS;
    for section in sections(batch) {
        bits += SECTION_BITS;
        let mut previous = 0;
        for msg in section {
            let id_code = IdCode::of(previous, msg.session).bits(id_bits);
            bits += FLAG_BITS as u64 + id_code + msg.wire_bits(m);
            previous = msg.session;
        }
    }
    bits
}

/// Encode a batch of sketches (one Alice → Bob round trip) into bytes.
///
/// `m` is the field degree (`log₂(n+1)`), the width every syndrome is
/// packed at. All sketches of a batch must share one capacity `t` (they
/// come from one codec) and carry at least one syndrome.
pub fn encode_sketches(batch: &[GroupSketch], m: u32) -> Vec<u8> {
    let t = batch.first().map_or(0, |s| s.sketch.capacity());
    assert!(
        (1..=MAX_FIELD_DEGREE).contains(&m)
            && (batch.is_empty() || (1..=u16::MAX as usize).contains(&t))
            && batch.iter().all(|s| s.sketch.capacity() == t),
        "a sketch batch has one field degree m in 1..=32 and one capacity t in 1..=65535"
    );
    let id_bits = short_id_bits(batch.iter().map(|s| s.session));
    let bits = sketch_batch_bits(batch, m, id_bits);
    let mut w = BitWriter::with_capacity(bits);
    w.put(m as u64, 8);
    w.put(id_bits as u64, 8);
    w.put(t as u64, 16);
    w.put(sections(batch).count() as u64, 32);
    for section in sections(batch) {
        w.put(section[0].round as u64, 32);
        w.put(section.len() as u64, 32);
    }
    for section in sections(batch) {
        let mut previous = 0;
        for msg in section {
            w.put(u64::from(msg.needs_checksum), FLAG_BITS);
            w.put_id(previous, msg.session, id_bits);
            previous = msg.session;
            for &s in msg.sketch.syndromes() {
                w.put(s, m);
            }
        }
    }
    debug_assert_eq!(w.bit_len(), bits, "a sketch batch spends its declared bits");
    w.finish()
}

/// Decode a batch of sketches produced by [`encode_sketches`].
pub fn decode_sketches(buf: &[u8]) -> Result<Vec<GroupSketch>, WireError> {
    decode_sketches_with_m(buf).map(|(_, batch)| batch)
}

/// Decode a sketch batch and also return the field degree `m` it was packed
/// with — transports that must echo or validate `m` (the framed protocol's
/// `Sketches` frame) get it from the decoder itself instead of re-deriving
/// the payload layout.
pub fn decode_sketches_with_m(buf: &[u8]) -> Result<(u32, Vec<GroupSketch>), WireError> {
    let mut r = BitReader::new(buf);
    let m = r.take(8)? as u32;
    if !(1..=MAX_FIELD_DEGREE).contains(&m) {
        return Err(WireError::BadFieldDegree(m as u8));
    }
    let id_bits = r.take_width()?;
    let t = r.take(16)? as usize;
    let section_count = r.take(32)?;
    let mut table = Vec::with_capacity(r.check_count(section_count, SECTION_BITS)?);
    let mut total = 0u64;
    for _ in 0..section_count {
        let (round, count) = (r.take(32)? as u32, r.take(32)?);
        total += count;
        table.push((round, count));
    }
    if t == 0 && total > 0 {
        return Err(WireError::BadWidth(0));
    }
    // Smallest sketch: the flag, a one-bit id code, the syndromes.
    let syndrome_bits = t as u64 * m as u64;
    let smallest = FLAG_BITS as u64 + 1 + syndrome_bits;
    let mut out = Vec::with_capacity(r.check_count(total, smallest)?);
    for (round, count) in table {
        let mut previous = 0;
        for _ in 0..count {
            let needs_checksum = r.take(FLAG_BITS)? == 1;
            let session = r.take_id(previous, id_bits)?;
            previous = session;
            if syndrome_bits > r.remaining() {
                return Err(WireError::Truncated);
            }
            let mut syndromes = Vec::with_capacity(t);
            for _ in 0..t {
                syndromes.push(r.take(m)?);
            }
            // `m`-bit values are field elements by construction.
            let sketch =
                Sketch::from_syndromes(syndromes, m).ok_or(WireError::BadFieldDegree(m as u8))?;
            out.push(GroupSketch {
                session,
                round,
                sketch,
                needs_checksum,
            });
        }
    }
    r.finish()?;
    Ok((m, out))
}

/// The field widths a report batch states once in its header.
struct ReportWidths {
    id_bits: u32,
    count_bits: u32,
    position_bits: u32,
    value_bits: u32,
}

impl ReportWidths {
    /// The widths of the largest id, bin count, position and XOR sum or
    /// checksum present. A position takes at least one bit, so that a
    /// stated bin count is always bounded by the bits that follow it.
    fn of(batch: &[GroupReport]) -> Self {
        let (mut bins_max, mut position_max, mut value_max) = (0u64, 0u64, 0u64);
        for msg in batch {
            if let GroupReportBody::Decoded { bins, checksum } = &msg.body {
                bins_max = bins_max.max(bins.len() as u64);
                value_max = value_max.max(checksum.unwrap_or(0));
                for b in bins {
                    position_max = position_max.max(b.position);
                    value_max = value_max.max(b.xor_sum);
                }
            }
        }
        ReportWidths {
            id_bits: short_id_bits(batch.iter().map(|r| r.session)),
            count_bits: bit_len(bins_max),
            position_bits: bit_len(position_max).max(1),
            value_bits: bit_len(value_max),
        }
    }

    /// Bits of one report after a report for `previous`: its id code, its
    /// declared [`GroupReport::wire_bits`] at these widths and, around
    /// decoded bins, the tag and the bin count. (A failed report is its tag,
    /// which it declares itself.)
    fn report_bits(&self, previous: SessionId, msg: &GroupReport) -> u64 {
        let framing = match msg.body {
            GroupReportBody::Decoded { .. } => (TAG_BITS + self.count_bits) as u64,
            GroupReportBody::DecodeFailed => 0,
        };
        IdCode::of(previous, msg.session).bits(self.id_bits)
            + framing
            + msg.wire_bits(self.position_bits, self.value_bits)
    }

    /// Exact size in bits of [`encode_reports`]' output before the final
    /// byte's padding: the header and every report.
    fn batch_bits(&self, batch: &[GroupReport]) -> u64 {
        let mut bits = HEADER_BITS;
        let mut previous = 0;
        for msg in batch {
            bits += self.report_bits(previous, msg);
            previous = msg.session;
        }
        bits
    }
}

/// Encode a batch of reports (one Bob → Alice round trip) into bytes.
pub fn encode_reports(batch: &[GroupReport]) -> Vec<u8> {
    let widths = ReportWidths::of(batch);
    let bits = widths.batch_bits(batch);
    let mut w = BitWriter::with_capacity(bits);
    w.put(batch.len() as u64 & 0xFFFF_FFFF, 32);
    w.put(widths.id_bits as u64, 8);
    w.put(widths.count_bits as u64, 8);
    w.put(widths.position_bits as u64, 8);
    w.put(widths.value_bits as u64, 8);
    let mut previous = 0;
    for msg in batch {
        w.put_id(previous, msg.session, widths.id_bits);
        previous = msg.session;
        match &msg.body {
            GroupReportBody::DecodeFailed => w.put(TAG_FAILED, TAG_BITS),
            GroupReportBody::Decoded { bins, checksum } => {
                match checksum {
                    Some(c) => {
                        w.put(TAG_DECODED_WITH_CHECKSUM, TAG_BITS);
                        w.put(*c, widths.value_bits);
                    }
                    None => w.put(TAG_DECODED, TAG_BITS),
                }
                w.put(bins.len() as u64, widths.count_bits);
                for b in bins {
                    w.put(b.position, widths.position_bits);
                    w.put(b.xor_sum, widths.value_bits);
                }
            }
        }
    }
    debug_assert_eq!(w.bit_len(), bits, "a report batch spends its declared bits");
    w.finish()
}

/// Decode a batch of reports produced by [`encode_reports`].
pub fn decode_reports(buf: &[u8]) -> Result<Vec<GroupReport>, WireError> {
    let mut r = BitReader::new(buf);
    let count = r.take(32)?;
    let widths = ReportWidths {
        id_bits: r.take_width()?,
        count_bits: r.take_width()?,
        position_bits: r.take_width()?,
        value_bits: r.take_width()?,
    };
    if widths.position_bits == 0 {
        return Err(WireError::BadWidth(0));
    }
    // Smallest report: a one-bit id code and the tag.
    let mut out = Vec::with_capacity(r.check_count(count, 1 + TAG_BITS as u64)?);
    let bin_bits = (widths.position_bits + widths.value_bits) as u64;
    let mut previous = 0;
    for _ in 0..count {
        let session = r.take_id(previous, widths.id_bits)?;
        previous = session;
        let tag = r.take(TAG_BITS)?;
        let body = match tag {
            TAG_FAILED => GroupReportBody::DecodeFailed,
            TAG_DECODED | TAG_DECODED_WITH_CHECKSUM => {
                let checksum = if tag == TAG_DECODED_WITH_CHECKSUM {
                    Some(r.take(widths.value_bits)?)
                } else {
                    None
                };
                let bin_count = r.take(widths.count_bits)?;
                let mut bins = Vec::with_capacity(r.check_count(bin_count, bin_bits)?);
                for _ in 0..bin_count {
                    let position = r.take(widths.position_bits)?;
                    let xor_sum = r.take(widths.value_bits)?;
                    bins.push(BinInfo { position, xor_sum });
                }
                GroupReportBody::Decoded { bins, checksum }
            }
            t => return Err(WireError::BadTag(t as u8)),
        };
        out.push(GroupReport { session, body });
    }
    r.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::child_sessions;
    use crate::{AliceSession, BobSession, Pbs, PbsConfig};
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn sketch_of(syndromes: Vec<u64>, m: u32) -> Sketch {
        Sketch::from_syndromes(syndromes, m).expect("syndromes in GF(2^m)")
    }

    /// What the encoders declare for a whole batch, before padding.
    fn declared_sketch_bits(batch: &[GroupSketch], m: u32) -> u64 {
        sketch_batch_bits(batch, m, short_id_bits(batch.iter().map(|s| s.session)))
    }

    fn declared_report_bits(batch: &[GroupReport]) -> u64 {
        ReportWidths::of(batch).batch_bits(batch)
    }

    /// Session ids of every shape the code distinguishes, from `(kind,
    /// raw)` draws: the previous id plus one, a sparse later-round id, a
    /// §3.2 child id (top bit set), and anything at all.
    fn ids(draws: &[(u8, u64)]) -> Vec<SessionId> {
        let mut previous = 0u64;
        let mut out = Vec::with_capacity(draws.len());
        for &(kind, raw) in draws {
            previous = match kind {
                0 => previous.wrapping_add(1),
                1 => raw % 5_000 + 1,
                2 => child_sessions(raw % 5_000 + 1)[(raw % 3) as usize],
                _ => raw,
            };
            out.push(previous);
        }
        out
    }

    fn decoded(bins: &[(u64, u64)], checksum: Option<u64>) -> GroupReportBody {
        let bins = bins
            .iter()
            .map(|&(position, xor_sum)| BinInfo { position, xor_sum });
        GroupReportBody::Decoded {
            bins: bins.collect(),
            checksum,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn sketch_batches_round_trip_at_their_declared_length(
            m in 3u32..=16,
            t in 1usize..=40,
            layers in 1u32..=4,
            first_round in any::<u32>(),
            draws in prop::collection::vec((0u8..4, any::<u64>()), 0..40),
            fill in any::<u64>(),
        ) {
            // Layer-major, as a pipelined batch is: the same sessions once
            // per layer, each layer its own round.
            let mut x = fill;
            let mut batch = Vec::new();
            for layer in 0..layers {
                for (i, &session) in ids(&draws).iter().enumerate() {
                    let syndromes = (0..t).map(|_| {
                        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                        x >> (64 - m)
                    });
                    batch.push(GroupSketch {
                        session,
                        round: first_round.wrapping_add(layer),
                        sketch: sketch_of(syndromes.collect(), m),
                        needs_checksum: (fill >> (i % 64)) & 1 == 1,
                    });
                }
            }
            let bytes = encode_sketches(&batch, m);
            prop_assert_eq!(bytes.len() as u64, declared_sketch_bits(&batch, m).div_ceil(8));
            prop_assert_eq!(decode_sketches_with_m(&bytes), Ok((m, batch)));
        }

        #[test]
        fn report_batches_round_trip_at_their_declared_length(
            position_bits in 0u32..=64,
            value_bits in 0u32..=64,
            draws in prop::collection::vec((0u8..4, any::<u64>()), 0..40),
            bodies in prop::collection::vec(
                (0u8..3, any::<u64>(), prop::collection::vec((any::<u64>(), any::<u64>()), 0..9)),
                40,
            ),
        ) {
            // Positions from 0 to far beyond any n, sums and checksums up
            // to `u64::MAX`: the widths follow the data.
            let batch: Vec<GroupReport> = ids(&draws)
                .into_iter()
                .zip(&bodies)
                .map(|(session, (tag, checksum, bins))| {
                    let bins: Vec<(u64, u64)> = bins
                        .iter()
                        .map(|&(p, x)| (p & low_mask(position_bits), x & low_mask(value_bits)))
                        .collect();
                    let body = match tag {
                        0 => decoded(&bins, None),
                        1 => decoded(&bins, Some(checksum & low_mask(value_bits))),
                        _ => GroupReportBody::DecodeFailed,
                    };
                    GroupReport { session, body }
                })
                .collect();
            let bytes = encode_reports(&batch);
            prop_assert_eq!(bytes.len() as u64, declared_report_bits(&batch).div_ceil(8));
            prop_assert_eq!(decode_reports(&bytes), Ok(batch));
        }
    }

    #[test]
    fn empty_batches_are_a_bare_header() {
        let bytes = encode_sketches(&[], 8);
        assert_eq!(hex(&bytes), "0800000000000000");
        assert_eq!(decode_sketches_with_m(&bytes), Ok((8, Vec::new())));
        let bytes = encode_reports(&[]);
        // (A position is stated at one bit or more.)
        assert_eq!(hex(&bytes), "0000000000000100");
        assert_eq!(decode_reports(&bytes), Ok(Vec::new()));
    }

    /// Both layouts worked out by hand from the module docs — the bit
    /// order, not just self-consistency.
    #[test]
    fn the_bit_order_is_pinned() {
        // m = 3, t = 1, one section (round 7) of three sketches whose ids
        // take the three forms of the id code.
        let sketch = |session, needs_checksum, syndrome| GroupSketch {
            session,
            round: 7,
            sketch: sketch_of(vec![syndrome], 3),
            needs_checksum,
        };
        let batch = [
            // 1 | 1 | 101            flag, "previous + 1", syndrome 5
            sketch(1, true, 5),
            // 0 | 00 101 | 110       flag, short form of 5 at 3 bits, 3
            sketch(5, false, 3),
            // 1 | 01 1 0…0 1 | 111   flag, escape + 64 bits, 7
            sketch(0x8000_0000_0000_0001, true, 7),
        ];
        let bytes = encode_sketches(&batch, 3);
        assert_eq!(
            hex(&bytes),
            // m, id_bits, t, sections | round, count | 84 bits, 4 of padding
            "0303010001000000\
             0700000003000000\
             175d03000000000000000f"
        );
        assert_eq!(decode_sketches_with_m(&bytes), Ok((3, batch.to_vec())));

        let batch = [
            // 1 | 10 | 11010101 | 1 | 101 00111100
            GroupReport {
                session: 1,
                body: decoded(&[(5, 0x3C)], Some(0xAB)),
            },
            // 1 | 01
            GroupReport {
                session: 2,
                body: GroupReportBody::DecodeFailed,
            },
            // 00 1001 | 00 | 0
            GroupReport {
                session: 9,
                body: decoded(&[], None),
            },
        ];
        let bytes = encode_reports(&batch);
        assert_eq!(
            hex(&bytes),
            // count | id, count, position, value widths | 35 bits, 5 of padding
            "03000000\
             04010308\
             5b5d9e9200"
        );
        assert_eq!(decode_reports(&bytes), Ok(batch.to_vec()));
    }

    /// Run a session pair over the codec, `layers` rounds a trip, handing
    /// every encoded batch to `inspect`; returns the recovered difference.
    fn run_over_the_wire(
        d_planned: usize,
        alice: &[u64],
        bob: &[u64],
        layers: u32,
        mut inspect: impl FnMut(&[GroupSketch], &[u8], &[GroupReport], &[u8]),
    ) -> Vec<u64> {
        let cfg = PbsConfig::default();
        let params = Pbs::new(cfg).plan(d_planned);
        let mut a = AliceSession::new(cfg, params, alice, 9);
        let mut b = BobSession::new(cfg, params, bob, 9);
        for _ in 0..12 {
            let sketches = a.start_rounds(layers);
            let sketch_bytes = encode_sketches(&sketches, params.m);
            assert_eq!(decode_sketches(&sketch_bytes).as_ref(), Ok(&sketches));
            let reports = b.handle_sketches(&sketches);
            let report_bytes = encode_reports(&reports);
            assert_eq!(decode_reports(&report_bytes).as_ref(), Ok(&reports));
            inspect(&sketches, &sketch_bytes, &reports, &report_bytes);
            if a.apply_reports(&reports).all_verified {
                break;
            }
        }
        assert!(a.all_verified());
        a.into_recovered()
    }

    #[test]
    fn a_session_pays_formula_one_plus_the_stated_headers() {
        // Planned for 8 differences against 100 real ones, two layers a
        // trip: splits, child ids, sparse later rounds, failures.
        let cfg = PbsConfig::default();
        let params = Pbs::new(cfg).plan(8);
        let alice: Vec<u64> = (1..=3_000).collect();
        let bob: Vec<u64> = (101..=3_000).collect();
        let (mut formula_one, mut wire, mut failures) = (0u64, 0u64, 0);
        let recovered = run_over_the_wire(8, &alice, &bob, 2, |sketches, sb, reports, rb| {
            // The wire is the declared bits, rounded up once per batch…
            let sketch_bits = declared_sketch_bits(sketches, params.m);
            let report_bits = declared_report_bits(reports);
            assert_eq!(sb.len() as u64, sketch_bits.div_ceil(8));
            assert_eq!(rb.len() as u64, report_bits.div_ceil(8));
            // …and the declaration is the transcript's own, plus the named
            // per-message framing: a flag and an id code per sketch; an id
            // code, a tag and a ⌈log₂(t+1)⌉-bit bin count per report (a
            // failed report's tag is inside its own declaration).
            let id_code_max = 2 + 64;
            let accounted: u64 = sketches.iter().map(|s| s.wire_bits(params.m)).sum();
            let sections = sections(sketches).count() as u64;
            let framing = HEADER_BITS + sections * SECTION_BITS;
            assert!(sketch_bits >= framing + accounted);
            assert!(
                sketch_bits
                    <= framing
                        + accounted
                        + sketches.len() as u64 * (FLAG_BITS as u64 + id_code_max)
            );
            let charged = |r: &GroupReport| r.wire_bits(params.m, cfg.universe_bits);
            let accounted_reports: u64 = reports.iter().map(charged).sum();
            let per_report = id_code_max + (TAG_BITS + bit_len(params.t as u64)) as u64;
            assert!(
                report_bits <= HEADER_BITS + accounted_reports + reports.len() as u64 * per_report
            );
            formula_one += accounted + accounted_reports;
            wire += (sb.len() + rb.len()) as u64 * 8;
            let failed = |r: &&GroupReport| r.body == GroupReportBody::DecodeFailed;
            failures += reports.iter().filter(failed).count();
        });
        assert_eq!(recovered, (1..=100).collect::<Vec<u64>>());
        assert!(failures > 0, "the run must exercise splits");
        assert!(wire >= formula_one, "{wire} wire bits under {formula_one}");
    }

    #[test]
    fn truncations_and_bit_flips_error_or_decode_but_never_panic() {
        let alice: Vec<u64> = (1..=700).collect();
        let bob: Vec<u64> = (31..=700).collect();
        let mut streams: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        run_over_the_wire(3, &alice, &bob, 2, |_, sb, _, rb| {
            streams.push((sb.to_vec(), rb.to_vec()));
        });
        assert!(
            streams.len() > 1,
            "later rounds carry the sparse and child ids"
        );
        for (sketch_bytes, report_bytes) in streams {
            // Every strict prefix is short of at least one declared bit.
            for cut in 0..sketch_bytes.len() {
                assert!(decode_sketches(&sketch_bytes[..cut]).is_err(), "cut {cut}");
            }
            for cut in 0..report_bytes.len() {
                assert!(decode_reports(&report_bytes[..cut]).is_err(), "cut {cut}");
            }
            // A flipped bit lands in a header, an id code, a payload field
            // or the padding; whatever it does, it does not panic.
            for bit in 0..sketch_bytes.len() * 8 {
                let mut bad = sketch_bytes.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                let _ = decode_sketches(&bad);
            }
            for bit in 0..report_bytes.len() * 8 {
                let mut bad = report_bytes.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                let _ = decode_reports(&bad);
            }
        }
    }

    #[test]
    fn malformed_headers_are_refused_by_name() {
        // A sketch batch header: m, id_bits, t (u16), sections (u32).
        let sketches = |m: u8, id_bits: u8, t: u16, sections: u32| {
            let mut bytes = vec![m, id_bits];
            bytes.extend_from_slice(&t.to_le_bytes());
            bytes.extend_from_slice(&sections.to_le_bytes());
            bytes
        };
        let section = |round: u32, count: u32| {
            let mut bytes = round.to_le_bytes().to_vec();
            bytes.extend_from_slice(&count.to_le_bytes());
            bytes
        };
        let refused = |bytes: Vec<u8>| decode_sketches(&bytes).err();
        assert_eq!(
            refused(sketches(0, 0, 1, 0)),
            Some(WireError::BadFieldDegree(0))
        );
        assert_eq!(
            refused(sketches(33, 0, 1, 0)),
            Some(WireError::BadFieldDegree(33))
        );
        assert_eq!(
            refused(sketches(8, 65, 1, 0)),
            Some(WireError::BadWidth(65))
        );
        // More sections than the buffer has bytes for; more sketches than
        // the bits after the table can hold — at any t, and summed over
        // sections.
        assert_eq!(
            refused(sketches(8, 0, 1, u32::MAX)),
            Some(WireError::BadCount(u32::MAX as u64))
        );
        for t in [1, 11, u16::MAX] {
            let mut bytes = sketches(8, 0, t, 2);
            bytes.extend(section(1, u32::MAX));
            bytes.extend(section(2, u32::MAX));
            bytes.extend_from_slice(&[0xFF; 64]);
            assert_eq!(
                refused(bytes),
                Some(WireError::BadCount(2 * u32::MAX as u64)),
                "t = {t}"
            );
        }
        assert_eq!(refused(vec![8, 0, 1]), Some(WireError::Truncated));

        // A report batch header: count (u32), then the four widths.
        let reports = |count: u32, widths: [u8; 4]| {
            let mut bytes = count.to_le_bytes().to_vec();
            bytes.extend_from_slice(&widths);
            bytes
        };
        let refused = |bytes: Vec<u8>| decode_reports(&bytes).err();
        for at in 0..4 {
            let mut widths = [4, 4, 7, 32];
            widths[at] = 65;
            assert_eq!(refused(reports(0, widths)), Some(WireError::BadWidth(65)));
        }
        let mut bytes = reports(u32::MAX, [4, 4, 7, 32]);
        bytes.extend_from_slice(&[0xFF; 64]);
        assert_eq!(refused(bytes), Some(WireError::BadCount(u32::MAX as u64)));
        // One report, "previous + 1", tag 0, then a 64-bit bin count of all
        // ones with three bytes behind it — at any bin width, down to the
        // one-bit position a bin cannot go below.
        for widths in [[0, 64, 7, 32], [0, 64, 1, 0]] {
            let mut bytes = reports(1, widths);
            bytes.extend_from_slice(&[0b1111_1001, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF]);
            bytes.extend_from_slice(&[0b0000_0111, 0xFF, 0xFF, 0xFF]);
            assert_eq!(refused(bytes), Some(WireError::BadCount(u64::MAX)));
        }
        // The one unassigned tag.
        let mut bytes = reports(1, [0, 0, 1, 0]);
        bytes.push(0b0000_0111);
        assert_eq!(refused(bytes), Some(WireError::BadTag(3)));
        // Anything after the last message but zero padding.
        let mut bytes = encode_reports(&[]);
        bytes.push(0);
        assert_eq!(refused(bytes), Some(WireError::Trailing));
        let mut bytes = reports(1, [0, 0, 1, 0]);
        bytes.push(0b0000_1101); // "previous + 1", tag 2 (failed), a stray bit
        assert_eq!(refused(bytes), Some(WireError::Trailing));
    }

    /// Records of no bits would let a count be stated again and again
    /// against the same unspent buffer: a header that makes a bin or a
    /// sketch empty is refused before the first of them is read.
    #[test]
    fn empty_records_are_refused_at_the_header() {
        // A thousand reports, each claiming 65 535 bins of 0 + 0 bits.
        let mut w = BitWriter::with_capacity(0);
        w.put(1_000, 32);
        for width in [0, 16, 0, 0] {
            w.put(width, 8);
        }
        for _ in 0..1_000 {
            w.put(1, 1);
            w.put(TAG_DECODED, TAG_BITS);
            w.put(0xFFFF, 16);
        }
        assert_eq!(decode_reports(&w.finish()), Err(WireError::BadWidth(0)));

        // Over the narrowest bin there is, one bit, a claim the bits left
        // can hold spends them: a thousand reports of a thousand bins each
        // do not fit 19 000 bits, and a later claim finds too few left.
        let mut w = BitWriter::with_capacity(0);
        w.put(1_000, 32);
        for width in [0, 16, 1, 0] {
            w.put(width, 8);
        }
        for _ in 0..1_000 {
            w.put(1, 1);
            w.put(TAG_DECODED, TAG_BITS);
            w.put(1_000, 16);
        }
        assert!(matches!(
            decode_reports(&w.finish()),
            Err(WireError::BadCount(_))
        ));

        // A thousand sketches of t = 0 syndromes, two bits each.
        let mut w = BitWriter::with_capacity(0);
        for (field, width) in [(8, 8), (0, 8), (0, 16), (1, 32), (1, 32), (1_000, 32)] {
            w.put(field, width);
        }
        for _ in 0..1_000 {
            w.put(0b10, 2);
        }
        assert_eq!(decode_sketches(&w.finish()), Err(WireError::BadWidth(0)));
        // Stating t = 0 over no sketches at all is the empty batch.
        let mut w = BitWriter::with_capacity(0);
        for (field, width) in [(8, 8), (0, 8), (0, 16), (1, 32), (1, 32), (0, 32)] {
            w.put(field, width);
        }
        assert_eq!(decode_sketches(&w.finish()), Ok(Vec::new()));
    }
}
