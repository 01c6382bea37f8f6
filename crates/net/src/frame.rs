//! The framed wire protocol: length-prefixed, CRC-checked frames layered
//! over the payload encoders of [`pbs_core::wire`].
//!
//! On the wire every frame is
//!
//! ```text
//! | len: u32 LE | crc: u32 LE | type: u8 | payload: (len - 1) bytes |
//! ```
//!
//! where `len` counts the type byte plus the payload, `crc` is the CRC-32
//! of exactly those `len` bytes, and `len` is bounded by the receiver's
//! configured maximum frame size — checked *before* any allocation, so a
//! hostile length prefix cannot reserve memory. The full format, handshake
//! and error semantics are specified in `docs/WIRE.md`.

use crate::crc::crc32;
use crate::{FrameError, NetError};
use pbs_core::messages::{GroupReport, GroupSketch};
use pbs_core::wire::{self, WireError};
use pbs_core::PbsConfig;
use std::io::{Read, Write};

/// The one protocol version: the value of every `Hello`'s `version` field.
/// There is no negotiation — a `Hello` carrying any other value is refused
/// ([`FrameError::Version`], answered with [`ErrorCode::Version`]) before
/// any later field is read.
///
/// Version 8 takes the server's empty `Done` ack off the wire (every final
/// transfer is acked with a `DeltaDone`); its bytes are v7's but for the
/// version field. v7 dropped the plan from the `Hello`: every session runs
/// the service plan of its universe (`Hello::config`).
pub const PROTOCOL_VERSION: u16 = 8;

/// Largest store name (in bytes) a `Hello` may carry or a server accepts.
pub(crate) const MAX_STORE_NAME: usize = 64;

/// Magic number opening every `Hello` payload (`"PBS1"` little-endian).
pub(crate) const HELLO_MAGIC: u32 = 0x3153_4250;

/// Default cap on `len` (type byte + payload): 16 MiB. Generous — the
/// largest routine frame is one round trip's report batch, a few kilobytes
/// at `d = 1000` — while still bounding what a hostile peer can make the
/// receiver buffer.
pub const DEFAULT_MAX_FRAME: u32 = 1 << 24;

/// Bytes of framing added around every frame body: length prefix + CRC.
pub(crate) const FRAME_OVERHEAD: u64 = 8;

/// Fixed bytes of a [`Frame::DeltaBatch`] body before the element words:
/// type byte + epoch + element width + the two element counts.
pub(crate) const DELTA_BATCH_HEADER: u32 = 1 + 8 + 1 + 4 + 4;

/// Fixed bytes of a [`Frame::Done`] body before the element words: type
/// byte + element width + element count.
pub(crate) const DONE_HEADER: u32 = 1 + 1 + 4;

/// Byte width the elements of a delta chunk or a final transfer are packed
/// at: the smallest width that fits the largest element present (1..=8).
/// Elements in a 32-bit universe cost 4 bytes on the wire, not 8.
pub(crate) fn delta_element_width(added: &[u64], removed: &[u64]) -> u8 {
    let max = added.iter().chain(removed).copied().max().unwrap_or(0);
    ((64 - max.leading_zeros() as usize).div_ceil(8)).max(1) as u8
}

/// The element list of a frame, packed: each element's low `width` bytes,
/// little-endian.
fn put_packed<'a>(out: &mut Vec<u8>, elements: impl Iterator<Item = &'a u64>, width: u8) {
    for e in elements {
        out.extend_from_slice(&e.to_le_bytes()[..width as usize]);
    }
}

/// The `count` elements of `width` bytes each that are the whole of `buf`,
/// widened back to `u64`. The width and the exact length are checked
/// before anything is allocated: the count must describe precisely the
/// bytes present.
fn take_packed(
    buf: &[u8],
    width: u8,
    count: usize,
) -> Result<impl Iterator<Item = u64> + '_, FrameError> {
    if !(1..=8).contains(&width) {
        return Err(FrameError::Payload(WireError::BadTag(width)));
    }
    let width = width as usize;
    if count.checked_mul(width) != Some(buf.len()) {
        return Err(FrameError::Payload(WireError::Truncated));
    }
    Ok(buf.chunks_exact(width).map(move |c| {
        let mut bytes = [0u8; 8];
        bytes[..width].copy_from_slice(c);
        u64::from_le_bytes(bytes)
    }))
}

/// Most elements (added plus removed) packed into one [`Frame::DeltaBatch`]
/// before a changelog batch is split across frames: what fits under
/// `max_frame`, additionally clamped to 2¹⁶ elements so a huge batch is
/// streamed in bounded chunks rather than materialized as one frame.
pub fn delta_chunk_capacity(max_frame: u32) -> usize {
    const CHUNK_CAP: usize = 1 << 16;
    ((max_frame.saturating_sub(DELTA_BATCH_HEADER) / 8) as usize).clamp(1, CHUNK_CAP)
}

/// Split one changelog batch into [`Frame::DeltaBatch`] frames of at most
/// `capacity` elements each (the chunking rule of `docs/WIRE.md`): the add
/// list ships first, then the remove list, a frame may carry the tail of
/// one and the head of the other, and every chunk repeats the batch's
/// epoch. Chunks never span two changelog batches — each batch's epoch
/// stamp is preserved. An empty (never effective) batch still produces one
/// empty frame.
pub fn delta_batch_frames(
    epoch: u64,
    added: &[u64],
    removed: &[u64],
    capacity: usize,
) -> Vec<Frame> {
    let capacity = capacity.max(1);
    let mut frames = Vec::new();
    let (mut added, mut removed) = (added, removed);
    loop {
        let take_a = added.len().min(capacity);
        let (chunk_a, rest_a) = added.split_at(take_a);
        let take_r = removed.len().min(capacity - take_a);
        let (chunk_r, rest_r) = removed.split_at(take_r);
        (added, removed) = (rest_a, rest_r);
        frames.push(Frame::DeltaBatch {
            epoch,
            added: chunk_a.to_vec(),
            removed: chunk_r.to_vec(),
        });
        if added.is_empty() && removed.is_empty() {
            break;
        }
    }
    frames
}

/// Machine-readable cause carried by an [`Frame::Error`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The `Hello` magic was wrong — not this protocol.
    BadMagic,
    /// The `Hello` did not carry [`PROTOCOL_VERSION`].
    Version,
    /// A handshake or estimator parameter was rejected.
    BadConfig,
    /// A frame arrived that the peer's state machine cannot accept here.
    Protocol,
    /// The server's per-connection round cap was exceeded.
    RoundLimit,
    /// A payload failed to decode.
    Decode,
    /// The sender hit an internal failure (deadline, resource limits, …).
    Internal,
    /// The `Hello` named a store this server does not serve.
    UnknownStore,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::BadMagic => 1,
            ErrorCode::Version => 2,
            ErrorCode::BadConfig => 3,
            ErrorCode::Protocol => 4,
            ErrorCode::RoundLimit => 5,
            ErrorCode::Decode => 6,
            ErrorCode::Internal => 7,
            ErrorCode::UnknownStore => 8,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => ErrorCode::BadMagic,
            2 => ErrorCode::Version,
            3 => ErrorCode::BadConfig,
            4 => ErrorCode::Protocol,
            5 => ErrorCode::RoundLimit,
            6 => ErrorCode::Decode,
            7 => ErrorCode::Internal,
            8 => ErrorCode::UnknownStore,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::BadMagic => "bad-magic",
            ErrorCode::Version => "version-unsupported",
            ErrorCode::BadConfig => "bad-config",
            ErrorCode::Protocol => "protocol-violation",
            ErrorCode::RoundLimit => "round-limit",
            ErrorCode::Decode => "decode-failure",
            ErrorCode::Internal => "internal",
            ErrorCode::UnknownStore => "unknown-store",
        };
        f.write_str(name)
    }
}

/// The handshake frame both parties open with. The client names the
/// universe, proposes a seed and addresses a store; the server echoes it
/// with the store it routed to, the pipeline depth it grants and the seed
/// the session runs under (or answers with [`Frame::Error`]). The plan is
/// no field: both state machines run the service plan of the universe
/// (`Hello::config`), so with the seed they derive every hash function
/// identically without any further agreement.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// Always [`PROTOCOL_VERSION`] in a `Hello` that decoded; the encoder
    /// writes whatever is set here (tests forge stale versions with it).
    pub version: u16,
    /// `log|U|`, the element signature width.
    pub universe_bits: u8,
    /// Base seed every hash function on both sides derives from. The
    /// client proposes one; the reply's is authoritative — the seed of the
    /// store's view where it keeps one ([`crate::SetStore::session_seed`]),
    /// the proposal otherwise.
    pub seed: u64,
    /// Difference cardinality known a priori; `0` means unknown, and an
    /// estimator exchange follows the handshake.
    pub known_d: u64,
    /// Name of the server-side store to reconcile against (the empty
    /// string is the default store). At most `MAX_STORE_NAME` (64) bytes of
    /// UTF-8.
    pub store: String,
    /// Pipelined layers per sketch frame: the depth the client *requests*,
    /// the depth the server's reply *grants* (`min(requested,
    /// max_pipeline_depth)`), so a client never discovers the server's cap
    /// by having a mid-session frame refused. 0 is normalized to 1.
    pub pipeline: u8,
    /// The store epoch this client last synced at. `Some(e)` asks the
    /// server for a delta subscription: if the named store's changelog
    /// still reaches back to `e`, the server streams the changes since `e`
    /// instead of running a reconciliation; otherwise it answers
    /// [`Frame::FullResyncRequired`] and the session proceeds classically.
    /// `None` requests a normal reconciliation session.
    pub delta_epoch: Option<u64>,
}

impl Hello {
    /// Build the client's opening `Hello` for `cfg`'s universe (the one
    /// field of a [`PbsConfig`] the wire carries), addressing the default
    /// store with unpipelined rounds.
    pub fn from_config(cfg: &PbsConfig, seed: u64, known_d: u64) -> Self {
        Hello {
            version: PROTOCOL_VERSION,
            universe_bits: cfg.universe_bits as u8,
            seed,
            known_d,
            store: String::new(),
            pipeline: 1,
            delta_epoch: None,
        }
    }

    /// Address a named store.
    pub fn with_store(mut self, store: impl Into<String>) -> Self {
        self.store = store.into();
        self
    }

    /// Request a pipelined-layer depth (the server grants at most its own
    /// cap).
    pub fn with_pipeline(mut self, layers: u32) -> Self {
        self.pipeline = layers.clamp(1, u8::MAX as u32) as u8;
        self
    }

    /// Request a delta subscription from the given last-known store epoch.
    pub fn with_delta_epoch(mut self, epoch: u64) -> Self {
        self.delta_epoch = Some(epoch);
        self
    }

    /// The [`PbsConfig`] both parties run the session under: the service
    /// plan of the `Hello`'s universe — the paper's δ = 5, r = 3,
    /// p₀ = 0.99 and 128 ToW sketches, the rounds uncapped. Rejects a
    /// universe outside 8..=64, so a hostile handshake cannot reach the
    /// panicking constructors.
    pub(crate) fn config(&self) -> Result<PbsConfig, String> {
        if !(8..=64).contains(&(self.universe_bits as u32)) {
            return Err(format!(
                "universe_bits {} outside 8..=64",
                self.universe_bits
            ));
        }
        Ok(service_plan(self.universe_bits as u32))
    }
}

/// The one plan of the service: the paper's δ = 5, r = 3, p₀ = 0.99 and
/// 128 ToW sketches (§5–§6) over the session's universe, every group let
/// run to completion. Both machines plan with it; a client configured
/// with any other plan is refused before it sends anything.
pub(crate) fn service_plan(universe_bits: u32) -> PbsConfig {
    PbsConfig {
        universe_bits,
        ..PbsConfig::default().unlimited_rounds()
    }
}

/// The two halves of the estimator exchange.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimatorMsg {
    /// Client → server: the serialized ToW bank
    /// ([`estimator::TowEstimator::to_bytes`]) of the client's set.
    TowBank(Vec<u8>),
    /// Server → client: the difference cardinality the server derived (the
    /// γ-inflated parameterization `d_param` plus the raw estimate `d_hat`).
    Estimate {
        /// `⌈γ · d̂⌉`, what both sides parameterize PBS with.
        d_param: u64,
        /// The raw ToW estimate, for reporting.
        d_hat: f64,
    },
}

/// One protocol frame. See the module docs for the byte layout and
/// `docs/WIRE.md` for the full state machine.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Handshake (both directions).
    Hello(Hello),
    /// Cardinality-estimator exchange (either half).
    EstimatorExchange(EstimatorMsg),
    /// Alice → Bob: one round trip's sketch batch. `m` is the field degree
    /// the syndromes are packed at.
    Sketches {
        /// Field degree `log₂(n+1)`: the bits each syndrome takes.
        m: u32,
        /// The per-group sketches of this round.
        batch: Vec<GroupSketch>,
    },
    /// Bob → Alice: the round's reports.
    Reports(Vec<GroupReport>),
    /// Client → server: the final transfer — the elements the server's set
    /// is missing (`A \ B`).
    Done(Vec<u64>),
    /// Fatal error; the sender closes the connection after this frame.
    Error {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail (may be empty; capped at 64 KiB on decode).
        message: String,
    },
    /// Server → client: one chunk of the delta stream — the effective
    /// add/remove lists of one changelog batch. A batch larger than the
    /// frame cap is split across several `DeltaBatch` frames carrying the
    /// same `epoch`; the epoch is *reached* only once the last chunk of the
    /// batch (and authoritatively, the closing [`Frame::DeltaDone`]) has
    /// been applied.
    DeltaBatch {
        /// The epoch the originating changelog batch produced.
        epoch: u64,
        /// Elements the batch inserted.
        added: Vec<u64>,
        /// Elements the batch removed.
        removed: Vec<u64>,
    },
    /// Server → client: end of a delta stream, or the final transfer's
    /// ack, in either case carrying the epoch baseline the client now
    /// stands at (for the ack, the epoch of the session's snapshot).
    DeltaDone {
        /// The client's new epoch baseline.
        epoch: u64,
    },
    /// Server → client: the requested [`Hello::delta_epoch`] cannot be
    /// served incrementally (changelog trimmed past it, or an epoch from
    /// this store's future). Not an error: the
    /// session continues with the classic reconciliation, which
    /// re-establishes an epoch baseline. Sent to a live subscriber it means
    /// the changelog can no longer cover the subscriber's epoch (slow
    /// consumer evicted, or the log was trimmed under it); the server
    /// closes the connection after this frame.
    FullResyncRequired {
        /// The store's current epoch.
        epoch: u64,
    },
    /// Client → server: after a `DeltaDone`, hold the connection open
    /// as a live subscription — the server pushes a
    /// `DeltaBatch*`/`DeltaDone` burst on every mutation of the store past
    /// `epoch`.
    Subscribe {
        /// The epoch baseline the client stands at (normally the epoch of
        /// the `DeltaDone` it just received).
        epoch: u64,
    },
    /// Server → client: keepalive probe on an idle subscription. The
    /// client answers with a [`Frame::Pong`] echoing the nonce.
    Ping {
        /// Opaque value the matching `Pong` must echo.
        nonce: u64,
    },
    /// Client → server: keepalive answer to a [`Frame::Ping`].
    Pong {
        /// The nonce of the `Ping` being answered.
        nonce: u64,
    },
}

const TYPE_HELLO: u8 = 1;
const TYPE_ESTIMATOR: u8 = 2;
const TYPE_SKETCHES: u8 = 3;
const TYPE_REPORTS: u8 = 4;
const TYPE_DONE: u8 = 5;
const TYPE_ERROR: u8 = 6;
const TYPE_DELTA_BATCH: u8 = 7;
const TYPE_DELTA_DONE: u8 = 8;
const TYPE_FULL_RESYNC: u8 = 9;
const TYPE_SUBSCRIBE: u8 = 10;
const TYPE_PING: u8 = 11;
const TYPE_PONG: u8 = 12;

const EST_KIND_BANK: u8 = 1;
const EST_KIND_ESTIMATE: u8 = 2;

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], FrameError> {
    if buf.len() < n {
        return Err(FrameError::Payload(WireError::Truncated));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

fn take_array<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], FrameError> {
    let (head, tail) = buf
        .split_first_chunk::<N>()
        .ok_or(FrameError::Payload(WireError::Truncated))?;
    *buf = tail;
    Ok(*head)
}

fn take_u8(buf: &mut &[u8]) -> Result<u8, FrameError> {
    Ok(take_array::<1>(buf)?[0])
}

fn take_u16(buf: &mut &[u8]) -> Result<u16, FrameError> {
    Ok(u16::from_le_bytes(take_array(buf)?))
}

fn take_u32(buf: &mut &[u8]) -> Result<u32, FrameError> {
    Ok(u32::from_le_bytes(take_array(buf)?))
}

fn take_u64(buf: &mut &[u8]) -> Result<u64, FrameError> {
    Ok(u64::from_le_bytes(take_array(buf)?))
}

impl Frame {
    /// The frame's type byte.
    pub(crate) fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello(_) => TYPE_HELLO,
            Frame::EstimatorExchange(_) => TYPE_ESTIMATOR,
            Frame::Sketches { .. } => TYPE_SKETCHES,
            Frame::Reports(_) => TYPE_REPORTS,
            Frame::Done(_) => TYPE_DONE,
            Frame::Error { .. } => TYPE_ERROR,
            Frame::DeltaBatch { .. } => TYPE_DELTA_BATCH,
            Frame::DeltaDone { .. } => TYPE_DELTA_DONE,
            Frame::FullResyncRequired { .. } => TYPE_FULL_RESYNC,
            Frame::Subscribe { .. } => TYPE_SUBSCRIBE,
            Frame::Ping { .. } => TYPE_PING,
            Frame::Pong { .. } => TYPE_PONG,
        }
    }

    /// Serialize the frame *body* — type byte followed by the payload — the
    /// exact bytes the frame CRC covers.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_body_into(&mut out);
        out
    }

    /// Append the frame body to `out`.
    fn encode_body_into(&self, out: &mut Vec<u8>) {
        out.push(self.type_byte());
        match self {
            Frame::Hello(h) => {
                out.extend_from_slice(&HELLO_MAGIC.to_le_bytes());
                out.extend_from_slice(&h.version.to_le_bytes());
                out.push(h.universe_bits);
                out.extend_from_slice(&h.seed.to_le_bytes());
                out.extend_from_slice(&h.known_d.to_le_bytes());
                let name = &h.store.as_bytes()[..h.store.len().min(MAX_STORE_NAME)];
                out.push(name.len() as u8);
                out.extend_from_slice(name);
                out.push(h.pipeline);
                match h.delta_epoch {
                    Some(epoch) => {
                        out.push(1);
                        out.extend_from_slice(&epoch.to_le_bytes());
                    }
                    None => out.push(0),
                }
            }
            Frame::EstimatorExchange(EstimatorMsg::TowBank(bank)) => {
                out.push(EST_KIND_BANK);
                out.extend_from_slice(bank);
            }
            Frame::EstimatorExchange(EstimatorMsg::Estimate { d_param, d_hat }) => {
                out.push(EST_KIND_ESTIMATE);
                out.extend_from_slice(&d_param.to_le_bytes());
                out.extend_from_slice(&d_hat.to_bits().to_le_bytes());
            }
            Frame::Sketches { m, batch } => {
                out.extend_from_slice(&wire::encode_sketches(batch, *m));
            }
            Frame::Reports(reports) => {
                out.extend_from_slice(&wire::encode_reports(reports));
            }
            Frame::Done(elements) => {
                let width = delta_element_width(elements, &[]);
                out.push(width);
                out.extend_from_slice(&(elements.len() as u32).to_le_bytes());
                put_packed(out, elements.iter(), width);
            }
            Frame::Error { code, message } => {
                out.push(code.to_u8());
                let msg = &message.as_bytes()[..message.len().min(u16::MAX as usize)];
                out.extend_from_slice(&(msg.len() as u16).to_le_bytes());
                out.extend_from_slice(msg);
            }
            Frame::DeltaBatch {
                epoch,
                added,
                removed,
            } => {
                // Elements are packed at the width of the largest one, a
                // self-describing per-chunk choice (the decoder widens back
                // to u64 from the width byte).
                let width = delta_element_width(added, removed);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.push(width);
                out.extend_from_slice(&(added.len() as u32).to_le_bytes());
                out.extend_from_slice(&(removed.len() as u32).to_le_bytes());
                put_packed(out, added.iter().chain(removed), width);
            }
            Frame::DeltaDone { epoch }
            | Frame::FullResyncRequired { epoch }
            | Frame::Subscribe { epoch } => {
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            Frame::Ping { nonce } | Frame::Pong { nonce } => {
                out.extend_from_slice(&nonce.to_le_bytes());
            }
        }
    }

    /// Decode a frame body (type byte + payload). Never panics on hostile
    /// input: every malformed shape maps to a [`FrameError`].
    pub fn decode_body(body: &[u8]) -> Result<Frame, FrameError> {
        let mut buf = body;
        let ty = take_u8(&mut buf)?;
        match ty {
            TYPE_HELLO => {
                let magic = take_u32(&mut buf)?;
                if magic != HELLO_MAGIC {
                    return Err(FrameError::BadMagic(magic));
                }
                // A stale or future peer is told so — not handed whatever
                // error its differently-shaped payload would trip below.
                let version = take_u16(&mut buf)?;
                if version != PROTOCOL_VERSION {
                    return Err(FrameError::Version(version));
                }
                let mut hello = Hello {
                    version,
                    universe_bits: take_u8(&mut buf)?,
                    seed: take_u64(&mut buf)?,
                    known_d: take_u64(&mut buf)?,
                    store: String::new(),
                    pipeline: 1,
                    delta_epoch: None,
                };
                let len = take_u8(&mut buf)? as usize;
                if len > MAX_STORE_NAME {
                    return Err(FrameError::Payload(WireError::Truncated));
                }
                let raw = take(&mut buf, len)?;
                hello.store = String::from_utf8_lossy(raw).into_owned();
                hello.pipeline = take_u8(&mut buf)?.max(1);
                match take_u8(&mut buf)? {
                    0 => {}
                    1 => hello.delta_epoch = Some(take_u64(&mut buf)?),
                    other => return Err(FrameError::Payload(WireError::BadTag(other))),
                }
                if !buf.is_empty() {
                    return Err(FrameError::Payload(WireError::Truncated));
                }
                Ok(Frame::Hello(hello))
            }
            TYPE_ESTIMATOR => match take_u8(&mut buf)? {
                EST_KIND_BANK => Ok(Frame::EstimatorExchange(EstimatorMsg::TowBank(
                    buf.to_vec(),
                ))),
                EST_KIND_ESTIMATE => {
                    let d_param = take_u64(&mut buf)?;
                    let d_hat = f64::from_bits(take_u64(&mut buf)?);
                    if !buf.is_empty() {
                        return Err(FrameError::Payload(WireError::Truncated));
                    }
                    Ok(Frame::EstimatorExchange(EstimatorMsg::Estimate {
                        d_param,
                        d_hat,
                    }))
                }
                other => Err(FrameError::Payload(WireError::BadTag(other))),
            },
            TYPE_SKETCHES => {
                let (m, batch) = wire::decode_sketches_with_m(buf).map_err(FrameError::Payload)?;
                Ok(Frame::Sketches { m, batch })
            }
            TYPE_REPORTS => Ok(Frame::Reports(
                wire::decode_reports(buf).map_err(FrameError::Payload)?,
            )),
            TYPE_DONE => {
                let width = take_u8(&mut buf)?;
                let count = take_u32(&mut buf)? as usize;
                Ok(Frame::Done(take_packed(buf, width, count)?.collect()))
            }
            TYPE_ERROR => {
                let byte = take_u8(&mut buf)?;
                let code =
                    ErrorCode::from_u8(byte).ok_or(FrameError::Payload(WireError::BadTag(byte)))?;
                let len = take_u16(&mut buf)? as usize;
                let msg = take(&mut buf, len)?;
                if !buf.is_empty() {
                    return Err(FrameError::Payload(WireError::Truncated));
                }
                Ok(Frame::Error {
                    code,
                    message: String::from_utf8_lossy(msg).into_owned(),
                })
            }
            TYPE_DELTA_BATCH => {
                let epoch = take_u64(&mut buf)?;
                let width = take_u8(&mut buf)?;
                let added_count = take_u32(&mut buf)? as usize;
                let removed_count = take_u32(&mut buf)? as usize;
                let count = added_count.saturating_add(removed_count);
                let mut words = take_packed(buf, width, count)?;
                let added: Vec<u64> = words.by_ref().take(added_count).collect();
                let removed: Vec<u64> = words.collect();
                Ok(Frame::DeltaBatch {
                    epoch,
                    added,
                    removed,
                })
            }
            TYPE_DELTA_DONE | TYPE_FULL_RESYNC | TYPE_SUBSCRIBE | TYPE_PING | TYPE_PONG => {
                let word = take_u64(&mut buf)?;
                if !buf.is_empty() {
                    return Err(FrameError::Payload(WireError::Truncated));
                }
                Ok(match ty {
                    TYPE_DELTA_DONE => Frame::DeltaDone { epoch: word },
                    TYPE_FULL_RESYNC => Frame::FullResyncRequired { epoch: word },
                    TYPE_SUBSCRIBE => Frame::Subscribe { epoch: word },
                    TYPE_PING => Frame::Ping { nonce: word },
                    _ => Frame::Pong { nonce: word },
                })
            }
            other => Err(FrameError::BadType(other)),
        }
    }

    /// Total size this frame occupies on the wire, including the
    /// length/CRC framing.
    pub fn wire_len(&self) -> u64 {
        FRAME_OVERHEAD + self.encode_body().len() as u64
    }
}

/// What [`decode_frame`] found at the front of a buffer.
pub(crate) enum Decoded {
    /// One whole frame, and the wire bytes it occupied.
    Whole(Frame, usize),
    /// No whole frame yet: the buffer must hold at least this many bytes
    /// (the envelope header, or — once that passed its checks — the whole
    /// frame) before another look is worth it.
    Short(usize),
}

/// The one frame envelope, encoding half: append `len ‖ crc ‖ body` to
/// `out` and return the wire bytes added. A body over `max_frame` is
/// [`FrameError::TooLarge`] and leaves `out` as it was.
pub(crate) fn encode_frame(
    out: &mut Vec<u8>,
    frame: &Frame,
    max_frame: u32,
) -> Result<u64, FrameError> {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_OVERHEAD as usize]);
    frame.encode_body_into(out);
    let body = start + FRAME_OVERHEAD as usize;
    let len = out.len() - body;
    if len as u64 > max_frame as u64 {
        out.truncate(start);
        return Err(FrameError::TooLarge {
            len: len.min(u32::MAX as usize) as u32,
            max: max_frame,
        });
    }
    let crc = crc32(&out[body..]);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[start + 4..body].copy_from_slice(&crc.to_le_bytes());
    Ok(FRAME_OVERHEAD + len as u64)
}

/// The one frame envelope, decoding half: the frame at the front of `buf`.
/// The length prefix is held to `1..=max_frame` as soon as the header is
/// there — before a caller buffers (or allocates for) the body — and the
/// CRC is verified before the payload decoder runs.
pub(crate) fn decode_frame(buf: &[u8], max_frame: u32) -> Result<Decoded, FrameError> {
    let Some(([l0, l1, l2, l3, c0, c1, c2, c3], rest)) = buf.split_first_chunk() else {
        return Ok(Decoded::Short(FRAME_OVERHEAD as usize));
    };
    let len = u32::from_le_bytes([*l0, *l1, *l2, *l3]);
    let crc = u32::from_le_bytes([*c0, *c1, *c2, *c3]);
    if len == 0 {
        return Err(FrameError::BadType(0));
    }
    if len > max_frame {
        return Err(FrameError::TooLarge {
            len,
            max: max_frame,
        });
    }
    let total = FRAME_OVERHEAD as usize + len as usize;
    let Some(body) = rest.get(..len as usize) else {
        return Ok(Decoded::Short(total));
    };
    if crc32(body) != crc {
        return Err(FrameError::BadCrc);
    }
    Ok(Decoded::Whole(Frame::decode_body(body)?, total))
}

/// Write one frame. Returns the number of bytes put on the wire. Fails with
/// [`FrameError::TooLarge`] (before writing anything) if the body exceeds
/// `max_frame`.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame, max_frame: u32) -> Result<u64, NetError> {
    let mut wire = Vec::new();
    let written = encode_frame(&mut wire, frame, max_frame)?;
    w.write_all(&wire)?;
    w.flush()?;
    Ok(written)
}

/// Read one frame. Returns the frame and the number of wire bytes it
/// consumed. The length prefix is validated against `max_frame` *before*
/// the body buffer is allocated, and the CRC is verified before the payload
/// decoder runs.
pub fn read_frame<R: Read>(r: &mut R, max_frame: u32) -> Result<(Frame, u64), NetError> {
    let mut wire = Vec::new();
    let mut need = FRAME_OVERHEAD as usize;
    loop {
        let have = wire.len();
        wire.resize(need, 0);
        r.read_exact(&mut wire[have..])?;
        match decode_frame(&wire, max_frame)? {
            Decoded::Whole(frame, consumed) => return Ok((frame, consumed as u64)),
            Decoded::Short(total) => need = total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: &Frame, max: u32) -> Frame {
        let mut buf = Vec::new();
        let written = write_frame(&mut buf, frame, max).expect("write");
        assert_eq!(written, buf.len() as u64);
        assert_eq!(written, frame.wire_len());
        let (back, consumed) = read_frame(&mut buf.as_slice(), max).expect("read");
        assert_eq!(consumed, written);
        back
    }

    #[test]
    fn hello_round_trip() {
        let hello = Hello::from_config(&PbsConfig::default(), 0xDEAD_BEEF, 42)
            .with_store("blocks")
            .with_pipeline(3)
            .with_delta_epoch(77);
        let back = round_trip(&Frame::Hello(hello.clone()), DEFAULT_MAX_FRAME);
        assert_eq!(back, Frame::Hello(hello));
        let Frame::Hello(h) = back else {
            unreachable!()
        };
        assert_eq!(h.config().unwrap(), service_plan(32));
        assert_eq!(h.store, "blocks");
        assert_eq!(h.pipeline, 3);
        assert_eq!(h.delta_epoch, Some(77));
    }

    #[test]
    fn wrong_version_hellos_are_refused_before_any_later_field() {
        for version in [0, 1, 2, 3, 4, 5, 6, 7, u16::MAX] {
            let mut hello = Hello::from_config(&PbsConfig::default(), 7, 0);
            hello.version = version;
            let body = Frame::Hello(hello).encode_body();
            assert_eq!(Frame::decode_body(&body), Err(FrameError::Version(version)));
            // Type byte + magic + version is all the decoder looks at: the
            // shorter payload an old peer would really send, or garbage
            // after the version, gets the same typed answer.
            assert_eq!(
                Frame::decode_body(&body[..7]),
                Err(FrameError::Version(version))
            );
        }
    }

    #[test]
    fn oversized_store_names_are_rejected() {
        let hello = Hello::from_config(&PbsConfig::default(), 7, 0).with_store("s".repeat(80));
        // The encoder truncates to MAX_STORE_NAME…
        let body = Frame::Hello(hello).encode_body();
        let Frame::Hello(h) = Frame::decode_body(&body).unwrap() else {
            unreachable!()
        };
        assert_eq!(h.store.len(), MAX_STORE_NAME);
        // …and the decoder refuses a hand-crafted longer length byte.
        // (The length byte sits before the name, the pipeline byte and the
        // delta-epoch flag byte.)
        let mut forged = body.clone();
        let len_at = body.len() - 3 - MAX_STORE_NAME;
        forged[len_at] = MAX_STORE_NAME as u8 + 1;
        forged.push(b'x');
        assert!(Frame::decode_body(&forged).is_err());
    }

    #[test]
    fn error_and_done_round_trip() {
        let e = Frame::Error {
            code: ErrorCode::RoundLimit,
            message: "too many rounds".into(),
        };
        assert_eq!(round_trip(&e, 1024), e);
        let d = Frame::Done(vec![1, u64::MAX, 7]);
        assert_eq!(round_trip(&d, 1024), d);
    }

    #[test]
    fn one_frame_of_every_type_round_trips() {
        // The machines' state × wrong-frame tables are built from these:
        // the empty `Sketches { m: 8 }` and the empty `Reports` among them.
        for frame in crate::sim::one_of_each() {
            assert_eq!(round_trip(&frame, DEFAULT_MAX_FRAME), frame);
        }
    }

    #[test]
    fn oversized_frames_rejected_on_both_sides() {
        let big = Frame::Done((0..100u64).collect());
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame(&mut buf, &big, 64),
            Err(NetError::Frame(FrameError::TooLarge { .. }))
        ));
        // A hostile length prefix is rejected before any allocation.
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Done(vec![]), 1024).unwrap();
        wire[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut wire.as_slice(), 1024),
            Err(NetError::Frame(FrameError::TooLarge { .. }))
        ));
    }

    #[test]
    fn crc_detects_corruption() {
        let frame = Frame::Done(vec![3, 5, 9]);
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame, 1024).unwrap();
        for i in 8..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x10;
            assert!(
                read_frame(&mut bad.as_slice(), 1024).is_err(),
                "corruption at byte {i} undetected"
            );
        }
    }

    #[test]
    fn hello_config_validation_rejects_hostile_universes() {
        for (bits, admitted) in [(0, false), (7, false), (8, true), (64, true), (65, false)] {
            let mut h = Hello::from_config(&PbsConfig::default(), 1, 0);
            h.universe_bits = bits;
            match h.config() {
                Ok(plan) => assert!(admitted && plan == service_plan(bits as u32), "{bits}"),
                Err(refusal) => assert!(!admitted && refusal.starts_with("universe_bits")),
            }
        }
    }

    /// Every `d` a server admits plans a field with log tables (m ≤ 16):
    /// on a 1/64-octave grid up to `ServerConfig::default().max_d`, the
    /// service never reaches Barrett reduction or trace root finding,
    /// which only `pbs_core`'s own plans and PinSketch run.
    #[test]
    fn the_service_plan_stays_on_table_backed_fields() {
        let max_d = crate::ServerConfig::default().max_d;
        let pbs = pbs_core::Pbs::new(service_plan(32));
        let steps = (64.0 * (max_d as f64).log2()).ceil() as i32;
        let mut grid: Vec<u64> = (0..=steps)
            .map(|k| (2f64.powf(k as f64 / 64.0).round() as u64).min(max_d))
            .collect();
        grid.dedup();
        assert_eq!(grid.last(), Some(&max_d));
        for d in grid {
            let m = pbs.plan(d as usize).m;
            assert!(m <= 16, "d = {d} plans m = {m}");
        }
    }

    /// A v8 `Hello` is the v6 one less its five plan fields — δ, target
    /// and maximum rounds, the sketch count (four bytes each) and p₀
    /// (eight), which v7 dropped: 24 bytes shorter, each field of the rest
    /// where v6 kept it. (v8 changed no `Hello` byte but the version.)
    #[test]
    fn a_v8_hello_is_24_bytes_shorter_than_a_v6_one() {
        // The opening `Hello` of a default client in v6, length prefix
        // and CRC included (no store name, no epoch).
        const V6: &str = "33000000bcf0018d01504253310600200500000003000000ffffffffae47e17a14aeef3f\
                          80000000efcdab89674523010000000000000000000100";
        let v6 = (0..V6.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&V6[i..i + 2], 16).unwrap())
            .collect::<Vec<u8>>();
        let hello = Hello::from_config(&PbsConfig::default(), 0x0123_4567_89AB_CDEF, 0);
        let mut v8 = Vec::new();
        write_frame(&mut v8, &Frame::Hello(hello), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(v6.len() - v8.len(), 24);
        // Type and magic, then the version (6 → 8) and the universe; the
        // plan's 24 bytes out, the seed onward as before.
        assert_eq!(v8[8..13], v6[8..13]);
        assert_eq!((v6[13], v8[13]), (6, 8));
        assert_eq!(v8[15], v6[15]);
        assert_eq!(v8[16..], v6[16 + 24..]);
    }

    #[test]
    fn delta_frames_round_trip() {
        for frame in [
            Frame::DeltaBatch {
                epoch: u64::MAX,
                added: vec![1, 2, 3],
                removed: vec![9],
            },
            Frame::DeltaBatch {
                epoch: 0,
                added: vec![],
                removed: vec![],
            },
            Frame::DeltaDone { epoch: 17 },
            Frame::FullResyncRequired { epoch: 0 },
        ] {
            assert_eq!(round_trip(&frame, 1024), frame);
        }
        // Forged counts that disagree with the bytes present are refused.
        let body = Frame::DeltaBatch {
            epoch: 3,
            added: vec![5, 6],
            removed: vec![7],
        }
        .encode_body();
        let mut forged = body.clone();
        forged[10] = 200; // added_count (offset 9 is the width byte)
        assert!(Frame::decode_body(&forged).is_err());
        let mut bad_width = body.clone();
        bad_width[9] = 9;
        assert!(Frame::decode_body(&bad_width).is_err());
        let mut truncated = body;
        truncated.pop();
        assert!(Frame::decode_body(&truncated).is_err());
    }

    #[test]
    fn delta_chunking_respects_capacity_and_epoch_stamps() {
        let added: Vec<u64> = (1..=10).collect();
        let removed: Vec<u64> = (100..=104).collect();
        let frames = delta_batch_frames(9, &added, &removed, 4);
        assert_eq!(frames.len(), 4); // 15 elements at 4 per frame
        let mut got_added = Vec::new();
        let mut got_removed = Vec::new();
        for frame in &frames {
            let Frame::DeltaBatch {
                epoch,
                added,
                removed,
            } = frame
            else {
                panic!("unexpected frame {frame:?}");
            };
            assert_eq!(*epoch, 9, "every chunk repeats the batch epoch");
            assert!(added.len() + removed.len() <= 4);
            got_added.extend_from_slice(added);
            got_removed.extend_from_slice(removed);
        }
        // Order preserved: adds first, then removes, never interleaved out
        // of order.
        assert_eq!(got_added, added);
        assert_eq!(got_removed, removed);
        // The third frame straddles the add/remove boundary.
        let Frame::DeltaBatch {
            added: a,
            removed: r,
            ..
        } = &frames[2]
        else {
            unreachable!()
        };
        assert_eq!((a.len(), r.len()), (2, 2));
        // An empty batch still yields one (empty) frame.
        assert_eq!(delta_batch_frames(1, &[], &[], 4).len(), 1);
        // Capacity math: the chunk capacity fills a frame exactly.
        let cap = delta_chunk_capacity(1024);
        assert_eq!(cap, (1024 - DELTA_BATCH_HEADER as usize) / 8);
        let full: Vec<u64> = (0..cap as u64).collect();
        let frames = delta_batch_frames(1, &full, &[], cap);
        assert_eq!(frames.len(), 1);
        assert!(frames[0].encode_body().len() <= 1024);
        let mut wire = Vec::new();
        write_frame(&mut wire, &frames[0], 1024).expect("fits under the cap");
    }

    #[test]
    fn subscription_frames_round_trip_and_refuse_trailing_bytes() {
        for frame in [
            Frame::Subscribe { epoch: 0 },
            Frame::Subscribe { epoch: u64::MAX },
            Frame::Ping { nonce: 0x5EED },
            Frame::Pong { nonce: 0x5EED },
        ] {
            assert_eq!(round_trip(&frame, 64), frame);
            assert_eq!(frame.wire_len(), 17, "framing + type byte + u64");
            // A trailing byte after the u64 word is refused.
            let mut body = frame.encode_body();
            body.push(0);
            assert!(Frame::decode_body(&body).is_err());
            // A truncated word is refused.
            let mut short = frame.encode_body();
            short.pop();
            assert!(Frame::decode_body(&short).is_err());
        }
        // The three one-word frames have distinct type bytes.
        assert_eq!(Frame::Subscribe { epoch: 1 }.type_byte(), 10);
        assert_eq!(Frame::Ping { nonce: 1 }.type_byte(), 11);
        assert_eq!(Frame::Pong { nonce: 1 }.type_byte(), 12);
    }

    #[test]
    fn error_code_u8_round_trip_covers_unknown_store() {
        for code in [
            ErrorCode::BadMagic,
            ErrorCode::Version,
            ErrorCode::BadConfig,
            ErrorCode::Protocol,
            ErrorCode::RoundLimit,
            ErrorCode::Decode,
            ErrorCode::Internal,
            ErrorCode::UnknownStore,
        ] {
            assert_eq!(ErrorCode::from_u8(code.to_u8()), Some(code));
        }
        assert_eq!(ErrorCode::from_u8(0), None);
        assert_eq!(ErrorCode::from_u8(9), None);
    }
}
