//! Wire-robustness properties of the frame codec.
//!
//! Every frame type must round-trip bit-exactly through
//! `write_frame`/`read_frame`, and *no* input — truncated, bit-flipped,
//! oversized, or plain garbage — may panic a decoder: hostile bytes map to
//! errors, not crashes. The packed `Sketches`/`Reports` payloads have their
//! own properties beside the codec (`pbs_core::wire`); here they are
//! carried, not re-derived.

use bch::Sketch;
use estimator::{Estimator, TowEstimator};
use pbs_core::messages::{BinInfo, GroupReport, GroupReportBody, GroupSketch};
use pbs_core::wire;
use pbs_net::frame::{
    read_frame, write_frame, ErrorCode, EstimatorMsg, Frame, Hello, DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
};
use pbs_net::{FrameError, NetError};
use proptest::prelude::*;

/// A `Sketches` frame of `words.len()` syndromes a sketch, a new round (so
/// a new section of the batch) at every sketch.
fn sketches_frame(m: u32, sessions: &[u64], words: &[u64]) -> Frame {
    let syndromes: Vec<u64> = words.iter().map(|w| w >> (64 - m)).collect();
    let batch = sessions
        .iter()
        .enumerate()
        .map(|(i, &session)| GroupSketch {
            session,
            round: (i as u32) % 7 + 1,
            sketch: Sketch::from_syndromes(syndromes.clone(), m).expect("m-bit values"),
            needs_checksum: i % 2 == 0,
        })
        .collect();
    Frame::Sketches { m, batch }
}

fn report(session: u64, bins: &[(u64, u64)], checksum: Option<u64>) -> GroupReport {
    let bins = bins
        .iter()
        .map(|&(position, xor_sum)| BinInfo { position, xor_sum });
    GroupReport {
        session,
        body: GroupReportBody::Decoded {
            bins: bins.collect(),
            checksum,
        },
    }
}

fn reports_frame(bins: &[(u64, u64)], with_failure: bool) -> Frame {
    let mut reports = vec![report(3, bins, Some(0xC0FFEE)), report(u64::MAX, &[], None)];
    if with_failure {
        reports.push(GroupReport {
            session: 9,
            body: GroupReportBody::DecodeFailed,
        });
    }
    Frame::Reports(reports)
}

fn round_trip(frame: &Frame) -> Frame {
    let mut buf = Vec::new();
    write_frame(&mut buf, frame, DEFAULT_MAX_FRAME).expect("write");
    let (back, consumed) = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME).expect("read");
    assert_eq!(consumed, buf.len() as u64);
    back
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hello_frames_round_trip(
        version in any::<u16>(),
        universe_bits in 8u8..=64,
        seed in any::<u64>(),
        known_d in any::<u64>(),
        store in prop::collection::vec(32u8..127, 0..64),
        pipeline in 1u8..=255,
        has_epoch in any::<bool>(),
        epoch in any::<u64>(),
    ) {
        let delta_epoch = has_epoch.then_some(epoch);
        let hello = Hello {
            version,
            universe_bits,
            seed,
            known_d,
            store: String::from_utf8(store).unwrap(),
            pipeline,
            delta_epoch,
        };
        // Every field round-trips under the one version…
        let current = Hello { version: PROTOCOL_VERSION, ..hello.clone() };
        prop_assert_eq!(round_trip(&Frame::Hello(current.clone())), Frame::Hello(current));
        // …and under any other the decoder says so, whatever else it holds.
        if version != PROTOCOL_VERSION {
            let body = Frame::Hello(hello).encode_body();
            prop_assert_eq!(Frame::decode_body(&body), Err(FrameError::Version(version)));
        }
    }

    #[test]
    fn delta_frames_round_trip(
        epoch in any::<u64>(),
        added in prop::collection::vec(any::<u64>(), 0..80),
        removed in prop::collection::vec(any::<u64>(), 0..80),
    ) {
        let batch = Frame::DeltaBatch { epoch, added, removed };
        prop_assert_eq!(round_trip(&batch), batch);
        let done = Frame::DeltaDone { epoch };
        prop_assert_eq!(round_trip(&done), done);
        let resync = Frame::FullResyncRequired { epoch };
        prop_assert_eq!(round_trip(&resync), resync);
    }

    #[test]
    fn delta_chunking_is_lossless(
        epoch in any::<u64>(),
        added in prop::collection::vec(any::<u64>(), 0..200),
        removed in prop::collection::vec(any::<u64>(), 0..200),
        capacity in 1usize..50,
    ) {
        let frames = pbs_net::frame::delta_batch_frames(epoch, &added, &removed, capacity);
        let mut got_added = Vec::new();
        let mut got_removed = Vec::new();
        for frame in &frames {
            let decoded = round_trip(frame);
            let Frame::DeltaBatch { epoch: e, added: a, removed: r } = decoded else {
                panic!("chunking produced a non-DeltaBatch frame");
            };
            prop_assert_eq!(e, epoch);
            prop_assert!(a.len() + r.len() <= capacity);
            got_added.extend(a);
            got_removed.extend(r);
        }
        prop_assert_eq!(got_added, added);
        prop_assert_eq!(got_removed, removed);
    }

    #[test]
    fn estimator_frames_round_trip(
        bank in prop::collection::vec(any::<u8>(), 0..600),
        d_param in any::<u64>(),
        d_hat_millionths in 0u64..u32::MAX as u64,
    ) {
        let f1 = Frame::EstimatorExchange(EstimatorMsg::TowBank(bank));
        prop_assert_eq!(round_trip(&f1), f1.clone());
        let f2 = Frame::EstimatorExchange(EstimatorMsg::Estimate {
            d_param,
            d_hat: d_hat_millionths as f64 / 1e6,
        });
        prop_assert_eq!(round_trip(&f2), f2);
    }

    #[test]
    fn sketches_frames_round_trip(
        m in 3u32..=32,
        sessions in prop::collection::vec(any::<u64>(), 0..40),
        words in prop::collection::vec(any::<u64>(), 1..25),
    ) {
        let frame = sketches_frame(m, &sessions, &words);
        prop_assert_eq!(round_trip(&frame), frame);
    }

    #[test]
    fn reports_and_done_frames_round_trip(
        bins in prop::collection::vec((any::<u64>(), any::<u64>()), 0..60),
        with_failure in any::<bool>(),
        element_bits in 0u32..=64,
        elements in prop::collection::vec(any::<u64>(), 0..200),
    ) {
        let reports = reports_frame(&bins, with_failure);
        prop_assert_eq!(round_trip(&reports), reports);
        // `Done` packs at the width of its largest element, whatever that is.
        let mask = u64::MAX.checked_shr(64 - element_bits).unwrap_or(0);
        let elements: Vec<u64> = elements.iter().map(|e| e & mask).collect();
        let width = elements.iter().map(|e| (64 - e.leading_zeros()).div_ceil(8)).max();
        let done = Frame::Done(elements.clone());
        prop_assert_eq!(
            done.encode_body().len(),
            6 + elements.len() * width.unwrap_or(1).max(1) as usize
        );
        prop_assert_eq!(round_trip(&done), done);
    }

    #[test]
    fn error_frames_round_trip(code in 1u8..=8, msg in prop::collection::vec(32u8..127, 0..120)) {
        let frame = Frame::Error {
            code: match code {
                1 => ErrorCode::BadMagic,
                2 => ErrorCode::Version,
                3 => ErrorCode::BadConfig,
                4 => ErrorCode::Protocol,
                5 => ErrorCode::RoundLimit,
                6 => ErrorCode::Decode,
                7 => ErrorCode::Internal,
                _ => ErrorCode::UnknownStore,
            },
            message: String::from_utf8(msg).unwrap(),
        };
        // `Error` reaches a session as `NetError::Remote` from its machine,
        // but the raw codec round-trips it like any other frame.
        prop_assert_eq!(round_trip(&frame), frame);
    }

    #[test]
    fn truncated_frames_are_rejected(
        elements in prop::collection::vec(any::<u64>(), 0..50),
        keep_fraction in 0u32..100,
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Done(elements), DEFAULT_MAX_FRAME).unwrap();
        let keep = (wire.len() - 1) * keep_fraction as usize / 100;
        prop_assert!(read_frame(&mut &wire[..keep], DEFAULT_MAX_FRAME).is_err());
    }

    #[test]
    fn corrupted_frames_are_rejected(
        sessions in prop::collection::vec(any::<u64>(), 1..20),
        words in prop::collection::vec(any::<u64>(), 1..10),
        at_fraction in 0u32..100,
        flip in 1u8..=255,
    ) {
        let mut wire = Vec::new();
        write_frame(
            &mut wire,
            &sketches_frame(11, &sessions, &words),
            DEFAULT_MAX_FRAME,
        )
        .unwrap();
        let at = wire.len() * at_fraction as usize / 100;
        wire[at] ^= flip;
        // Any single-byte change is caught: in the body by the CRC, in the
        // header by the CRC or the length bound. (Never a panic, never a
        // silently different frame.)
        prop_assert!(read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME).is_err());
    }

    #[test]
    fn hostile_length_prefixes_are_bounded(len in any::<u32>(), crc in any::<u32>()) {
        let max = 4096u32;
        let mut wire = Vec::new();
        wire.extend_from_slice(&len.to_le_bytes());
        wire.extend_from_slice(&crc.to_le_bytes());
        wire.extend_from_slice(&[0u8; 64]);
        match read_frame(&mut wire.as_slice(), max) {
            Err(NetError::Frame(pbs_net::FrameError::TooLarge { len: l, max: m })) => {
                prop_assert!(l > m);
            }
            Err(_) => {} // short read / bad CRC / bad type — all fine
            Ok(_) => prop_assert!(false, "hostile header decoded to a frame"),
        }
    }

    #[test]
    fn garbage_never_panics_any_decoder(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        // The return values are irrelevant; the property is "no panic".
        let _ = Frame::decode_body(&bytes);
        let _ = wire::decode_sketches(&bytes);
        let _ = wire::decode_reports(&bytes);
        let _ = read_frame(&mut bytes.as_slice(), 256);
        let _ = TowEstimator::from_bytes(&bytes);
    }
}

/// One frame of each v5 payload layout, small enough to check by hand
/// against docs/WIRE.md. (`pbs_core::wire` pins the id code and the tags in
/// a single-section batch of its own; these add the section table, a
/// 64-bit value and the two byte-packed layouts.)
fn golden_frames() -> [(Frame, &'static str); 4] {
    let sketch = |session, round, syndromes: [u64; 2]| GroupSketch {
        session,
        round,
        sketch: Sketch::from_syndromes(syndromes.to_vec(), 8).expect("8-bit values"),
        needs_checksum: round == 3,
    };
    let mut bank = TowEstimator::new(3, 7);
    bank.insert_slice(&[11, 22, 33, 44, 55]);
    [
        (
            // Two pipelined layers over sessions 1 and 2: per sketch the
            // flag, the one-bit "previous + 1" (restarting from 0 in each
            // section) and 2 × 8 syndrome bits — 18 bits.
            Frame::Sketches {
                m: 8,
                batch: vec![
                    sketch(1, 3, [0xA1, 0xB2]),
                    sketch(2, 3, [0xC3, 0xD4]),
                    sketch(1, 4, [0xE5, 0xF6]),
                    sketch(2, 4, [0x07, 0x18]),
                ],
            },
            // len, crc | type 3 | m 8, id_bits 2, t 2, sections 2
            // | round 3, count 2 | round 4, count 2 | 72 bits of sketches
            "22000000a3a68d98\
             03\
             0802020002000000\
             0300000002000000\
             0400000002000000\
             87ca3e4c6db9bd0718",
        ),
        (
            Frame::Reports(vec![
                // 1 | 00 | 1 | 1 + 64 ones    "previous + 1", decoded, one bin
                report(1, &[(1, u64::MAX)], None),
                // 01 + 64 bits | 01            a §3.2 child id, failed (tag 2)
                GroupReport {
                    session: 0x8000_0000_0000_0002,
                    body: GroupReportBody::DecodeFailed,
                },
            ]),
            // len, crc | type 4 | count 2 | id 1, bin count 1, position 1,
            // value 64 bits | 137 bits of reports, 7 of padding
            "1b000000b3fe2aae\
             04\
             0200000001010140\
             f9ffffffffffffff5f010000000000004001",
        ),
        (
            Frame::Done(vec![0x0102, 0xA0_B0C0, 7]),
            // len, crc | type 5 | width 3 | count 3 | 3 × 3 bytes
            "0f00000041c5a88e\
             05\
             0303000000\
             020100c0b0a0070000",
        ),
        (
            Frame::EstimatorExchange(EstimatorMsg::TowBank(bank.to_bytes())),
            // len, crc | type 2, kind 1 | count 3 | items 5 | seed 7
            // | width 1 | the counters −1, 1, −1
            "1a000000af781c2a\
             0201\
             03000000\
             0500000000000000\
             0700000000000000\
             01\
             ff01ff",
        ),
    ]
}

fn wire_of(frame: &Frame) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, frame, DEFAULT_MAX_FRAME).expect("write");
    wire
}

#[test]
fn the_v5_payload_layouts_are_pinned_bit_for_bit() {
    for (frame, hex) in golden_frames() {
        let wire: String = wire_of(&frame).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(wire, hex, "{frame:?}");
        assert_eq!(round_trip(&frame), frame);
    }
}

#[test]
fn cut_or_flipped_payloads_error_or_decode_but_never_panic() {
    // Past the CRC (which `corrupted_frames_are_rejected` covers): every
    // prefix and every single-bit flip of each body goes to the payload
    // decoders themselves.
    let bins = [(0, 1), (127, u64::MAX), (u64::MAX, 0x1234_5678)];
    let mut frames: Vec<Frame> = golden_frames().into_iter().map(|(f, _)| f).collect();
    frames.push(sketches_frame(
        7,
        &[1, 2, 77, u64::MAX],
        &[0x5EED << 50; 11],
    ));
    frames.push(reports_frame(&bins, true));
    for frame in frames {
        let body = frame.encode_body();
        for cut in 0..body.len() {
            let _ = Frame::decode_body(&body[..cut]);
        }
        for bit in 0..body.len() * 8 {
            let mut bad = body.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let _ = Frame::decode_body(&bad);
        }
        // A strict prefix of a packed batch is always short of a stated bit.
        if matches!(
            frame,
            Frame::Sketches { .. } | Frame::Reports(_) | Frame::Done(_)
        ) {
            for cut in 0..body.len() {
                assert!(
                    Frame::decode_body(&body[..cut]).is_err(),
                    "{frame:?} cut at {cut}"
                );
            }
        }
    }
}

#[test]
fn an_unknown_error_code_is_named_and_a_v5_hello_is_refused() {
    for byte in [0u8, 9, 0xEE] {
        assert_eq!(
            Frame::decode_body(&[6, byte, 0, 0]),
            Err(FrameError::Payload(wire::WireError::BadTag(byte)))
        );
    }
    // A v5 client would run under its own seed whatever the reply named,
    // a v6 one under the plan it proposed, a v7 one would wait for an
    // empty `Done` ack no server sends: each is turned away at the door,
    // like every older one.
    for version in [4, 5, 6, 7] {
        let mut hello = Hello::from_config(&pbs_core::PbsConfig::default(), 1, 0);
        hello.version = version;
        assert_eq!(
            Frame::decode_body(&Frame::Hello(hello).encode_body()),
            Err(FrameError::Version(version))
        );
    }
    assert_eq!(ErrorCode::Version.to_string(), "version-unsupported");
}

/// Documentation lint, on the model of `tests/admin.rs`'s metric
/// catalogue: every place `docs/WIRE.md` states the protocol version it
/// documents states [`PROTOCOL_VERSION`]. (Older versions it names by `vN`
/// are history, and left alone.)
#[test]
fn wire_md_states_the_protocol_version_it_documents() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/WIRE.md");
    let doc = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let doc = doc.split_whitespace().collect::<Vec<_>>().join(" ");
    let version = PROTOCOL_VERSION;
    // (the words before the number, the number); the hex dumps spell the
    // little-endian `version u16` as two bytes.
    let statements = [
        ("There is **one protocol version**, ", version.to_string()),
        ("a value other than ", version.to_string()),
        ("the protocol version (", version.to_string()),
        ("a `Hello` whose `version` is not ", version.to_string()),
        ("a retired 1–", (version - 1).to_string()),
        (
            "| version ",
            format!("{:02x} {:02x}", version & 0xff, version >> 8),
        ),
    ];
    let mut wrong = Vec::new();
    for (before, want) in &statements {
        let stated: Vec<&str> = doc
            .match_indices(before)
            .map(|(at, _)| &doc[at + before.len()..])
            .collect();
        assert!(
            !stated.is_empty(),
            "docs/WIRE.md no longer says {before:?}…"
        );
        for rest in stated {
            // The number is `want`, not a longer one that begins with it.
            let after = rest.strip_prefix(want.as_str());
            if after.is_none_or(|after| after.starts_with(|c: char| c.is_ascii_digit())) {
                let said: String = rest.chars().take(want.len() + 1).collect();
                wrong.push(format!("{before}{said}"));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "docs/WIRE.md states a protocol version other than {version}: {wrong:?}"
    );
}
