//! Wire-robustness properties of the frame codec.
//!
//! Every frame type must round-trip bit-exactly through
//! `write_frame`/`read_frame`, and *no* input — truncated, bit-flipped,
//! oversized, or plain garbage — may panic a decoder: hostile bytes map to
//! errors, not crashes.

use bch::Sketch;
use pbs_core::messages::{BinInfo, GroupReport, GroupReportBody, GroupSketch};
use pbs_core::wire;
use pbs_net::frame::{
    read_frame, write_frame, ErrorCode, EstimatorMsg, Frame, Hello, DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
};
use pbs_net::{FrameError, NetError};
use proptest::prelude::*;

/// Build a sketch with `t` in-field syndromes for degree `m` from raw words.
fn sketch(m: u32, words: &[u64]) -> Sketch {
    let width = m.div_ceil(8) as usize;
    let mask = if m == 64 { u64::MAX } else { (1u64 << m) - 1 };
    let mut bytes = Vec::with_capacity(words.len() * width);
    for &w in words {
        bytes.extend_from_slice(&(w & mask).to_le_bytes()[..width]);
    }
    Sketch::from_bytes(&bytes, m).expect("masked syndromes are in-field")
}

fn sketches_frame(m: u32, sessions: &[u64], words: &[u64]) -> Frame {
    let batch = sessions
        .iter()
        .enumerate()
        .map(|(i, &s)| GroupSketch {
            session: s,
            round: (i as u32) % 7 + 1,
            sketch: sketch(m, words),
            needs_checksum: i % 2 == 0,
        })
        .collect();
    Frame::Sketches { m, batch }
}

fn reports_frame(bins: &[(u64, u64)], with_failure: bool) -> Frame {
    let mut reports = vec![
        GroupReport {
            session: 3,
            body: GroupReportBody::Decoded {
                bins: bins
                    .iter()
                    .map(|&(p, x)| BinInfo {
                        position: p & 0xFFFF_FFFF,
                        xor_sum: x,
                    })
                    .collect(),
                checksum: Some(0xC0FFEE),
            },
        },
        GroupReport {
            session: u64::MAX,
            body: GroupReportBody::Decoded {
                bins: Vec::new(),
                checksum: None,
            },
        },
    ];
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
        delta in 1u32..1000,
        seed in any::<u64>(),
        known_d in any::<u64>(),
        success_millionths in 0u64..1_000_000,
        store in prop::collection::vec(32u8..127, 0..64),
        pipeline in 1u8..=255,
        has_epoch in any::<bool>(),
        epoch in any::<u64>(),
    ) {
        let delta_epoch = has_epoch.then_some(epoch);
        let hello = Hello {
            version,
            universe_bits,
            delta,
            target_rounds: delta % 7 + 1,
            max_rounds: delta % 11 + 1,
            target_success: success_millionths as f64 / 1e6,
            estimator_sketches: delta % 256 + 1,
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
        words in prop::collection::vec(any::<u64>(), 0..25),
    ) {
        let frame = sketches_frame(m, &sessions, &words);
        prop_assert_eq!(round_trip(&frame), frame);
    }

    #[test]
    fn reports_and_done_frames_round_trip(
        bins in prop::collection::vec((any::<u64>(), any::<u64>()), 0..60),
        with_failure in any::<bool>(),
        elements in prop::collection::vec(any::<u64>(), 0..200),
    ) {
        let reports = reports_frame(&bins, with_failure);
        prop_assert_eq!(round_trip(&reports), reports);
        let done = Frame::Done(elements);
        prop_assert_eq!(round_trip(&done), done);
    }

    #[test]
    fn error_frames_round_trip(code in 1u8..=7, msg in prop::collection::vec(32u8..127, 0..120)) {
        let frame = Frame::Error {
            code: match code {
                1 => ErrorCode::BadMagic,
                2 => ErrorCode::Version,
                3 => ErrorCode::BadConfig,
                4 => ErrorCode::Protocol,
                5 => ErrorCode::RoundLimit,
                6 => ErrorCode::Decode,
                _ => ErrorCode::Internal,
            },
            message: String::from_utf8(msg).unwrap(),
        };
        // `Error` arrives as `NetError::Remote` through a `FramedStream`,
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
        let _ = estimator::TowEstimator::from_bytes(&bytes);
        let _ = Sketch::from_bytes(&bytes, 11);
    }
}
