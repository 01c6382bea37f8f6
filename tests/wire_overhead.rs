//! The overhead fence: what one estimator-on session puts on the wire,
//! against the paper's `d·log|U|` minimum and against the Formula (1)
//! accounting of its own messages.
//!
//! Socket-free and milliseconds long: the real [`ClientMachine`] produces
//! every client frame; the server's replies are built from the same calls
//! `pbs_net`'s server makes, in its order — the `Hello` reply naming the
//! session's seed, as a store with a cached view does. Bytes are a pure
//! function of the sets and that seed, so the fence cannot flake — a codec
//! change that fattens the wire fails here before any benchmark runs.

use estimator::{inflate_estimate, Estimator, TowEstimator};
use pbs_core::{BobSession, Pbs};
use pbs_net::frame::{EstimatorMsg, Frame};
use pbs_net::{ClientConfig, ClientMachine, Mode, Pipeline};
use protocol::{theoretical_minimum_bytes, Workload};

/// The server's default `max_pipeline_depth`: what an adaptive client is
/// granted.
const GRANT: u8 = 4;

/// The seed the in-test server answers every `Hello` with — not the one
/// the client proposes.
const VIEW_SEED: u64 = 0x0FE7_CE00;

#[test]
fn a_session_pays_at_most_3_3x_the_minimum_and_15_percent_over_formula_one() {
    let universe_bits = 32u32;
    // (|B|, d, pipeline, × the minimum at most, trips at most): the
    // paper-shaped d = 10³ session one round a trip, and the d = 10⁴
    // session under the adaptive controller — which must send its dense
    // first trip once (four layers of it cost 9.4 ×) and still end within
    // three trips.
    let cases = [
        (20_000usize, 1_000usize, Pipeline::Depth(1), 3.3, u32::MAX),
        (100_000, 10_000, Pipeline::Auto, 3.6, 3),
    ];
    for (set_size, d, pipeline, ceiling, max_trips) in cases {
        let pair = Workload {
            set_size,
            d,
            universe_bits,
            subset_mode: false,
        }
        .generate(17);
        let config = ClientConfig {
            seed: 0x00C1_1E27,
            pipeline,
            ..ClientConfig::default()
        };
        let mut client =
            ClientMachine::new(&config, &pair.a[..], Mode::Full).expect("a valid request");

        let mut bob: Option<BobSession> = None;
        // Every frame; the Sketches and Reports frames; the Formula (1) bits
        // of the messages those carried.
        let (mut total, mut rounds, mut formula_one) = (0u64, 0u64, 0u64);
        let report = loop {
            let sent = client
                .poll_send()
                .expect("the machine is alive")
                .expect("a frame is owed between replies");
            let sent_len = sent.wire_len();
            let reply = match sent {
                Frame::Hello(mut hello) => {
                    hello.pipeline = hello.pipeline.min(GRANT);
                    hello.seed = VIEW_SEED;
                    Frame::Hello(hello)
                }
                Frame::EstimatorExchange(EstimatorMsg::TowBank(bank)) => {
                    let theirs = TowEstimator::from_bytes(&bank).expect("the bank decodes");
                    let mut own = TowEstimator::new(theirs.sketch_count(), theirs.seed());
                    own.insert_slice(&pair.b);
                    let d_hat = theirs.estimate(&own);
                    let d_param = inflate_estimate(d_hat) as u64;
                    let params = Pbs::new(config.pbs).plan(d_param as usize);
                    bob = Some(BobSession::new(config.pbs, params, &pair.b, VIEW_SEED));
                    Frame::EstimatorExchange(EstimatorMsg::Estimate { d_param, d_hat })
                }
                Frame::Sketches { m, batch } => {
                    let bob = bob.as_mut().expect("the estimate came first");
                    let reports = bob.handle_sketches(&batch);
                    formula_one += batch.iter().map(|s| s.wire_bits(m)).sum::<u64>();
                    formula_one += reports
                        .iter()
                        .map(|r| r.wire_bits(m, universe_bits))
                        .sum::<u64>();
                    let reply = Frame::Reports(reports);
                    rounds += sent_len + reply.wire_len();
                    reply
                }
                Frame::Done(_) => Frame::DeltaDone { epoch: 1 },
                other => panic!("a full sync never sends {other:?}"),
            };
            total += sent_len + reply.wire_len();
            if let Some(report) = client.on_frame(reply).expect("a legal reply").report {
                break report;
            }
        };

        assert!(report.verified);
        assert_eq!(
            report.seed, VIEW_SEED,
            "the session ran under the reply's seed"
        );
        let mut truth: Vec<u64> = pair.diff.iter().copied().collect();
        truth.sort_unstable();
        assert_eq!(report.recovered, truth);
        assert_eq!(report.pushed.len(), d - d / 2);
        assert!(
            report.round_trips <= max_trips,
            "d = {d}: {} trips",
            report.round_trips
        );

        let minimum = theoretical_minimum_bytes(d, universe_bits);
        assert!(
            total as f64 <= ceiling * minimum,
            "d = {d}: the session put {total} B on the wire, {:.2} × the {minimum} B minimum",
            total as f64 / minimum
        );
        assert!(
            rounds * 8 * 100 <= formula_one * 115,
            "d = {d}: Sketches + Reports cost {rounds} B where Formula (1) charges {} B",
            formula_one / 8
        );
    }
}
