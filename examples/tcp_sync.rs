//! End-to-end networked reconciliation in one process: spin up a
//! `pbs_net::Server` on a loopback socket, sync a client set against it,
//! and print what the wire carried.
//!
//! ```sh
//! cargo run --release --example tcp_sync
//! ```

use pbs::pbs_net::client::SyncClient;
use pbs::pbs_net::{MutableStore, Server, ServerConfig};
use std::sync::Arc;

fn main() {
    // The server holds 100k elements; the client is missing 40 of them and
    // holds 60 the server has never seen. Elements must fit the configured
    // universe (32-bit signatures by default).
    let pool: Vec<u64> = (1..=100_060u64).map(|x| x * 31 + 7).collect();
    let server_set: Vec<u64> = pool[..100_000].to_vec();
    let client_set: Vec<u64> = pool[40..].to_vec();

    let store = Arc::new(MutableStore::new(server_set));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<_>,
        ServerConfig::default(),
    )
    .expect("bind loopback server");
    println!("server listening on {}", server.local_addr());

    let report = SyncClient::connect(server.local_addr())
        .expect("resolve server address")
        .seed(42)
        .sync(&client_set)
        .expect("sync");

    println!(
        "reconciled: |A△B| = {} ({} pushed to the server), verified = {}",
        report.recovered.len(),
        report.pushed.len(),
        report.verified,
    );
    println!(
        "estimator: d̂ = {:.1} → parameterized for d = {}",
        report.estimated_d.unwrap_or(f64::NAN),
        report.d_param,
    );
    println!(
        "wire: {} B up / {} B down over {} frames in {} rounds",
        report.bytes_sent,
        report.bytes_received,
        report.frames_sent + report.frames_received,
        report.rounds,
    );

    let stats = server.shutdown();
    println!(
        "server: {} session(s), {} elements ingested, store now {} elements",
        stats.sessions_completed,
        stats.elements_received,
        store.len(),
    );
    assert!(report.verified);
    assert_eq!(store.len(), pool.len());
    println!("both sides hold the full {}-element union", pool.len());
}
