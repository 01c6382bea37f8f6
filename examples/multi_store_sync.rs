//! The PR-4 service features in one process: a multi-tenant server routing
//! three named stores (one fed live from the server side), clients addressing
//! stores by name, and pipelined rounds cutting wall-clock round trips.
//!
//! ```sh
//! cargo run --release --example multi_store_sync
//! ```

use pbs::pbs_net::client::{Pipeline, SyncClient};
use pbs::pbs_net::server::{Server, ServerConfig};
use pbs::pbs_net::store::{MutableStore, SetStore, StoreRegistry};
use std::sync::Arc;

fn keyed(range: std::ops::Range<u64>, mul: u64) -> Vec<u64> {
    range.map(|x| x * mul + 7).collect()
}

fn main() {
    // Two independent tenants plus a live, mutable feed.
    let blocks = Arc::new(MutableStore::new(keyed(1..50_000, 31)));
    let peers = Arc::new(MutableStore::new(keyed(1..10_000, 59)));
    let feed = Arc::new(MutableStore::new(keyed(1..5_000, 83)));

    let registry = Arc::new(StoreRegistry::new());
    registry.register("blocks", Arc::clone(&blocks) as Arc<_>);
    registry.register("peers", Arc::clone(&peers) as Arc<_>);
    registry.register("feed", Arc::clone(&feed) as Arc<_>);

    let server = Server::bind_registry(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServerConfig::default(),
    )
    .expect("bind loopback server");
    println!(
        "server listening on {} with stores {:?}",
        server.local_addr(),
        registry.names()
    );

    // A client of the "blocks" store, missing 300 elements, pipelining
    // three protocol rounds per request-response trip.
    let client_blocks: Vec<u64> = keyed(301..50_000, 31);
    let report = SyncClient::connect(server.local_addr())
        .expect("resolve server address")
        .store("blocks")
        .pipeline(Pipeline::Depth(3))
        .seed(42)
        .sync(&client_blocks)
        .expect("blocks sync");
    println!(
        "blocks: |A△B| = {}, verified = {}, {} protocol rounds in {} round trips",
        report.recovered.len(),
        report.verified,
        report.rounds,
        report.round_trips,
    );
    assert!(report.verified && report.round_trips <= report.rounds);

    // A second tenant syncs its own store concurrently-safe by name.
    let client_peers: Vec<u64> = keyed(41..10_000, 59);
    let report = SyncClient::connect(server.local_addr())
        .expect("resolve server address")
        .store("peers")
        .seed(43)
        .sync(&client_peers)
        .expect("peers sync");
    println!(
        "peers: |A△B| = {}, verified = {}",
        report.recovered.len(),
        report.verified
    );
    assert!(report.verified);

    // The live store mutates between sessions; the changelog feeds deltas.
    let epoch = feed.epoch();
    feed.apply(&keyed(5_000..5_010, 83), &keyed(1..11, 83));
    let changes = feed.changes_since(epoch).expect("changelog intact");
    println!(
        "feed: epoch {} → {}, delta +{} −{}",
        epoch,
        feed.epoch(),
        changes.iter().map(|c| c.added.len()).sum::<usize>(),
        changes.iter().map(|c| c.removed.len()).sum::<usize>(),
    );
    let report = SyncClient::connect(server.local_addr())
        .expect("resolve server address")
        .store("feed")
        .seed(44)
        .sync(&feed.snapshot())
        .expect("feed sync");
    assert!(report.verified && report.recovered.is_empty());

    // Per-store accounting. Shut down first: that joins the workers, so
    // every session's counters are fully folded before we read them.
    let total = server.shutdown();
    for name in registry.names() {
        let entry = registry.get(&name).expect("listed");
        let s = entry.stats().snapshot();
        println!(
            "store {name:?}: {} session(s), {} rounds in {} trips, {} elements ingested",
            s.sessions_completed, s.rounds, s.round_trips, s.elements_received
        );
        assert_eq!(s.sessions_completed, 1);
    }
    assert_eq!(total.sessions_completed, 3);
    println!("server total: {} sessions ok", total.sessions_completed);
}
