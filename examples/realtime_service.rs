//! Production shape: the threaded detection service (Fig. 1's pipeline)
//! plus engine snapshots (Fig. 4's storage system).
//!
//! An ingest thread feeds transactions through a bounded queue; moderator
//! threads read the continuously published detection; on shutdown the
//! engine state is snapshotted and restored without re-peeling.
//!
//! Run with: `cargo run --release --example realtime_service`

use spade::core::{
    load_engine, save_engine, GroupingConfig, SpadeConfig, SpadeEngine, SpadeService,
    WeightedDensity,
};
use spade::gen::transactions::{TransactionStream, TransactionStreamConfig};
use spade::graph::VertexId;

fn main() {
    // Bootstrap an engine from history, then serve live traffic.
    let history = TransactionStream::generate(&TransactionStreamConfig {
        customers: 1_000,
        merchants: 300,
        transactions: 10_000,
        seed: 77,
        ..Default::default()
    });
    let engine = SpadeEngine::bootstrap(
        WeightedDensity,
        SpadeConfig::default(),
        history.edges.iter().map(|e| (e.src, e.dst, e.raw)),
    )
    .expect("bootstrap");
    println!(
        "bootstrapped on {} transactions ({} vertices)",
        history.edges.len(),
        engine.graph().num_vertices()
    );

    let service = SpadeService::spawn(engine, Some(GroupingConfig::default()), 1024);

    // Live traffic: organic background + a wash-trading ring.
    for i in 0..500u32 {
        service.submit(VertexId(i % 900), VertexId(1_000 + (i * 7) % 290), 5.0);
    }
    let ring: Vec<u32> = (5_000..5_006).collect();
    for &a in &ring {
        for &b in &ring {
            if a != b {
                service.submit(VertexId(a), VertexId(b), 500.0);
            }
        }
    }
    service.flush();

    // A moderator polls the published detection without touching ingest.
    let mut last = service.current_detection();
    for _ in 0..200 {
        last = service.current_detection();
        if last.members.iter().any(|m| ring.contains(&m.0)) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    println!(
        "moderator sees: {} members at density {:.1} after {} updates",
        last.size, last.density, last.updates_applied
    );

    // Shut down and snapshot — restart resumes without a static peel.
    let final_detection = service.shutdown();
    println!(
        "final detection: {} members, density {:.1}",
        final_detection.size, final_detection.density
    );
    assert!(final_detection.members.iter().any(|m| ring.contains(&m.0)));

    // (The service consumed the engine; rebuild one from the same inputs
    // to demonstrate the snapshot path.)
    let engine = SpadeEngine::bootstrap(
        WeightedDensity,
        SpadeConfig::default(),
        history.edges.iter().map(|e| (e.src, e.dst, e.raw)),
    )
    .expect("bootstrap");
    let mut snapshot = Vec::new();
    save_engine(&engine, &mut snapshot).expect("snapshot");
    println!("snapshot size: {} KiB", snapshot.len() / 1024);
    let restored =
        load_engine(WeightedDensity, SpadeConfig::default(), snapshot.as_slice()).expect("restore");
    assert_eq!(restored.detect(), engine.detect());
    println!("restored engine detects identically — no re-peel needed");
}
