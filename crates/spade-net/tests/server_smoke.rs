//! Server integration smoke tests over a real loopback socket: a basic
//! produce → detect roundtrip, single-edge frames (Ack and Busy),
//! protocol queries, and the malformed-frame smoke check (garbage bytes
//! earn an Error reply and a closed connection while the server keeps
//! serving everyone else).

use spade_core::metric::{CustomMetric, WeightedDensity};
use spade_core::shard::{ShardedConfig, ShardedSpadeService};
use spade_core::{PartitionStrategy, SpadeEngine};
use spade_graph::VertexId;
use spade_net::{
    read_frame, write_frame, DetectionReply, SpadeNetClient, SpadeNetServer, WireFrame,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

fn v(i: u32) -> VertexId {
    VertexId(i)
}

fn spawn_server(shards: usize) -> (Arc<ShardedSpadeService>, SpadeNetServer) {
    let config = ShardedConfig {
        shards,
        strategy: PartitionStrategy::HashBySource,
        ..ShardedConfig::with_shards(shards)
    };
    let service = Arc::new(ShardedSpadeService::spawn(WeightedDensity, config));
    let server = SpadeNetServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    (service, server)
}

#[test]
fn a_producer_feeds_the_runtime_and_reads_the_detection_back() {
    let (service, server) = spawn_server(2);
    let mut client = SpadeNetClient::connect(server.local_addr()).expect("connect");
    for i in 0..10u32 {
        client.submit(v(i), v(i + 1), 1.0).unwrap();
    }
    for a in 50..54u32 {
        for b in 50..54u32 {
            if a != b {
                client.submit(v(a), v(b), 25.0).unwrap();
            }
        }
    }
    let det = client.detect().expect("detect");
    assert!(det.density > 10.0);
    assert!(det.members.iter().all(|m| (50..54).contains(&m.0)));
    assert_eq!(det.updates_applied, 10 + 12);

    let remote = client.server_stats().expect("stats");
    assert_eq!(remote.shards, 2);
    assert_eq!(remote.edges_accepted, 22);
    assert_eq!(remote.connections, 1);
    assert!(remote.frames >= 3);

    let stats = client.finish().expect("finish");
    assert_eq!(stats.edges_submitted, 22);
    assert_eq!(stats.edges_acked, 22);

    let net = server.shutdown();
    assert_eq!(net.edges_accepted, 22);
    assert_eq!(net.malformed_frames, 0);
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared"));
    let global = service.shutdown();
    assert_eq!(global.total_updates, 22);
}

/// Sends one frame on a raw connection and reads its reply.
fn roundtrip(conn: &mut TcpStream, frame: &WireFrame) -> WireFrame {
    write_frame(conn, frame).expect("write");
    read_frame(conn).expect("reply").expect("connection closed")
}

fn edge(src: u32, dst: u32, raw: f64) -> WireFrame {
    WireFrame::Edge { src: v(src), dst: v(dst), raw }
}

fn detection(conn: &mut TcpStream) -> DetectionReply {
    match roundtrip(conn, &WireFrame::Detect) {
        WireFrame::Detection(det) => det,
        other => panic!("expected a Detection, got {other:?}"),
    }
}

#[test]
fn an_edge_frame_is_acked_and_reflected_by_the_next_detect() {
    let (service, server) = spawn_server(2);
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    assert_eq!(roundtrip(&mut conn, &edge(0, 1, 4.0)), WireFrame::Ack { accepted: 1 });
    let det = detection(&mut conn);
    assert_eq!(det.updates_applied, 1);
    assert_eq!((det.size, det.density), (2, 2.0));

    // A heavier pair on the other shard takes over the detection.
    assert_eq!(roundtrip(&mut conn, &edge(3, 2, 10.0)), WireFrame::Ack { accepted: 1 });
    let det = detection(&mut conn);
    assert_eq!(det.updates_applied, 2);
    assert_eq!((det.size, det.density), (2, 5.0));
    let mut members: Vec<u32> = det.members.iter().map(|m| m.0).collect();
    members.sort_unstable();
    assert_eq!(members, vec![2, 3]);

    drop(conn);
    let net = server.shutdown();
    assert_eq!((net.edges_accepted, net.busy_replies), (2, 0));
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared"));
    assert_eq!(service.shutdown().total_updates, 2);
}

#[test]
fn an_edge_frame_against_a_full_shard_queue_is_answered_busy() {
    // One shard with a one-slot queue, whose worker blocks inside the
    // metric on the first edge it applies until the gate sender drops.
    let (entered_tx, entered) = mpsc::channel::<()>();
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let gate_rx = Arc::new(Mutex::new(gate_rx));
    let config = ShardedConfig {
        queue_capacity: 1,
        strategy: PartitionStrategy::HashBySource,
        ..ShardedConfig::with_shards(1)
    };
    let service = Arc::new(ShardedSpadeService::spawn_with(config, |_| {
        let (entered_tx, gate_rx) = (entered_tx.clone(), Arc::clone(&gate_rx));
        SpadeEngine::new(CustomMetric::new(
            "gated",
            |_, _| 0.0,
            move |_, _, raw, _| {
                let _ = entered_tx.send(());
                let _ = gate_rx.lock().expect("gate lock").recv();
                raw
            },
        ))
    }));
    let server = SpadeNetServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    // Rebound after the service so it drops first: a failing assertion
    // opens the gate before the unwind joins the worker.
    let gate = gate_tx;
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");

    assert_eq!(roundtrip(&mut conn, &edge(0, 1, 1.0)), WireFrame::Ack { accepted: 1 });
    entered.recv_timeout(Duration::from_secs(10)).expect("worker never started applying");
    // The worker holds the first edge: the second fills the one slot,
    // the third bounces with nothing accepted.
    assert_eq!(roundtrip(&mut conn, &edge(2, 3, 1.0)), WireFrame::Ack { accepted: 1 });
    assert_eq!(roundtrip(&mut conn, &edge(4, 5, 1.0)), WireFrame::Busy { accepted: 0 });

    drop(gate);
    assert_eq!(detection(&mut conn).updates_applied, 2);
    drop(conn);
    let net = server.shutdown();
    assert_eq!((net.edges_accepted, net.busy_replies), (2, 1));
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared"));
    assert_eq!(service.shutdown().total_updates, 2);
}

#[test]
fn metrics_scrape_over_the_wire_reconciles_with_ingest() {
    let (service, server) = spawn_server(2);
    let mut client = SpadeNetClient::connect(server.local_addr()).expect("connect");
    for i in 0..50u32 {
        client.submit(v(i % 10), v((i + 1) % 10), 1.0).unwrap();
    }
    // Detect waits for every acknowledged edge to be applied
    // (read-your-acks), so the queue-wait histogram is complete after.
    client.detect().expect("detect");

    let reply = client.server_metrics().expect("metrics");
    assert_eq!(reply.version, spade_net::METRICS_VERSION);
    let text = &reply.exposition;
    // Per-stage histograms: every applied edge was timed exactly once.
    assert!(
        text.contains("spade_stage_queue_wait_ns_count 50"),
        "queue-wait count must equal applied updates, got:\n{text}"
    );
    assert!(text.contains("spade_stage_publish_ns_count"), "missing publish stage:\n{text}");
    // Transport totals and per-connection labeled series ride along.
    assert!(text.contains("spade_net_edges_accepted_total 50"), "net totals missing:\n{text}");
    assert!(
        text.contains("spade_net_connection_frames{conn=\"1\"}"),
        "per-connection series missing:\n{text}"
    );
    // The runtime totals from the shard registries are merged in.
    assert!(text.contains("spade_updates_total 50"), "updates counter missing:\n{text}");

    // The extended stats reply carries uptime and live per-shard depths.
    let stats = client.server_stats().expect("stats");
    assert!(stats.uptime_secs > 0.0);
    assert_eq!(stats.shard_queue_depths.len(), 2);
    assert_eq!(stats.shard_queue_depths.iter().sum::<u64>(), stats.queue_depth);

    drop(client);
    server.shutdown();
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared"));
    assert_eq!(service.shutdown().total_updates, 50);
}

#[test]
fn malformed_frames_get_an_error_reply_and_do_not_kill_the_server() {
    let (service, server) = spawn_server(2);

    // A hostile producer: a length prefix far beyond the frame bound.
    let mut hostile = TcpStream::connect(server.local_addr()).expect("connect");
    hostile.write_all(&u32::MAX.to_le_bytes()).unwrap();
    hostile.flush().unwrap();
    match read_frame(&mut hostile).expect("an error reply, not a dropped byte stream") {
        Some(WireFrame::Error { message }) => assert!(message.contains("exceeds")),
        other => panic!("expected an Error frame, got {other:?}"),
    }
    // The server hangs up on the hostile connection...
    assert_eq!(read_frame(&mut hostile).expect("clean close"), None);

    // A second hostile producer: valid length, garbage opcode.
    let mut garbage = TcpStream::connect(server.local_addr()).expect("connect");
    garbage.write_all(&5u32.to_le_bytes()).unwrap();
    garbage.write_all(&[0x7f, 1, 2, 3, 4]).unwrap();
    garbage.flush().unwrap();
    match read_frame(&mut garbage).expect("an error reply") {
        Some(WireFrame::Error { message }) => assert!(message.contains("opcode")),
        other => panic!("expected an Error frame, got {other:?}"),
    }

    // ...while honest producers keep working on the same server.
    let mut honest = SpadeNetClient::connect(server.local_addr()).expect("connect");
    for a in 10..13u32 {
        for b in 10..13u32 {
            if a != b {
                honest.submit(v(a), v(b), 9.0).unwrap();
            }
        }
    }
    let det = honest.detect().expect("detect still works");
    assert_eq!(det.size, 3);
    drop(honest);

    let net = server.shutdown();
    assert!(net.malformed_frames >= 2);
    assert_eq!(net.edges_accepted, 6);
    drop(service);
}

#[test]
fn shutdown_frame_stops_the_server() {
    let (service, server) = spawn_server(1);
    let mut client = SpadeNetClient::connect(server.local_addr()).expect("connect");
    client.submit(v(0), v(1), 2.0).unwrap();
    client.shutdown_server().expect("shutdown handshake");
    // The stop flag must flip promptly (the CLI's serve loop polls it).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !server.is_stopped() {
        assert!(std::time::Instant::now() < deadline, "server failed to stop");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let net = server.shutdown();
    assert_eq!(net.edges_accepted, 1);
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared"));
    assert_eq!(service.shutdown().total_updates, 1);
}

#[test]
fn budgeted_batches_flow_through_the_slo_scheduler() {
    let (service, server) = spawn_server(2);
    // A client with a per-transaction detection budget ships BatchBudget
    // (protocol v2) frames; the server hands each one to the grouped
    // sharded submit with the budget attached.
    let mut client = SpadeNetClient::connect_with(
        server.local_addr(),
        spade_net::ClientConfig {
            batch: 16,
            budget: Some(std::time::Duration::from_millis(50)),
            ..Default::default()
        },
    )
    .expect("connect");
    for i in 0..100u32 {
        client.submit(v(i % 20), v((i + 1) % 20), 1.0 + (i % 5) as f64).unwrap();
    }
    client.detect().expect("detect");

    // Every applied edge recorded a deadline outcome: with a generous
    // 50ms budget each one lands in the slack histogram, none as a miss.
    let reply = client.server_metrics().expect("metrics");
    let text = &reply.exposition;
    assert!(
        text.contains("spade_deadline_slack_ns_count 100"),
        "every budgeted edge must record slack, got:\n{text}"
    );
    assert!(text.contains("spade_deadline_miss_total 0"), "misses under a 50ms budget:\n{text}");

    let stats = client.finish().expect("finish");
    assert_eq!(stats.edges_acked, 100);
    server.shutdown();
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared"));
    assert_eq!(service.shutdown().total_updates, 100);
}

#[test]
fn empty_batches_and_pipelined_sends_are_harmless() {
    let (service, server) = spawn_server(2);
    let mut client = SpadeNetClient::connect_with(
        server.local_addr(),
        spade_net::ClientConfig { batch: 4, pipeline: 3, ..Default::default() },
    )
    .expect("connect");
    // Deep pipelining across many small batches.
    for i in 0..200u32 {
        client.submit(v(i % 40), v((i + 1) % 40), 1.0 + (i % 7) as f64).unwrap();
    }
    let stats = client.finish().expect("finish");
    assert_eq!(stats.edges_acked, 200);
    server.shutdown();
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("service still shared"));
    assert_eq!(service.shutdown().total_updates, 200);
}
