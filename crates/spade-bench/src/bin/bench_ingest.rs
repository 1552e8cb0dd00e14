//! Sustained ingest throughput of the service worker loop, with and
//! without drain coalescing.
//!
//! Two scenarios, both through a single [`SpadeService`] (the per-shard
//! hot path of the sharded runtime):
//!
//! * **bursty replay** — the producer pushes the whole stream as fast as
//!   the bounded queue accepts it, so the worker always has a backlog to
//!   drain. Swept over coalesce caps (1 = the pre-coalescing per-edge
//!   loop: one reorder pass and one publish per edge). This is the
//!   sustained-throughput number.
//! * **steady drip** — the producer submits one edge and waits for it to
//!   be applied before sending the next, so no coalescing is ever
//!   possible. This pins down the per-edge round-trip and shows the
//!   coalescing machinery costs nothing when there is no backlog.
//!
//! Writes a `BENCH_ingest.json` trajectory (see `--out`) and prints a
//! table. `--smoke` (or `SPADE_QUICK=1`) shrinks the workload for CI.
//!
//! `cargo run -p spade-bench --release --bin bench_ingest [-- --smoke]`

use spade_core::metric::WeightedDensity;
use spade_core::service::metric_names;
use spade_core::stream::StreamEdge;
use spade_core::{IngestConfig, ServiceStats, SpadeEngine, SpadeService};
use spade_gen::fraud::{FraudInjector, FraudInjectorConfig};
use spade_gen::transactions::{TransactionStream, TransactionStreamConfig};
use spade_metrics::{MetricsSnapshot, Table};
use std::fmt::Write as _;
use std::time::Instant;

/// One measured configuration.
struct Sample {
    scenario: &'static str,
    coalesce: usize,
    edges: usize,
    elapsed_us: f64,
    stats: ServiceStats,
    /// Registry snapshot taken right before shutdown, so the per-stage
    /// latency histograms (queue wait / reorder / publish) ride along.
    metrics: MetricsSnapshot,
}

impl Sample {
    fn throughput_eps(&self) -> f64 {
        self.edges as f64 / (self.elapsed_us / 1e6).max(1e-9)
    }

    /// Quantile of a per-stage histogram in nanoseconds (0 if the stage
    /// never recorded, e.g. reorder with grouping disabled).
    fn stage_q(&self, name: &str, q: f64) -> u64 {
        self.metrics.histograms.get(name).map_or(0, |h| h.quantile(q))
    }
}

/// Nanoseconds rendered as microseconds for the latency table.
fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

/// Benign-heavy Zipf marketplace traffic plus injected dense rings, so
/// bursts repeatedly hammer the same communities (the regime batch
/// reordering amortizes).
fn workload(smoke: bool) -> Vec<StreamEdge> {
    let scale = if smoke { 0.1 } else { 1.0 };
    let base = TransactionStream::generate(&TransactionStreamConfig {
        customers: ((4_000.0 * scale) as usize).max(150),
        merchants: ((1_200.0 * scale) as usize).max(50),
        transactions: ((20_000.0 * scale) as usize).max(1_000),
        seed: 0x1465,
        ..Default::default()
    });
    let injected = FraudInjector::inject(
        &base,
        &FraudInjectorConfig {
            instances_per_pattern: 2,
            transactions_per_instance: ((400.0 * scale) as usize).max(60),
            amount: 250.0,
            ..Default::default()
        },
    );
    injected.edges
}

fn spawn_service(coalesce: usize) -> SpadeService {
    SpadeService::spawn_with(
        SpadeEngine::new(WeightedDensity),
        None,
        IngestConfig { queue_capacity: 4096, coalesce, deadline: None },
        format!("ingest-bench-{coalesce}"),
    )
}

/// Polls until the worker has consumed `target` commands, then snapshots
/// the counters (stats are unreadable after shutdown). Bounded so a
/// stalled worker aborts the benchmark instead of hanging CI.
fn drain_to(service: &SpadeService, target: u64) -> ServiceStats {
    let deadline = Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let stats = service.stats();
        if stats.updates_applied >= target {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "worker stalled at {}/{target} updates",
            stats.updates_applied
        );
        std::thread::yield_now();
    }
}

/// Bursty replay: submit everything, then time includes the drain.
fn run_bursty(edges: &[StreamEdge], coalesce: usize) -> Sample {
    let service = spawn_service(coalesce);
    let started = Instant::now();
    for e in edges {
        assert!(service.submit(e.src, e.dst, e.raw));
    }
    let stats = drain_to(&service, edges.len() as u64);
    let elapsed_us = started.elapsed().as_secs_f64() * 1e6;
    let metrics = service.metrics();
    let final_det = service.shutdown();
    assert_eq!(final_det.updates_applied, edges.len() as u64);
    Sample { scenario: "bursty", coalesce, edges: edges.len(), elapsed_us, stats, metrics }
}

/// Steady drip: one edge in flight at a time — no coalescing possible.
fn run_drip(edges: &[StreamEdge], coalesce: usize) -> Sample {
    let service = spawn_service(coalesce);
    let started = Instant::now();
    for (i, e) in edges.iter().enumerate() {
        assert!(service.submit(e.src, e.dst, e.raw));
        drain_to(&service, i as u64 + 1);
    }
    let stats = service.stats();
    let elapsed_us = started.elapsed().as_secs_f64() * 1e6;
    let metrics = service.metrics();
    service.shutdown();
    Sample { scenario: "drip", coalesce, edges: edges.len(), elapsed_us, stats, metrics }
}

fn write_json(path: &str, edges: usize, samples: &[Sample]) -> std::io::Result<()> {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"ingest\",");
    let _ = writeln!(out, "  \"workload_edges\": {edges},");
    let _ = writeln!(out, "  \"samples\": [");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 < samples.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"scenario\": \"{}\", \"coalesce\": {}, \"edges\": {}, \
             \"elapsed_us\": {:.1}, \"throughput_eps\": {:.1}, \"publishes\": {}, \
             \"skipped_unchanged\": {}, \"rejected\": {}, \"flushes\": {}, \
             \"queue_wait_p50_ns\": {}, \"queue_wait_p99_ns\": {}, \
             \"publish_p50_ns\": {}, \"publish_p99_ns\": {}}}{comma}",
            s.scenario,
            s.coalesce,
            s.edges,
            s.elapsed_us,
            s.throughput_eps(),
            s.stats.publishes,
            s.stats.skipped_unchanged,
            s.stats.rejected,
            s.stats.flushes,
            s.stage_q(metric_names::STAGE_QUEUE_WAIT_NS, 0.50),
            s.stage_q(metric_names::STAGE_QUEUE_WAIT_NS, 0.99),
            s.stage_q(metric_names::STAGE_PUBLISH_NS, 0.50),
            s.stage_q(metric_names::STAGE_PUBLISH_NS, 0.99),
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    std::fs::write(path, out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke") || std::env::var_os("SPADE_QUICK").is_some();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_ingest.json".to_string());

    let edges = workload(smoke);
    println!(
        "ingest bench: {} edges ({}), 1 hardware-thread note: producer and worker share cores\n",
        edges.len(),
        if smoke { "smoke" } else { "full" },
    );

    let mut samples = Vec::new();
    for coalesce in [1usize, 8, 64, 256, 1024] {
        samples.push(run_bursty(&edges, coalesce));
    }
    // Drip is O(edges) round-trips; keep it shorter than the replay.
    let drip_cap = edges.len().min(if smoke { 300 } else { 2_000 });
    for coalesce in [1usize, 256] {
        samples.push(run_drip(&edges[..drip_cap], coalesce));
    }

    let mut table =
        Table::new(["scenario", "coalesce", "edges", "tx/s", "publishes", "skipped", "per-edge"]);
    for s in &samples {
        table.row([
            s.scenario.to_string(),
            s.coalesce.to_string(),
            s.edges.to_string(),
            format!("{:.0}", s.throughput_eps()),
            s.stats.publishes.to_string(),
            s.stats.skipped_unchanged.to_string(),
            format!("{:.2} us", s.elapsed_us / s.edges.max(1) as f64),
        ]);
    }
    table.print();

    // Per-stage latency from the always-on registry instrumentation:
    // queue wait (time an edge sat in the bounded queue) versus the
    // processing stages (reorder + publish). Under bursty replay the
    // queue wait dominates by orders of magnitude — the paper's §5.2
    // observation that batch-mode latency is almost entirely queueing.
    println!("\nper-stage latency (us, from the runtime metrics registry):");
    let mut stages = Table::new([
        "scenario",
        "coalesce",
        "q-wait p50",
        "q-wait p99",
        "reorder p99",
        "publish p50",
        "publish p99",
        "batch p99",
    ]);
    for s in &samples {
        stages.row([
            s.scenario.to_string(),
            s.coalesce.to_string(),
            us(s.stage_q(metric_names::STAGE_QUEUE_WAIT_NS, 0.50)),
            us(s.stage_q(metric_names::STAGE_QUEUE_WAIT_NS, 0.99)),
            us(s.stage_q(metric_names::STAGE_REORDER_NS, 0.99)),
            us(s.stage_q(metric_names::STAGE_PUBLISH_NS, 0.50)),
            us(s.stage_q(metric_names::STAGE_PUBLISH_NS, 0.99)),
            s.stage_q(metric_names::COALESCE_BATCH_SIZE, 0.99).to_string(),
        ]);
    }
    stages.print();

    let per_edge = samples.iter().find(|s| s.scenario == "bursty" && s.coalesce == 1);
    let coalesced = samples.iter().find(|s| s.scenario == "bursty" && s.coalesce == 256);
    if let (Some(base), Some(fast)) = (per_edge, coalesced) {
        println!(
            "\nbursty replay: coalesce=256 sustains {:.2}x the per-edge loop \
             ({:.0} vs {:.0} tx/s)",
            fast.throughput_eps() / base.throughput_eps().max(1e-9),
            fast.throughput_eps(),
            base.throughput_eps(),
        );
    }

    // Drip parity: with no backlog every drain is a single one-edge
    // command, which takes the same one-edge batch path at any cap — a
    // high coalesce cap must cost (essentially) nothing. Guard it with a
    // loose bound so noise doesn't flake CI but a real regression fails
    // loudly.
    let drip_base = samples.iter().find(|s| s.scenario == "drip" && s.coalesce == 1);
    let drip_coalesced = samples.iter().find(|s| s.scenario == "drip" && s.coalesce == 256);
    if let (Some(base), Some(capped)) = (drip_base, drip_coalesced) {
        let ratio = base.throughput_eps() / capped.throughput_eps().max(1e-9);
        println!(
            "drip parity: coalesce=256 runs at {:.2}x the per-edge cost \
             ({:.0} vs {:.0} tx/s)",
            ratio,
            capped.throughput_eps(),
            base.throughput_eps(),
        );
        assert!(
            ratio < 1.35,
            "drip regression: coalesce=256 is {ratio:.2}x slower than per-edge \
             (a single-command drain must cost the same at any cap)"
        );
    }

    match write_json(&out_path, edges.len(), &samples) {
        Ok(()) => println!("trajectory written to {out_path}"),
        Err(e) => {
            eprintln!("error: cannot write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
