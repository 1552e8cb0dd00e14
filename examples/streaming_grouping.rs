//! Edge grouping in action (paper §4.3): replay a labeled fraud stream
//! through the grouping buffer and measure queueing time, latency, and the
//! prevention ratio — the quantities behind Fig. 8, Fig. 9a and Table 5.
//!
//! Run with: `cargo run --release --example streaming_grouping`

use spade::core::{EdgeGrouper, GroupingConfig, SpadeEngine, WeightedDensity};
use spade::gen::fraud::{FraudInjector, FraudInjectorConfig};
use spade::gen::transactions::{TransactionStream, TransactionStreamConfig};
use spade::metrics::{LatencyRecorder, PreventionTracker};
use std::collections::HashMap;

fn main() {
    let base = TransactionStream::generate(&TransactionStreamConfig {
        customers: 2_000,
        merchants: 600,
        transactions: 20_000,
        seed: 4,
        ..Default::default()
    });
    let injected = FraudInjector::inject(
        &base,
        &FraudInjectorConfig {
            instances_per_pattern: 1,
            transactions_per_instance: 150,
            amount: 400.0,
            inject_after_fraction: 0.5,
            ..Default::default()
        },
    );

    // Map each account to its fraud instance for detection attribution.
    let mut account_instance: HashMap<u32, u32> = HashMap::new();
    for info in &injected.instances {
        for m in &info.members {
            account_instance.insert(m.0, info.instance);
        }
    }

    let mut engine = SpadeEngine::new(WeightedDensity);
    let mut grouper = EdgeGrouper::new(GroupingConfig::default());
    let mut latency = LatencyRecorder::new();
    let mut prevention = PreventionTracker::new();

    let mut pending: Vec<(u64, bool)> = Vec::new(); // (generated_ts, fraud)
    for e in &injected.edges {
        if let Some(label) = e.label {
            prevention.note_transaction(label.instance, e.timestamp);
        }
        pending.push((e.timestamp, e.is_fraud()));
        let outcome = grouper.submit(&mut engine, e.src, e.dst, e.raw).expect("valid edge");
        if outcome.flushed.is_some() {
            // Everything queued so far is now responded to at this
            // stream timestamp (simulated clock: response == flush time).
            for (generated, _fraud) in pending.drain(..) {
                latency.record(generated, e.timestamp, e.timestamp);
            }
            // Attribute the detection to fraud instances whose accounts
            // appear in the detected community.
            let det = engine.detect();
            for member in engine.community(det) {
                if let Some(&inst) = account_instance.get(&member.0) {
                    prevention.note_detection(inst, e.timestamp);
                }
            }
        }
    }
    grouper.flush(&mut engine).expect("flush");

    let stats = grouper.stats();
    println!("edge grouping over {} transactions:", stats.submitted);
    println!(
        "  urgent: {} ({:.2}%)",
        stats.urgent,
        100.0 * stats.urgent as f64 / stats.submitted as f64
    );
    println!(
        "  flushes: {}, avg batch {:.1}",
        stats.flushes,
        stats.flushed_edges as f64 / stats.flushes.max(1) as f64
    );
    println!(
        "  mean latency {:.0} stream-us over {} responded transactions ({:.2}% of it queueing)",
        latency.mean(),
        latency.count(),
        100.0 * latency.queueing_fraction()
    );
    println!(
        "  prevention: {}/{} instances detected, overall ratio R = {:.2}%",
        prevention.num_detected(),
        prevention.num_instances(),
        100.0 * prevention.overall_ratio()
    );
    assert!(prevention.num_detected() > 0, "at least one instance must be caught");
}
