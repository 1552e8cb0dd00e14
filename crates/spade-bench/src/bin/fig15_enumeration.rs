//! Figure 15 — fraud-instance enumeration across 28 timespans.
//!
//! Each timespan (4 per day x 7 days) carries its own transaction stream
//! with a varying number of injected instances per pattern. Spade
//! enumerates dense communities per timespan (Appendix C.2), classifies
//! each one against ground truth, and prints per-pattern counts normalized
//! to the first timespan — the paper's stacked-bar figure as a table.
//!
//! `cargo run -p spade-bench --release --bin fig15_enumeration`

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use spade_core::stream::FraudPattern;
use spade_core::{enumerate_static, EnumerationConfig, SpadeConfig, SpadeEngine, WeightedDensity};
use spade_gen::fraud::{FraudInjector, FraudInjectorConfig};
use spade_gen::transactions::{TransactionStream, TransactionStreamConfig};
use spade_metrics::Table;
use std::collections::HashSet;

const TIMESPANS: usize = 28;

fn main() {
    println!("Figure 15: enumerated fraud instances per timespan (normalized to T1)\n");
    let mut rng = ChaCha8Rng::seed_from_u64(0xF15);
    let mut rows: Vec<[usize; 3]> = Vec::new();

    for t in 0..TIMESPANS {
        let base = TransactionStream::generate(&TransactionStreamConfig {
            customers: 1_500,
            merchants: 400,
            transactions: 8_000,
            seed: 1000 + t as u64,
            ..Default::default()
        });
        let injected = FraudInjector::inject(
            &base,
            &FraudInjectorConfig {
                instances_per_pattern: rng.gen_range(1..=3),
                transactions_per_instance: 180,
                amount: 500.0,
                inject_after_fraction: 0.1,
                ..Default::default()
            },
        );
        let engine = SpadeEngine::bootstrap(
            WeightedDensity,
            SpadeConfig::default(),
            injected.edges.iter().map(|e| (e.src, e.dst, e.raw)),
        )
        .expect("bootstrap");
        let det_density = {
            let e = engine;
            let d = e.detect().density;
            let found = enumerate_static(
                e.graph(),
                EnumerationConfig {
                    max_instances: 12,
                    min_density: d / 25.0,
                    ..Default::default()
                },
            );
            let mut counts = [0usize; 3];
            for inst in &found {
                let members: HashSet<u32> = inst.members.iter().map(|u| u.0).collect();
                // Classify by the ground-truth instance with best overlap,
                // requiring a majority of its members recovered.
                if let Some((gt, overlap)) = injected
                    .instances
                    .iter()
                    .map(|gt| (gt, gt.members.iter().filter(|m| members.contains(&m.0)).count()))
                    .max_by_key(|(_, o)| *o)
                {
                    if overlap * 2 >= gt.members.len() {
                        let idx = FraudPattern::ALL
                            .iter()
                            .position(|&p| p == gt.pattern)
                            .expect("pattern");
                        counts[idx] += 1;
                    }
                }
            }
            counts
        };
        rows.push(det_density);
    }

    let norm: usize = rows[0].iter().sum::<usize>().max(1);
    let mut table = Table::new([
        "Timespan",
        "collusion",
        "deal-hunter",
        "click-farming",
        "total (normalized to T1)",
    ]);
    for (t, counts) in rows.iter().enumerate() {
        let total: usize = counts.iter().sum();
        table.row([
            format!("T{}", t + 1),
            counts[0].to_string(),
            counts[1].to_string(),
            counts[2].to_string(),
            format!("{:.2}", total as f64 / norm as f64),
        ]);
    }
    table.print();
    let grand: usize = rows.iter().flat_map(|r| r.iter()).sum();
    println!("\nenumerated and classified {grand} fraud instances across {TIMESPANS} timespans");
    println!("(paper: every timespan surfaces instances of all three patterns over a week)");
}
