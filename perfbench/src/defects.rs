//! Known defects, measured as counts in the traced runs rather than by
//! shaping a workload around them.

use crate::data::{self, Answer};
use crate::router_wl::Cluster;
use crate::stats::{self, Tail};
use crate::trace::{Tracer, ROOT};
use crate::Phase;
use spade_core::shard::{ShardedConfig, ShardedSpadeService};
use spade_core::{SpadeConfig, SpadeEngine, WeightedDensity};
use std::time::Instant;

const SHARDS: usize = 2;
/// Graphs the frame-bounds probe tries.
const FRAME_PROBES: u64 = 3;

/// Known defect, reported as a count: re-runs the cross-shard repair
/// under the default `Connectivity` partition on Grab1@0.01 with 2
/// shards, before and after `rebalance()`, and counts the passes whose
/// answer equals the solo engine's (2 when exact).
pub fn default_partition(seed: u64, tr: &mut Tracer, phase: &mut Phase) {
    let d = data::grab1(0.01, seed);
    let stream = data::all_edges(&d);
    let want = data::solo(&stream);
    let svc = ShardedSpadeService::spawn(WeightedDensity, ShardedConfig::with_shards(SHARDS));
    let mut submit_us = Vec::new();
    for (i, chunk) in stream.chunks(512).enumerate() {
        let mut rest = chunk;
        while !rest.is_empty() {
            let t = Instant::now();
            let r = tr.span("shard.submit_batch", ROOT, i as u64, || svc.submit_batch(rest, None));
            submit_us.push(stats::us(t.elapsed()));
            if r.closed {
                phase.check(false, || "default-partition check: a shard shut down".into());
                return;
            }
            rest = &rest[r.accepted..];
            if !rest.is_empty() {
                // A shard queue is full: give its worker time to drain.
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
    }
    let mut exact = 0;
    let mut seen = Vec::new();
    for pass in ["before", "after"] {
        if pass == "after" {
            tr.span("shard.rebalance", ROOT, 0, || svc.rebalance());
        }
        let r = tr.span("shard.repair", ROOT, 1, || svc.repair());
        let got = Answer::new(&r.detection.members, r.detection.density);
        if got.matches(&want) {
            exact += 1;
        }
        seen.push(format!("{pass} rebalance {}", got.describe()));
    }
    println!(
        "  default Connectivity partition: {}; solo engine {}",
        seen.join(", "),
        want.describe()
    );
    phase.layers.set(
        "shard.default_partition_exact",
        f64::from(exact),
        "count",
        "of 2 repair passes (known defect)",
    );
    phase.layers.set(
        "shard.submit_batch_us.p99",
        Tail::of(&submit_us).tail,
        "us",
        format!("default-partition probe's submits, n={}", submit_us.len()),
    );
    svc.shutdown();
}

/// Known defect, reported as a count: a router `repair()` over 2 shard
/// servers holding Grab1 at 3% (sparse ids, hash-by-source homes, as
/// `router-repl` would leave them) fails on some graphs because a
/// shard's candidate region exceeds the wire's frame bounds. Probes the
/// surrogates of seeds `seed..seed + FRAME_PROBES` and counts failures.
/// The shards are bootstrapped with their share of the stream instead
/// of replaying it through the router, which takes over a minute at
/// this size.
pub fn router_frame_bounds(seed: u64, tr: &mut Tracer, phase: &mut Phase) {
    let mut failed = 0;
    for s in seed..seed + FRAME_PROBES {
        let d = data::grab1(0.03, s);
        let plain = data::all_edges(&d);
        let stream = data::scatter(&plain, d.id_space);
        let engines = data::hash_parts(&stream, SHARDS).into_iter().map(|p| {
            SpadeEngine::bootstrap(WeightedDensity, SpadeConfig::default(), p)
                .expect("generated edges are well formed")
        });
        let mut c = match Cluster::spawn_with(engines.collect()) {
            Ok(c) => c,
            Err(e) => {
                phase.check(false, || format!("frame-bounds probe set-up: {e}"));
                return;
            }
        };
        match tr.span("router.repair", ROOT, s, || c.router.repair()) {
            Ok(o) => println!(
                "  router repair at Grab1 3%, seed {s}: {} members at density {:.6}",
                o.members.len(),
                o.density
            ),
            Err(e) => {
                println!("  router repair at Grab1 3%, seed {s}, failed: {e}");
                failed += 1;
            }
        }
        if let Err(e) = c.close() {
            phase.check(false, || format!("frame-bounds probe shutdown: {e}"));
        }
    }
    phase.layers.set(
        "router.repair_fails_at_3pct",
        f64::from(failed),
        "count",
        format!("of {FRAME_PROBES} graphs (known defect: region exceeds frame bounds)"),
    );
}
