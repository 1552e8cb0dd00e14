//! `engine-grab1`: one `SpadeEngine`, no runtime around it.
//!
//! Each round bootstraps an engine on the 90% prefix (the set-up) and
//! then inserts every increment through `insert_edge` in a closed loop
//! on one thread, so an edge is due the moment the previous insert
//! returns and its latency is the insert itself. The round ends with the
//! engine's detection, checked against a static `peel` of the final
//! graph. Rounds repeat on a fresh engine until the time is used; no
//! engine ever sees an edge twice.
//!
//! `global_detect_ms` is a static peel: the from-scratch exact
//! detection the incremental engine replaces (Fig. 10's baseline),
//! timed on the final graph of every round and, from the second round
//! on, after every `PEEL_EVERY` increments, so its samples spread over
//! the run like the inserts do. The loop's clock stops while a peel
//! runs. The engine's own `detect()` is an O(1) read of the kinetic
//! index, a few nanoseconds whose timing moves with code layout (see
//! README.md).

use crate::data::{self, Answer, Edge};
use crate::stats::{self, median, Sheet};
use crate::trace::{Tracer, ROOT};
use crate::{Ctx, Phase};
use spade_core::{peel, ReorderStats, SpadeConfig, SpadeEngine, WeightedDensity};
use std::time::{Duration, Instant};

/// Grab1 at 1% of paper size: 90K prefix edges, 10K increments.
const SCALE: f64 = 0.01;
/// Increments between two timed static peels.
const PEEL_EVERY: usize = 1_000;
/// Set-ups timed per run (rounds plus bootstrap-only repeats).
const SETUPS: usize = 7;

pub fn run(ctx: &Ctx, traced: bool) -> Phase {
    let bootstrap = |prefix: &[Edge]| {
        SpadeEngine::bootstrap(WeightedDensity, SpadeConfig::default(), prefix.iter().copied())
    };
    let started = Instant::now();
    let mut tr = Tracer::new(traced, started, "engine");
    let mut phase = Phase::default();
    let (mut setup, mut insert_us, mut peel_ms) = (vec![], vec![], vec![]);
    let (mut eps, mut total_edges) = (vec![], 0.0);
    let mut reorder = ReorderStats::default();
    // Where each round's samples start in `insert_us`.
    let mut starts = Vec::new();
    let mut round = 0u64;
    let mut last_prefix = Vec::new();
    loop {
        let round_start = Instant::now();
        // A fresh surrogate per round, so one run averages several graphs.
        let data = data::grab1(SCALE, data::round_seed(ctx.seed, round));
        let prefix = data::edges(&data.initial);
        let inc = data::edges(&data.increments);
        total_edges += (prefix.len() + inc.len()) as f64 * inc.len() as f64;
        let root = tr.begin("loadgen.round", ROOT, round);
        let t = Instant::now();
        let built = tr.span("engine.bootstrap", root, round, || bootstrap(&prefix));
        setup.push(t.elapsed().as_secs_f64());
        let mut engine = match built {
            Ok(engine) => engine,
            Err(e) => {
                phase.check(false, || format!("bootstrap: {e}"));
                break;
            }
        };

        starts.push(insert_us.len());
        let mut paused = Duration::ZERO;
        let ingest = Instant::now();
        for (k, &(src, dst, raw)) in inc.iter().enumerate() {
            let span = tr.begin("engine.insert", root, k as u64);
            let t = Instant::now();
            let result = engine.insert_edge(src, dst, raw);
            insert_us.push(stats::us(t.elapsed()));
            tr.end(span);
            reorder.merge(engine.last_reorder_stats());
            phase.check(result.is_ok(), || format!("insert_edge #{k}: {:?}", result.err()));
            // The first round has none: its end is where the engine's
            // own peak RSS is read.
            if round > 0 && (k + 1) % PEEL_EVERY == 0 && k + 1 < inc.len() {
                let t = Instant::now();
                tr.span("engine.static_peel", root, k as u64, || peel(engine.graph()));
                paused += t.elapsed();
                peel_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        eps.push(inc.len() as f64 / (ingest.elapsed() - paused).as_secs_f64());

        let det = tr.span("engine.detect", root, round, || engine.detect());
        let got = Answer::new(engine.community(det), det.density);
        // The peak RSS is the engine's own: a static peel allocates a
        // graph-sized peeling state of its own.
        phase.round_done();

        let t = Instant::now();
        let reference = tr.span("engine.static_peel", root, round, || peel(engine.graph()));
        peel_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let want = Answer::new(reference.community(), reference.best_density);
        phase.check(got.matches(&want), || {
            format!("engine detection {} != static peel {}", got.describe(), want.describe())
        });
        tr.end(root);
        round += 1;
        last_prefix = prefix;

        let spent = started.elapsed() + round_start.elapsed();
        if spent.as_secs_f64() > ctx.seconds {
            break;
        }
    }
    while setup.len() < SETUPS {
        let t = Instant::now();
        let engine =
            tr.span("engine.bootstrap", ROOT, setup.len() as u64, || bootstrap(&last_prefix));
        setup.push(t.elapsed().as_secs_f64());
        drop(engine);
    }

    let inserts = insert_us.len().max(1) as f64;
    starts.push(insert_us.len());
    let rounds: Vec<&[f64]> = starts.windows(2).map(|w| &insert_us[w[0]..w[1]]).collect();
    let (p50, p99, note) = stats::round_tails(&rounds);
    let static_ms = median(&peel_ms);
    let eps = median(&eps);
    let e = &mut phase.e2e;
    e.set("setup_s", median(&setup), "s", format!("median of {} bootstraps", setup.len()));
    e.set("throughput_eps", eps, "1/s", format!("median of {round} rounds"));
    e.set("latency_p50_us", p50, "us", format!("insert_edge, {note}"));
    e.set("latency_p99_us", p99, "us", format!("insert_edge, {note}"));
    e.set(
        "global_detect_ms",
        static_ms,
        "ms",
        format!("static peel, median of {} through the rounds", peel_ms.len()),
    );

    let l: &mut Sheet = &mut phase.layers;
    l.set("engine.bootstrap_s", median(&setup), "s", format!("n={}", setup.len()));
    l.tail("engine.insert_us", &insert_us, "us");
    l.set("engine.moved_per_insert", reorder.moved as f64 / inserts, "count", "");
    l.set("engine.queued_per_insert", reorder.queued as f64 / inserts, "count", "");
    let scanned = reorder.edges_scanned as f64 / inserts;
    l.set("engine.edges_scanned_per_insert", scanned, "count", "");
    l.set("engine.windows_per_insert", reorder.windows as f64 / inserts, "count", "");
    let mean_edges = total_edges / inserts;
    l.set("engine.affected_edge_frac", scanned / mean_edges, "ratio", "scanned / |E|");
    l.set("engine.static_peel_ms", static_ms, "ms", "peel() of the current graph");
    let mean_insert_us = insert_us.iter().sum::<f64>() / inserts;
    l.set("engine.speedup", static_ms * 1e3 / mean_insert_us, "ratio", "static peel / mean insert");
    phase.cost_per_edge_s = 1.0 / eps;
    phase.trace.absorb(tr);
    phase
}
