//! `router-repl`: `SpadeRouter` with its default configuration
//! (replicate-first, hash-by-source, 512-edge batches) over 2 shard
//! servers on loopback, each a `ShardServer` around its own
//! `SpadeService` as `spade shard-serve` builds it.
//!
//! The router replays the whole Grab1 stream closed loop from an empty
//! graph, with vertex ids scattered over sixteen times their count, and
//! runs `repair()` every `REPAIR_EVERY` edges. After `flush_batches` a
//! per-shard drain barrier waits until every shard applied what it
//! acknowledged, and a final `repair()` gives the global detection,
//! checked against a solo engine fed the same edges.
//!
//! An edge's latency runs from its `submit` (closed loop: it is due the
//! moment the previous call returned) to the first published detection
//! of its home shard whose `updates_applied` covers it. A watcher thread
//! samples both shards' published counters to find that moment.

use crate::data::{self, Answer, Edge};
use crate::stats::{self, median};
use crate::tcp_wl::service_layers;
use crate::trace::{Tracer, ROOT};
use crate::{Ctx, Phase};
use spade_core::shard::PartitionStrategy;
use spade_core::{SpadeEngine, SpadeService, WeightedDensity};
use spade_metrics::MetricsSnapshot;
use spade_net::{RouterConfig, ShardServer, ShardServerConfig, SpadeRouter};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
/// Set-ups timed per run (under 1 ms each, so many are needed).
const SETUPS: usize = 41;
/// `repair()` passes timed per round after the drain.
const REPAIRS: usize = 3;
/// Grab1 at 0.4%: 40K edges per round, replayed from an empty graph.
const SCALE: f64 = 0.004;
/// Edges between periodic repairs during ingest.
const REPAIR_EVERY: usize = 10_000;
/// The shard-server queue bound `spade shard-serve` uses by default.
const SHARD_QUEUE: usize = 1024;
/// How often the watcher samples the shards' published counters.
const WATCH_PERIOD: Duration = Duration::from_micros(250);

/// Two shard servers and the router connected to them.
pub struct Cluster {
    services: Vec<Arc<SpadeService>>,
    servers: Vec<ShardServer>,
    pub router: SpadeRouter,
}

impl Cluster {
    /// Empty shards, as `spade shard-serve` starts them.
    fn spawn() -> Result<Cluster, String> {
        Self::spawn_with((0..SHARDS).map(|_| SpadeEngine::new(WeightedDensity)).collect())
    }

    /// One shard server around each engine.
    pub fn spawn_with(engines: Vec<SpadeEngine<WeightedDensity>>) -> Result<Cluster, String> {
        let services: Vec<Arc<SpadeService>> = engines
            .into_iter()
            .map(|e| Arc::new(SpadeService::spawn(e, None, SHARD_QUEUE)))
            .collect();
        let mut servers = Vec::new();
        for s in &services {
            servers.push(
                ShardServer::spawn(Arc::clone(s), &ShardServerConfig::default())
                    .map_err(|e| e.to_string())?,
            );
        }
        let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
        let router =
            SpadeRouter::connect(&addrs, RouterConfig::default()).map_err(|e| e.to_string())?;
        Ok(Cluster { services, servers, router })
    }

    pub fn close(mut self) -> Result<(), String> {
        let r = self.router.shutdown_shards().map_err(|e| e.to_string());
        for mut s in self.servers.drain(..) {
            s.stop();
        }
        for svc in self.services.drain(..) {
            if let Ok(svc) = Arc::try_unwrap(svc) {
                svc.shutdown();
            }
        }
        r
    }
}

pub fn run(ctx: &Ctx, traced: bool) -> Phase {
    let mut phase = Phase::default();
    let started = Instant::now();
    let mut tr = Tracer::new(traced, started, "router");
    let (mut setups, mut eps, mut global_ms) = (vec![], vec![], vec![]);
    let mut latency: Vec<Vec<f64>> = Vec::new();
    let (mut flush_ms, mut drain_ms, mut repair_ms, mut region) = (vec![], vec![], vec![], vec![]);
    let (mut batches, mut busy, mut replicated) = (0u64, 0u64, 0u64);
    let mut merged: Option<MetricsSnapshot> = None;
    let mut applied_per_shard = [0u64; SHARDS];
    let mut round = 0u64;
    loop {
        let round_start = Instant::now();
        let data = data::grab1(SCALE, data::round_seed(ctx.seed, round));
        let plain = data::all_edges(&data);
        let stream = data::scatter(&plain, data.id_space);
        let t = Instant::now();
        let built = tr.span("router.connect", ROOT, round, Cluster::spawn);
        setups.push(t.elapsed().as_secs_f64());
        let mut c = match built {
            Ok(c) => c,
            Err(e) => {
                phase.check(false, || format!("set-up: {e}"));
                break;
            }
        };

        // Home shard and per-shard sequence number of every edge.
        let mut route = PartitionStrategy::HashBySource.build();
        let mut per_shard = [0u64; SHARDS];
        let home: Vec<(usize, u64)> = stream
            .iter()
            .map(|&(s, d, _)| {
                let k = route.route(s, d, SHARDS);
                per_shard[k] += 1;
                (k, per_shard[k])
            })
            .collect();

        let stop = AtomicBool::new(false);
        let services = c.services.clone();
        let (samples, ing) = std::thread::scope(|s| {
            let stop = &stop;
            let watcher = s.spawn(move || watch(&services, stop));
            let ing = ingest(&mut c, &stream, &mut tr, &mut phase);
            stop.store(true, Ordering::Release);
            (watcher.join().expect("watcher thread"), ing)
        });

        // Latency: due → first sample whose home-shard counter covers it.
        let mut lat = Vec::with_capacity(home.len());
        let mut unreflected = 0;
        for (g, &(k, seq)) in home.iter().enumerate() {
            let at = samples.partition_point(|(_, cur)| cur[k] < seq);
            match samples.get(at) {
                Some(&(t, _)) => lat.push(stats::us(t.saturating_duration_since(ing.due[g]))),
                None => unreflected += 1,
            }
        }
        phase.check(unreflected == 0, || {
            format!("{unreflected} edges never reflected by a published detection")
        });
        latency.push(lat);
        eps.push(stream.len() as f64 / (ing.end - ing.first).as_secs_f64());
        flush_ms.push(ing.flush_ms);
        drain_ms.push(ing.drain_ms);
        repair_ms.extend(ing.repair_ms);

        // Global detection after the drain.
        let mut times = Vec::new();
        let mut answers = Vec::new();
        for i in 0..REPAIRS {
            let t = Instant::now();
            let r = tr.span("router.repair", ROOT, i as u64, || c.router.repair());
            times.push(t.elapsed().as_secs_f64() * 1e3);
            match r {
                Ok(o) => {
                    region.push(o.regions.iter().map(|r| r.vertices).sum::<usize>() as f64);
                    answers.push(Answer::new(&o.members, o.density));
                }
                Err(e) => phase.check(false, || format!("repair after the drain failed: {e}")),
            }
        }
        global_ms.push(median(&times));
        let rs = c.router.stats();
        let applied: u64 = c.services.iter().map(|s| s.stats().updates_applied).sum();
        phase.check(rs.edges_acked == applied && applied == stream.len() as u64, || {
            format!(
                "drain accounting: router acked {}, shards applied {applied}, sent {}",
                rs.edges_acked,
                stream.len()
            )
        });
        batches += rs.batches;
        busy += rs.busy_retries;
        replicated += rs.replicated;
        for (k, s) in c.services.iter().enumerate() {
            applied_per_shard[k] += s.stats().updates_applied;
            let m = s.metrics();
            merged = Some(match merged.take() {
                Some(acc) => acc.merge(&m),
                None => m,
            });
        }
        if let Err(e) = c.close() {
            phase.check(false, || format!("shutdown: {e}"));
        }
        round += 1;
        phase.round_done();
        // The reference runs once the system is gone, so its memory stays
        // out of the system's peak RSS.
        let want = data::solo(&stream);
        for got in answers {
            phase.check(got.matches(&want), || {
                format!(
                    "router-repl: repaired {} != solo engine {}",
                    got.describe(),
                    want.describe()
                )
            });
        }
        if (started.elapsed() + round_start.elapsed()).as_secs_f64() > ctx.seconds {
            break;
        }
    }
    while setups.len() < SETUPS {
        let t = Instant::now();
        let built = tr.span("router.connect", ROOT, setups.len() as u64, Cluster::spawn);
        setups.push(t.elapsed().as_secs_f64());
        match built.map(Cluster::close) {
            Ok(Ok(())) => {}
            Ok(Err(e)) | Err(e) => phase.check(false, || format!("set-up: {e}")),
        }
    }

    let rounds: Vec<&[f64]> = latency.iter().map(Vec::as_slice).collect();
    let (p50, p99, note) = stats::round_tails(&rounds);
    let e = &mut phase.e2e;
    e.set("setup_s", median(&setups), "s", format!("median of {} set-ups", setups.len()));
    e.set(
        "throughput_eps",
        median(&eps),
        "1/s",
        format!("first submit to drain barrier, median of {round} rounds"),
    );
    e.set("latency_p50_us", p50, "us", format!("submit to publish, {note}"));
    e.set("latency_p99_us", p99, "us", format!("submit to publish, {note}"));
    e.set(
        "global_detect_ms",
        median(&global_ms),
        "ms",
        "repair() after the drain barrier, median over rounds",
    );

    let l = &mut phase.layers;
    if let Some(m) = &merged {
        service_layers(m, l);
    }
    let mean = applied_per_shard.iter().sum::<u64>() as f64 / SHARDS as f64;
    let max = applied_per_shard.iter().copied().max().unwrap_or(0) as f64;
    l.set("shard.skew", max / mean.max(1.0), "ratio", "max / mean updates_applied");
    l.set("router.flush_ms", median(&flush_ms), "ms", "flush_batches after ingest");
    l.set("router.drain_ms", median(&drain_ms), "ms", "per-shard barrier after flush");
    l.set(
        "router.repair_ms",
        median(&repair_ms),
        "ms",
        format!("median of {} periodic repairs", repair_ms.len()),
    );
    let per_batch = |n: u64| n as f64 / batches.max(1) as f64;
    l.set("router.busy_retries_per_batch", per_batch(busy), "ratio", format!("{batches} batches"));
    l.set("router.replicated_per_batch", per_batch(replicated), "ratio", "");
    l.set("router.region_vertices", median(&region), "count", "final repair");
    phase.cost_per_edge_s = 1.0 / median(&eps);
    if traced {
        crate::defects::router_frame_bounds(ctx.seed, &mut tr, &mut phase);
    }
    phase.trace.absorb(tr);
    phase
}

/// Samples both shards' published `updates_applied` until `stop`, and
/// once more after it, recording `(time, counters)` whenever they move.
fn watch(services: &[Arc<SpadeService>], stop: &AtomicBool) -> Vec<(Instant, [u64; SHARDS])> {
    let mut samples: Vec<(Instant, [u64; SHARDS])> = Vec::new();
    let mut last = [0u64; SHARDS];
    loop {
        let finished = stop.load(Ordering::Acquire);
        let now = Instant::now();
        let mut cur = [0u64; SHARDS];
        for (k, svc) in services.iter().enumerate() {
            cur[k] = svc.current_detection().updates_applied;
        }
        if cur != last {
            samples.push((now, cur));
            last = cur;
        }
        if finished {
            return samples;
        }
        std::thread::sleep(WATCH_PERIOD);
    }
}

struct Ingest {
    due: Vec<Instant>,
    first: Instant,
    end: Instant,
    flush_ms: f64,
    drain_ms: f64,
    repair_ms: Vec<f64>,
}

/// Replays `stream` through the router with periodic repairs, then
/// flushes and drains every shard.
fn ingest(c: &mut Cluster, stream: &[Edge], tr: &mut Tracer, phase: &mut Phase) -> Ingest {
    let first = Instant::now();
    let mut due = Vec::with_capacity(stream.len());
    let mut repair_ms = Vec::new();
    for (k, &(src, dst, raw)) in stream.iter().enumerate() {
        due.push(Instant::now());
        let r = tr.span("router.submit", ROOT, k as u64, || c.router.submit(src, dst, raw));
        phase.check(r.is_ok(), || format!("router submit #{k}: {:?}", r.as_ref().err()));
        if r.is_err() {
            break;
        }
        if (k + 1) % REPAIR_EVERY == 0 {
            let t = Instant::now();
            let r = tr.span("router.repair", ROOT, k as u64, || c.router.repair());
            repair_ms.push(t.elapsed().as_secs_f64() * 1e3);
            phase.check(r.is_ok(), || {
                format!(
                    "periodic repair after {} edges failed: {:?}",
                    k + 1,
                    r.as_ref().err().map(|e| e.to_string())
                )
            });
        }
    }
    let t = Instant::now();
    let r = tr.span("router.flush", ROOT, 0, || c.router.flush_batches());
    let flush_ms = t.elapsed().as_secs_f64() * 1e3;
    phase.check(r.is_ok(), || format!("flush_batches: {:?}", r.err().map(|e| e.to_string())));
    let t = Instant::now();
    for (k, svc) in c.services.iter().enumerate() {
        let ok = tr.span("service.barrier", ROOT, k as u64, || svc.barrier());
        phase.check(ok, || format!("shard {k} barrier: service shut down"));
    }
    let end = Instant::now();
    Ingest { due, first, end, flush_ms, drain_ms: (end - t).as_secs_f64() * 1e3, repair_ms }
}
