//! `tcp-flood`, `tcp-paced` and `tcp-closed`: a 2-shard
//! `ShardedSpadeService` with hash-by-source routing (the router's
//! policy) behind `SpadeNetServer` on loopback, driven by connections
//! from this process.
//!
//! * `tcp-flood` starts each round from an empty graph. Connection A
//!   replays the stream closed loop with the default `ClientConfig`;
//!   connection B sends every 64th edge of the same stream, one at a
//!   time, each followed by a read-your-acks `Detect`; that edge's
//!   latency (due time → detection reply) is the workload's latency. A
//!   trickle edge is due `TRICKLE_PERIOD` after the previous one was
//!   due, or when the previous `Detect` answered if that is later, so
//!   the trickle never queues behind itself.
//!   Once A is done, B sends the rest of its edges unpaced, so every
//!   round ends on the whole stream.
//! * `tcp-paced` preloads the 90% prefix into the shard engines during
//!   set-up. A sends the increments open loop on a fixed schedule: a
//!   nominal rate, then a short rate ladder. B probes `Detect`
//!   continuously; an edge counts as reflected by the first reply whose
//!   `updates_applied` covers it, and is timed from its due time.
//! * `tcp-closed` preloads the prefix like `tcp-paced`. One connection
//!   sends the increments in a closed loop: each request is one write
//!   holding a one-edge `Batch` frame and a read-your-acks `Detect`
//!   frame, and the next edge is due when the `Detect` reply arrives.
//!   An edge's latency runs from that write to the reply, which must
//!   cover it. A `repair()` is timed after every `REPAIR_EVERY` edges,
//!   and a `SpadeNetClient` `detect()` closes each round. It runs on one
//!   CPU kept from halting (`host::OneBusyCpu`).
//!
//! Rounds repeat on a fresh system and a fresh surrogate until the time
//! is used. Each round ends with a drain barrier and cross-shard
//! `repair()` passes whose answer must equal a solo engine fed the same
//! edges.

use crate::data::{self, Answer, Edge};
use crate::host::OneBusyCpu;
use crate::stats::{self, median, Sheet, Tail};
use crate::trace::{Tracer, ROOT};
use crate::{Ctx, Phase};
use spade_core::service::metric_names as names;
use spade_core::shard::{PartitionStrategy, RepairedDetection, ShardedConfig, ShardedSpadeService};
use spade_core::{SpadeConfig, SpadeEngine, WeightedDensity};
use spade_metrics::MetricsSnapshot;
use spade_net::{read_frame, write_frame, ClientConfig, SpadeNetClient, SpadeNetServer, WireFrame};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
/// Set-ups of an empty front end timed per run (each takes about
/// 0.3 ms, so many are needed for a steady median).
const EMPTY_SETUPS: usize = 100;
/// Set-ups with the prefix preloaded, timed per `tcp-paced` and
/// `tcp-closed` round.
const PRELOAD_SETUPS: usize = 3;
/// `repair()` passes timed per round after the drain.
const REPAIRS: usize = 3;
/// Grab1 at 1%: 90K prefix and 10K increment edges per round.
const SCALE: f64 = 0.01;
/// Increments sent per `tcp-closed` round, one at a time.
const CLOSED_EDGES: usize = 2_000;
/// `tcp-closed` times a `repair()` after every this many edges, so its
/// `global_detect_ms` samples the whole run rather than its ends.
const REPAIR_EVERY: usize = 250;
/// Every this-many-th stream edge goes to the trickle instead.
const TRICKLE_EVERY: usize = 64;
/// Trickle pacing. Under the flood a `Detect` waits 0-40 ms for the
/// backlog; a period just above that samples the flood evenly in time
/// (a reply-paced trickle would sample short waits more often than long
/// ones) while giving about 30 samples per round.
const TRICKLE_PERIOD: Duration = Duration::from_millis(40);
/// Rate at which `tcp-paced` reports its latency (edges/s), and for how
/// long each round sends at it.
const NOMINAL_EPS: f64 = 1_000.0;
const NOMINAL_S: f64 = 2.5;
/// The ladder climbed after the nominal step (edges/s), each rung for
/// `RUNG_S` seconds.
const LADDER_EPS: [f64; 3] = [2_000.0, 4_000.0, 8_000.0];
const RUNG_S: f64 = 0.35;
/// p99 limit a rung must meet to count as sustainable.
const LATENCY_LIMIT_US: f64 = 50_000.0;
/// Generator lateness (p99) beyond which a step is invalid.
const LAG_LIMIT_US: f64 = 10_000.0;
/// Shortest gap between two probes: a reply that is not parked comes
/// back in tens of microseconds, and unthrottled probing would take a
/// CPU from the system under test.
const PROBE_INTERVAL: Duration = Duration::from_micros(250);
/// Longest wait for a drain before it counts as a failure.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

fn config() -> ShardedConfig {
    ShardedConfig {
        shards: SHARDS,
        strategy: PartitionStrategy::HashBySource,
        ..ShardedConfig::default()
    }
}

/// The system under test: the sharded runtime and its TCP front end.
struct Front {
    svc: Arc<ShardedSpadeService>,
    server: SpadeNetServer,
}

impl Front {
    /// Spawns the runtime with `prefix` bootstrapped into the shard that
    /// hash-by-source routing gives each edge, and binds the server.
    fn spawn(prefix: &[Edge]) -> std::io::Result<Front> {
        let mut parts = data::hash_parts(prefix, SHARDS);
        let svc = Arc::new(ShardedSpadeService::spawn_with(config(), |k| {
            SpadeEngine::bootstrap(WeightedDensity, SpadeConfig::default(), parts[k].drain(..))
                .expect("generated edges are well formed")
        }));
        let server = SpadeNetServer::bind(Arc::clone(&svc), "127.0.0.1:0")?;
        Ok(Front { svc, server })
    }

    fn applied(&self) -> u64 {
        self.svc.stats().iter().map(|s| s.service.updates_applied).sum()
    }

    /// Polls until the shards applied every acknowledged edge.
    fn drain(&self) -> bool {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.applied() < self.server.stats().edges_accepted {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        true
    }

    fn close(self) {
        self.server.shutdown();
        if let Ok(svc) = Arc::try_unwrap(self.svc) {
            svc.shutdown();
        }
    }
}

/// Times `count` set-ups (spawn, bind, connect both connections) and
/// keeps the last one.
fn set_up<B>(
    prefix: &[Edge],
    phase: &mut Phase,
    count: usize,
    a_config: ClientConfig,
    connect_b: impl Fn(SocketAddr) -> std::io::Result<B>,
) -> Option<(Front, SpadeNetClient, B, Vec<f64>)> {
    let mut times = Vec::new();
    for i in 0..count {
        let t = Instant::now();
        let built = Front::spawn(prefix).and_then(|front| {
            let addr = front.server.local_addr();
            let a = SpadeNetClient::connect_with(addr, a_config)?;
            let b = connect_b(addr)?;
            Ok((front, a, b))
        });
        times.push(t.elapsed().as_secs_f64());
        match built {
            Ok((front, a, b)) if i + 1 == count => return Some((front, a, b, times)),
            Ok((front, a, b)) => {
                drop((a, b));
                front.close();
            }
            Err(e) => {
                phase.check(false, || format!("set-up: {e}"));
                return None;
            }
        }
    }
    None
}

fn client(addr: SocketAddr) -> std::io::Result<SpadeNetClient> {
    SpadeNetClient::connect_with(addr, ClientConfig::default())
}

fn raw_socket(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let b = TcpStream::connect(addr)?;
    b.set_nodelay(true)?;
    Ok(b)
}

/// Drain, drain accounting and the timed repairs that end every round.
/// Returns the last repaired detection.
fn finish_round(
    front: &Front,
    acked: u64,
    what: &str,
    repair_ms: &mut Vec<f64>,
    tr: &mut Tracer,
    phase: &mut Phase,
) -> RepairedDetection {
    let drained = front.drain();
    phase.check(drained, || format!("{what}: drain barrier timed out"));
    let accepted = front.server.stats().edges_accepted;
    let applied = front.applied();
    phase.check(acked == accepted && accepted == applied, || {
        format!(
            "{what}: clients acked {acked}, server accepted {accepted}, shards applied {applied}"
        )
    });
    let mut times = Vec::new();
    let mut repaired = RepairedDetection::default();
    for i in 0..REPAIRS {
        let t = Instant::now();
        repaired = tr.span("shard.repair", ROOT, i as u64, || front.svc.repair());
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    repair_ms.push(median(&times));
    repaired
}

/// The exactness check, run once the round's system is gone so the
/// reference's memory stays out of the system's peak RSS.
fn check_exact(repaired: &RepairedDetection, applied: &[Edge], what: &str, phase: &mut Phase) {
    let want = data::solo(applied);
    let got = Answer::new(&repaired.detection.members, repaired.detection.density);
    phase.check(got.matches(&want), || {
        format!("{what}: repaired {} != solo engine {}", got.describe(), want.describe())
    });
}

pub fn flood(ctx: &Ctx, traced: bool) -> Phase {
    let mut phase = Phase::default();
    let started = Instant::now();
    let mut tr = Tracer::new(traced, started, "main");
    let (mut setups, mut eps, mut repair_ms) = (vec![], vec![], vec![]);
    let (mut lat, mut lag, mut flush_us, mut detect_us) = (vec![], vec![], vec![], vec![]);
    let (mut busy, mut frames, mut edges) = (0u64, 0u64, 0u64);
    let mut round = 0u64;
    loop {
        let round_start = Instant::now();
        let data = data::grab1(SCALE, data::round_seed(ctx.seed, round));
        let stream = data::all_edges(&data);
        let (mut flood, mut trickle) = (Vec::new(), Vec::new());
        for (i, &e) in stream.iter().enumerate() {
            if i % TRICKLE_EVERY == TRICKLE_EVERY - 1 {
                trickle.push(e);
            } else {
                flood.push(e);
            }
        }
        let Some((front, a, b, times)) =
            set_up(&[], &mut phase, 1, ClientConfig::default(), client)
        else {
            break;
        };
        setups.extend(times);
        let done = AtomicBool::new(false);
        let server = &front.server;
        let (flood, trickle, done) = (&flood, &trickle, &done);
        let (a_out, b_out) = std::thread::scope(|s| {
            let a_thread = s.spawn(move || flood_sender(a, flood, done, traced, started, round));
            let b_thread =
                s.spawn(move || trickle_sender(b, trickle, done, server, traced, started));
            (a_thread.join().expect("flood thread"), b_thread.join().expect("trickle thread"))
        });
        let (mut a, first, a_err, a_tr) = a_out;
        let t = b_out;
        // The read-your-acks barrier: answers once every acked edge applied.
        let barrier = tr.span("net.detect", ROOT, round, || a.detect());
        let end = Instant::now();
        phase.attempted += (stream.len() + t.lat.len()) as u64;
        phase.failures.extend(a_err.into_iter().chain(t.err).chain(t.stale));
        phase.check(barrier.is_ok(), || format!("flood barrier: {:?}", barrier.err()));
        eps.push(stream.len() as f64 / (end - first).as_secs_f64());
        lat.extend(t.lat);
        lag.extend(t.lag);
        flush_us.extend(t.flush_us);
        detect_us.extend(t.detect_us);
        let sb = t.client.as_ref().map(|c| c.stats()).unwrap_or_default();
        let sa = a.stats();
        busy += sa.busy_replies + sb.busy_replies;
        frames += sa.frames_sent + sb.frames_sent;
        edges += stream.len() as u64;
        let acked = sa.edges_acked + sb.edges_acked;
        let repaired =
            finish_round(&front, acked, "tcp-flood", &mut repair_ms, &mut tr, &mut phase);
        runtime_layers(&front, &repaired, &mut phase.layers);
        drop((a, t.client));
        front.close();
        phase.trace.absorb(a_tr);
        phase.trace.absorb(t.tr);
        round += 1;
        phase.round_done();
        check_exact(&repaired, &stream, "tcp-flood", &mut phase);
        if (started.elapsed() + round_start.elapsed()).as_secs_f64() > ctx.seconds {
            break;
        }
    }
    if let Some((front, a, b, times)) =
        set_up(&[], &mut phase, EMPTY_SETUPS, ClientConfig::default(), raw_socket)
    {
        setups.extend(times);
        drop((a, b));
        front.close();
    }

    let lat_t = Tail::of(&lat);
    let e = &mut phase.e2e;
    e.set("setup_s", median(&setups), "s", format!("median of {} set-ups", setups.len()));
    e.set("throughput_eps", median(&eps), "1/s", format!("median of {round} rounds of 100K edges"));
    e.set("latency_p50_us", lat_t.p50, "us", format!("trickle, n={}", lat_t.count));
    e.set(
        "latency_p99_us",
        lat_t.tail,
        "us",
        format!("trickle {} of n={}", lat_t.tail_label(), lat_t.count),
    );
    e.set("global_detect_ms", median(&repair_ms), "ms", "repair() after drain, median over rounds");

    let l = &mut phase.layers;
    l.tail("net.flush_rtt_us", &flush_us, "us");
    l.tail("net.detect_rtt_us", &detect_us, "us");
    let per_edge = |n: u64| n as f64 / edges.max(1) as f64;
    l.set("net.busy_per_edge", per_edge(busy), "ratio", format!("{busy} Busy replies"));
    l.set("net.frames_per_edge", per_edge(frames), "ratio", format!("{frames} frames"));
    l.set("loadgen.lag_us.p99", Tail::of(&lag).tail, "us", "trickle send - due");
    phase.cost_per_edge_s = 1.0 / median(&eps);
    phase.trace.absorb(tr);
    phase
}

/// Connection A of `tcp-flood`: the whole flood, then one flush.
fn flood_sender(
    mut a: SpadeNetClient,
    flood: &[Edge],
    done: &AtomicBool,
    traced: bool,
    started: Instant,
    round: u64,
) -> (SpadeNetClient, Instant, Option<String>, Tracer) {
    let mut tr = Tracer::new(traced, started, "flood");
    let first = Instant::now();
    let mut r = Ok(());
    for (k, &(src, dst, raw)) in flood.iter().enumerate() {
        r = r.and_then(|_| tr.span("net.submit", ROOT, k as u64, || a.submit(src, dst, raw)));
    }
    let r = r.and_then(|_| tr.span("net.flush", ROOT, round, || a.flush()));
    done.store(true, Ordering::Release);
    (a, first, r.err().map(|e| format!("flood: {e}")), tr)
}

/// What the trickle connection measured in one round.
struct Trickle {
    /// The connection, handed back when the round ends.
    client: Option<SpadeNetClient>,
    lat: Vec<f64>,
    lag: Vec<f64>,
    flush_us: Vec<f64>,
    detect_us: Vec<f64>,
    stale: Vec<String>,
    err: Option<String>,
    tr: Tracer,
}

/// Connection B of `tcp-flood`: one edge at a time, each flushed and
/// followed by a read-your-acks `Detect`, while the flood runs.
fn trickle_sender(
    mut b: SpadeNetClient,
    trickle: &[Edge],
    done: &AtomicBool,
    server: &SpadeNetServer,
    traced: bool,
    started: Instant,
) -> Trickle {
    let mut t = Trickle {
        client: None,
        lat: vec![],
        lag: vec![],
        flush_us: vec![],
        detect_us: vec![],
        stale: vec![],
        err: None,
        tr: Tracer::new(traced, started, "trickle"),
    };
    let mut due = Instant::now();
    let mut paced = 0;
    for (j, &(src, dst, raw)) in trickle.iter().enumerate() {
        if done.load(Ordering::Acquire) {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let send = Instant::now();
        t.lag.push(stats::us(send.saturating_duration_since(due)));
        // The Detect's watermark is at least every edge accepted before
        // this one, plus this one.
        let watermark = server.stats().edges_accepted + 1;
        let id = j as u64;
        let flushed =
            b.submit(src, dst, raw).and_then(|_| t.tr.span("net.flush", ROOT, id, || b.flush()));
        let acked = Instant::now();
        let reply = flushed.and_then(|_| t.tr.span("net.detect", ROOT, id, || b.detect()));
        let back = Instant::now();
        match reply {
            Ok(reply) => {
                paced += 1;
                t.flush_us.push(stats::us(acked - send));
                t.detect_us.push(stats::us(back - acked));
                t.lat.push(stats::us(back - due));
                due = (due + TRICKLE_PERIOD).max(back);
                if reply.updates_applied < watermark {
                    t.stale.push(format!(
                        "stale Detect for trickle edge #{j}: updates_applied {} < watermark {watermark}",
                        reply.updates_applied
                    ));
                }
            }
            Err(e) => {
                t.err = Some(format!("trickle edge #{j}: {e}"));
                break;
            }
        }
    }
    // The rest of the trickle goes unpaced and untimed, so every round
    // ends on the whole stream.
    if t.err.is_none() {
        let rest = trickle[paced..].iter().try_for_each(|&(s, d, w)| b.submit(s, d, w));
        if let Err(e) = rest.and_then(|_| b.flush()) {
            t.err = Some(format!("trickle remainder: {e}"));
        }
    }
    t.client = Some(b);
    t
}

pub fn closed(ctx: &Ctx, traced: bool) -> Phase {
    // The traced run first climbs `tcp-paced`'s rate ladder once, on
    // both CPUs, for the open-loop figures a closed loop cannot give.
    let ladder = traced.then(|| paced(&Ctx { seconds: 0.0, ..*ctx }, true));
    let busy_cpu = OneBusyCpu::start();
    match &busy_cpu {
        Some(b) => println!("tcp-closed: on CPU {} with an idle-priority spinner", b.cpu),
        None => println!("FLAG: tcp-closed could not keep one CPU busy; its latency follows the host's steal time"),
    }
    let mut phase = Phase::default();
    let started = Instant::now();
    let mut tr = Tracer::new(traced, started, "main");
    let (mut setups, mut eps, mut repair_ms) = (vec![], vec![], vec![]);
    let (mut lat, mut ack_us, mut detect_us) = (vec![], vec![], vec![]);
    let mut round = 0u64;
    loop {
        let round_start = Instant::now();
        let data = data::grab1(SCALE, data::round_seed(ctx.seed, round));
        let prefix = data::edges(&data.initial);
        let inc = data::edges(&data.increments);
        let inc = &inc[..CLOSED_EDGES.min(inc.len())];
        let Some((front, mut a, mut b, times)) =
            set_up(&prefix, &mut phase, PRELOAD_SETUPS, ClientConfig::default(), raw_socket)
        else {
            break;
        };
        setups.extend(times);
        let mut round_lat = Vec::with_capacity(inc.len());
        let mut paused = Duration::ZERO;
        let first = Instant::now();
        for (k, &edge) in inc.iter().enumerate() {
            let id = k as u64;
            let sent = Instant::now();
            let reply = tr.span("net.request", ROOT, id, || edge_then_detect(&mut b, edge));
            let back = Instant::now();
            match reply {
                Ok((acked, reply)) => {
                    ack_us.push(stats::us(acked - sent));
                    detect_us.push(stats::us(back - acked));
                    round_lat.push(stats::us(back - sent));
                    // Only this connection submits: the reply must cover
                    // every increment up to and including this one.
                    phase.check(reply.updates_applied > id, || {
                        format!(
                            "stale Detect for edge #{k}: updates_applied {} <= {id}",
                            reply.updates_applied
                        )
                    });
                }
                Err(e) => {
                    phase.check(false, || format!("tcp-closed edge #{k}: {e}"));
                    break;
                }
            }
            // Every edge so far is applied, so a repair now is exact for
            // the graph as it stands; its time is left out of the loop's.
            if (k + 1) % REPAIR_EVERY == 0 {
                let t = Instant::now();
                tr.span("shard.repair", ROOT, id, || front.svc.repair());
                paused += t.elapsed();
                repair_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        let sent = round_lat.len();
        eps.push(sent as f64 / (first.elapsed() - paused).as_secs_f64());
        lat.push(round_lat);
        // The client's read-your-acks barrier closes the round.
        let barrier = tr.span("net.detect", ROOT, round, || a.detect());
        phase.check(matches!(&barrier, Ok(d) if d.updates_applied >= sent as u64), || {
            format!("tcp-closed barrier after {sent} edges: {barrier:?}")
        });
        let repaired =
            finish_round(&front, sent as u64, "tcp-closed", &mut repair_ms, &mut tr, &mut phase);
        runtime_layers(&front, &repaired, &mut phase.layers);
        drop((a, b));
        front.close();
        round += 1;
        phase.round_done();
        let applied: Vec<Edge> = prefix.iter().chain(&inc[..sent]).copied().collect();
        check_exact(&repaired, &applied, "tcp-closed", &mut phase);
        if (started.elapsed() + round_start.elapsed()).as_secs_f64() > ctx.seconds {
            break;
        }
    }

    let rounds: Vec<&[f64]> = lat.iter().map(Vec::as_slice).collect();
    let (p50, p99, note) = stats::round_tails(&rounds);
    let e = &mut phase.e2e;
    e.set(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {} set-ups with preload", setups.len()),
    );
    e.set("throughput_eps", median(&eps), "1/s", format!("median of {round} rounds"));
    e.set("latency_p50_us", p50, "us", format!("edge sent -> covering Detect reply, {note}"));
    e.set("latency_p99_us", p99, "us", format!("edge sent -> covering Detect reply, {note}"));
    e.set(
        "global_detect_ms",
        median(&repair_ms),
        "ms",
        format!("repair(), median of {} passes through the rounds", repair_ms.len()),
    );

    let l = &mut phase.layers;
    l.tail("net.flush_rtt_us", &ack_us, "us");
    l.tail("net.detect_rtt_us", &detect_us, "us");
    // Each edge is one `Batch` and one `Detect` frame; a `Busy` reply
    // would have failed the edge, so none was seen.
    let edges: usize = lat.iter().map(Vec::len).sum();
    l.set("net.busy_per_edge", 0.0, "ratio", format!("{edges} edges"));
    l.set("net.frames_per_edge", 2.0, "ratio", "edge frame + Detect frame");
    phase.cost_per_edge_s = 1.0 / median(&eps);
    if traced {
        crate::defects::default_partition(ctx.seed, &mut tr, &mut phase);
    }
    if let Some(b) = busy_cpu {
        b.stop();
    }
    if let Some(ladder) = ladder {
        adopt_ladder(ladder, &mut phase);
    }
    phase.trace.absorb(tr);
    phase
}

/// Moves the open-loop figures of one `tcp-paced` round, and its
/// operations and failures, into the `tcp-closed` phase. Its spans stay
/// out: they were timed from another epoch.
fn adopt_ladder(mut ladder: Phase, phase: &mut Phase) {
    for name in ["sustainable_eps", "loadgen.lag_us.p99", "loadgen.behind_rounds"] {
        if let Some(mut m) = ladder.layers.metrics.remove(name) {
            m.note = format!("one tcp-paced round; {}", m.note);
            phase.layers.metrics.insert(name.to_string(), m);
        }
    }
    phase.attempted += ladder.attempted;
    phase.failures.append(&mut ladder.failures);
}

/// One `tcp-closed` request: a one-edge `Batch` frame and a `Detect`
/// frame in a single write, then their two replies. The `Detect` is
/// read-your-acks, so it reflects the edge. Returns when the ack
/// arrived and the detection; any other reply is an error.
fn edge_then_detect(
    b: &mut TcpStream,
    (src, dst, raw): Edge,
) -> Result<(Instant, spade_net::DetectionReply), String> {
    let mut out = Vec::new();
    write_frame(&mut out, &WireFrame::Batch { edges: vec![(src, dst, raw)] })
        .and_then(|_| write_frame(&mut out, &WireFrame::Detect))
        .and_then(|_| b.write_all(&out))
        .map_err(|e| e.to_string())?;
    match read_frame(b).map_err(|e| e.to_string())? {
        Some(WireFrame::Ack { accepted: 1 }) => {}
        other => return Err(format!("expected the edge's Ack, got {other:?}")),
    }
    let acked = Instant::now();
    match read_frame(b).map_err(|e| e.to_string())? {
        Some(WireFrame::Detection(d)) => Ok((acked, d)),
        other => Err(format!("expected a Detection, got {other:?}")),
    }
}

pub fn paced(ctx: &Ctx, traced: bool) -> Phase {
    let mut phase = Phase::default();
    let started = Instant::now();
    let mut tr = Tracer::new(traced, started, "main");
    // The schedule of every round: the nominal step, then the ladder.
    // One-edge frames: an edge leaves the moment it is due.
    let one_edge_frames = ClientConfig { batch: 1, ..ClientConfig::default() };
    let mut steps = vec![(NOMINAL_EPS, (NOMINAL_EPS * NOMINAL_S) as usize)];
    steps.extend(LADDER_EPS.iter().map(|&r| (r, (r * RUNG_S) as usize)));
    let (mut setups, mut eps, mut repair_ms, mut sustainable) = (vec![], vec![], vec![], vec![]);
    let (mut nominal, mut nominal_lag, mut flush_us, mut probe_us) =
        (vec![], vec![], vec![], vec![]);
    let (mut busy, mut frames, mut edges, mut behind) = (0u64, 0u64, 0u64, 0u64);
    let mut round = 0u64;
    loop {
        let round_start = Instant::now();
        let data = data::grab1(SCALE, data::round_seed(ctx.seed, round));
        let prefix = data::edges(&data.initial);
        let inc = data::edges(&data.increments);
        let Some((front, a, b, times)) =
            set_up(&prefix, &mut phase, PRELOAD_SETUPS, one_edge_frames, raw_socket)
        else {
            break;
        };
        setups.extend(times);
        let covered = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        let server = &front.server;
        let (inc_ref, steps_ref, covered, stop) = (&inc, &steps, &covered, &stop);
        let (s, p) = std::thread::scope(|sc| {
            let a_thread = sc
                .spawn(move || paced_sender(a, inc_ref, steps_ref, covered, stop, traced, started));
            let b_thread = sc.spawn(move || prober(b, server, covered, stop, traced, started));
            (a_thread.join().expect("paced thread"), b_thread.join().expect("probe thread"))
        });
        let sent = s.due.len();
        phase.attempted += (sent + p.probes.len()) as u64;
        phase.failures.extend(s.err.into_iter().chain(p.err).chain(p.stale));

        // Edge g is reflected by the first probe whose updates_applied > g.
        let mut latency: Vec<Vec<f64>> = vec![Vec::new(); steps.len()];
        let mut lags: Vec<Vec<f64>> = vec![Vec::new(); steps.len()];
        let mut unreflected = 0;
        for (g, (&due, &si)) in s.due.iter().zip(&s.step_of).enumerate() {
            let at = p.probes.partition_point(|&(_, u)| u <= g as u64);
            match p.probes.get(at) {
                Some(&(t, _)) => latency[si].push(stats::us(t.saturating_duration_since(due))),
                None => unreflected += 1,
            }
            lags[si].push(s.lag[g]);
        }
        phase
            .check(unreflected == 0, || format!("{unreflected} edges never reflected by a Detect"));
        sustainable.push(climb(&steps, &latency, &lags));
        let lag_p99 = Tail::of(&lags[0]).tail;
        if lag_p99 > LAG_LIMIT_US {
            // Latency runs from the due time, so the lateness is inside
            // it, not hidden; the flag says the load was not as offered.
            println!("FLAG: round {round}: the generator fell behind at the nominal rate (lag p99 {lag_p99:.0} us); its latency includes that lateness");
            behind += 1;
        }
        // Throughput of the nominal step: its edges over first due → the
        // probe that covered its last edge.
        let n0 = latency[0].len();
        if let (Some(&d0), Some(&(t, _))) =
            (s.due.first(), p.probes.iter().find(|&&(_, u)| u >= n0 as u64))
        {
            eps.push(n0 as f64 / (t - d0).as_secs_f64());
        }
        nominal.push(std::mem::take(&mut latency[0]));
        nominal_lag.append(&mut lags[0]);
        flush_us.extend(s.flush_us);
        probe_us.extend(p.rtt);
        let st = s.client.as_ref().map(|c| c.stats()).unwrap_or_default();
        busy += st.busy_replies;
        frames += st.frames_sent;
        edges += sent as u64;

        let repaired =
            finish_round(&front, st.edges_acked, "tcp-paced", &mut repair_ms, &mut tr, &mut phase);
        runtime_layers(&front, &repaired, &mut phase.layers);
        drop(s.client);
        front.close();
        phase.trace.absorb(s.tr);
        phase.trace.absorb(p.tr);
        round += 1;
        phase.round_done();
        let applied: Vec<Edge> = prefix.iter().chain(&inc[..sent]).copied().collect();
        check_exact(&repaired, &applied, "tcp-paced", &mut phase);
        if (started.elapsed() + round_start.elapsed()).as_secs_f64() > ctx.seconds {
            break;
        }
    }

    let rounds: Vec<&[f64]> = nominal.iter().map(Vec::as_slice).collect();
    let (p50, p99, note) = stats::round_tails(&rounds);
    let e = &mut phase.e2e;
    e.set(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {} set-ups with preload", setups.len()),
    );
    e.set(
        "throughput_eps",
        median(&eps),
        "1/s",
        format!("nominal step to reflection, median of {round} rounds"),
    );
    e.set("latency_p50_us", p50, "us", format!("at {NOMINAL_EPS} edges/s, {note}"));
    e.set("latency_p99_us", p99, "us", format!("at {NOMINAL_EPS} edges/s, {note}"));
    e.set("global_detect_ms", median(&repair_ms), "ms", "repair() after drain, median over rounds");

    let l = &mut phase.layers;
    l.tail("net.flush_rtt_us", &flush_us, "us");
    l.tail("net.detect_rtt_us", &probe_us, "us");
    let per_edge = |n: u64| n as f64 / edges.max(1) as f64;
    l.set("net.busy_per_edge", per_edge(busy), "ratio", format!("{busy} Busy replies"));
    l.set("net.frames_per_edge", per_edge(frames), "ratio", "generator frames");
    l.set("loadgen.lag_us.p99", Tail::of(&nominal_lag).tail, "us", "nominal step, send - due");
    l.set(
        "loadgen.behind_rounds",
        behind as f64,
        "count",
        format!("of {round} rounds over {LAG_LIMIT_US} us lag p99"),
    );
    l.set(
        "sustainable_eps",
        median(&sustainable),
        "1/s",
        format!("median over {round} ladders; p99 limit {LATENCY_LIMIT_US} us"),
    );
    phase.cost_per_edge_s = 1.0 / median(&eps);
    phase.trace.absorb(tr);
    phase
}

/// The highest rate, climbing in order, whose p99 stays under the limit
/// with the generator on time and no backlog growth (the last quarter's
/// median latency at most twice the first quarter's, plus 1 ms).
fn climb(steps: &[(f64, usize)], latency: &[Vec<f64>], lags: &[Vec<f64>]) -> f64 {
    let mut sustainable = 0.0;
    for (si, &(rate, _)) in steps.iter().enumerate() {
        let t = Tail::of(&latency[si]);
        let lag = Tail::of(&lags[si]).tail;
        let q = latency[si].len() / 4;
        let growing =
            q > 0 && median(&latency[si][3 * q..]) > 2.0 * median(&latency[si][..q]) + 1_000.0;
        let ok = t.count > 0 && t.tail <= LATENCY_LIMIT_US && lag <= LAG_LIMIT_US && !growing;
        println!(
            "  step {rate:>6} edges/s: n={} p50 {:.0} us {} {:.0} us, lag p99 {lag:.0} us{}{}",
            t.count,
            t.p50,
            t.tail_label(),
            t.tail,
            if growing { ", backlog growing" } else { "" },
            if ok { "" } else { " -> not sustainable" }
        );
        if !ok {
            break;
        }
        sustainable = rate;
    }
    sustainable
}

/// What the open-loop generator did in one round.
struct Sent {
    client: Option<SpadeNetClient>,
    /// Due time and schedule step of every edge sent, in send order.
    due: Vec<Instant>,
    step_of: Vec<usize>,
    /// Send time minus due time (us), per edge.
    lag: Vec<f64>,
    flush_us: Vec<f64>,
    err: Option<String>,
    tr: Tracer,
}

/// Connection A of `tcp-paced`: sends every edge at its due time as a
/// one-edge frame (the client keeps up to its pipeline depth of frames
/// in flight without waiting for their acks), step by step, flushing
/// and letting each step drain before the next.
fn paced_sender(
    mut a: SpadeNetClient,
    inc: &[Edge],
    steps: &[(f64, usize)],
    covered: &AtomicU64,
    stop: &AtomicBool,
    traced: bool,
    started: Instant,
) -> Sent {
    let mut out = Sent {
        client: None,
        due: vec![],
        step_of: vec![],
        lag: vec![],
        flush_us: vec![],
        err: None,
        tr: Tracer::new(traced, started, "paced"),
    };
    'steps: for (si, &(rate, n)) in steps.iter().enumerate() {
        let base = out.due.len();
        let n = n.min(inc.len() - base);
        let origin = Instant::now() + Duration::from_millis(5);
        let due_at = |k: usize| origin + Duration::from_secs_f64(k as f64 / rate);
        let mut k = 0;
        while k < n {
            let now = Instant::now();
            if due_at(k) > now {
                std::thread::sleep(due_at(k) - now);
                continue;
            }
            let mut m = k;
            while m < n && m - k < 512 && due_at(m) <= now {
                m += 1;
            }
            let send = Instant::now();
            for j in k..m {
                let (src, dst, raw) = inc[base + j];
                out.due.push(due_at(j));
                out.step_of.push(si);
                out.lag.push(stats::us(send.saturating_duration_since(due_at(j))));
                let r =
                    out.tr.span("net.submit", ROOT, (base + j) as u64, || a.submit(src, dst, raw));
                if let Err(e) = r {
                    out.err = Some(format!("paced send: {e}"));
                    break 'steps;
                }
            }
            k = m;
        }
        let t = Instant::now();
        if let Err(e) = out.tr.span("net.flush", ROOT, si as u64, || a.flush()) {
            out.err = Some(format!("paced flush: {e}"));
            break;
        }
        out.flush_us.push(stats::us(t.elapsed()));
        let wait = Instant::now() + DRAIN_TIMEOUT;
        while covered.load(Ordering::Acquire) < out.due.len() as u64 && Instant::now() < wait {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    stop.store(true, Ordering::Release);
    out.client = Some(a);
    out
}

/// What the probing connection saw in one round.
struct Probes {
    /// (reply time, updates_applied) of every Detect, in order.
    probes: Vec<(Instant, u64)>,
    rtt: Vec<f64>,
    stale: Vec<String>,
    err: Option<String>,
    tr: Tracer,
}

/// Connection B of `tcp-paced`: read-your-acks `Detect` frames on a raw
/// socket, at most one per `PROBE_INTERVAL`, until the generator is done.
fn prober(
    mut b: TcpStream,
    server: &SpadeNetServer,
    covered: &AtomicU64,
    stop: &AtomicBool,
    traced: bool,
    started: Instant,
) -> Probes {
    let mut out = Probes {
        probes: vec![],
        rtt: vec![],
        stale: vec![],
        err: None,
        tr: Tracer::new(traced, started, "probe"),
    };
    let mut id = 0u64;
    let mut next = Instant::now();
    while !stop.load(Ordering::Acquire) {
        let now = Instant::now();
        if next > now {
            std::thread::sleep(next - now);
        }
        // The reply must cover at least every edge accepted before it.
        let watermark = server.stats().edges_accepted;
        let send = Instant::now();
        next = send + PROBE_INTERVAL;
        let span = out.tr.begin("net.detect", ROOT, id);
        let reply = write_frame(&mut b, &WireFrame::Detect)
            .map_err(|e| e.to_string())
            .and_then(|_| read_frame(&mut b).map_err(|e| e.to_string()));
        out.tr.end(span);
        let back = Instant::now();
        id += 1;
        match reply {
            Ok(Some(WireFrame::Detection(d))) => {
                out.rtt.push(stats::us(back - send));
                out.probes.push((back, d.updates_applied));
                covered.fetch_max(d.updates_applied, Ordering::AcqRel);
                if d.updates_applied < watermark {
                    out.stale.push(format!(
                        "stale Detect probe #{id}: updates_applied {} < watermark {watermark}",
                        d.updates_applied
                    ));
                }
            }
            other => {
                out.err = Some(format!("probe #{id}: unexpected reply {other:?}"));
                stop.store(true, Ordering::Release);
            }
        }
    }
    out
}

/// Service, shard and reactor metrics read from the runtime's own
/// registries after the drain.
fn runtime_layers(front: &Front, repaired: &RepairedDetection, l: &mut Sheet) {
    service_layers(&front.svc.metrics(), l);
    let applied: Vec<f64> =
        front.svc.stats().iter().map(|s| s.service.updates_applied as f64).collect();
    let mean = applied.iter().sum::<f64>() / applied.len().max(1) as f64;
    let max = applied.iter().copied().fold(0.0, f64::max);
    l.set(
        "shard.skew",
        if mean > 0.0 { max / mean } else { 0.0 },
        "ratio",
        "max / mean updates_applied",
    );
    let rs = front.svc.repair_stats();
    l.set("shard.repair_ms", rs.last_pass_ns as f64 / 1e6, "ms", "last repair pass (RepairStats)");
    let region: usize = repaired.regions.iter().map(|r| r.vertices).sum();
    l.set(
        "shard.repair_region_vertices",
        region as f64,
        "count",
        format!("{} regions", repaired.regions.len()),
    );
    let net = front.server.metrics();
    let counter = |n: &str| net.counters.get(n).copied().unwrap_or(0) as f64;
    l.set("net.reactor_wakeups", counter("spade_net_reactor_wakeups_total"), "count", "");
    l.set("net.budget_exhausted", counter("spade_net_reactor_budget_exhausted_total"), "count", "");
}

/// The worker-stage metrics of the `service` layer from a merged
/// registry snapshot.
pub fn service_layers(m: &MetricsSnapshot, l: &mut Sheet) {
    let h = |n: &str| m.histograms.get(n).cloned().unwrap_or_default();
    let c = |n: &str| m.counters.get(n).copied().unwrap_or(0) as f64;
    let (wait, reorder, publish, batch) = (
        h(names::STAGE_QUEUE_WAIT_NS),
        h(names::STAGE_REORDER_NS),
        h(names::STAGE_PUBLISH_NS),
        h(names::COALESCE_BATCH_SIZE),
    );
    let note = |n: u64| format!("registry histogram, n={n}");
    l.set("service.queue_wait_ns.p50", wait.p50() as f64, "ns", note(wait.count));
    l.set("service.queue_wait_ns.p99", wait.p99() as f64, "ns", note(wait.count));
    l.set("service.reorder_ns.p50", reorder.p50() as f64, "ns", note(reorder.count));
    l.set("service.reorder_ns.p99", reorder.p99() as f64, "ns", note(reorder.count));
    l.set("service.publish_ns.p99", publish.p99() as f64, "ns", note(publish.count));
    l.set("service.batch_edges.p50", batch.p50() as f64, "count", note(batch.count));
    l.set("service.batch_edges.p99", batch.p99() as f64, "count", note(batch.count));
    let updates = c(names::UPDATES_TOTAL);
    l.set(
        "service.publishes_per_edge",
        c(names::PUBLISHES_TOTAL) / updates.max(1.0),
        "ratio",
        format!("{updates} updates"),
    );
    l.set("service.rejected", c(names::REJECTED_TOTAL), "count", "");
    l.set("service.deadline_miss", c(names::DEADLINE_MISS_TOTAL), "count", "");
}
