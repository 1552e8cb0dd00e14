//! The Spade benchmark: one command, five workloads, every end-to-end
//! and per-layer metric by name and unit, with correctness checks.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <engine-grab1|tcp-closed|tcp-flood|tcp-paced|router-repl> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs the workload twice, untraced then traced, each for
//! half the time; it reports the per-layer metrics of the traced half,
//! each layer's self time, and the tracing overhead (traced minus
//! untraced cost per edge). Spans go to `perfbench/traces/<workload>.jsonl`.
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--write-manifest` regenerates `BENCHMARK.json` from the metric and
//! workload lists below instead of running anything.

mod data;
mod defects;
mod engine_wl;
mod host;
mod router_wl;
mod stats;
mod tcp_wl;
mod trace;

use stats::Sheet;
use std::time::Instant;
use trace::Trace;

/// Seconds one run measures (the manifest's `run_seconds`).
const RUN_SECONDS: u64 = 40;

/// `(name, in the manifest, why)` of every workload. `tcp-flood` and
/// `tcp-paced` run by hand only: on the 2-vCPU host their latency
/// follows the hypervisor's steal time too closely to gate a change on
/// (see README.md).
const WORKLOADS: &[(&str, bool, &str)] = &[
    (
        "engine-grab1",
        true,
        "bootstrap plus closed-loop insert_edge on one engine: the paper's section 4.2 reorder and detection with no queue, wire or shard work",
    ),
    (
        "tcp-closed",
        true,
        "closed loop of one edge plus its read-your-acks Detect per write on a preloaded 2-shard TCP front end: the wire, reactor, queue, apply and publish path",
    ),
    (
        "tcp-flood",
        false,
        "closed-loop firehose plus a paced read-your-acks trickle on one 2-shard TCP front end: saturates admission and shows trickle starvation",
    ),
    (
        "tcp-paced",
        false,
        "open-loop increments on a fixed schedule and a rate ladder into a preloaded TCP front end: the latency path below capacity",
    ),
    (
        "router-repl",
        true,
        "replicate-first router over 2 shard servers with sparse ids and periodic repair: protocol v3 journaling and union re-peel",
    ),
];

/// `(name, unit, better, bound)` of every end-to-end metric.
const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("throughput_eps", "1/s", "higher", 0.25),
    ("latency_p50_us", "us", "lower", 0.25),
    ("latency_p99_us", "us", "lower", 0.25),
    ("global_detect_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
];

/// `(name, unit, better)` of every per-layer metric.
const PER_LAYER: &[(&str, &str, &str)] = &[
    ("engine.bootstrap_s", "s", "lower"),
    ("engine.insert_us.p50", "us", "lower"),
    ("engine.insert_us.p99", "us", "lower"),
    ("engine.moved_per_insert", "count", "lower"),
    ("engine.queued_per_insert", "count", "lower"),
    ("engine.edges_scanned_per_insert", "count", "lower"),
    ("engine.windows_per_insert", "count", "lower"),
    ("engine.affected_edge_frac", "ratio", "lower"),
    ("engine.static_peel_ms", "ms", "lower"),
    ("engine.speedup", "ratio", "higher"),
    ("engine.self_ms", "ms", "lower"),
    ("service.queue_wait_ns.p50", "ns", "lower"),
    ("service.queue_wait_ns.p99", "ns", "lower"),
    ("service.reorder_ns.p50", "ns", "lower"),
    ("service.reorder_ns.p99", "ns", "lower"),
    ("service.publish_ns.p99", "ns", "lower"),
    ("service.batch_edges.p50", "count", "higher"),
    ("service.batch_edges.p99", "count", "higher"),
    ("service.publishes_per_edge", "ratio", "lower"),
    ("service.rejected", "count", "lower"),
    ("service.deadline_miss", "count", "lower"),
    ("service.self_ms", "ms", "lower"),
    ("shard.repair_ms", "ms", "lower"),
    ("shard.repair_region_vertices", "count", "lower"),
    ("shard.skew", "ratio", "lower"),
    ("shard.submit_batch_us.p99", "us", "lower"),
    ("shard.default_partition_exact", "count", "higher"),
    ("shard.self_ms", "ms", "lower"),
    ("net.flush_rtt_us.p50", "us", "lower"),
    ("net.flush_rtt_us.p99", "us", "lower"),
    ("net.detect_rtt_us.p50", "us", "lower"),
    ("net.detect_rtt_us.p99", "us", "lower"),
    ("net.busy_per_edge", "ratio", "lower"),
    ("net.frames_per_edge", "ratio", "lower"),
    ("net.reactor_wakeups", "count", "lower"),
    ("net.budget_exhausted", "count", "lower"),
    ("net.self_ms", "ms", "lower"),
    ("router.flush_ms", "ms", "lower"),
    ("router.drain_ms", "ms", "lower"),
    ("router.repair_ms", "ms", "lower"),
    ("router.busy_retries_per_batch", "ratio", "lower"),
    ("router.replicated_per_batch", "ratio", "lower"),
    ("router.region_vertices", "count", "lower"),
    ("router.repair_fails_at_3pct", "count", "lower"),
    ("router.self_ms", "ms", "lower"),
    ("loadgen.lag_us.p99", "us", "lower"),
    ("loadgen.behind_rounds", "count", "lower"),
    ("loadgen.self_ms", "ms", "lower"),
    ("sustainable_eps", "1/s", "higher"),
    ("error_rate", "ratio", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
];

/// The run's parameters, as given on the command line.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
}

/// What one measured phase of a workload produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// End-to-end metrics.
    pub e2e: Sheet,
    /// Per-layer metrics (meaningful when the phase was traced).
    pub layers: Sheet,
    /// Spans of a traced phase.
    pub trace: Trace,
    /// Operations attempted (edges, requests, repairs, checks).
    pub attempted: u64,
    /// Failures among them, each described in `failures`.
    pub failures: Vec<String>,
    /// Wall seconds per edge of the measured ingest; the tracing
    /// overhead compares it between the untraced and traced phases.
    pub cost_per_edge_s: f64,
    /// Peak RSS (MiB) when the first round ended. Later rounds repeat
    /// the same work on a fresh system; what they add to the peak is the
    /// allocator's reuse of freed memory, which only adds noise.
    pub first_round_rss_mb: f64,
}

impl Phase {
    /// Marks the end of a round: records the peak RSS after the first.
    pub fn round_done(&mut self) {
        if self.first_round_rss_mb == 0.0 {
            self.first_round_rss_mb = stats::peak_rss_mb();
        }
    }

    /// Counts one operation; records a failure when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

type Workload = fn(&Ctx, bool) -> Phase;

fn workload(name: &str) -> Option<Workload> {
    match name {
        "engine-grab1" => Some(engine_wl::run),
        "tcp-flood" => Some(tcp_wl::flood),
        "tcp-paced" => Some(tcp_wl::paced),
        "tcp-closed" => Some(tcp_wl::closed),
        "router-repl" => Some(router_wl::run),
        _ => None,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, RUN_SECONDS as f64, false);
    while let Some(flag) = it.next() {
        if flag == "--write-manifest" {
            write_manifest().map_err(|e| format!("writing BENCHMARK.json: {e}"))?;
            std::process::exit(0);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(run) = workload(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        eprintln!("perfbench: unknown workload {} (one of {})", args.workload, names.join(", "));
        std::process::exit(2);
    };
    let ctx = Ctx { seed: args.seed, seconds: args.seconds };
    let started = Instant::now();
    let steal_before = host::cpu_steal();
    let (sheet, attempted, failures) = if args.trace {
        traced(run, &ctx, &args.workload)
    } else {
        let mut p = run(&ctx, false);
        p.e2e.set("peak_rss_mb", p.first_round_rss_mb, "MiB", "VmHWM after the first round");
        (complete(p.e2e, END_TO_END.iter().map(|m| (m.0, m.1))), p.attempted, p.failures)
    };
    for f in &failures {
        println!("FAILED: {f}");
    }
    println!(
        "workload {} seed {} trace {}: {} operations, {} failed, {:.1} s",
        args.workload,
        args.seed,
        u8::from(args.trace),
        attempted,
        failures.len(),
        started.elapsed().as_secs_f64()
    );
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, host::cpu_steal()) {
        // The TCP and router workloads' latency follows this figure
        // (README.md, "Host and steadiness").
        let share = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!("host: hypervisor steal {share:.1}% of CPU time during the run");
    }
    let mut json = Vec::new();
    for (name, m) in &sheet.metrics {
        println!("  {name:<34} {:>16.4} {:<6} {}", m.value, m.unit, m.note);
        json.push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}", num(m.value), m.unit));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        attempted.max(1),
        failures.len(),
        json.join(", ")
    );
}

/// The traced run: an untraced and a traced phase of half the time each.
fn traced(run: Workload, ctx: &Ctx, name: &str) -> (Sheet, u64, Vec<String>) {
    let half = Ctx { seconds: ctx.seconds / 2.0, ..*ctx };
    let plain = run(&half, false);
    let mut t = run(&half, true);
    let mut sheet = t.layers;
    for (layer, ns) in t.trace.self_ns_by_layer() {
        let name = format!("{layer}.self_ms");
        if PER_LAYER.iter().any(|m| m.0 == name) {
            sheet.set(&name, ns / 1e6, "ms", "span self time, traced phase");
        }
    }
    let overhead = 100.0 * (t.cost_per_edge_s / plain.cost_per_edge_s - 1.0);
    sheet.set("trace.overhead_pct", overhead, "%", "traced vs untraced cost per edge");
    sheet.set("trace.spans", t.trace.span_count() as f64, "count", "");
    let attempted = plain.attempted + t.attempted;
    let mut failures = plain.failures;
    failures.append(&mut t.failures);
    sheet.set(
        "error_rate",
        failures.len() as f64 / attempted.max(1) as f64,
        "ratio",
        format!("{} of {attempted}", failures.len()),
    );
    let path = std::path::Path::new("perfbench/traces").join(format!("{name}.jsonl"));
    if let Err(e) = t.trace.write_jsonl(&path) {
        failures.push(format!("writing {}: {e}", path.display()));
    } else {
        println!("trace: {} spans written to {}", t.trace.span_count(), path.display());
    }
    (complete(sheet, PER_LAYER.iter().map(|m| (m.0, m.1))), attempted, failures)
}

/// Fills every listed metric the workload did not set with an explicit
/// "n/a" zero, and checks the workload set nothing unlisted.
fn complete(mut sheet: Sheet, listed: impl Iterator<Item = (&'static str, &'static str)>) -> Sheet {
    let listed: Vec<(&'static str, &'static str)> = listed.collect();
    for name in sheet.metrics.keys() {
        assert!(listed.iter().any(|m| m.0 == name), "metric {name} is not in the manifest");
    }
    for (name, unit) in listed {
        if !sheet.metrics.contains_key(name) {
            sheet.absent(name, unit);
        }
    }
    sheet
}

/// A float as JSON: finite, with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn write_manifest() -> std::io::Result<()> {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .filter(|w| w.1)
        .map(|(name, _, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}")
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    let text = format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    );
    std::fs::write("BENCHMARK.json", text)
}
