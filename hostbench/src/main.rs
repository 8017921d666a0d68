//! Host benchmark of the NCache data plane.
//!
//! ```text
//! hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! One process, one thread. The rig is built, populated and warmed
//! [`SETUP_REPS`] times (the median is `setup_s`); then seeded batches of
//! operations run through the public engines (`runner::run` or
//! `openloop::run_open_loop`) until `--seconds` have passed; then
//! everything the batches touched is read back and compared with the
//! expected bytes. The last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The lines before
//! it are the host record and every metric with its unit and sample
//! count. `README.md` lists the workloads and metrics.

mod alloc;
mod driver;
mod probe;
mod trace;
mod workloads;

use std::time::Instant;

use testbed::executor::derive_seed;
use testbed::openloop::{run_open_loop, OpenLoopOptions};
use testbed::runner::{run, DriverOp, RigDriver};

use crate::alloc::AllocCounts;
use crate::driver::{Counters, LayerCounters, ObsTally, TimedRig};
use crate::workloads::{
    Engine, HttpWeb, NfsMixedMiss, NfsOpenLoop, NfsReadHit, NfsWriteBack, SetupTimes, Workload,
};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Operations in the reference batches: the leading, untraced batches
/// every run completes (with `--tiny`, a tenth). Every work counter and
/// allocation count is taken over them, so those repeat exactly for a
/// fixed seed whatever the host speed.
const REF_OPS: u64 = 30_000;
/// A percentile is reported only with at least this many samples beyond it.
const MIN_BEYOND: usize = 10;
/// Seed whose simulated results are committed in `golden.txt`.
const GOLDEN_SEED: u64 = 1;
/// Simulated results of the reference batches at [`GOLDEN_SEED`], one
/// `workload batch sim_mbs sim_ops_per_s sim_p99_ns` line each.
const GOLDEN: &str = include_str!("../golden.txt");
/// Event ring of the rig recorder in recorder batches.
const RECORDER_CAPACITY: usize = 1 << 15;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut args = Args {
        workload: String::new(),
        seed: GOLDEN_SEED,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--tiny" => args.tiny = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// What a batch records besides timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Untraced, counted: the first [`REF_OPS`] operations.
    Ref,
    /// Untraced.
    Plain,
    /// Benchmark spans on.
    Spans,
    /// The rig's event recorder on.
    Recorder,
}

struct BatchStat {
    /// Mean of the host-speed probes run just before and just after.
    probe_ns: f64,
    kind: Kind,
    ops: u64,
    wall_ns: u64,
    gen_ns: u64,
    p50_ns: u64,
    p99_ns: u64,
}

/// The simulated outcome of one batch.
struct Sim {
    mbs: f64,
    ops_per_s: f64,
    p99_ns: u64,
    /// The engine's own invariants held: every op completed and, in the
    /// open loop, stage times add up to latency and nothing was shed.
    ok: bool,
}

fn drive<R: RigDriver + 'static>(
    mut rig: TimedRig<R>,
    ops: Vec<DriverOp>,
    engine: &Engine,
    seed: u64,
) -> (TimedRig<R>, Sim) {
    let n = ops.len() as u64;
    match engine {
        Engine::Closed(opts) => {
            let r = run(&mut rig, ops, opts);
            let sim = Sim {
                mbs: r.throughput_mbs,
                ops_per_s: r.ops_per_sec,
                p99_ns: r.p99_latency.as_nanos(),
                ok: r.ops == n,
            };
            (rig, sim)
        }
        Engine::Open {
            mean_interarrival_ns,
        } => {
            let opts = OpenLoopOptions {
                mean_interarrival_ns: *mean_interarrival_ns,
                seed,
                ..OpenLoopOptions::default()
            };
            let (rig, r) = run_open_loop(rig, ops, &opts);
            let stage_sum: u64 = r.stages.iter().map(|s| s.queue_ns + s.service_ns).sum();
            let sim = Sim {
                mbs: r.goodput_mbs,
                ops_per_s: r.ops_per_sec,
                p99_ns: r.latency.quantile(0.99),
                ok: stage_sum == r.latency.sum && r.ops == n && r.shed == 0,
            };
            (rig, sim)
        }
    }
}

/// One reported number.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind the value (batches, set-ups or operations).
    samples: u64,
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u32], p: f64) -> u64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    u64::from(sorted[rank - 1])
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The current commit, read from the repository's `.git` when the
/// benchmark is built inside one; "unknown" otherwise.
fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => read(r).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
        }),
        None => Some(head.to_string()),
    };
    match commit.map(|c| c.trim().to_string()) {
        Some(c) if !c.is_empty() => c,
        _ => "unknown".into(),
    }
}

struct Outcome {
    end_to_end: Vec<Metric>,
    /// End-to-end host times without the host-speed scaling.
    raw: Vec<Metric>,
    per_layer: Vec<Metric>,
    attempted: u64,
    failed: u64,
    checks: Vec<(String, bool)>,
}

fn bench<W: Workload>(mut w: W, a: &Args) -> Outcome {
    // Set-up, several times; the last rig is measured.
    trace::set_enabled(a.trace);
    let mut setups: Vec<(SetupTimes, f64)> = Vec::new();
    let mut built = None;
    let mut probe = probe::Probe::new();
    let mut probe_ns = probe.run();
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let mut t = SetupTimes::default();
        built = Some(trace::span("setup", || w.setup(a.seed, &mut t)));
        let next = probe.run();
        setups.push((t, (probe_ns + next) as f64 / 2.0));
        probe_ns = next;
    }
    trace::fold(true);
    trace::reset_totals();
    let engine = w.engine();
    let mut rig = TimedRig::new(built.expect("SETUP_REPS > 0"));
    // Attached at the first recorder batch: even a disabled recorder
    // changes the rig's allocations, and the reference batches must match
    // those of an untraced run.
    let rec = obs::Recorder::new();
    let mut rec_attached = false;

    let mut stats: Vec<BatchStat> = Vec::new();
    let mut sims: Vec<Sim> = Vec::new();
    let mut before: Option<Counters> = None;
    let mut after: Option<Counters> = None;
    let (mut ref_tally, mut all_tally) = (ObsTally::default(), ObsTally::default());
    let mut ref_alloc = AllocCounts::default();
    let mut ref_calls = 0u64;
    let mut engine_failures = 0u64;
    let (mut spans_ops, mut rec_ops, mut rec_events, mut exported, mut export_ns) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut kept_batch_spans = false;
    let ref_target = if a.tiny { REF_OPS / 10 } else { REF_OPS };
    let start = Instant::now();
    let mut i = 0u64;
    // Batches after the reference ones; a traced run needs one of each kind.
    let mut rest = 0u64;
    while ref_tally.ops < ref_target
        || (a.trace && rest < 3)
        || start.elapsed().as_secs_f64() < a.seconds
    {
        let kind = if ref_tally.ops < ref_target {
            Kind::Ref
        } else {
            rest += 1;
            match a.trace {
                false => Kind::Plain,
                true => [Kind::Plain, Kind::Spans, Kind::Recorder][((rest - 1) % 3) as usize],
            }
        };
        trace::set_enabled(kind == Kind::Spans);
        if kind == Kind::Recorder {
            if !rec_attached {
                rig.rig.attach_recorder(rec.clone());
                rec_attached = true;
            }
            rec.enable(obs::TraceConfig {
                capacity: RECORDER_CAPACITY,
                sample_every: 1,
            });
        }
        let root = trace::begin("batch", 0);
        let gen = trace::begin("workload.gen", 0);
        let t0 = Instant::now();
        let ops = w.batch(a.seed, i);
        w.touch(&ops);
        let gen_ns = t0.elapsed().as_nanos() as u64;
        trace::end(gen);
        let n = ops.len() as u64;
        rig.start_batch(ops.len());
        if kind == Kind::Ref && before.is_none() {
            before = Some(rig.rig.counters());
        }
        let a0 = alloc::snapshot();
        let eng = trace::begin("engine", 0);
        let t1 = Instant::now();
        let (back, sim) = drive(rig, ops, &engine, derive_seed(a.seed, (1 << 32) | i));
        let wall_ns = t1.elapsed().as_nanos() as u64;
        trace::end(eng);
        let allocs = alloc::snapshot().since(&a0);
        trace::end(root);
        rig = back;

        engine_failures += u64::from(!sim.ok);
        all_tally += rig.tally;
        match kind {
            Kind::Ref => {
                ref_tally += rig.tally;
                ref_alloc += allocs;
                ref_calls += rig.calls.get();
                after = Some(rig.rig.counters());
                sims.push(sim);
            }
            Kind::Spans => {
                // Keep the first traced batch's spans for the trace file.
                trace::fold(!kept_batch_spans);
                kept_batch_spans = true;
                spans_ops += n;
            }
            Kind::Recorder => {
                let t = Instant::now();
                let events = rec.events();
                let text = obs::export_jsonl(&events);
                std::hint::black_box(text.len());
                export_ns += t.elapsed().as_nanos() as u64;
                exported += events.len() as u64;
                rec_events += events.len() as u64 + rec.dropped();
                rec_ops += n;
                rec.disable();
            }
            Kind::Plain => {}
        }
        if rig.latencies.len() < 100 * MIN_BEYOND {
            eprintln!(
                "error: batch {i} has {} latency samples; a p99 needs at least {}",
                rig.latencies.len(),
                100 * MIN_BEYOND
            );
            std::process::exit(3);
        }
        rig.latencies.sort_unstable();
        let next = probe.run();
        stats.push(BatchStat {
            probe_ns: (probe_ns + next) as f64 / 2.0,
            kind,
            ops: n,
            wall_ns,
            gen_ns,
            p50_ns: percentile(&rig.latencies, 0.50),
            p99_ns: percentile(&rig.latencies, 0.99),
        });
        probe_ns = next;
        i += 1;
    }
    let peak_rss = alloc::peak_rss_mb().unwrap_or(0.0);

    trace::set_enabled(a.trace);
    let shares = trace::totals();
    let t = Instant::now();
    let verdict = trace::span("verify", || w.verify(&mut rig.rig));
    let verify_s = t.elapsed().as_secs_f64();
    trace::fold(true);
    if a.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{}.spans.jsonl", W::NAME, a.seed));
        match trace::write_jsonl(&path) {
            Ok(()) => println!("spans {} written to {}", trace::kept(), path.display()),
            Err(e) => println!("spans not written: {e}"),
        }
    }

    // Correctness.
    let mut checks = vec![
        (
            "engine invariants held in every batch".to_string(),
            engine_failures == 0,
        ),
        (
            format!("read-back of {} touched ranges", verdict.attempted),
            verdict.failed == 0,
        ),
        ("no rejected replies".to_string(), all_tally.rejected == 0),
    ];
    let copy_violations = if W::ZERO_COPY {
        all_tally.app_copying_ops
    } else {
        0
    };
    if W::ZERO_COPY {
        checks.push((
            "zero app payload copies per op".into(),
            copy_violations == 0,
        ));
    }
    let mut golden_failures = 0;
    for (b, s) in sims.iter().enumerate() {
        let line = format!("{} {} {} {} {}", W::NAME, b, s.mbs, s.ops_per_s, s.p99_ns);
        println!("sim {line}");
        if a.seed == GOLDEN_SEED && !a.tiny {
            let want = GOLDEN
                .lines()
                .find(|l| l.starts_with(&format!("{} {} ", W::NAME, b)));
            let ok = want == Some(line.as_str());
            golden_failures += u64::from(!ok);
            checks.push((
                format!("simulated result of batch {b} equals golden.txt"),
                ok,
            ));
        }
    }
    let mut failed =
        engine_failures + verdict.failed + all_tally.rejected + copy_violations + golden_failures;
    let attempted = all_tally.ops + verdict.attempted;

    // End-to-end metrics, over untraced batches. Host times are reported
    // at the reference host speed: each batch or set-up is scaled by the
    // probes on either side of it (see `probe`). `raw` keeps them as
    // measured.
    let scale = |probe_ns: f64, normalise: bool| {
        if normalise {
            probe::REF_NS / probe_ns
        } else {
            1.0
        }
    };
    let all_probes: Vec<f64> = setups
        .iter()
        .map(|s| s.1)
        .chain(stats.iter().map(|s| s.probe_ns))
        .collect();
    let run_probe = median(all_probes);
    let untraced: Vec<&BatchStat> = stats
        .iter()
        .filter(|s| matches!(s.kind, Kind::Ref | Kind::Plain))
        .collect();
    let ops_per_s = |set: &[&BatchStat], norm: bool| {
        median(
            set.iter()
                .map(|s| s.ops as f64 * 1e9 / s.wall_ns.max(1) as f64 / scale(s.probe_ns, norm))
                .collect(),
        )
    };
    let latency_us = |f: fn(&BatchStat) -> u64, norm: bool| {
        median(
            untraced
                .iter()
                .map(|s| f(s) as f64 / 1e3 * scale(s.probe_ns, norm))
                .collect(),
        )
    };
    let setup_s = |f: fn(&SetupTimes) -> u64, norm: bool| {
        median(
            setups
                .iter()
                .map(|(t, p)| f(t) as f64 / 1e9 * scale(*p, norm))
                .collect(),
        )
    };
    let setup_total = |t: &SetupTimes| t.build_ns + t.populate_ns + t.warm_ns;
    let nb = untraced.len() as u64;
    let ref_ops = ref_tally.ops;
    let reps = SETUP_REPS as u64;
    let m = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples,
    };
    let end_to_end = vec![
        m("ops_per_s", ops_per_s(&untraced, true), "1/s", nb),
        m("op_p50_us", latency_us(|s| s.p50_ns, true), "us", nb),
        m("op_p99_us", latency_us(|s| s.p99_ns, true), "us", nb),
        m(
            "allocs_per_op",
            ratio(ref_alloc.allocs(), ref_ops),
            "count/op",
            ref_ops,
        ),
        m(
            "alloc_bytes_per_op",
            ratio(ref_alloc.bytes(), ref_ops),
            "B/op",
            ref_ops,
        ),
        m("peak_rss_mb", peak_rss, "MiB", 1),
        m("setup_s", setup_s(setup_total, true), "s", reps),
    ];
    let raw = vec![
        m("ops_per_s", ops_per_s(&untraced, false), "1/s", nb),
        m("op_p50_us", latency_us(|s| s.p50_ns, false), "us", nb),
        m("op_p99_us", latency_us(|s| s.p99_ns, false), "us", nb),
        m("setup_s", setup_s(setup_total, false), "s", reps),
    ];

    // Per-layer metrics: work counts over the reference batches, self
    // times from the span batches, recorder cost from the recorder batches.
    let (b, c) = (
        before.expect("reference batches ran"),
        after.expect("reference batches ran"),
    );
    let per = |x: u64| ratio(x, ref_ops);
    let led = |f: fn(&netbuf::LedgerSnapshot) -> u64| {
        (0..3)
            .map(|k| f(&c.ledgers[k]) - f(&b.ledgers[k]))
            .sum::<u64>()
    };
    let nc = |f: fn(&ncache::NetCacheStats) -> u64| f(&c.ncache) - f(&b.ncache);
    let fs = |f: fn(&simfs::cache::CacheStats) -> u64| f(&c.fs) - f(&b.fs);
    let span_total = |name: &str| shares.get(name).copied().unwrap_or_default();
    let batch_ns = span_total("batch").total_ns;
    let rig_ns: u64 = shares
        .iter()
        .filter(|(k, _)| k.starts_with("rig."))
        .map(|(_, v)| v.total_ns)
        .sum();
    let engine_self = span_total("engine").self_ns;
    let gen_ns = span_total("workload.gen").total_ns;
    let unattributed = span_total("batch").self_ns;
    let share = |x: u64| ratio(x, batch_ns);
    let of_kind = |k: Kind| -> Vec<&BatchStat> { stats.iter().filter(|s| s.kind == k).collect() };
    // Summed span times are scaled by their batches' median scale.
    let kind_scale = |k: Kind| median(of_kind(k).iter().map(|s| scale(s.probe_ns, true)).collect());
    let (span_scale, rec_scale) = (kind_scale(Kind::Spans), kind_scale(Kind::Recorder));
    let plain_ops_per_s = ops_per_s(&untraced, true);
    let nspans = of_kind(Kind::Spans).len() as u64;
    let nrec = of_kind(Kind::Recorder).len() as u64;
    let per_layer = vec![
        m(
            "rig.ns_per_op",
            ratio(rig_ns, spans_ops) * span_scale,
            "ns/op",
            spans_ops,
        ),
        m("rig.share", share(rig_ns), "fraction", nspans),
        m("rig.calls_per_op", per(ref_calls), "count/op", ref_ops),
        m(
            "rig.allocs_per_op",
            per(ref_alloc.rig_allocs),
            "count/op",
            ref_ops,
        ),
        m(
            "rig.alloc_bytes_per_op",
            per(ref_alloc.rig_bytes),
            "B/op",
            ref_ops,
        ),
        m(
            "engine.self_ns_per_op",
            ratio(engine_self, spans_ops) * span_scale,
            "ns/op",
            spans_ops,
        ),
        m("engine.share", share(engine_self), "fraction", nspans),
        m(
            "engine.allocs_per_op",
            per(ref_alloc.other_allocs),
            "count/op",
            ref_ops,
        ),
        m(
            "ncache.lookups_per_op",
            per(nc(|s| s.lookups)),
            "count/op",
            ref_ops,
        ),
        m(
            "ncache.hit_ratio",
            ratio(nc(|s| s.hits), nc(|s| s.lookups)),
            "fraction",
            nc(|s| s.lookups),
        ),
        m(
            "ncache.substituted_pkts_per_op",
            per(c.substituted - b.substituted),
            "count/op",
            ref_ops,
        ),
        m(
            "ncache.insertions_per_op",
            per(nc(|s| s.insertions)),
            "count/op",
            ref_ops,
        ),
        m(
            "ncache.remaps_per_op",
            per(nc(|s| s.remaps)),
            "count/op",
            ref_ops,
        ),
        m(
            "ncache.evictions_per_op",
            per(nc(|s| s.evicted_clean + s.evicted_dirty)),
            "count/op",
            ref_ops,
        ),
        m(
            "simfs.cache_ops_per_op",
            per(fs(|s| s.hits + s.misses + s.insertions)),
            "count/op",
            ref_ops,
        ),
        m(
            "simfs.cache_hit_ratio",
            ratio(fs(|s| s.hits), fs(|s| s.hits + s.misses)),
            "fraction",
            fs(|s| s.hits + s.misses),
        ),
        m(
            "simfs.evictions_per_op",
            per(fs(|s| s.evicted_clean + s.evicted_dirty)),
            "count/op",
            ref_ops,
        ),
        m(
            "simfs.dirty_flushes_per_op",
            per(fs(|s| s.evicted_dirty)),
            "count/op",
            ref_ops,
        ),
        m(
            "netbuf.payload_bytes_copied_per_op",
            per(led(|l| l.payload_bytes_copied)),
            "B/op",
            ref_ops,
        ),
        m(
            "netbuf.meta_bytes_copied_per_op",
            per(led(|l| l.meta_bytes_copied)),
            "B/op",
            ref_ops,
        ),
        m(
            "netbuf.logical_copies_per_op",
            per(led(|l| l.logical_copies)),
            "count/op",
            ref_ops,
        ),
        m(
            "netbuf.buffer_allocs_per_op",
            per(led(|l| l.allocations)),
            "count/op",
            ref_ops,
        ),
        m(
            "proto.csum_bytes_per_op",
            per(led(|l| l.csum_bytes)),
            "B/op",
            ref_ops,
        ),
        m(
            "proto.csum_inherited_per_op",
            per(led(|l| l.csum_inherited)),
            "count/op",
            ref_ops,
        ),
        m(
            "proto.wire_bytes_per_op",
            per(ref_tally.wire_bytes),
            "B/op",
            ref_ops,
        ),
        m(
            "servers.iscsi_cmds_per_op",
            per((c.target.read_cmds + c.target.write_cmds)
                - (b.target.read_cmds + b.target.write_cmds)),
            "count/op",
            ref_ops,
        ),
        m(
            "servers.second_level_hits_per_op",
            per(c.initiator.second_level_hits - b.initiator.second_level_hits),
            "count/op",
            ref_ops,
        ),
        m(
            "servers.admission_failures_per_op",
            per(c.initiator.cache_admission_failures - b.initiator.cache_admission_failures),
            "count/op",
            ref_ops,
        ),
        m(
            "servers.rejected_ratio",
            per(ref_tally.rejected),
            "fraction",
            ref_ops,
        ),
        m(
            "blockdev.bursts_per_op",
            per(ref_tally.bursts),
            "count/op",
            ref_ops,
        ),
        m(
            "blockdev.blocks_per_op",
            per(ref_tally.blocks),
            "count/op",
            ref_ops,
        ),
        m(
            "workload.gen_ns_per_op",
            median(
                stats
                    .iter()
                    .map(|s| s.gen_ns as f64 / s.ops as f64 * scale(s.probe_ns, true))
                    .collect(),
            ),
            "ns/op",
            stats.len() as u64,
        ),
        m("workload.share", share(gen_ns), "fraction", nspans),
        m("setup.build_s", setup_s(|t| t.build_ns, true), "s", reps),
        m(
            "setup.populate_s",
            setup_s(|t| t.populate_ns, true),
            "s",
            reps,
        ),
        m("setup.warm_s", setup_s(|t| t.warm_ns, true), "s", reps),
        m(
            "verify.s",
            verify_s * scale(probe_ns as f64, true),
            "s",
            verdict.attempted,
        ),
        m(
            "obs.events_per_op",
            ratio(rec_events, rec_ops),
            "events/op",
            rec_ops,
        ),
        m(
            "obs.export_ns_per_event",
            ratio(export_ns, exported) * rec_scale,
            "ns/event",
            exported,
        ),
        m(
            "obs.overhead",
            plain_ops_per_s / ops_per_s(&of_kind(Kind::Recorder), true),
            "ratio",
            nrec,
        ),
        m(
            "trace.overhead",
            plain_ops_per_s / ops_per_s(&of_kind(Kind::Spans), true),
            "ratio",
            nspans,
        ),
        m(
            "unattributed.share",
            share(unattributed),
            "fraction",
            nspans,
        ),
        m(
            "host.probe_ms",
            run_probe / 1e6,
            "ms",
            (SETUP_REPS + stats.len()) as u64,
        ),
    ];
    if a.trace {
        let sum = share(rig_ns) + share(engine_self) + share(gen_ns) + share(unattributed);
        let ok = (sum - 1.0).abs() < 1e-9;
        checks.push((format!("layer shares sum to 1 (sum {sum})"), ok));
        failed += u64::from(!ok);
    }
    Outcome {
        end_to_end,
        raw,
        per_layer,
        attempted,
        failed,
        checks,
    }
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let o = match a.workload.as_str() {
        NfsReadHit::NAME => bench(NfsReadHit::new(a.tiny), &a),
        NfsMixedMiss::NAME => bench(NfsMixedMiss::new(a.tiny), &a),
        NfsWriteBack::NAME => bench(NfsWriteBack::new(a.tiny), &a),
        NfsOpenLoop::NAME => bench(NfsOpenLoop::new(a.tiny), &a),
        HttpWeb::NAME => bench(HttpWeb::new(a.tiny), &a),
        w => {
            eprintln!(
                "error: unknown workload {w:?}; one of {}, {}, {}, {}, {}",
                NfsReadHit::NAME,
                NfsMixedMiss::NAME,
                NfsWriteBack::NAME,
                NfsOpenLoop::NAME,
                HttpWeb::NAME
            );
            std::process::exit(2);
        }
    };
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "host host_cpus={host_cpus} threads=1 rustc=\"{}\" commit={} workload={} seed={} seconds={} trace={} scale={}",
        env!("HOSTBENCH_RUSTC"),
        git_commit(),
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        if a.tiny { "tiny" } else { "full" }
    );
    for (name, ok) in &o.checks {
        println!("check {} {name}", if *ok { "ok  " } else { "FAIL" });
    }
    println!(
        "failed_ratio {} ({} failed of {} attempted)",
        ratio(o.failed, o.attempted),
        o.failed,
        o.attempted
    );
    for (title, list) in [
        ("end_to_end", &o.end_to_end),
        ("raw", &o.raw),
        ("per_layer", &o.per_layer),
    ] {
        if title == "per_layer" && !a.trace {
            continue;
        }
        for m in list.iter() {
            println!(
                "{title} {} {} {} samples={}",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
    let shown = if a.trace { &o.per_layer } else { &o.end_to_end };
    let metrics: Vec<String> = shown
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
}
