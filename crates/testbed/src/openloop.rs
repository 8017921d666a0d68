//! The open-loop overload observatory.
//!
//! The session engines in [`crate::sessions`] are closed loops: each
//! client waits for its reply before issuing again, so offered load can
//! never exceed capacity and queues never grow without bound. This module
//! is the opposite regime: requests arrive at pre-drawn absolute instants
//! ([`workload::arrivals`]) regardless of completions, so pushing the
//! arrival rate past saturation makes the queues — and the tail
//! quantiles — grow for as long as the schedule keeps firing. That is
//! the behaviour the overload sweep plots: goodput flattening at
//! capacity while p99/p999 latency departs from the mean.
//!
//! Timing uses exactly the stage chains and FIFO resources of the
//! closed-loop engines; every foreground request accumulates the same
//! per-stage queue/service breakdown ([`obs::StageNs`]), telescoping to
//! its end-to-end latency, and lands in the same [`obs::Recorder`]
//! histograms the latency-attribution report renders. The run is a pure
//! function of `(rig, schedule, options)` — byte-deterministic at any
//! host thread count, because nothing here spawns one.

use blockdev::{DiskModel, Raid0};
use sim::costs::CostModel;
use sim::queue::{Arrivals, EventQueue, Next, Slab};
use sim::stats::Throughput;
use sim::time::SimTime;
use sim::{Resource, SplitMix64};
use workload::arrivals::{poisson_arrivals, BurstConfig};
use workload::zipf::Zipf;

use crate::runner::{
    classify_path, emit_request, op_label, Chains, DriverOp, Res, RigDriver, Stage,
};
use crate::timing::derive;

/// Open-loop driver configuration.
#[derive(Clone, Debug)]
pub struct OpenLoopOptions {
    /// Mean inter-arrival time of the Poisson schedule, nanoseconds.
    pub mean_interarrival_ns: u64,
    /// Optional square-wave burst modulation of the arrival rate.
    pub burst: Option<BurstConfig>,
    /// Seed for the arrival draw.
    pub seed: u64,
    /// NICs on the application server.
    pub nics: usize,
    /// The hardware cost model.
    pub costs: CostModel,
    /// Request deadline in sim-ns (0 = none): a request completing past
    /// its deadline is counted in
    /// [`OpenLoopResult::deadline_exceeded`] and its payload in
    /// `late_bytes`, excluded from goodput.
    pub deadline_ns: u64,
    /// Client retry policy for server `RETRY_LATER` rejections (None =
    /// a rejection immediately sheds the request). Budget exhaustion is
    /// a counted client-visible error, never a loop.
    pub retry: Option<servers::RetryPolicy>,
}

impl Default for OpenLoopOptions {
    fn default() -> Self {
        OpenLoopOptions {
            mean_interarrival_ns: 100_000,
            burst: None,
            seed: 1,
            nics: 1,
            costs: CostModel::pentium3_gige(),
            deadline_ns: 0,
            retry: None,
        }
    }
}

/// Per-resource utilization timeline over a run, in at most 32
/// equal-width windows (occupancy clamped to 1; for the array the
/// interval is request residency, so concurrent stripes count once).
#[derive(Clone, Debug, PartialEq)]
pub struct ResourceTimeline {
    /// Stage name (matches [`obs::StageNs::stage`]).
    pub resource: &'static str,
    /// Servers the resource multiplexes over.
    pub servers: u32,
    /// Busy fraction per window, in `[0, 1]`.
    pub util: Vec<f64>,
}

/// Measured outcome of an open-loop run.
#[derive(Clone, Debug, PartialEq)]
pub struct OpenLoopResult {
    /// Arrival rate actually offered (requests over the schedule span).
    pub offered_ops_per_sec: f64,
    /// Delivered payload over the full run, MB/s (decimal). Under
    /// overload this flattens at capacity while latency keeps growing.
    pub goodput_mbs: f64,
    /// Completed operations per second of simulated run time.
    pub ops_per_sec: f64,
    /// Foreground operations completed.
    pub ops: u64,
    /// Payload bytes delivered.
    pub payload_bytes: u64,
    /// Simulated instant the last chain drained.
    pub elapsed: SimTime,
    /// Most requests simultaneously in flight (arrived, not completed).
    pub peak_inflight: u64,
    /// End-to-end request latency, quantile-queryable.
    pub latency: obs::HistogramSnapshot,
    /// Per-stage queue/service totals over all foreground requests, in
    /// stage order. Their sum equals `latency.sum` exactly.
    pub stages: Vec<obs::StageNs>,
    /// Width of each utilization window, nanoseconds.
    pub window_ns: u64,
    /// Per-resource utilization timelines.
    pub timelines: Vec<ResourceTimeline>,
    /// Admitted requests that completed past their deadline: counted
    /// here (and their payload in `late_bytes`), not in goodput.
    pub deadline_exceeded: u64,
    /// Payload bytes of deadline-exceeded requests (delivered late,
    /// excluded from `goodput_mbs` and `payload_bytes`).
    pub late_bytes: u64,
    /// Requests shed: rejected by the server's admission gate and
    /// abandoned once the retry budget ran out (a counted
    /// client-visible error).
    pub shed: u64,
    /// Total retransmissions across all requests.
    pub retries: u64,
    /// Most transmissions any single request made (bounded by
    /// 1 + the retry budget; exactly 1 without a policy).
    pub max_attempts: u64,
    /// Events the timing engine dispatched: arrivals, retransmissions,
    /// stage steps and chain completions. A deterministic work count.
    pub events: u64,
}

/// The slot a resource's busy intervals accumulate under; order matches
/// the stage order the attribution report renders.
fn slot(res: &Res) -> usize {
    match res {
        Res::AppRx => 0,
        Res::AppCpu => 1,
        Res::AppTx => 2,
        Res::StorRx => 3,
        Res::StorCpu => 4,
        Res::StorTx => 5,
        Res::Disk { .. } => 6,
    }
}

/// Stage names by slot.
const SLOT_NAMES: [&str; 7] = [
    "app-rx",
    "app-cpu",
    "app-tx",
    "storage-rx",
    "storage-cpu",
    "storage-tx",
    "disk",
];

/// The stage-totals slot of a foreground stage: the resource slots, then
/// the client's retry backoff.
fn total_slot(stage: &str) -> usize {
    match stage {
        "client-backoff" => SLOT_NAMES.len(),
        name => SLOT_NAMES
            .iter()
            .position(|&n| n == name)
            .expect("open-loop stages are resource stages or client backoff"),
    }
}

/// A foreground request in flight: identity, arrival instant, and the
/// stage breakdown accumulated so far (telescoping to its latency).
#[derive(Default)]
struct Flight {
    payload: u64,
    start: SimTime,
    label: &'static str,
    path: &'static str,
    log: Vec<obs::StageNs>,
    /// The server admitted (some attempt of) the request; `false` means
    /// every transmission so far was rejected.
    delivered: bool,
    /// Arrival index — the operation's position in the schedule, and
    /// the key of the retry policy's backoff stream.
    idx: usize,
    /// Transmissions performed so far (1 = the initial send).
    attempts: u64,
}

/// What the open loop's queue holds besides the arrival schedule.
#[derive(Clone, Copy)]
enum Ev {
    /// A retransmission of a flight after its backoff.
    Transmit(u32),
    /// The next stage of a chain.
    Step(u32),
}

struct World<R> {
    rig: R,
    ops: Vec<DriverOp>,
    costs: CostModel,
    rec: obs::Recorder,
    queue: EventQueue<Ev>,
    chains: Chains,
    flights: Slab<Flight>,
    app_cpu: Resource,
    app_tx: Resource,
    app_rx: Resource,
    stor_cpu: Resource,
    stor_tx: Resource,
    stor_rx: Resource,
    array: Raid0,
    meter: Throughput,
    latency: obs::Histogram,
    /// Queue/service totals by [`total_slot`]; `None` until a recorded
    /// request passes through the stage.
    stage_totals: [Option<(u64, u64)>; 8],
    busy: [Vec<(u64, u64)>; 7],
    inflight: u64,
    peak_inflight: u64,
    /// Admitted requests still in flight — the depth the server's
    /// admission gate sees. Rejected/backing-off flights occupy the
    /// client, not the server, so they are excluded (counting them
    /// would turn every rejection into more rejections).
    server_inflight: u64,
    end: SimTime,
    deadline_ns: u64,
    retry: Option<servers::RetryPolicy>,
    deadline_exceeded: u64,
    late_bytes: u64,
    shed: u64,
    retries: u64,
    max_attempts: u64,
}

impl<R: RigDriver> World<R> {
    /// Occupies the stage's resource; logs the busy interval for the
    /// utilization timelines and returns `(started, done)`.
    fn serve(&mut self, now: SimTime, stage: &Stage) -> (SimTime, SimTime) {
        let (started, done) = match stage.res {
            Res::AppRx => self.app_rx.serve_timed(now, stage.demand),
            Res::AppCpu => self.app_cpu.serve_timed(now, stage.demand),
            Res::AppTx => self.app_tx.serve_timed(now, stage.demand),
            Res::StorRx => self.stor_rx.serve_timed(now, stage.demand),
            Res::StorCpu => self.stor_cpu.serve_timed(now, stage.demand),
            Res::StorTx => self.stor_tx.serve_timed(now, stage.demand),
            // The open-loop engine keeps the flat array: tiering is a
            // closed-loop ablation concern.
            Res::Disk { lbn, blocks, .. } => self.array.io_timed(now, lbn, blocks),
        };
        if done > started {
            self.busy[slot(&stage.res)].push((started.as_nanos(), done.as_nanos()));
        }
        (started, done)
    }
}

/// Adds a recorded request's stage breakdown to the run totals.
fn add_stage_totals(totals: &mut [Option<(u64, u64)>; 8], log: &[obs::StageNs]) {
    for st in log {
        let t = totals[total_slot(st.stage)].get_or_insert((0, 0));
        t.0 += st.queue_ns;
        t.1 += st.service_ns;
    }
}

/// Fires arrival `k`: opens the request's flight and performs its first
/// transmission. Arrivals fire in schedule order, so functional state
/// evolves deterministically.
fn arrive<R: RigDriver>(w: &mut World<R>, k: usize) {
    let now = w.queue.now();
    w.inflight += 1;
    w.peak_inflight = w.peak_inflight.max(w.inflight);
    let f = w.flights.alloc();
    let fg = &mut w.flights[f];
    fg.payload = 0;
    fg.start = now;
    fg.label = op_label(&w.ops[k]);
    fg.path = "shed";
    fg.delivered = false;
    fg.idx = k;
    fg.attempts = 0;
    transmit(w, f);
}

/// One transmission of a flight's operation, executed functionally at the
/// current instant. An admitted attempt fixes the flight's payload and
/// path; a rejected one leaves it undelivered (the retry decision happens
/// when the rejection reply reaches the client — see [`step`]). Either
/// way the attempt's stage chain is scheduled, so rejection round trips
/// consume the same simulated resources real ones do.
fn transmit<R: RigDriver>(w: &mut World<R>, f: u32) {
    let now = w.queue.now();
    w.rec.set_now(now.as_nanos());
    // The gate sees the depth of admitted requests currently in flight;
    // rejected/backing-off flights occupy the client, not the server
    // (counting them would turn every rejection into more rejections).
    w.rig.set_load(now.as_nanos(), w.server_inflight);
    let (obs, payload) = w.rig.run_op(&w.ops[w.flights[f].idx]);
    let fg = &mut w.flights[f];
    fg.attempts += 1;
    if fg.attempts > 1 {
        w.retries += 1;
    }
    w.max_attempts = w.max_attempts.max(fg.attempts);
    // A gate rejection turns the request around before filesystem and
    // cache processing; only transport and decode work remains, so it
    // costs a quarter of the fixed per-request CPU. That is what makes
    // shedding cheaper than serving — the whole point of the gate.
    let per_request_ns = if obs.rejected {
        w.rig.per_request_ns(&w.costs) / 4
    } else {
        w.rig.per_request_ns(&w.costs)
    };
    let demands = derive(&w.costs, w.rig.transport(), per_request_ns, &obs);
    if !obs.rejected {
        fg.delivered = true;
        fg.payload = payload;
        fg.path = classify_path(&obs);
        w.server_inflight += 1;
    }
    let queue = &mut w.queue;
    w.chains.open(&w.costs, &demands, f, |c, chain| {
        chain.lane = 0;
        queue.push(now, 0, Ev::Step(c));
    });
}

/// Walks one stage of a chain, accumulating the foreground breakdown;
/// an exhausted foreground chain records the completed request.
fn step<R: RigDriver>(w: &mut World<R>, c: u32) {
    let now = w.queue.now();
    let chain = &mut w.chains[c];
    let fg = chain.fg;
    if chain.cursor == chain.stages.len() {
        w.chains.close(c);
        w.end = w.end.max(now);
        if let Some(f) = fg {
            complete(w, f);
        }
        return;
    }
    let stage = chain.stages[chain.cursor];
    chain.cursor += 1;
    let (started, done) = w.serve(now, &stage);
    if let Some(f) = fg {
        w.flights[f].log.push(obs::StageNs {
            stage: stage.res.name(),
            queue_ns: started.since(now).as_nanos(),
            service_ns: done.since(started).as_nanos(),
        });
    }
    w.queue.push(done, 0, Ev::Step(c));
}

/// A flight's chain drained: retransmit a rejected request if the retry
/// policy allows, otherwise record the request as delivered, late or
/// shed and free the flight.
fn complete<R: RigDriver>(w: &mut World<R>, f: u32) {
    let now = w.queue.now();
    let fg = &mut w.flights[f];
    if !fg.delivered {
        // The rejection reply just reached the client: back off and
        // retransmit if the budget allows. The backoff is a pure
        // client-side delay, recorded as a stage so the breakdown still
        // telescopes to end-to-end latency.
        if let Some(policy) = w.retry {
            // A retransmission that would resume past the request's
            // deadline cannot deliver useful work, so the client sheds
            // instead of adding load — the graceful half of graceful
            // shedding.
            let resume_ns = |backoff: u64| now.since(fg.start).as_nanos() + backoff;
            if fg.attempts <= u64::from(policy.budget) {
                let backoff = policy.backoff_ns(fg.idx as u64, fg.attempts as u32);
                if w.deadline_ns == 0 || resume_ns(backoff) <= w.deadline_ns {
                    fg.log.push(obs::StageNs {
                        stage: "client-backoff",
                        queue_ns: 0,
                        service_ns: backoff,
                    });
                    let at = now + sim::time::Duration::from_nanos(backoff);
                    w.queue.push(at, 0, Ev::Transmit(f));
                    return;
                }
            }
        }
    }
    w.inflight -= 1;
    if fg.delivered {
        w.server_inflight -= 1;
    }
    let latency_ns = now.since(fg.start).as_nanos();
    if !fg.delivered {
        // Shed: every transmission was rejected. The request consumed
        // client time and rejection round trips, but delivered nothing —
        // it counts as a client-visible error, not goodput, and its
        // (zero-latency-value) outcome stays out of the latency
        // histogram.
        w.shed += 1;
        w.rec.add_counter("openloop.shed", 1);
    } else if w.deadline_ns > 0 && latency_ns > w.deadline_ns {
        // Late: the work was done, but past the client's deadline — the
        // bytes are real yet worthless to the caller, so they count
        // separately from goodput.
        w.deadline_exceeded += 1;
        w.late_bytes += fg.payload;
        w.rec.add_counter("openloop.deadline_exceeded", 1);
        w.latency.record(latency_ns);
        add_stage_totals(&mut w.stage_totals, &fg.log);
    } else {
        w.meter.record(fg.payload);
        w.latency.record(latency_ns);
        add_stage_totals(&mut w.stage_totals, &fg.log);
    }
    w.rec.set_now(now.as_nanos());
    emit_request(&w.rec, fg.label, fg.path, fg.start, now, &mut fg.log);
    w.flights.free(f);
}

/// Runs `ops` open-loop against `rig`, arrival `k` firing at
/// `schedule[k]`. The schedule must be as long as `ops` and
/// non-decreasing (the Poisson draws from [`workload::arrivals`] are).
/// Arrivals stream from a cursor over the schedule; an arrival due at the
/// same instant as a queued stage step fires first.
///
/// # Panics
///
/// Panics if `schedule` and `ops` differ in length, or if `schedule`
/// decreases anywhere.
pub fn run_open_loop_at<R: RigDriver>(
    rig: R,
    ops: Vec<DriverOp>,
    schedule: &[SimTime],
    opts: &OpenLoopOptions,
) -> (R, OpenLoopResult) {
    assert_eq!(schedule.len(), ops.len(), "one arrival instant per op");
    let mut arrivals = Arrivals::new(schedule);
    let rec = rig.recorder();
    let n = ops.len();
    let mut app_cpu = Resource::new("app-cpu", 1);
    let mut app_tx = Resource::new("app-tx", opts.nics.max(1));
    let mut app_rx = Resource::new("app-rx", opts.nics.max(1));
    let mut stor_cpu = Resource::new("storage-cpu", 1);
    let mut stor_tx = Resource::new("storage-tx", 1);
    let mut stor_rx = Resource::new("storage-rx", 1);
    if rec.is_enabled() {
        app_cpu.set_recorder(rec.clone());
        app_tx.set_recorder(rec.clone());
        app_rx.set_recorder(rec.clone());
        stor_cpu.set_recorder(rec.clone());
        stor_tx.set_recorder(rec.clone());
        stor_rx.set_recorder(rec.clone());
    }
    let mut w = World {
        rig,
        ops,
        costs: opts.costs.clone(),
        rec,
        queue: EventQueue::new(),
        chains: Chains::default(),
        flights: Slab::new(),
        app_cpu,
        app_tx,
        app_rx,
        stor_cpu,
        stor_tx,
        stor_rx,
        array: Raid0::new(DiskModel::dtla_307075(), 4, 16),
        meter: Throughput::new(),
        latency: obs::Histogram::new(),
        stage_totals: [None; 8],
        busy: Default::default(),
        inflight: 0,
        peak_inflight: 0,
        server_inflight: 0,
        end: SimTime::ZERO,
        deadline_ns: opts.deadline_ns,
        retry: opts.retry,
        deadline_exceeded: 0,
        late_bytes: 0,
        shed: 0,
        retries: 0,
        max_attempts: 0,
    };
    while let Some(next) = w.queue.pop_or_arrival(&mut arrivals) {
        match next {
            Next::Arrival(k) => arrive(&mut w, k),
            Next::Event(Ev::Transmit(f)) => transmit(&mut w, f),
            Next::Event(Ev::Step(c)) => step(&mut w, c),
        }
    }
    let elapsed = w.end;
    let span = schedule.last().map_or(SimTime::ZERO, |&t| t);
    let offered = if span > SimTime::ZERO {
        n as f64 / span.as_secs_f64()
    } else {
        0.0
    };
    let stages: Vec<obs::StageNs> = SLOT_NAMES
        .iter()
        .chain(["client-backoff"].iter())
        .zip(w.stage_totals)
        .filter_map(|(&stage, total)| {
            total.map(|(queue_ns, service_ns)| obs::StageNs {
                stage,
                queue_ns,
                service_ns,
            })
        })
        .collect();
    let servers = [
        opts.nics.max(1),
        1,
        opts.nics.max(1),
        1,
        1,
        1,
        w.array.disk_count(),
    ];
    let (window_ns, timelines) = build_timelines(&w.busy, servers, elapsed);
    let result = OpenLoopResult {
        offered_ops_per_sec: offered,
        goodput_mbs: w.meter.megabytes_per_sec(elapsed),
        ops_per_sec: w.meter.ops_per_sec(elapsed),
        ops: w.meter.ops(),
        payload_bytes: w.meter.bytes(),
        elapsed,
        peak_inflight: w.peak_inflight,
        latency: w.latency.snapshot(),
        stages,
        window_ns,
        timelines,
        deadline_exceeded: w.deadline_exceeded,
        late_bytes: w.late_bytes,
        shed: w.shed,
        retries: w.retries,
        max_attempts: w.max_attempts,
        events: w.queue.dispatched(),
    };
    (w.rig, result)
}

/// [`run_open_loop_at`] over a seeded Poisson schedule drawn from the
/// options (see [`workload::arrivals::poisson_arrivals`]).
pub fn run_open_loop<R: RigDriver>(
    rig: R,
    ops: Vec<DriverOp>,
    opts: &OpenLoopOptions,
) -> (R, OpenLoopResult) {
    let schedule = poisson_arrivals(
        opts.seed,
        ops.len(),
        opts.mean_interarrival_ns,
        opts.burst.as_ref(),
    );
    run_open_loop_at(rig, ops, &schedule, opts)
}

/// Zipf-popular aligned reads over the first `file_bytes` of `fh`:
/// rank 0 (the hottest span) is the file's first `span` bytes. The
/// overload sweep's operation stream.
pub fn zipf_reads(seed: u64, fh: u64, n: usize, file_bytes: u64, span: u32, alpha: f64) -> Vec<DriverOp> {
    let ranks = (file_bytes / u64::from(span)).max(1) as usize;
    let z = Zipf::new(ranks, alpha);
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| DriverOp::Read {
            fh,
            offset: (z.sample(&mut rng) as u64 * u64::from(span)) as u32,
            len: span,
        })
        .collect()
}

/// Buckets each resource's busy intervals into at most 32 equal-width
/// occupancy windows over `[0, elapsed]`, in one pass over the intervals.
/// `servers[i]` is the server count of the resource in slot `i`.
fn build_timelines(
    busy: &[Vec<(u64, u64)>; 7],
    servers: [usize; 7],
    elapsed: SimTime,
) -> (u64, Vec<ResourceTimeline>) {
    let elapsed_ns = elapsed.as_nanos();
    if elapsed_ns == 0 {
        return (0, Vec::new());
    }
    let width = elapsed_ns.div_ceil(32).max(1);
    let windows = elapsed_ns.div_ceil(width) as usize;
    let bounds = |k: usize| {
        let w0 = k as u64 * width;
        (w0, (w0 + width).min(elapsed_ns))
    };
    let timelines = SLOT_NAMES
        .iter()
        .zip(busy)
        .zip(servers)
        .map(|((&name, intervals), servers)| {
            let mut overlap = [0u64; 32];
            for &(s, e) in intervals {
                let e = e.min(elapsed_ns);
                if s >= e {
                    continue;
                }
                for (k, o) in overlap
                    .iter_mut()
                    .enumerate()
                    .take(((e - 1) / width) as usize + 1)
                    .skip((s / width) as usize)
                {
                    let (w0, w1) = bounds(k);
                    *o += e.min(w1) - s.max(w0);
                }
            }
            let util = overlap[..windows]
                .iter()
                .enumerate()
                .map(|(k, &o)| {
                    let (w0, w1) = bounds(k);
                    (o as f64 / ((w1 - w0).max(1) * servers as u64) as f64).min(1.0)
                })
                .collect();
            ResourceTimeline {
                resource: name,
                servers: servers as u32,
                util,
            }
        })
        .collect();
    (width, timelines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfs_rig::{NfsRig, NfsRigParams};
    use check::gen::*;
    use check::{prop_assert_eq, property};
    use servers::ServerMode;

    fn warm_rig(size: u64) -> (NfsRig, u64) {
        let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
        let fh = rig.create_file("hot", size);
        let mut off = 0u64;
        while off < size {
            rig.read(fh, off as u32, 16 << 10);
            off += 16 << 10;
        }
        // Drop the warm-up's accumulated storage backlog so it does not
        // ride the first measured request's burst chain.
        let _ = rig.server_mut().fs_mut().store_mut().take_io_log();
        (rig, fh)
    }

    fn traced(rig: NfsRig) -> (NfsRig, obs::Recorder) {
        let rec = obs::Recorder::new();
        rec.enable(obs::TraceConfig::default());
        let mut rig = rig;
        rig.set_recorder(rec.clone());
        (rig, rec)
    }

    #[test]
    fn widely_spaced_arrivals_see_zero_queue_time() {
        // Cache-hit reads take well under a millisecond of total service;
        // arrivals 10 ms apart can never overlap, so every stage of every
        // request starts the instant it arrives.
        let (rig, fh) = warm_rig(1 << 20);
        let (rig, rec) = traced(rig);
        let ops = zipf_reads(5, fh, 32, 1 << 20, 16 << 10, 1.0);
        let schedule: Vec<SimTime> = (0..32)
            .map(|k| SimTime::from_nanos((k + 1) * 10_000_000))
            .collect();
        let (_rig, r) = run_open_loop_at(rig, ops, &schedule, &OpenLoopOptions::default());
        assert_eq!(r.ops, 32);
        assert_eq!(r.peak_inflight, 1);
        for st in &r.stages {
            assert_eq!(st.queue_ns, 0, "stage {} queued under zero load", st.stage);
        }
        for ev in rec.events().iter() {
            if let obs::EventKind::Request { stages, .. } = &ev.kind {
                assert!(stages.iter().all(|s| s.queue_ns == 0));
            }
        }
    }

    #[test]
    fn stage_sums_telescope_to_latency() {
        let (rig, fh) = warm_rig(1 << 20);
        let (rig, rec) = traced(rig);
        let ops = zipf_reads(9, fh, 64, 1 << 20, 16 << 10, 1.0);
        let opts = OpenLoopOptions {
            mean_interarrival_ns: 30_000, // dense enough to queue
            seed: 11,
            ..OpenLoopOptions::default()
        };
        let (_rig, r) = run_open_loop(rig, ops, &opts);
        assert_eq!(r.ops, 64);
        let mut total = 0u64;
        for ev in rec.events().iter() {
            if let obs::EventKind::Request {
                start_ns,
                end_ns,
                stages,
                ..
            } = &ev.kind
            {
                let sum: u64 = stages.iter().map(|s| s.queue_ns + s.service_ns).sum();
                assert_eq!(sum, end_ns - start_ns, "stage sum must reconcile");
                total += sum;
            }
        }
        assert_eq!(total, r.latency.sum, "histogram sum matches the events");
        let stage_total: u64 = r.stages.iter().map(|s| s.queue_ns + s.service_ns).sum();
        assert_eq!(stage_total, r.latency.sum, "per-stage totals reconcile");
    }

    #[test]
    fn overload_grows_queues_and_tails() {
        let build = || {
            let (rig, fh) = warm_rig(1 << 20);
            (rig, zipf_reads(3, fh, 256, 1 << 20, 16 << 10, 1.0))
        };
        let run_at = |mean_ns: u64| {
            let (rig, ops) = build();
            let opts = OpenLoopOptions {
                mean_interarrival_ns: mean_ns,
                seed: 21,
                ..OpenLoopOptions::default()
            };
            let (_rig, r) = run_open_loop(rig, ops, &opts);
            r
        };
        let light = run_at(2_000_000);
        let heavy = run_at(20_000);
        assert_eq!(light.ops, 256);
        assert_eq!(heavy.ops, 256, "open loop completes every request");
        assert!(heavy.peak_inflight > light.peak_inflight);
        assert!(heavy.latency.quantile(0.99) > light.latency.quantile(0.99));
        // Queue time dominates under overload; it is absent unloaded.
        let queued: u64 = heavy.stages.iter().map(|s| s.queue_ns).sum();
        assert!(queued > 0);
        assert!(heavy.elapsed > SimTime::ZERO);
        assert!(!heavy.timelines.is_empty());
        assert!(heavy.timelines.iter().all(|t| t.util.iter().all(|&u| (0.0..=1.0).contains(&u))));
    }

    #[test]
    fn transmissions_are_bounded_by_one_plus_budget() {
        let (mut rig, fh) = warm_rig(1 << 20);
        rig.enable_control(servers::ControlConfig {
            max_inflight: 4,
            queue_hi: 3,
            queue_lo: 2,
            token_cost_ns: 0,
            token_burst: 0,
            ..servers::ControlConfig::protective()
        });
        let policy = servers::RetryPolicy::standard(41);
        let ops = zipf_reads(19, fh, 256, 1 << 20, 16 << 10, 1.0);
        let opts = OpenLoopOptions {
            mean_interarrival_ns: 10_000, // far past capacity: the gate trips
            seed: 23,
            retry: Some(policy),
            ..OpenLoopOptions::default()
        };
        let (rig, r) = run_open_loop(rig, ops, &opts);
        let stats = rig.control_stats().expect("control installed");
        assert!(stats.rejected > 0, "overload must trip the gate");
        assert!(r.retries > 0, "rejections must drive retransmissions");
        assert!(r.max_attempts >= 2);
        assert!(
            r.max_attempts <= 1 + u64::from(policy.budget),
            "no request transmits more than 1 + budget times (got {})",
            r.max_attempts
        );
        assert!(r.shed > 0, "budget exhaustion is a counted shed");
        // Every arrival completes exactly once: on time, late, or shed
        // (no deadline here, so nothing is late).
        assert_eq!(r.ops + r.deadline_exceeded + r.shed, 256);
        assert_eq!(r.deadline_exceeded, 0);
        // Transmissions reconcile against the gate's ledger: the server
        // saw one initial send per arrival plus every retransmission.
        assert_eq!(stats.offered, 256 + r.retries);
        assert_eq!(stats.offered, stats.admitted + stats.rejected);
    }

    #[test]
    fn disengaged_control_plane_is_unobservable() {
        let run = |controlled: bool| {
            let (mut rig, fh) = warm_rig(1 << 20);
            let mut opts = OpenLoopOptions {
                mean_interarrival_ns: 40_000, // dense enough to queue
                seed: 29,
                ..OpenLoopOptions::default()
            };
            if controlled {
                // Installed but fully open: every bound off, watermarks
                // above the scale. A client with a retry policy and a
                // generous deadline behaves identically when nothing is
                // ever rejected or late.
                rig.enable_control(servers::ControlConfig::unlimited());
                opts.retry = Some(servers::RetryPolicy::standard(7));
                opts.deadline_ns = u64::MAX;
            }
            let ops = zipf_reads(31, fh, 128, 1 << 20, 16 << 10, 1.0);
            let (rig, r) = run_open_loop(rig, ops, &opts);
            (rig, r)
        };
        let (_, off) = run(false);
        let (rig, on) = run(true);
        assert_eq!(off, on, "a gate that admits everything must be invisible");
        let stats = rig.control_stats().expect("control installed");
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.admitted, 128);
        assert_eq!(on.retries, 0);
        assert_eq!(on.shed, 0);
        assert_eq!(on.deadline_exceeded, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let once = || {
            let (rig, fh) = warm_rig(1 << 20);
            let ops = zipf_reads(13, fh, 96, 1 << 20, 16 << 10, 0.8);
            let opts = OpenLoopOptions {
                mean_interarrival_ns: 60_000,
                burst: Some(BurstConfig {
                    period_ns: 2_000_000,
                    factor: 3.0,
                }),
                seed: 17,
                ..OpenLoopOptions::default()
            };
            let (_rig, r) = run_open_loop(rig, ops, &opts);
            r
        };
        let a = once();
        let b = once();
        assert_eq!(a, b, "same inputs, byte-identical outcome");
    }

    #[test]
    fn all_hit_4k_run_dispatches_five_events_per_request() {
        // A resident 4 KB read walks app-rx, app-cpu and app-tx: one
        // arrival, three stage steps and one completion.
        let (rig, fh) = warm_rig(1 << 20);
        let ops = zipf_reads(7, fh, 200, 1 << 20, 4 << 10, 0.8);
        let opts = OpenLoopOptions {
            mean_interarrival_ns: 20_000,
            seed: 3,
            ..OpenLoopOptions::default()
        };
        let (_rig, r) = run_open_loop(rig, ops, &opts);
        assert_eq!(r.ops, 200);
        assert!(
            r.stages.iter().all(|s| s.stage.starts_with("app-")),
            "all hits"
        );
        assert_eq!(r.events, 1_000);
    }

    /// The per-window computation the linear pass replaced: every window
    /// rescans every interval. Kept as the oracle.
    fn timelines_per_window(
        busy: &[Vec<(u64, u64)>; 7],
        servers: [usize; 7],
        elapsed_ns: u64,
    ) -> (u64, Vec<ResourceTimeline>) {
        if elapsed_ns == 0 {
            return (0, Vec::new());
        }
        let width = elapsed_ns.div_ceil(32).max(1);
        let windows = elapsed_ns.div_ceil(width) as usize;
        let timelines = SLOT_NAMES
            .iter()
            .enumerate()
            .map(|(i, &name)| {
                let servers = servers[i] as u64;
                let util = (0..windows)
                    .map(|k| {
                        let w0 = k as u64 * width;
                        let w1 = ((k as u64 + 1) * width).min(elapsed_ns);
                        let overlap: u64 = busy[i]
                            .iter()
                            .map(|&(s, e)| e.min(w1).saturating_sub(s.max(w0)))
                            .sum();
                        (overlap as f64 / ((w1 - w0).max(1) * servers) as f64).min(1.0)
                    })
                    .collect();
                ResourceTimeline {
                    resource: name,
                    servers: servers as u32,
                    util,
                }
            })
            .collect();
        (width, timelines)
    }

    property! {
        #![cases(128)]

        /// Intervals that span several windows, end exactly on a window
        /// edge, or run past `elapsed`, over any `elapsed` (mostly not a
        /// multiple of 32), bucket bit for bit as the per-window scan did.
        fn prop_linear_timelines_match_the_per_window_oracle(
            elapsed_ns in ints(0u64..10_000),
            nics in ints(1usize..3),
            intervals in vec_of(
                (ints(0usize..7), ints(0u64..10_500), ints(1u64..3_000), any_bool()),
                0..48,
            ),
        ) {
            let width = elapsed_ns.div_ceil(32).max(1);
            let mut busy: [Vec<(u64, u64)>; 7] = Default::default();
            for &(slot, start, len, on_edge) in &intervals {
                let mut end = start + len;
                if on_edge {
                    // Pull the end back onto the last window edge
                    // after the start.
                    end = (end / width * width).max(start + 1);
                }
                busy[slot].push((start, end));
            }
            let servers = [nics, 1, nics, 1, 1, 1, 4];
            let (w_lin, lin) = build_timelines(&busy, servers, SimTime::from_nanos(elapsed_ns));
            let (w_old, old) = timelines_per_window(&busy, servers, elapsed_ns);
            prop_assert_eq!(w_lin, w_old);
            prop_assert_eq!(lin.len(), old.len());
            for (a, b) in lin.iter().zip(&old) {
                prop_assert_eq!((a.resource, a.servers), (b.resource, b.servers));
                let bits = |t: &ResourceTimeline| t.util.iter().map(|u| u.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(a), bits(b), "{} diverged", a.resource);
            }
        }
    }
}
