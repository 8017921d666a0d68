//! The closed-loop experiment runner.
//!
//! Replays an operation stream against a rig with a configurable number of
//! outstanding requests (the paper tunes "the number of NFS server
//! daemons", §5.4) over the simulated hardware: per-node CPUs, full-duplex
//! Gigabit links (1 or 2 NICs on the application server — the Figure 5
//! lever), and the RAID-0 IDE array. Each operation executes *functionally*
//! on the data plane at issue time; its measured operation counts become
//! FIFO service demands, and throughput/utilization emerge from whichever
//! resource saturates.

use blockdev::{DiskModel, Raid0, TierConfig, TierStats, TieredArray};
use sim::costs::CostModel;
use sim::queue::{EventQueue, Slab};
use sim::stats::{LatencyHistogram, Throughput};
use sim::time::{Duration, SimTime};
use sim::Resource;

use crate::khttpd_rig::KhttpdRig;
use crate::nfs_rig::NfsRig;
use crate::timing::{coalesce, derive, Observation, RequestDemands, Transport};

/// One operation the runner can replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DriverOp {
    /// NFS READ.
    Read {
        /// File handle.
        fh: u64,
        /// Byte offset.
        offset: u32,
        /// Bytes requested.
        len: u32,
    },
    /// NFS WRITE (the runner fabricates payload bytes).
    Write {
        /// File handle.
        fh: u64,
        /// Byte offset.
        offset: u32,
        /// Bytes written.
        len: u32,
    },
    /// NFS GETATTR.
    Getattr {
        /// File handle.
        fh: u64,
    },
    /// NFS LOOKUP in the export root.
    Lookup {
        /// Name to resolve.
        name: String,
    },
    /// HTTP GET.
    Get {
        /// Page path.
        path: String,
    },
}

/// What one functional execution produced.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecOutcome {
    /// Client→server message bytes.
    pub request_bytes: u64,
    /// Server→client message bytes.
    pub reply_bytes: u64,
    /// Application payload delivered (throughput numerator).
    pub payload_bytes: u64,
}

/// A rig the runner can drive.
pub trait RigDriver {
    /// Executes `op` on the data plane and returns the full observation
    /// (ledger deltas, cache ops, coalesced storage I/O) plus the payload
    /// moved.
    fn run_op(&mut self, op: &DriverOp) -> (Observation, u64);

    /// Client-leg transport.
    fn transport(&self) -> Transport;

    /// Fixed per-request CPU cost for this server type.
    fn per_request_ns(&self, costs: &CostModel) -> u64;

    /// The rig's recorder. The runner stamps simulated time into it
    /// before each functional execution and mirrors request / resource
    /// timing as exactly-timed events. The default is a detached,
    /// disabled recorder: every emission is a no-op.
    fn recorder(&self) -> obs::Recorder {
        obs::Recorder::new()
    }

    /// Reports the timing layer's load to the server ahead of a
    /// functional execution: the request's sim arrival instant and the
    /// number of requests currently in flight. The overload control
    /// plane decides admission from exactly these inputs; rigs without
    /// one ignore the call (the default).
    fn set_load(&mut self, _now_ns: u64, _inflight: u64) {}

    /// Adaptive-split epoch length in *operations*, or `None` when no
    /// split controller is installed (the default). When `Some(L)`, the
    /// engines call [`RigDriver::adaptive_tick`] after every `L`
    /// functional executions — a deterministic op-count boundary, never
    /// mid-request, identical between the sequential and parallel engines.
    fn adaptive_epoch(&self) -> Option<u64> {
        None
    }

    /// One controller tick: sample the epoch's ghost/hit window and apply
    /// any quota move. Default: nothing (no controller).
    fn adaptive_tick(&mut self) {}
}

/// The span label the runner files an operation under.
pub(crate) fn op_label(op: &DriverOp) -> &'static str {
    match op {
        DriverOp::Read { .. } => "read",
        DriverOp::Write { .. } => "write",
        DriverOp::Getattr { .. } => "getattr",
        DriverOp::Lookup { .. } => "lookup",
        DriverOp::Get { .. } => "get",
    }
}

/// Framing overhead of one message (Ethernet + IP + UDP/TCP headers).
pub(crate) const FRAME_OVERHEAD: u64 = 42;

fn snapshot_module(rig_module: &Option<sim::Shared<ncache::NcacheModule>>) -> (u64, u64) {
    match rig_module {
        Some(m) => {
            let m = m.borrow();
            (m.stats().total_ops(), m.substitution_totals().substituted)
        }
        None => (0, 0),
    }
}

impl RigDriver for NfsRig {
    fn run_op(&mut self, op: &DriverOp) -> (Observation, u64) {
        let app0 = self.ledgers().app.snapshot();
        let stor0 = self.ledgers().storage.snapshot();
        let (nc0, sub0) = snapshot_module(&self.module());
        let bc0 = self.server_mut().fs_mut().cache_stats();

        let (request, payload_hint) = match op {
            DriverOp::Read { fh, offset, len } => {
                (self.client_mut().read_request(*fh, *offset, *len), 0)
            }
            DriverOp::Write { fh, offset, len } => {
                let data = vec![0xA5u8; *len as usize];
                (
                    self.client_mut().write_request(*fh, *offset, &data),
                    u64::from(*len),
                )
            }
            DriverOp::Getattr { fh } => (self.client_mut().getattr_request(*fh), 0),
            DriverOp::Lookup { name } => {
                let root = self.server_mut().root_fh();
                (self.client_mut().lookup_request(root, name), 0)
            }
            DriverOp::Get { .. } => panic!("HTTP op on the NFS rig"),
        };
        let request_bytes = request.total_len() as u64 + FRAME_OVERHEAD;
        let rej0 = self.server().control_rejections();
        let reply = self.handle_raw(request);
        let rejected = self.server().control_rejections() > rej0;
        let reply_payload = reply.payload_len() as u64;
        let reply_bytes = reply.total_len() as u64 + FRAME_OVERHEAD;
        // A rejected WRITE accepted no payload; the hint only applies to
        // executed operations.
        let payload = if rejected {
            0
        } else if payload_hint > 0 {
            payload_hint
        } else {
            reply_payload
        };

        let io = self.server_mut().fs_mut().store_mut().take_io_log();
        let (nc1, sub1) = snapshot_module(&self.module());
        let bc1 = self.server_mut().fs_mut().cache_stats();
        let obs = Observation {
            app: self.ledgers().app.snapshot().delta_since(&app0),
            storage: self.ledgers().storage.snapshot().delta_since(&stor0),
            ncache_ops: nc1 - nc0,
            substituted_pkts: sub1 - sub0,
            bufcache_ops: (bc1.hits + bc1.misses + bc1.insertions)
                - (bc0.hits + bc0.misses + bc0.insertions),
            bursts: coalesce(&io),
            request_bytes,
            reply_bytes,
            rejected,
        };
        (obs, payload)
    }

    fn transport(&self) -> Transport {
        Transport::Udp
    }

    fn per_request_ns(&self, costs: &CostModel) -> u64 {
        costs.nfs_req_ns
    }

    fn recorder(&self) -> obs::Recorder {
        NfsRig::recorder(self).clone()
    }

    fn set_load(&mut self, now_ns: u64, inflight: u64) {
        self.server_mut().set_load(now_ns, inflight);
    }

    fn adaptive_epoch(&self) -> Option<u64> {
        NfsRig::adaptive_epoch(self)
    }

    fn adaptive_tick(&mut self) {
        NfsRig::adaptive_tick(self);
    }
}

impl RigDriver for KhttpdRig {
    fn run_op(&mut self, op: &DriverOp) -> (Observation, u64) {
        let DriverOp::Get { path } = op else {
            panic!("NFS op on the web rig");
        };
        let app0 = self.ledgers().app.snapshot();
        let stor0 = self.ledgers().storage.snapshot();
        let (nc0, sub0) = snapshot_module(&self.module());
        let bc0 = self.server_mut().fs_mut().cache_stats();

        let req = servers::khttpd::HttpClient::new(&self.ledgers().client).get_request(path);
        let request_bytes = req.total_len() as u64 + FRAME_OVERHEAD;
        let delivered = servers::stack::deliver(&req, &self.ledgers().app);
        let rej0 = self.server_mut().control_rejections();
        let response = self.server_mut().handle_request(&delivered);
        let rejected = self.server_mut().control_rejections() > rej0;
        let payload = response.payload_len() as u64;
        let reply_bytes = response.total_len() as u64 + FRAME_OVERHEAD;

        let io = self.server_mut().fs_mut().store_mut().take_io_log();
        let (nc1, sub1) = snapshot_module(&self.module());
        let bc1 = self.server_mut().fs_mut().cache_stats();
        let obs = Observation {
            app: self.ledgers().app.snapshot().delta_since(&app0),
            storage: self.ledgers().storage.snapshot().delta_since(&stor0),
            ncache_ops: nc1 - nc0,
            substituted_pkts: sub1 - sub0,
            bufcache_ops: (bc1.hits + bc1.misses + bc1.insertions)
                - (bc0.hits + bc0.misses + bc0.insertions),
            bursts: coalesce(&io),
            request_bytes,
            reply_bytes,
            rejected,
        };
        (obs, payload)
    }

    fn transport(&self) -> Transport {
        Transport::Tcp
    }

    fn per_request_ns(&self, costs: &CostModel) -> u64 {
        costs.http_req_ns
    }

    fn recorder(&self) -> obs::Recorder {
        KhttpdRig::recorder(self).clone()
    }

    fn set_load(&mut self, now_ns: u64, inflight: u64) {
        self.server_mut().set_load(now_ns, inflight);
    }

    fn adaptive_epoch(&self) -> Option<u64> {
        KhttpdRig::adaptive_epoch(self)
    }

    fn adaptive_tick(&mut self) {
        KhttpdRig::adaptive_tick(self);
    }
}

/// Runner configuration.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Outstanding requests (NFS daemon count / concurrent connections).
    pub concurrency: usize,
    /// NICs on the application server (Figure 5: 1 = link-bound,
    /// 2 = CPU-bound).
    pub nics: usize,
    /// The hardware cost model.
    pub costs: CostModel,
    /// Tiered backend configuration; `None` is the paper's flat RAID-0
    /// array (the exact pre-tier timing path).
    pub tier: Option<TierConfig>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            concurrency: 8,
            nics: 1,
            costs: CostModel::pentium3_gige(),
            tier: None,
        }
    }
}

/// Measured outcome of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Delivered payload, MB/s (decimal), as the paper's throughput plots.
    pub throughput_mbs: f64,
    /// Operations per second (the SPECsfs metric).
    pub ops_per_sec: f64,
    /// Application-server CPU utilization in `[0, 1]`.
    pub app_cpu_util: f64,
    /// Storage-server CPU utilization.
    pub storage_cpu_util: f64,
    /// Application-server transmit-link utilization.
    pub app_tx_util: f64,
    /// Mean member-disk utilization of the array.
    pub disk_util: f64,
    /// Simulated wall-clock of the run.
    pub elapsed: SimTime,
    /// Operations completed.
    pub ops: u64,
    /// Payload bytes delivered.
    pub payload_bytes: u64,
    /// Mean request latency.
    pub mean_latency: Duration,
    /// Approximate 99th-percentile request latency.
    pub p99_latency: Duration,
    /// Per-interval throughput samples over the run (≤ 32 buckets;
    /// empty when no foreground operation completed).
    pub timeline: Vec<TimelineSample>,
    /// Tier counters when the run used a tiered backend.
    pub tier: Option<TierStats>,
    /// Events the timing engine dispatched: one per stage step plus one
    /// per chain completion. A deterministic work count.
    pub events: u64,
}

/// One interval of a run's completion-driven timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimelineSample {
    /// Interval end, simulated nanoseconds.
    pub t_ns: u64,
    /// Payload throughput over the interval, MB/s (decimal).
    pub throughput_mbs: f64,
    /// Foreground operations completed in the interval.
    pub ops: u64,
}

/// Buckets raw completion samples `(t_ns, payload_bytes)` into at most
/// 32 equal-width intervals spanning `[0, elapsed_ns]`.
fn build_timeline(samples: &[(u64, u64)], elapsed_ns: u64) -> Vec<TimelineSample> {
    if samples.is_empty() || elapsed_ns == 0 {
        return Vec::new();
    }
    let buckets = samples.len().min(32);
    let width = elapsed_ns.div_ceil(buckets as u64).max(1);
    let mut out: Vec<TimelineSample> = (0..buckets as u64)
        .map(|i| TimelineSample {
            t_ns: (width * (i + 1)).min(elapsed_ns),
            throughput_mbs: 0.0,
            ops: 0,
        })
        .collect();
    let mut bytes = vec![0u64; buckets];
    for &(t, payload) in samples {
        let idx = (t.saturating_sub(1) / width).min(buckets as u64 - 1) as usize;
        bytes[idx] += payload;
        out[idx].ops += 1;
    }
    for (i, s) in out.iter_mut().enumerate() {
        let start = width * i as u64;
        let w = s.t_ns.saturating_sub(start).max(1);
        // bytes/ns → decimal MB/s is a factor of 1e3.
        s.throughput_mbs = bytes[i] as f64 * 1e3 / w as f64;
    }
    out
}

/// A FIFO resource a request stage occupies. Shared with the
/// multi-session engine in [`crate::sessions`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum Res {
    AppRx,
    AppCpu,
    AppTx,
    StorRx,
    StorCpu,
    StorTx,
    Disk { lbn: u64, blocks: u64, write: bool },
}

impl Res {
    /// The stage name latency attribution files this resource under
    /// (matches the recorder's closed stage-histogram key set).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Res::AppRx => "app-rx",
            Res::AppCpu => "app-cpu",
            Res::AppTx => "app-tx",
            Res::StorRx => "storage-rx",
            Res::StorCpu => "storage-cpu",
            Res::StorTx => "storage-tx",
            Res::Disk { .. } => "disk",
        }
    }
}

/// The storage backend behind the iSCSI target: the paper's flat RAID-0
/// array, or the tiered fast-device-plus-array variant (DESIGN.md §16).
/// `Flat` takes the exact pre-tier timing path byte for byte.
#[derive(Clone, Debug)]
pub(crate) enum Backend {
    Flat(Raid0),
    Tiered(Box<TieredArray>),
}

/// Timing of one backend I/O, with the tier facts the engines turn into
/// stages and counters.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ServeOutcome {
    pub(crate) begin: SimTime,
    pub(crate) done: SimTime,
    /// Completion of a promotion copy chained onto this read, if any.
    pub(crate) promote_done: Option<SimTime>,
    /// Whether a fast read faulted and fell back to the slow array.
    pub(crate) fault_fallback: bool,
}

impl Backend {
    pub(crate) fn new(tier: Option<TierConfig>) -> Backend {
        let array = Raid0::new(DiskModel::dtla_307075(), 4, 16);
        match tier {
            None => Backend::Flat(array),
            Some(cfg) => Backend::Tiered(Box::new(TieredArray::new(cfg, array))),
        }
    }

    pub(crate) fn serve(&mut self, now: SimTime, lbn: u64, blocks: u64, write: bool) -> ServeOutcome {
        match self {
            Backend::Flat(array) => {
                let (begin, done) = array.io_timed(now, lbn, blocks);
                ServeOutcome {
                    begin,
                    done,
                    promote_done: None,
                    fault_fallback: false,
                }
            }
            Backend::Tiered(t) => {
                let o = if write {
                    t.write_timed(now, lbn, blocks)
                } else {
                    t.read_timed(now, lbn, blocks)
                };
                ServeOutcome {
                    begin: o.begin,
                    done: o.done,
                    promote_done: o.promote_done,
                    fault_fallback: o.fault_fallback,
                }
            }
        }
    }

    pub(crate) fn utilization(&self, elapsed_until: SimTime) -> f64 {
        match self {
            Backend::Flat(array) => array.utilization(elapsed_until),
            Backend::Tiered(t) => t.utilization(elapsed_until),
        }
    }

    pub(crate) fn tier_stats(&self) -> Option<TierStats> {
        match self {
            Backend::Flat(_) => None,
            Backend::Tiered(t) => Some(t.stats()),
        }
    }
}

/// The data path a request took, judged from its observation: any
/// foreground read burst puts the disk on the critical path; otherwise a
/// substituted reply was served zero-copy from the network-centric
/// cache; otherwise it was a plain cache hit. (Write-behind bursts are
/// background work and do not change the request's path.)
pub(crate) fn classify_path(obs: &Observation) -> &'static str {
    if obs.bursts.iter().any(|b| !b.is_write) {
        "disk"
    } else if obs.substituted_pkts > 0 {
        "substitution"
    } else {
        "hit"
    }
}

/// One stage of a request's resource chain.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Stage {
    pub(crate) res: Res,
    pub(crate) demand: Duration,
}

/// Builds the foreground stage chain plus any background write-behind
/// chains for one executed request, into the caller's (cleared) buffers.
/// Read bursts ride the foreground chain (the reply waits for them);
/// write bursts flush on their own chains — they occupy the link, the
/// storage CPU and the array but do not extend the request's latency.
pub(crate) fn stage_chains(
    costs: &CostModel,
    demands: &RequestDemands,
    stages: &mut Vec<Stage>,
    background: &mut Vec<[Stage; 4]>,
) {
    stages.clear();
    background.clear();
    stages.push(Stage {
        res: Res::AppRx,
        demand: costs.link_tx_time(demands.request_bytes),
    });
    stages.push(Stage {
        res: Res::AppCpu,
        demand: demands.app_cpu,
    });
    for (b, cpu) in &demands.bursts {
        let data_time = costs.link_tx_time(b.bytes());
        if b.is_write {
            background.push([
                Stage {
                    res: Res::AppTx,
                    demand: data_time,
                },
                Stage {
                    res: Res::StorRx,
                    demand: data_time,
                },
                Stage {
                    res: Res::StorCpu,
                    demand: *cpu,
                },
                Stage {
                    res: Res::Disk {
                        lbn: b.lbn,
                        blocks: b.blocks,
                        write: true,
                    },
                    demand: Duration::ZERO,
                },
            ]);
        } else {
            stages.push(Stage {
                res: Res::StorRx,
                demand: costs.link_tx_time(96),
            });
            stages.push(Stage {
                res: Res::StorCpu,
                demand: *cpu,
            });
            stages.push(Stage {
                res: Res::Disk {
                    lbn: b.lbn,
                    blocks: b.blocks,
                    write: false,
                },
                demand: Duration::ZERO,
            });
            stages.push(Stage {
                res: Res::StorTx,
                demand: data_time,
            });
            stages.push(Stage {
                res: Res::AppRx,
                demand: data_time,
            });
        }
    }
    stages.push(Stage {
        res: Res::AppTx,
        demand: costs.link_tx_time(demands.reply_bytes),
    });
}

/// A stage chain in flight: its stages, the next one to walk, the queue
/// lane its events ride on, and the foreground request it carries —
/// each engine's own index, a request slot or a session — or `None` for
/// background write-behind.
#[derive(Default)]
pub(crate) struct Chain {
    pub(crate) stages: Vec<Stage>,
    pub(crate) cursor: usize,
    pub(crate) lane: u64,
    pub(crate) fg: Option<u32>,
}

/// The chains in flight, in a slab whose slots keep their stage buffers
/// across requests.
#[derive(Default)]
pub(crate) struct Chains {
    slab: Slab<Chain>,
    background: Vec<[Stage; 4]>,
}

impl Chains {
    /// Opens the chains of one executed request whose foreground state is
    /// `fg`, calling `start` on each new chain in the order their first
    /// steps must be queued: background write-behind first, foreground
    /// last. `start` sets the chain's lane and queues its first step.
    pub(crate) fn open(
        &mut self,
        costs: &CostModel,
        demands: &RequestDemands,
        fg: u32,
        mut start: impl FnMut(u32, &mut Chain),
    ) {
        let f = self.slab.alloc();
        let chain = &mut self.slab[f];
        chain.cursor = 0;
        chain.fg = Some(fg);
        stage_chains(costs, demands, &mut chain.stages, &mut self.background);
        for bg in &self.background {
            let b = self.slab.alloc();
            let chain = &mut self.slab[b];
            chain.cursor = 0;
            chain.fg = None;
            chain.stages.clear();
            chain.stages.extend_from_slice(bg);
            start(b, chain);
        }
        start(f, &mut self.slab[f]);
    }

    /// Frees a drained chain's slot.
    pub(crate) fn close(&mut self, c: u32) {
        self.slab.free(c);
    }
}

impl std::ops::Index<u32> for Chains {
    type Output = Chain;
    fn index(&self, c: u32) -> &Chain {
        &self.slab[c]
    }
}

impl std::ops::IndexMut<u32> for Chains {
    fn index_mut(&mut self, c: u32) -> &mut Chain {
        &mut self.slab[c]
    }
}

/// Emits a completed request's span. The stage log moves into the event
/// only when the recorder keeps events; otherwise it is cleared, so its
/// buffer serves the next request.
pub(crate) fn emit_request(
    rec: &obs::Recorder,
    op: &'static str,
    path: &'static str,
    start: SimTime,
    end: SimTime,
    log: &mut Vec<obs::StageNs>,
) {
    if rec.is_enabled() {
        rec.emit(obs::EventKind::Request {
            op,
            path,
            start_ns: start.as_nanos(),
            end_ns: end.as_nanos(),
            stages: std::mem::take(log),
        });
    }
    log.clear();
}

/// A closed-loop request in flight.
#[derive(Default)]
struct Request {
    payload: u64,
    start: SimTime,
    label: &'static str,
    path: &'static str,
    /// Per-stage queue/service breakdown accumulated so far.
    log: Vec<obs::StageNs>,
}

/// The closed loop's queue and in-flight state.
struct Flights {
    queue: EventQueue<u32>,
    chains: Chains,
    requests: Slab<Request>,
    /// Chain ids in issue order, background chains first. A chain's id is
    /// its queue lane, so same-instant steps fire in issue order (each
    /// chain has one step queued at a time).
    next_id: u64,
}

impl Flights {
    /// Executes `op` functionally at `now` and opens its chains.
    fn issue<R: RigDriver>(
        &mut self,
        rig: &mut R,
        rec: &obs::Recorder,
        costs: &CostModel,
        op: &DriverOp,
        now: SimTime,
    ) {
        // Stamp the functional execution with its simulated issue time so
        // every data-plane event lands at the right spot on the timeline.
        rec.set_now(now.as_nanos());
        let (obs, payload) = rig.run_op(op);
        let demands = derive(costs, rig.transport(), rig.per_request_ns(costs), &obs);
        let r = self.requests.alloc();
        let req = &mut self.requests[r];
        req.payload = payload;
        req.start = now;
        req.label = op_label(op);
        req.path = classify_path(&obs);
        let (queue, next_id) = (&mut self.queue, &mut self.next_id);
        self.chains.open(costs, &demands, r, |c, chain| {
            chain.lane = *next_id;
            *next_id += 1;
            queue.push(now, chain.lane, c);
        });
    }
}

/// Runs `ops` against `rig` under `opts`. Operations execute functionally
/// in issue order; timing is an exact FIFO simulation.
pub fn run<R: RigDriver>(
    rig: &mut R,
    ops: impl IntoIterator<Item = DriverOp>,
    opts: &RunOptions,
) -> RunResult {
    let costs = &opts.costs;
    let mut ops = ops.into_iter();
    let rec = rig.recorder();

    let mut app_cpu = Resource::new("app-cpu", 1);
    let mut app_tx = Resource::new("app-tx", opts.nics.max(1));
    let mut app_rx = Resource::new("app-rx", opts.nics.max(1));
    let mut stor_cpu = Resource::new("storage-cpu", 1);
    let mut stor_tx = Resource::new("storage-tx", 1);
    let mut stor_rx = Resource::new("storage-rx", 1);
    let mut array = Backend::new(opts.tier);
    if rec.is_enabled() {
        app_cpu.set_recorder(rec.clone());
        app_tx.set_recorder(rec.clone());
        app_rx.set_recorder(rec.clone());
        stor_cpu.set_recorder(rec.clone());
        stor_tx.set_recorder(rec.clone());
        stor_rx.set_recorder(rec.clone());
    }

    let mut meter = Throughput::new();
    let mut f = Flights {
        queue: EventQueue::new(),
        chains: Chains::default(),
        requests: Slab::new(),
        next_id: 0,
    };
    let mut latency = LatencyHistogram::new();
    let mut end = SimTime::ZERO;
    // Raw completion samples (t_ns, payload) for the timeline.
    let mut samples: Vec<(u64, u64)> = Vec::new();

    // Controller epochs are op-count boundaries: tick after every
    // `epoch` functional executions, never mid-request.
    let epoch = rig.adaptive_epoch();
    let mut executed = 0u64;

    // Prime the closed loop.
    for _ in 0..opts.concurrency.max(1) {
        match ops.next() {
            Some(op) => {
                f.issue(rig, &rec, costs, &op, SimTime::ZERO);
                executed += 1;
                if epoch.is_some_and(|l| executed.is_multiple_of(l)) {
                    rig.adaptive_tick();
                }
            }
            None => break,
        }
    }

    while let Some(c) = f.queue.pop() {
        let now = f.queue.now();
        let chain = &mut f.chains[c];
        if chain.cursor == chain.stages.len() {
            let fg = chain.fg;
            f.chains.close(c);
            end = end.max(now);
            // A background write-behind chain completes silently (no
            // throughput record, no refill).
            if let Some(r) = fg {
                // A client request completed: record and refill the slot.
                let req = &mut f.requests[r];
                meter.record(req.payload);
                samples.push((now.as_nanos(), req.payload));
                latency.record(now.since(req.start));
                emit_request(&rec, req.label, req.path, req.start, now, &mut req.log);
                f.requests.free(r);
                if let Some(op) = ops.next() {
                    f.issue(rig, &rec, costs, &op, now);
                    executed += 1;
                    if epoch.is_some_and(|l| executed.is_multiple_of(l)) {
                        rig.adaptive_tick();
                    }
                }
            }
            continue;
        }
        let stage = chain.stages[chain.cursor];
        chain.cursor += 1;
        let (lane, fg) = (chain.lane, chain.fg);
        let mut promote_done = None;
        let (started, done) = match stage.res {
            Res::AppRx => app_rx.serve_timed(now, stage.demand),
            Res::AppCpu => app_cpu.serve_timed(now, stage.demand),
            Res::AppTx => app_tx.serve_timed(now, stage.demand),
            Res::StorRx => stor_rx.serve_timed(now, stage.demand),
            Res::StorCpu => stor_cpu.serve_timed(now, stage.demand),
            Res::StorTx => stor_tx.serve_timed(now, stage.demand),
            Res::Disk { lbn, blocks, write } => {
                let o = array.serve(now, lbn, blocks, write);
                if o.fault_fallback {
                    rec.add_counter("fault.tier_fallback", 1);
                }
                if o.promote_done.is_some() {
                    rec.add_counter("tier.promote", 1);
                }
                promote_done = o.promote_done;
                (o.begin, o.done)
            }
        };
        if let Some(r) = fg {
            let log = &mut f.requests[r].log;
            // Stage arrival is exactly `now` (the previous stage's
            // completion or the issue instant), so queue + service
            // telescopes across the chain to end-to-end latency, exactly,
            // in integer nanoseconds.
            log.push(obs::StageNs {
                stage: stage.res.name(),
                queue_ns: started.since(now).as_nanos(),
                service_ns: done.since(started).as_nanos(),
            });
            // A promotion copy chains onto the read it was triggered by:
            // the stage starts exactly at `done` (queue 0), so the chain
            // still telescopes to end-to-end latency.
            if let Some(p) = promote_done {
                log.push(obs::StageNs {
                    stage: "tier-promote",
                    queue_ns: 0,
                    service_ns: p.since(done).as_nanos(),
                });
            }
        }
        f.queue.push(promote_done.unwrap_or(done), lane, c);
    }

    let elapsed = end;
    let timeline = build_timeline(&samples, elapsed.as_nanos());
    for s in &timeline {
        rec.set_now(s.t_ns);
        rec.emit(obs::EventKind::Gauge {
            name: "throughput_mbs",
            value: s.throughput_mbs,
        });
    }
    RunResult {
        throughput_mbs: meter.megabytes_per_sec(elapsed),
        ops_per_sec: meter.ops_per_sec(elapsed),
        app_cpu_util: app_cpu.utilization(elapsed),
        storage_cpu_util: stor_cpu.utilization(elapsed),
        app_tx_util: app_tx.utilization(elapsed),
        disk_util: array.utilization(elapsed),
        elapsed,
        ops: meter.ops(),
        payload_bytes: meter.bytes(),
        mean_latency: latency.mean(),
        p99_latency: latency.quantile(0.99),
        timeline,
        tier: array.tier_stats(),
        events: f.queue.dispatched(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfs_rig::NfsRigParams;
    use servers::ServerMode;

    fn seq_reads(fh: u64, total: u64, req: u32) -> Vec<DriverOp> {
        (0..total / u64::from(req))
            .map(|i| DriverOp::Read {
                fh,
                offset: (i * u64::from(req)) as u32,
                len: req,
            })
            .collect()
    }

    #[test]
    fn closed_loop_produces_throughput_and_utilization() {
        let mut rig = NfsRig::new(ServerMode::Original, NfsRigParams::default());
        let fh = rig.create_sparse_file("big", 4 << 20);
        let ops = seq_reads(fh, 4 << 20, 32 << 10);
        let r = run(&mut rig, ops, &RunOptions::default());
        assert_eq!(r.ops, 128);
        assert_eq!(r.payload_bytes, 4 << 20);
        assert!(r.throughput_mbs > 1.0, "throughput = {}", r.throughput_mbs);
        assert!(r.app_cpu_util > 0.0 && r.app_cpu_util <= 1.0);
        assert!(r.storage_cpu_util > 0.0, "all-miss load reaches storage");
        assert!(r.elapsed > SimTime::ZERO);
    }

    #[test]
    fn ncache_all_hit_beats_original() {
        // Warm both rigs with one pass, then measure a hot pass: the
        // NCache build must be faster (fewer copies on the read path).
        let mut results = Vec::new();
        for mode in [ServerMode::Original, ServerMode::NCache] {
            let mut rig = NfsRig::new(mode, NfsRigParams::default());
            let fh = rig.create_file("hot", 1 << 20);
            // Functional warmup (not timed).
            for op in seq_reads(fh, 1 << 20, 32 << 10) {
                rig.run_op(&op);
            }
            let opts = RunOptions {
                nics: 2,
                ..RunOptions::default()
            };
            let r = run(&mut rig, seq_reads(fh, 1 << 20, 32 << 10), &opts);
            assert!(
                r.storage_cpu_util < 0.01,
                "{mode}: all-hit must not touch storage (util {})",
                r.storage_cpu_util
            );
            results.push(r.throughput_mbs);
        }
        assert!(
            results[1] > results[0] * 1.3,
            "NCache {} vs original {}",
            results[1],
            results[0]
        );
    }

    #[test]
    fn two_nics_relieve_the_link() {
        let make = || {
            let mut rig = NfsRig::new(ServerMode::Baseline, NfsRigParams::default());
            let fh = rig.create_file("hot", 1 << 20);
            for op in seq_reads(fh, 1 << 20, 32 << 10) {
                rig.run_op(&op);
            }
            (rig, fh)
        };
        let (mut rig1, fh1) = make();
        let one = run(
            &mut rig1,
            seq_reads(fh1, 1 << 20, 32 << 10),
            &RunOptions {
                nics: 1,
                ..RunOptions::default()
            },
        );
        let (mut rig2, fh2) = make();
        let two = run(
            &mut rig2,
            seq_reads(fh2, 1 << 20, 32 << 10),
            &RunOptions {
                nics: 2,
                ..RunOptions::default()
            },
        );
        // The zero-copy baseline is link-bound on one NIC; a second NIC
        // must raise throughput substantially.
        assert!(
            two.throughput_mbs > one.throughput_mbs * 1.4,
            "1 NIC {} vs 2 NICs {}",
            one.throughput_mbs,
            two.throughput_mbs
        );
        assert!(one.app_tx_util > 0.9, "link saturated: {}", one.app_tx_util);
    }

    #[test]
    fn recorder_captures_requests_resources_and_timeline() {
        let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
        let rec = obs::Recorder::new();
        rec.enable(obs::TraceConfig::default());
        rig.set_recorder(rec.clone());
        let fh = rig.create_sparse_file("f", 1 << 20);
        let r = run(
            &mut rig,
            seq_reads(fh, 1 << 20, 32 << 10),
            &RunOptions::default(),
        );
        assert_eq!(r.ops, 32);
        // Every completed request produced an exactly-timed Request event.
        assert_eq!(rec.counter("requests.read"), 0, "runner labels go via spans");
        let reqs = rec
            .events()
            .iter()
            .filter(|e| matches!(e.kind, obs::EventKind::Request { .. }))
            .count() as u64;
        assert_eq!(reqs, r.ops);
        // The server opened (and closed) one span per request.
        assert_eq!(rec.spans_opened(), r.ops);
        assert!(rec.spans_balanced());
        // Resources reported busy intervals in simulated time.
        assert!(rec.counter("resource.app-cpu.busy_ns") > 0);
        assert!(rec.counter("resource.app-tx.busy_ns") > 0);
        // The timeline covers the run and sums to the op count.
        assert!(!r.timeline.is_empty() && r.timeline.len() <= 32);
        assert_eq!(r.timeline.iter().map(|s| s.ops).sum::<u64>(), r.ops);
        assert_eq!(r.timeline.last().unwrap().t_ns, r.elapsed.as_nanos());
    }

    #[test]
    fn stage_breakdowns_reconcile_exactly() {
        let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
        let rec = obs::Recorder::new();
        rec.enable(obs::TraceConfig::default());
        rig.set_recorder(rec.clone());
        let fh = rig.create_sparse_file("f", 1 << 20);
        // Mixed hits and misses: read the file twice.
        let mut ops = seq_reads(fh, 1 << 20, 32 << 10);
        ops.extend(seq_reads(fh, 1 << 20, 32 << 10));
        let r = run(&mut rig, ops, &RunOptions::default());
        assert_eq!(r.ops, 64);
        let mut paths = std::collections::BTreeSet::new();
        let mut checked = 0;
        for ev in rec.events() {
            if let obs::EventKind::Request {
                path,
                start_ns,
                end_ns,
                stages,
                ..
            } = ev.kind
            {
                assert!(!stages.is_empty());
                let sum: u64 = stages.iter().map(|s| s.queue_ns + s.service_ns).sum();
                assert_eq!(sum, end_ns - start_ns, "stages must sum to latency");
                paths.insert(path);
                checked += 1;
            }
        }
        assert_eq!(checked, r.ops);
        assert!(paths.contains("disk"), "first pass misses");
        assert!(
            paths.contains("hit") || paths.contains("substitution"),
            "second pass hits: {paths:?}"
        );
        // The aggregate histograms reconcile too: per-stage sums account
        // for every end-to-end nanosecond.
        let hists = rec.histograms();
        let total = hists["request.latency_ns"].sum;
        let staged: u64 = hists
            .iter()
            .filter(|(k, _)| k.starts_with("stage."))
            .map(|(_, h)| h.sum)
            .sum();
        assert_eq!(staged, total);
    }

    #[test]
    fn tracing_does_not_perturb_results() {
        let measure = |trace: bool| {
            let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
            if trace {
                let rec = obs::Recorder::new();
                rec.enable(obs::TraceConfig::default());
                rig.set_recorder(rec);
            }
            let fh = rig.create_sparse_file("f", 1 << 20);
            run(
                &mut rig,
                seq_reads(fh, 1 << 20, 16 << 10),
                &RunOptions::default(),
            )
        };
        let plain = measure(false);
        let traced = measure(true);
        assert_eq!(plain.elapsed, traced.elapsed);
        assert_eq!(plain.payload_bytes, traced.payload_bytes);
        assert!((plain.throughput_mbs - traced.throughput_mbs).abs() < 1e-12);
    }

    #[test]
    fn empty_op_stream() {
        let mut rig = NfsRig::new(ServerMode::Original, NfsRigParams::default());
        let r = run(&mut rig, Vec::new(), &RunOptions::default());
        assert_eq!(r.ops, 0);
        assert_eq!(r.throughput_mbs, 0.0);
    }

    #[test]
    fn deterministic_runs() {
        let make = || {
            let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
            let fh = rig.create_sparse_file("f", 2 << 20);
            run(
                &mut rig,
                seq_reads(fh, 2 << 20, 16 << 10),
                &RunOptions::default(),
            )
        };
        let a = make();
        let b = make();
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.payload_bytes, b.payload_bytes);
        assert!((a.throughput_mbs - b.throughput_mbs).abs() < 1e-12);
    }

    #[test]
    fn all_hit_4k_run_dispatches_four_events_per_request() {
        // A resident 4 KB read walks app-rx, app-cpu and app-tx: three
        // stage steps and one completion. Issue is not an event.
        let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
        let fh = rig.create_file("hot", 1 << 20);
        for op in seq_reads(fh, 1 << 20, 32 << 10) {
            rig.run_op(&op);
        }
        let _ = rig.server_mut().fs_mut().store_mut().take_io_log();
        let r = run(
            &mut rig,
            seq_reads(fh, 1 << 20, 4 << 10),
            &RunOptions::default(),
        );
        assert_eq!(r.ops, 256);
        assert!(r.storage_cpu_util == 0.0, "all hits");
        assert_eq!(r.events, 1_024);
    }
}
