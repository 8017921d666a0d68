//! The rig as the engine sees it, measured from outside.
//!
//! [`TimedRig`] wraps a rig and implements [`RigDriver`] by forwarding.
//! It counts every call the engine makes into the rig and times the calls
//! that do data-plane work (`run_op`, `set_load`, `adaptive_tick`); the
//! accessors (`transport`, `per_request_ns`, `recorder`,
//! `adaptive_epoch`) are counted but not timed, so the clock reads do not
//! inflate the rig's share. Allocations made inside timed calls are filed
//! under the rig (see [`crate::alloc::in_rig`]). It also tallies what each
//! [`Observation`] reports: wire bytes, storage bursts, rejected replies
//! and payload copies on the application server.

use std::cell::Cell;
use std::time::Instant;

use ncache::NetCacheStats;
use netbuf::LedgerSnapshot;
use servers::initiator::InitiatorStats;
use servers::target::TargetStats;
use sim::costs::CostModel;
use simfs::cache::CacheStats;
use testbed::runner::{DriverOp, RigDriver};
use testbed::timing::{Observation, Transport};
use testbed::{KhttpdRig, NfsRig};

use crate::{alloc, trace};

/// What the benchmark tallies from the observations of one batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsTally {
    /// `run_op` calls.
    pub ops: u64,
    /// Client⇄server message bytes, both directions, with framing.
    pub wire_bytes: u64,
    /// Coalesced storage bursts.
    pub bursts: u64,
    /// Blocks those bursts moved.
    pub blocks: u64,
    /// Replies the server's control plane rejected.
    pub rejected: u64,
    /// Operations that made at least one physical payload copy on the
    /// application server.
    pub app_copying_ops: u64,
}

impl std::ops::AddAssign for ObsTally {
    fn add_assign(&mut self, b: ObsTally) {
        self.ops += b.ops;
        self.wire_bytes += b.wire_bytes;
        self.bursts += b.bursts;
        self.blocks += b.blocks;
        self.rejected += b.rejected;
        self.app_copying_ops += b.app_copying_ops;
    }
}

/// Public stats snapshots of every layer, read between batches.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// NCache operation counters.
    pub ncache: NetCacheStats,
    /// Packets whose placeholders NCache replaced with cached payload.
    pub substituted: u64,
    /// File-system buffer-cache counters.
    pub fs: CacheStats,
    /// Copy ledgers of the client, application and storage nodes.
    pub ledgers: [LedgerSnapshot; 3],
    /// iSCSI initiator counters.
    pub initiator: InitiatorStats,
    /// iSCSI target counters.
    pub target: TargetStats,
}

/// A rig whose layer counters the benchmark can read.
pub trait LayerCounters {
    /// Snapshots every layer's counters.
    fn counters(&mut self) -> Counters;
    /// Attaches `rec` as the rig's event recorder.
    fn attach_recorder(&mut self, rec: obs::Recorder);
}

macro_rules! layer_counters_impl {
    ($rig:ty) => {
        impl LayerCounters for $rig {
            fn counters(&mut self) -> Counters {
                let (ncache, substituted) = match self.module() {
                    Some(m) => {
                        let m = m.borrow();
                        (m.stats(), m.substitution_totals().substituted)
                    }
                    None => Default::default(),
                };
                let l = self.ledgers();
                let ledgers = [l.client.snapshot(), l.app.snapshot(), l.storage.snapshot()];
                let target = self.target().borrow().stats();
                let fs = self.server_mut().fs_mut();
                Counters {
                    ncache,
                    substituted,
                    fs: fs.cache_stats(),
                    ledgers,
                    initiator: fs.store().stats(),
                    target,
                }
            }

            fn attach_recorder(&mut self, rec: obs::Recorder) {
                self.set_recorder(rec);
            }
        }
    };
}

layer_counters_impl!(NfsRig);
layer_counters_impl!(KhttpdRig);

/// A rig wrapped for measurement.
pub struct TimedRig<R> {
    /// The wrapped rig.
    pub rig: R,
    /// Every call the engine made into the rig this batch.
    pub calls: Cell<u64>,
    /// Nanoseconds spent inside the timed calls.
    pub rig_ns: u64,
    /// Host nanoseconds of each `run_op` call of the current batch.
    pub latencies: Vec<u32>,
    /// Observation tallies of the current batch.
    pub tally: ObsTally,
}

impl<R> TimedRig<R> {
    /// Wraps `rig`.
    pub fn new(rig: R) -> Self {
        TimedRig {
            rig,
            calls: Cell::new(0),
            rig_ns: 0,
            latencies: Vec::new(),
            tally: ObsTally::default(),
        }
    }

    /// Clears the per-batch state and reserves room for `ops` latency
    /// samples, so recording them allocates nothing inside the batch.
    pub fn start_batch(&mut self, ops: usize) {
        self.calls.set(0);
        self.rig_ns = 0;
        self.latencies.clear();
        self.latencies.reserve(ops);
        self.tally = ObsTally::default();
    }

    fn count(&self) {
        self.calls.set(self.calls.get() + 1);
    }

    fn timed<T>(&mut self, name: &'static str, req: u32, f: impl FnOnce(&mut R) -> T) -> (T, u64) {
        self.count();
        let span = trace::begin(name, req);
        let t0 = Instant::now();
        let out = alloc::in_rig(|| f(&mut self.rig));
        let ns = t0.elapsed().as_nanos() as u64;
        trace::end(span);
        self.rig_ns += ns;
        (out, ns)
    }
}

impl<R: RigDriver> RigDriver for TimedRig<R> {
    fn run_op(&mut self, op: &DriverOp) -> (Observation, u64) {
        let req = self.tally.ops as u32 + 1;
        let ((obs, payload), ns) = self.timed("rig.run_op", req, |r| r.run_op(op));
        self.latencies.push(ns.min(u64::from(u32::MAX)) as u32);
        let t = &mut self.tally;
        t.ops += 1;
        t.wire_bytes += obs.request_bytes + obs.reply_bytes;
        t.bursts += obs.bursts.len() as u64;
        t.blocks += obs.bursts.iter().map(|b| b.blocks).sum::<u64>();
        t.rejected += u64::from(obs.rejected);
        t.app_copying_ops += u64::from(obs.app.payload_copies > 0);
        (obs, payload)
    }

    fn transport(&self) -> Transport {
        self.count();
        self.rig.transport()
    }

    fn per_request_ns(&self, costs: &CostModel) -> u64 {
        self.count();
        self.rig.per_request_ns(costs)
    }

    fn recorder(&self) -> obs::Recorder {
        self.count();
        self.rig.recorder()
    }

    fn set_load(&mut self, now_ns: u64, inflight: u64) {
        let req = self.tally.ops as u32 + 1;
        self.timed("rig.set_load", req, |r| r.set_load(now_ns, inflight));
    }

    fn adaptive_epoch(&self) -> Option<u64> {
        self.count();
        self.rig.adaptive_epoch()
    }

    fn adaptive_tick(&mut self) {
        self.timed("rig.adaptive_tick", 0, |r| r.adaptive_tick());
    }
}
