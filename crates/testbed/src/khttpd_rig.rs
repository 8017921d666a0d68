//! The kHTTPd rig: HTTP client ⇄ in-kernel web server ⇄ iSCSI target.


use ncache::{NcacheConfig, NcacheModule};
use proto::http::HttpResponseHeader;
use servers::initiator::IscsiInitiator;
use servers::khttpd::{HttpClient, KhttpdServer};
use servers::{IscsiTarget, ServerMode};
use simfs::{Filesystem, FsParams};

use netbuf::NetBuf;
use sim::{FaultKind, FaultLink, FaultPlan, FaultSpec, SplitMix64};

use crate::nfs_rig::{FaultCounters, NfsRig, NodeLedgers, MAX_RPC_ATTEMPTS};

/// Rig geometry for the web experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KhttpdRigParams {
    /// Exported volume size in blocks.
    pub volume_blocks: u64,
    /// File-system buffer-cache capacity in blocks.
    pub fs_cache_blocks: usize,
    /// NCache pinned capacity in bytes (NCache build only).
    pub ncache_bytes: u64,
    /// Read-ahead window in blocks.
    pub read_ahead_blocks: u64,
    /// Inodes to provision (one per page).
    pub inode_count: u32,
    /// NCache shard count (NCache build only). Sharding only partitions
    /// the key space; every observable is identical at any shard count.
    pub shards: usize,
}

impl Default for KhttpdRigParams {
    fn default() -> Self {
        KhttpdRigParams {
            volume_blocks: 64 << 10,
            fs_cache_blocks: 2 << 10,
            ncache_bytes: 64 << 20,
            read_ahead_blocks: 8,
            inode_count: 16 << 10,
            shards: 1,
        }
    }
}

/// The assembled web rig.
#[derive(Debug)]
pub struct KhttpdRig {
    server: KhttpdServer,
    client: HttpClient,
    target: sim::Shared<IscsiTarget>,
    module: Option<sim::Shared<NcacheModule>>,
    ledgers: NodeLedgers,
    mode: ServerMode,
    params: KhttpdRigParams,
    recorder: obs::Recorder,
    fault_plan: Option<sim::Shared<FaultPlan>>,
    fault_spec: FaultSpec,
    fault_counters: FaultCounters,
    poison_rng: SplitMix64,
    replay_slot: Option<NetBuf>,
    adaptive: Option<ncache::SplitController>,
}

impl KhttpdRig {
    /// Builds the full web rig for `mode`.
    ///
    /// # Panics
    ///
    /// Panics if the volume is too small to format.
    pub fn new(mode: ServerMode, params: KhttpdRigParams) -> Self {
        let ledgers = NodeLedgers::default();
        let target = sim::Shared::new(IscsiTarget::new(
            params.volume_blocks,
            &ledgers.storage,
        ));
        let module = (mode == ServerMode::NCache).then(|| {
            sim::Shared::new(NcacheModule::new(
                NcacheConfig::with_capacity(params.ncache_bytes).with_shards(params.shards),
            ))
        });
        let initiator = IscsiInitiator::new(
            target.clone(),
            &ledgers.app,
            mode,
            module.clone(),
        );
        let fs = Filesystem::mkfs(
            initiator,
            FsParams {
                total_blocks: params.volume_blocks,
                inode_count: params.inode_count,
                cache_blocks: params.fs_cache_blocks,
                read_ahead_blocks: params.read_ahead_blocks,
            },
            &ledgers.app,
        )
        .expect("volume large enough to format");
        let server = KhttpdServer::new(mode, fs, module.clone(), &ledgers.app);
        KhttpdRig {
            server,
            client: HttpClient::new(&ledgers.client),
            target,
            module,
            ledgers,
            mode,
            params,
            recorder: obs::Recorder::new(),
            fault_plan: None,
            fault_spec: FaultSpec::default(),
            fault_counters: FaultCounters::default(),
            poison_rng: SplitMix64::new(0),
            replay_slot: None,
            adaptive: None,
        }
    }

    /// Builds the web rig and arms the stack with a seeded fault plan:
    /// the client⇄server link (this rig's GET loop), the initiator⇄target
    /// link, transient I/O errors at the target, and checksum-verified
    /// placeholder revalidation at the server.
    pub fn new_faulted(
        mode: ServerMode,
        params: KhttpdRigParams,
        spec: &FaultSpec,
        seed: u64,
    ) -> Self {
        let mut rig = Self::new(mode, params);
        let plan = sim::Shared::new(FaultPlan::new(spec, seed));
        rig.server
            .fs_mut()
            .store_mut()
            .set_fault_plan(plan.clone());
        rig.target
            .borrow_mut()
            .set_transient_faults(blockdev::TransientFaults::new(
                crate::executor::derive_seed(seed, 1),
                spec.io_ppm(),
            ));
        rig.server.set_fault_recovery(true);
        rig.poison_rng = SplitMix64::new(crate::executor::derive_seed(seed, 2));
        rig.fault_spec = *spec;
        rig.fault_plan = Some(plan);
        rig
    }

    /// Whether this rig runs with an armed fault plan.
    pub fn faults_armed(&self) -> bool {
        self.fault_plan.is_some()
    }

    /// Installs the overload control plane on the rig's server
    /// (DESIGN.md §15). Off by default.
    pub fn enable_control(&mut self, cfg: servers::ControlConfig) {
        self.server.enable_control(cfg);
    }

    /// The server's control-plane counters, when a plane is installed.
    pub fn control_stats(&self) -> Option<servers::ControlStats> {
        self.server.control_stats()
    }

    /// Installs the adaptive cache-split plane; see
    /// [`NfsRig::enable_adaptive`] — same semantics on the web rig.
    pub fn enable_adaptive(&mut self, cfg: ncache::SplitConfig) {
        let fs = self.server.fs_mut();
        fs.enable_cache_ghost(cfg.ghost_blocks);
        let fs_blocks = fs.cache_capacity() as u64;
        let ncache_bytes = match &self.module {
            Some(m) => {
                let m = m.borrow();
                m.enable_ghost(cfg.ghost_blocks);
                m.pool_capacity()
            }
            None => 0,
        };
        self.adaptive = Some(ncache::SplitController::new(cfg, fs_blocks, ncache_bytes));
    }

    /// The installed split controller, if any.
    pub fn adaptive_controller(&self) -> Option<&ncache::SplitController> {
        self.adaptive.as_ref()
    }

    /// The controller's epoch length; see [`NfsRig::adaptive_epoch`].
    pub fn adaptive_epoch(&self) -> Option<u64> {
        self.adaptive.as_ref().map(|c| c.config().epoch_ops)
    }

    /// One controller epoch; see [`NfsRig::adaptive_tick`].
    pub fn adaptive_tick(&mut self) {
        if self.adaptive.is_none() {
            return;
        }
        let fs_stats = self.server.fs_mut().cache_stats();
        let fs_ghost = self
            .server
            .fs_mut()
            .cache_ghost_stats()
            .unwrap_or_default();
        let (nc_stats, nc_ghost) = match &self.module {
            Some(m) => {
                let m = m.borrow();
                (m.stats(), m.ghost_stats().unwrap_or_default())
            }
            None => Default::default(),
        };
        let sample = ncache::SplitSample {
            fs_hits: fs_stats.hits,
            fs_misses: fs_stats.misses,
            fs_ghost_hits: fs_ghost.hits,
            nc_hits: nc_stats.hits,
            nc_misses: nc_stats.lookups - nc_stats.hits,
            nc_ghost_hits: nc_ghost.hits,
        };
        let controller = self.adaptive.as_mut().expect("checked above");
        let resize = controller.tick(sample);
        if controller.is_dynamic() {
            let w = controller.window();
            if w.fs_ghost_hits > 0 {
                self.recorder.add_counter("ghost.hit.fs", w.fs_ghost_hits);
            }
            if w.nc_ghost_hits > 0 {
                self.recorder
                    .add_counter("ghost.hit.ncache", w.nc_ghost_hits);
            }
        }
        let Some(resize) = resize else { return };
        let fs = self.server.fs_mut();
        fs.set_cache_capacity(resize.fs_blocks as usize);
        if let Some(m) = &self.module {
            m.borrow().set_pool_capacity(resize.ncache_bytes);
        }
        let _ = self.server.fs_mut().store_mut().take_io_log();
        self.recorder.add_counter("adaptive.resize", 1);
    }

    /// The client-side recovery counters (all zero without faults).
    pub fn fault_counters(&self) -> FaultCounters {
        self.fault_counters
    }

    /// Attaches a recorder to the whole rig: the server span layer, the
    /// data plane below it, and every node's copy ledger.
    pub fn set_recorder(&mut self, rec: obs::Recorder) {
        self.ledgers.client.attach_recorder(&rec);
        self.ledgers.app.attach_recorder(&rec);
        self.ledgers.storage.attach_recorder(&rec);
        self.server.set_recorder(rec.clone());
        self.recorder = rec;
    }

    /// The rig's recorder (disabled unless [`Self::set_recorder`] ran).
    pub fn recorder(&self) -> &obs::Recorder {
        &self.recorder
    }

    /// Snapshots every stats struct in the rig into one unified report.
    pub fn metrics_report(&mut self) -> obs::MetricsReport {
        let mut report = obs::MetricsReport::new();
        report.add_snapshot("khttpd", &self.server.stats());
        report.add_snapshot("fs-cache", &self.server.fs_mut().cache_stats());
        report.add_snapshot("initiator", &self.server.fs_mut().store_mut().stats());
        report.add_snapshot("target", &self.target.borrow().stats());
        if let Some(module) = &self.module {
            report.add_snapshot("ncache", &module.borrow().stats());
        }
        report.add_snapshot("ledger.client", &self.ledgers.client.snapshot());
        report.add_snapshot("ledger.app", &self.ledgers.app.snapshot());
        report.add_snapshot("ledger.storage", &self.ledgers.storage.snapshot());
        if self.fault_plan.is_some() {
            report.add_snapshot("fault-client", &self.fault_counters);
        }
        if let Some(control) = self.server.control_stats() {
            report.add_snapshot("control", &control);
        }
        if let Some(c) = self.adaptive.as_ref().filter(|c| c.is_dynamic()) {
            report.add_snapshot("adaptive", &c.split_stats());
        }
        report
    }

    /// Syncs and drops the buffer cache so measurement starts cold.
    pub fn quiesce(&mut self) {
        // Under an adaptive split the controller owns the FS quota;
        // restore its current figure, not the construction-time one.
        let blocks = self
            .adaptive
            .as_ref()
            .map_or(self.params.fs_cache_blocks, |c| c.fs_blocks() as usize);
        let fs = self.server.fs_mut();
        fs.sync().expect("sync");
        fs.set_cache_capacity(0);
        fs.set_cache_capacity(blocks);
    }

    /// The build this rig runs.
    pub fn mode(&self) -> ServerMode {
        self.mode
    }

    /// The per-node ledgers.
    pub fn ledgers(&self) -> &NodeLedgers {
        &self.ledgers
    }

    /// The web server (stats, file system access).
    pub fn server_mut(&mut self) -> &mut KhttpdServer {
        &mut self.server
    }

    /// The NCache module, under that build.
    pub fn module(&self) -> Option<sim::Shared<NcacheModule>> {
        self.module.clone()
    }

    /// The storage server.
    pub fn target(&self) -> sim::Shared<IscsiTarget> {
        self.target.clone()
    }

    /// Publishes a page with deterministic content (the same pattern the
    /// NFS rig uses, keyed by the page's inode).
    pub fn publish(&mut self, name: &str, size: u64) {
        let fs = self.server.fs_mut();
        let ino = fs
            .create(Filesystem::<IscsiInitiator>::ROOT, name)
            .expect("fresh name");
        let fh = u64::from(ino.0);
        let mut offset = 0u64;
        while offset < size {
            let chunk = (size - offset).min(1 << 20) as usize;
            let data = NfsRig::pattern(fh, offset, chunk);
            fs.write(ino, offset, &data).expect("volume has space");
            offset += chunk as u64;
        }
        self.quiesce();
    }

    /// Publishes a page whose blocks are allocated but unwritten (cheap
    /// setup for working-set sweeps; contents are synthetic blocks).
    pub fn publish_sparse(&mut self, name: &str, size: u64) {
        let fs = self.server.fs_mut();
        let ino = fs
            .create(Filesystem::<IscsiInitiator>::ROOT, name)
            .expect("fresh name");
        fs.allocate(ino, size).expect("volume has space");
        self.quiesce();
    }

    /// The expected contents of a published (non-sparse) page.
    pub fn expected(&mut self, name: &str, size: u64) -> Vec<u8> {
        let fs = self.server.fs_mut();
        let ino = fs
            .lookup(Filesystem::<IscsiInitiator>::ROOT, name)
            .expect("published page");
        NfsRig::pattern(u64::from(ino.0), 0, size as usize)
    }

    /// Issues a GET through the full path; returns header + body.
    pub fn get(&mut self, path: &str) -> (HttpResponseHeader, Vec<u8>) {
        if self.fault_plan.is_some() {
            return self
                .try_get(path)
                .expect("GET exhausted its retransmission budget");
        }
        let req = self.client.get_request(path);
        let delivered = servers::stack::deliver(&req, &self.ledgers.app);
        let response = self.server.handle_request(&delivered);
        self.client.parse_response(&response)
    }

    /// Fault-aware GET: completes through retried requests, or fails
    /// cleanly (`None`) once the retry budget is spent. GET is idempotent,
    /// so re-execution after a duplicated or delayed request is harmless.
    pub fn try_get(&mut self, path: &str) -> Option<(HttpResponseHeader, Vec<u8>)> {
        let Some(plan) = self.fault_plan.clone() else {
            return Some(self.get(path));
        };
        self.maybe_poison();
        let req = self.client.get_request(path);
        let mut span = None;
        for attempt in 0..MAX_RPC_ATTEMPTS {
            if attempt > 0 {
                span.get_or_insert_with(|| self.recorder.begin_span("fault", "retransmit", 0));
                self.fault_counters.retransmits += 1;
                self.recorder.add_counter("fault.retransmits", 1);
            }
            let (delivered, kind) = {
                let mut p = plan.borrow_mut();
                servers::stack::deliver_faulty(
                    &req,
                    &self.ledgers.app,
                    &mut p,
                    FaultLink::ClientServer,
                )
            };
            let response = match (delivered, kind) {
                (None, _) => {
                    self.fault_counters.request_drops += 1;
                    self.recorder.add_counter("fault.request_drops", 1);
                    continue;
                }
                (Some(_), Some(FaultKind::Corrupt { .. } | FaultKind::Truncate { .. })) => {
                    // The transport checksum catches in-flight damage
                    // before the request reaches the server.
                    self.fault_counters.checksum_discards += 1;
                    self.recorder.add_counter("fault.checksum_discards", 1);
                    continue;
                }
                (Some(d), Some(FaultKind::Delay)) => {
                    let _late = self.server.handle_request(&d);
                    self.fault_counters.timeouts += 1;
                    self.recorder.add_counter("fault.timeouts", 1);
                    continue;
                }
                (Some(d), Some(FaultKind::Duplicate)) => {
                    self.fault_counters.duplicates += 1;
                    self.recorder.add_counter("fault.duplicates", 1);
                    let response = self.server.handle_request(&d);
                    let dup = servers::stack::deliver(&req, &self.ledgers.app);
                    let _discarded = self.server.handle_request(&dup);
                    response
                }
                (Some(d), Some(FaultKind::Reorder)) => {
                    self.fault_counters.reorders += 1;
                    self.recorder.add_counter("fault.reorders", 1);
                    if let Some(prev) = self.replay_slot.take() {
                        let old = servers::stack::deliver(&prev, &self.ledgers.app);
                        let _stale = self.server.handle_request(&old);
                        self.replay_slot = Some(prev);
                    }
                    self.server.handle_request(&d)
                }
                (Some(d), _) => self.server.handle_request(&d),
            };
            let (rx, rkind) = {
                let mut p = plan.borrow_mut();
                servers::stack::deliver_faulty(
                    &response,
                    &self.ledgers.client,
                    &mut p,
                    FaultLink::ClientServer,
                )
            };
            let Some(rx) = rx else {
                self.fault_counters.reply_drops += 1;
                self.recorder.add_counter("fault.reply_drops", 1);
                continue;
            };
            if matches!(rkind, Some(FaultKind::Delay)) {
                self.fault_counters.timeouts += 1;
                self.recorder.add_counter("fault.timeouts", 1);
                continue;
            }
            if matches!(rkind, Some(FaultKind::Corrupt { .. })) {
                // TCP's checksum rejects the damaged segment; the flipped
                // bit could sit in the status line or the body, where
                // framing validation alone would miss it.
                self.fault_counters.checksum_discards += 1;
                self.recorder.add_counter("fault.checksum_discards", 1);
                continue;
            }
            match self.client.try_parse_response(&rx) {
                // A status outside the server's vocabulary is a mangled
                // header that still framed correctly: damage, retry.
                Some((hdr, body)) if matches!(hdr.status, 200 | 400 | 404 | 503) => {
                    if let Some(s) = span.take() {
                        self.recorder.end_span(s);
                    }
                    self.replay_slot = Some(req);
                    return Some((hdr, body));
                }
                _ => {
                    self.fault_counters.damaged_replies += 1;
                    self.recorder.add_counter("fault.damaged_replies", 1);
                    continue;
                }
            }
        }
        if let Some(s) = span.take() {
            self.recorder.end_span(s);
        }
        self.fault_counters.failed_requests += 1;
        self.recorder.add_counter("fault.failed_requests", 1);
        None
    }

    /// Occasionally corrupts a clean NCache chunk's stored checksum, at
    /// the spec's corruption rate, so placeholder revalidation exercises
    /// the invalidate-and-fall-back-to-sendfile degradation path.
    fn maybe_poison(&mut self) {
        let Some(module) = &self.module else { return };
        if self.fault_spec.corrupt > 0.0 && self.poison_rng.next_bool(self.fault_spec.corrupt) {
            let pick = self.poison_rng.next_u64() as usize;
            module.borrow_mut().poison_clean_chunk(pick);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faulted_get_with_zero_spec_is_clean() {
        let mut rig = KhttpdRig::new_faulted(
            ServerMode::NCache,
            KhttpdRigParams::default(),
            &FaultSpec::default(),
            11,
        );
        rig.publish("index.html", 20_000);
        let (hdr, body) = rig.try_get("/index.html").expect("clean link");
        assert_eq!(hdr.status, 200);
        assert_eq!(body, rig.expected("index.html", 20_000));
        assert_eq!(rig.fault_counters(), FaultCounters::default());
    }

    #[test]
    fn faulted_get_recovers_in_every_mode() {
        for mode in ServerMode::ALL {
            let spec = FaultSpec {
                loss: 0.10,
                duplicate: 0.05,
                delay: 0.05,
                truncate: 0.05,
                corrupt: 0.03,
                io: 0.05,
                ..FaultSpec::default()
            };
            let mut rig = KhttpdRig::new_faulted(mode, KhttpdRigParams::default(), &spec, 21);
            rig.publish("a.html", 30_000);
            let mut completed = 0;
            for _ in 0..12 {
                if let Some((hdr, body)) = rig.try_get("/a.html") {
                    assert_eq!(hdr.status, 200, "{mode}");
                    if mode != ServerMode::Baseline {
                        assert_eq!(
                            body,
                            rig.expected("a.html", 30_000),
                            "{mode}: completed GETs return correct bytes"
                        );
                    }
                    completed += 1;
                }
            }
            assert!(completed > 0, "{mode}: some GETs complete");
            assert!(rig.fault_counters().retransmits > 0, "{mode}");
        }
    }

    #[test]
    fn faulted_get_same_seed_replays_identically() {
        let spec = FaultSpec {
            loss: 0.15,
            delay: 0.05,
            io: 0.05,
            ..FaultSpec::default()
        };
        let run = |seed: u64| {
            let mut rig =
                KhttpdRig::new_faulted(ServerMode::NCache, KhttpdRigParams::default(), &spec, seed);
            rig.publish("a.html", 12_000);
            let mut out = Vec::new();
            for _ in 0..8 {
                out.push(rig.try_get("/a.html").map(|(_, b)| b));
            }
            (out, rig.fault_counters())
        };
        assert_eq!(run(6), run(6));
    }

    #[test]
    fn get_round_trip_original() {
        let mut rig = KhttpdRig::new(ServerMode::Original, KhttpdRigParams::default());
        rig.publish("index.html", 10_000);
        let (hdr, body) = rig.get("/index.html");
        assert_eq!(hdr.status, 200);
        assert_eq!(hdr.content_length, 10_000);
        assert_eq!(body, rig.expected("index.html", 10_000));
    }

    #[test]
    fn get_round_trip_ncache_substitutes() {
        let mut rig = KhttpdRig::new(ServerMode::NCache, KhttpdRigParams::default());
        rig.publish("page", 75_000);
        let (hdr, body) = rig.get("/page");
        assert_eq!(hdr.status, 200);
        assert_eq!(body, rig.expected("page", 75_000), "real bytes, not junk");
        let module = rig.module().expect("ncache build");
        let totals = module.borrow().substitution_totals();
        assert!(totals.substituted > 0);
        assert_eq!(totals.missing, 0);
        assert_eq!(rig.server_mut().stats().tracked_responses, 1);
    }

    #[test]
    fn baseline_sends_junk_with_correct_length() {
        let mut rig = KhttpdRig::new(ServerMode::Baseline, KhttpdRigParams::default());
        rig.publish("page", 20_000);
        let (hdr, body) = rig.get("/page");
        assert_eq!(hdr.status, 200);
        assert_eq!(body.len(), 20_000);
        assert_ne!(body, rig.expected("page", 20_000));
    }

    #[test]
    fn missing_page_is_404() {
        let mut rig = KhttpdRig::new(ServerMode::Original, KhttpdRigParams::default());
        let (hdr, body) = rig.get("/nope");
        assert_eq!(hdr.status, 404);
        assert!(body.is_empty());
        assert_eq!(rig.server_mut().stats().not_found, 1);
    }

    #[test]
    fn header_survives_substitution_untouched() {
        let mut rig = KhttpdRig::new(ServerMode::NCache, KhttpdRigParams::default());
        rig.publish("p", 4096);
        let (hdr, _) = rig.get("/p");
        assert_eq!(hdr, HttpResponseHeader::ok(4096));
    }
}
