//! The workloads: rig geometry, set-up, seeded operation batches and
//! read-back verification. All run the NCache build. Each generates its
//! operations from the benchmark's seed; the rig receives only the
//! generated [`DriverOp`]s. Why each workload exists is in `README.md`.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use proto::nfs::NFS_OK;
use servers::ServerMode;
use sim::SplitMix64;
use testbed::executor::derive_seed;
use testbed::openloop::zipf_reads;
use testbed::runner::{run, DriverOp, RigDriver, RunOptions};
use testbed::{KhttpdRig, KhttpdRigParams, NfsRig, NfsRigParams};
use workload::specsfs::{SpecSfs, SpecSfsParams};
use workload::specweb::{PageSet, SpecWeb};
use workload::NfsOp;

use crate::driver::LayerCounters;
use crate::trace;

const BLOCK: u64 = 4096;
/// Fill byte of every WRITE the runner fabricates.
const WRITE_FILL: u8 = 0xA5;

/// How the timing engine drives a batch.
#[derive(Clone, Debug)]
pub enum Engine {
    /// `runner::run`: a closed loop with these options.
    Closed(RunOptions),
    /// `openloop::run_open_loop`: seeded Poisson arrivals at this mean
    /// inter-arrival time.
    Open {
        /// Mean inter-arrival time, simulated ns.
        mean_interarrival_ns: u64,
    },
}

/// Host time of each set-up phase, ns.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Rig construction.
    pub build_ns: u64,
    /// File or page creation.
    pub populate_ns: u64,
    /// Warm-up reads (and the open loop's capacity probe).
    pub warm_ns: u64,
}

/// Read-back tallies.
#[derive(Clone, Copy, Debug, Default)]
pub struct Verdict {
    /// Reads (or GETs) issued by the read-back.
    pub attempted: u64,
    /// Reads whose status or bytes were wrong.
    pub failed: u64,
}

/// One benchmark workload.
pub trait Workload {
    /// The rig it drives.
    type Rig: RigDriver + LayerCounters + 'static;
    /// The name `--workload` selects.
    const NAME: &'static str;
    /// Whether every operation must make zero application-server payload
    /// copies (the zero-copy hit path).
    const ZERO_COPY: bool = false;

    /// Builds, populates and warms one rig, timing each phase.
    fn setup(&mut self, seed: u64, t: &mut SetupTimes) -> Self::Rig;
    /// How batches are driven (known once `setup` has run).
    fn engine(&self) -> Engine;
    /// The operations of batch `index`.
    fn batch(&mut self, seed: u64, index: u64) -> Vec<DriverOp>;
    /// Notes the byte ranges `ops` touch, for the read-back.
    fn touch(&mut self, ops: &[DriverOp]);
    /// Reads back everything touched and compares it with the expected
    /// bytes.
    fn verify(&mut self, rig: &mut Self::Rig) -> Verdict;
}

/// Runs one set-up phase inside a span named `name`, storing its host
/// time in `slot`.
fn timed<T>(name: &'static str, slot: &mut u64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = trace::span(name, f);
    *slot = t0.elapsed().as_nanos() as u64;
    out
}

/// Rig geometry for `data` bytes of files: volume with metadata slack.
fn nfs_params(
    data: u64,
    fs_cache_blocks: usize,
    ncache_bytes: u64,
    read_ahead_blocks: u64,
) -> NfsRigParams {
    let blocks = (data * 2 / BLOCK).max(1024);
    NfsRigParams {
        volume_blocks: blocks + blocks / 8 + 2048,
        fs_cache_blocks,
        ncache_bytes,
        read_ahead_blocks,
        inode_count: 8 << 10,
        shards: 1,
    }
}

/// Sequential functional reads over a whole file, then drops the storage
/// backlog so the first measured request carries only its own I/O.
fn warm_file(rig: &mut NfsRig, fh: u64, size: u64, span: u32) {
    let mut off = 0;
    while off < size {
        rig.run_op(&DriverOp::Read {
            fh,
            offset: off as u32,
            len: span,
        });
        off += u64::from(span);
    }
    let _ = rig.server_mut().fs_mut().store_mut().take_io_log();
}

/// Per-block state of the NFS files a workload touched.
#[derive(Default)]
struct Touched {
    /// Per file: one entry per block, `None` untouched, `Some(written)`.
    files: BTreeMap<u64, Vec<Option<bool>>>,
}

impl Touched {
    fn note(&mut self, fh: u64, size: u64, offset: u32, len: u32, write: bool) {
        let blocks = self
            .files
            .entry(fh)
            .or_insert_with(|| vec![None; (size / BLOCK) as usize]);
        let first = u64::from(offset) / BLOCK;
        let last = (u64::from(offset) + u64::from(len)).div_ceil(BLOCK);
        for b in &mut blocks[first as usize..last as usize] {
            *b = Some(write || b.unwrap_or(false));
        }
    }

    fn note_ops(&mut self, ops: &[DriverOp], size: u64) {
        for op in ops {
            match *op {
                DriverOp::Read { fh, offset, len } => self.note(fh, size, offset, len, false),
                DriverOp::Write { fh, offset, len } => self.note(fh, size, offset, len, true),
                _ => {}
            }
        }
    }

    /// Reads back every touched block run in requests of at most 32 KiB.
    /// Written blocks must hold the runner's fill byte; the rest the
    /// file's original content (`sparse`: the storage server's synthetic
    /// blocks, else [`NfsRig::pattern`]).
    fn verify(&self, rig: &mut NfsRig, sparse: bool) -> Verdict {
        let mut v = Verdict::default();
        for (&fh, blocks) in &self.files {
            let mut b = 0;
            while b < blocks.len() {
                if blocks[b].is_none() {
                    b += 1;
                    continue;
                }
                let mut end = b;
                while end < blocks.len() && blocks[end].is_some() && end - b < 8 {
                    end += 1;
                }
                let offset = b as u64 * BLOCK;
                let len = (end - b) as u64 * BLOCK;
                let (hdr, data) = rig.read_with_header(fh, offset as u32, len as u32);
                v.attempted += 1;
                let mut ok = hdr.status == NFS_OK && data.len() as u64 == len;
                for (k, state) in blocks[b..end].iter().enumerate() {
                    if !ok {
                        break;
                    }
                    let at = offset + k as u64 * BLOCK;
                    let want = if *state == Some(true) {
                        vec![WRITE_FILL; BLOCK as usize]
                    } else if sparse {
                        rig.expected_sparse(fh, at, BLOCK as usize)
                    } else {
                        NfsRig::pattern(fh, at, BLOCK as usize)
                    };
                    let got = &data[k * BLOCK as usize..(k + 1) * BLOCK as usize];
                    ok = got == &want[..];
                    // The first few mismatches say what came back instead.
                    if !ok && v.failed < 8 {
                        println!(
                            "mismatch fh={fh} block={} written={} got[..8]={:02x?} want[..8]={:02x?}",
                            at / BLOCK,
                            *state == Some(true),
                            &got[..8],
                            &want[..8]
                        );
                    }
                }
                v.failed += u64::from(!ok);
                b = end;
            }
        }
        v
    }
}

/// `nfs_read_hit`: 32 KB sequential READs over a warm 5 MB file, closed
/// loop of 8 with 2 NICs (Fig 5b).
pub struct NfsReadHit {
    file: u64,
    batch_ops: usize,
    fh: u64,
    touched: Touched,
}

impl NfsReadHit {
    const SPAN: u32 = 32 << 10;

    /// The workload at full (`tiny` false) or test scale.
    pub fn new(tiny: bool) -> Self {
        NfsReadHit {
            file: if tiny { 512 << 10 } else { 5 << 20 },
            batch_ops: if tiny { 1_000 } else { 6_000 },
            fh: 0,
            touched: Touched::default(),
        }
    }
}

impl Workload for NfsReadHit {
    type Rig = NfsRig;
    const NAME: &'static str = "nfs_read_hit";
    const ZERO_COPY: bool = true;

    fn setup(&mut self, _seed: u64, t: &mut SetupTimes) -> NfsRig {
        let mut rig = timed("setup.build", &mut t.build_ns, || {
            NfsRig::new(
                ServerMode::NCache,
                nfs_params(self.file * 4, 2 << 10, 64 << 20, 8),
            )
        });
        self.fh = timed("setup.populate", &mut t.populate_ns, || {
            rig.create_file("hot", self.file)
        });
        timed("setup.warm", &mut t.warm_ns, || {
            warm_file(&mut rig, self.fh, self.file, Self::SPAN)
        });
        rig
    }

    fn engine(&self) -> Engine {
        Engine::Closed(RunOptions {
            concurrency: 8,
            nics: 2,
            ..RunOptions::default()
        })
    }

    fn batch(&mut self, seed: u64, index: u64) -> Vec<DriverOp> {
        // Whole sequential passes; each starts at a seeded chunk and wraps.
        let chunks = self.file / u64::from(Self::SPAN);
        let mut rng = SplitMix64::new(derive_seed(seed, index));
        let mut ops = Vec::with_capacity(self.batch_ops);
        while ops.len() < self.batch_ops {
            let start = rng.next_below(chunks);
            ops.extend((0..chunks).map(|k| DriverOp::Read {
                fh: self.fh,
                offset: ((start + k) % chunks * u64::from(Self::SPAN)) as u32,
                len: Self::SPAN,
            }));
        }
        ops.truncate(self.batch_ops);
        ops
    }

    fn touch(&mut self, ops: &[DriverOp]) {
        self.touched.note_ops(ops, self.file);
    }

    fn verify(&mut self, rig: &mut NfsRig) -> Verdict {
        self.touched.verify(rig, false)
    }
}

/// A seeded SPECsfs-like stream (60 % data ops, GETATTR/LOOKUP for the
/// rest) over a file set about four times the FS cache plus NCache,
/// closed loop of 8, with `READS_PER_WRITE` reads per write among the
/// data ops.
pub struct NfsSfs<const READS_PER_WRITE: u32> {
    files: u32,
    file_size: u64,
    fs_cache_blocks: usize,
    ncache_bytes: u64,
    batch_ops: usize,
    fhs: Vec<u64>,
    names: Vec<String>,
    touched: Touched,
}

/// `nfs_mixed_miss`: 5 reads per write. The program loses writes on it
/// (see `README.md`), so `BENCHMARK.json` does not list it; it stays
/// runnable as the reproducer.
pub type NfsMixedMiss = NfsSfs<5>;

/// `nfs_write_back`: every data op is a WRITE.
pub type NfsWriteBack = NfsSfs<0>;

impl<const READS_PER_WRITE: u32> NfsSfs<READS_PER_WRITE> {
    /// The workload at full (`tiny` false) or test scale.
    pub fn new(tiny: bool) -> Self {
        let (files, file_size, fs_cache_blocks, ncache_bytes) = if tiny {
            (8, 256 << 10, 64, 256 << 10)
        } else {
            (24, 3 << 19, 256, 8 << 20)
        };
        NfsSfs {
            files,
            file_size,
            fs_cache_blocks,
            ncache_bytes,
            batch_ops: 1_000,
            fhs: Vec::new(),
            names: Vec::new(),
            touched: Touched::default(),
        }
    }
}

impl<const READS_PER_WRITE: u32> Workload for NfsSfs<READS_PER_WRITE> {
    type Rig = NfsRig;
    const NAME: &'static str = if READS_PER_WRITE == 0 {
        "nfs_write_back"
    } else {
        "nfs_mixed_miss"
    };

    fn setup(&mut self, _seed: u64, t: &mut SetupTimes) -> NfsRig {
        let data = u64::from(self.files) * self.file_size;
        let mut rig = timed("setup.build", &mut t.build_ns, || {
            NfsRig::new(
                ServerMode::NCache,
                nfs_params(data, self.fs_cache_blocks, self.ncache_bytes, 8),
            )
        });
        timed("setup.populate", &mut t.populate_ns, || {
            self.names = (0..self.files).map(|i| format!("sfs{i:05}")).collect();
            self.fhs = self
                .names
                .iter()
                .map(|n| rig.create_sparse_file(n, self.file_size))
                .collect();
            rig.quiesce();
        });
        timed("setup.warm", &mut t.warm_ns, || {
            for &fh in &self.fhs {
                warm_file(&mut rig, fh, self.file_size, 64 << 10);
            }
        });
        rig
    }

    fn engine(&self) -> Engine {
        Engine::Closed(RunOptions::default())
    }

    fn batch(&mut self, seed: u64, index: u64) -> Vec<DriverOp> {
        let gen = SpecSfs::new(
            SpecSfsParams {
                file_count: self.files,
                file_size: self.file_size,
                data_op_fraction: 0.6,
                reads_per_write: READS_PER_WRITE,
            },
            derive_seed(seed, index),
        );
        gen.take(self.batch_ops)
            .map(|op| match op {
                NfsOp::Read { file, offset, len } => DriverOp::Read {
                    fh: self.fhs[file.0 as usize],
                    offset: offset as u32,
                    len,
                },
                NfsOp::Write { file, offset, len } => DriverOp::Write {
                    fh: self.fhs[file.0 as usize],
                    offset: offset as u32,
                    len,
                },
                NfsOp::Getattr { file } => DriverOp::Getattr {
                    fh: self.fhs[file.0 as usize],
                },
                NfsOp::Lookup { file } => DriverOp::Lookup {
                    name: self.names[file.0 as usize].clone(),
                },
            })
            .collect()
    }

    fn touch(&mut self, ops: &[DriverOp]) {
        self.touched.note_ops(ops, self.file_size);
    }

    fn verify(&mut self, rig: &mut NfsRig) -> Verdict {
        self.touched.verify(rig, true)
    }
}

/// `nfs_openloop`: 4 KB Zipf READs on a warm file, seeded Poisson
/// arrivals at 0.8x the build's simulated closed-loop capacity.
pub struct NfsOpenLoop {
    file: u64,
    batch_ops: usize,
    fh: u64,
    mean_interarrival_ns: u64,
    touched: Touched,
}

impl NfsOpenLoop {
    const SPAN: u32 = 4 << 10;
    /// Offered load as a fraction of the measured capacity.
    const LOAD: f64 = 0.8;

    /// The workload at full (`tiny` false) or test scale.
    pub fn new(tiny: bool) -> Self {
        NfsOpenLoop {
            file: if tiny { 1 << 20 } else { 8 << 20 },
            batch_ops: if tiny { 1_000 } else { 12_000 },
            fh: 0,
            mean_interarrival_ns: 0,
            touched: Touched::default(),
        }
    }
}

impl Workload for NfsOpenLoop {
    type Rig = NfsRig;
    const NAME: &'static str = "nfs_openloop";

    fn setup(&mut self, seed: u64, t: &mut SetupTimes) -> NfsRig {
        let mut rig = timed("setup.build", &mut t.build_ns, || {
            NfsRig::new(
                ServerMode::NCache,
                nfs_params(self.file * 4, 2 << 10, 64 << 20, 4),
            )
        });
        self.fh = timed("setup.populate", &mut t.populate_ns, || {
            rig.create_file("hot", self.file)
        });
        timed("setup.warm", &mut t.warm_ns, || {
            warm_file(&mut rig, self.fh, self.file, 16 << 10);
            // Capacity probe: a saturating closed loop over the same
            // popularity, so the offered rate tracks this build.
            let probe = zipf_reads(
                derive_seed(seed, u64::MAX),
                self.fh,
                4_000,
                self.file,
                Self::SPAN,
                1.0,
            );
            let cap = run(&mut rig, probe, &RunOptions::default())
                .ops_per_sec
                .max(1.0);
            self.mean_interarrival_ns = ((1e9 / (Self::LOAD * cap)).round() as u64).max(1);
        });
        rig
    }

    fn engine(&self) -> Engine {
        Engine::Open {
            mean_interarrival_ns: self.mean_interarrival_ns,
        }
    }

    fn batch(&mut self, seed: u64, index: u64) -> Vec<DriverOp> {
        zipf_reads(
            derive_seed(seed, index),
            self.fh,
            self.batch_ops,
            self.file,
            Self::SPAN,
            1.0,
        )
    }

    fn touch(&mut self, ops: &[DriverOp]) {
        self.touched.note_ops(ops, self.file);
    }

    fn verify(&mut self, rig: &mut NfsRig) -> Verdict {
        self.touched.verify(rig, false)
    }
}

/// `http_web`: kHTTPd under a seeded SPECweb99-like GET stream over a
/// working set about three times the cache (Fig 6a), closed loop of 8.
pub struct HttpWeb {
    working_set: u64,
    cache_bytes: u64,
    batch_ops: usize,
    sizes: BTreeMap<String, u64>,
    touched: BTreeSet<String>,
}

impl HttpWeb {
    /// The workload at full (`tiny` false) or test scale.
    pub fn new(tiny: bool) -> Self {
        HttpWeb {
            working_set: if tiny { 4 << 20 } else { 24 << 20 },
            cache_bytes: if tiny { 2 << 20 } else { 8 << 20 },
            batch_ops: if tiny { 1_000 } else { 1_500 },
            sizes: BTreeMap::new(),
            touched: BTreeSet::new(),
        }
    }

    fn params(&self) -> KhttpdRigParams {
        let actual = PageSet::with_working_set(self.working_set).total_bytes();
        // The NCache build pins most of the memory budget and leaves the
        // FS cache small (§3.4).
        let fs_cache_blocks = (self.cache_bytes / 8 / BLOCK) as usize;
        KhttpdRigParams {
            volume_blocks: (actual / BLOCK).max(1024) * 3 / 2 + 4096,
            fs_cache_blocks,
            ncache_bytes: self.cache_bytes - fs_cache_blocks as u64 * BLOCK,
            read_ahead_blocks: 8,
            inode_count: 64 << 10,
            shards: 1,
        }
    }

    fn gets(&self, seed: u64, n: usize) -> Vec<DriverOp> {
        SpecWeb::new(PageSet::with_working_set(self.working_set), seed)
            .take(n)
            .map(|op| DriverOp::Get { path: op.path })
            .collect()
    }
}

impl Workload for HttpWeb {
    type Rig = KhttpdRig;
    const NAME: &'static str = "http_web";

    fn setup(&mut self, seed: u64, t: &mut SetupTimes) -> KhttpdRig {
        let mut rig = timed("setup.build", &mut t.build_ns, || {
            KhttpdRig::new(ServerMode::NCache, self.params())
        });
        timed("setup.populate", &mut t.populate_ns, || {
            self.sizes.clear();
            for (name, size) in PageSet::with_working_set(self.working_set).pages() {
                rig.publish(&name, size);
                self.sizes.insert(name, size);
            }
        });
        timed("setup.warm", &mut t.warm_ns, || {
            for op in self.gets(derive_seed(seed, u64::MAX), self.batch_ops / 2) {
                rig.run_op(&op);
            }
            let _ = rig.server_mut().fs_mut().store_mut().take_io_log();
        });
        rig
    }

    fn engine(&self) -> Engine {
        Engine::Closed(RunOptions::default())
    }

    fn batch(&mut self, seed: u64, index: u64) -> Vec<DriverOp> {
        self.gets(derive_seed(seed, index), self.batch_ops)
    }

    fn touch(&mut self, ops: &[DriverOp]) {
        for op in ops {
            if let DriverOp::Get { path } = op {
                if !self.touched.contains(path) {
                    self.touched.insert(path.clone());
                }
            }
        }
    }

    fn verify(&mut self, rig: &mut KhttpdRig) -> Verdict {
        let mut v = Verdict::default();
        for path in &self.touched {
            let name = path.trim_start_matches('/');
            let size = self.sizes[name];
            let (hdr, body) = rig.get(path);
            v.attempted += 1;
            let ok = hdr.status == 200 && body == rig.expected(name, size);
            v.failed += u64::from(!ok);
        }
        v
    }
}
