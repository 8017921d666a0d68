//! Allocation budget of a kHTTPd GET that misses the caches.
//!
//! A GET whose page is in neither cache fetches every block from the
//! storage server: the Data-In payload is parked in the network-centric
//! cache (hook 1) and the file system gets a placeholder. What that may
//! cost on the heap per fetched block is the target's payload segment,
//! the chain that carries it (it becomes the cached chunk's segment list)
//! and the placeholder's segment: [`PER_FETCHED_BLOCK`]. A block the file
//! system misses but the network-centric cache still holds (a
//! second-level hit) costs only its placeholder: [`PER_SECOND_LEVEL_HIT`].
//! Everything else a GET allocates (the request, its parse, the response
//! header and chain, the engine's I/O log) does not grow with the page and
//! stays under [`PER_GET`], which also absorbs the occasional node the two
//! caches' LRU order indexes allocate while they churn. This test drives
//! such GETs through [`RigDriver::run_op`] for pages of 1, 4 and 16 blocks,
//! with both caches full, and counts every allocation the call makes.

use check::alloc::{measure, Counting};
use servers::{IscsiInitiator, ServerMode};
use simfs::Filesystem;
use testbed::runner::{DriverOp, RigDriver};
use testbed::{KhttpdRig, KhttpdRigParams};

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations per block fetched from the storage server.
const PER_FETCHED_BLOCK: u64 = 3;
/// Allocations per block served by a second-level NCache hit.
const PER_SECOND_LEVEL_HIT: u64 = 1;
/// Allocations per GET that do not depend on the page size.
const PER_GET: u64 = 24;

const BLOCK: u64 = 4096;
const PAGES_PER_SIZE: usize = 6;
const SIZES: [u64; 3] = [1, 4, 16];
/// File-system cache capacity in blocks.
const FS_BLOCKS: usize = 64;
/// Network-centric cache capacity in chunks.
const NCACHE_CHUNKS: u64 = 128;
/// Filler pages of 16 blocks: together they overflow both caches.
const FILLERS: usize = 12;

/// A web rig in steady state: both caches full of filler pages and
/// evicting, so no cache index grows during a measured GET.
fn rig() -> KhttpdRig {
    let mut rig = KhttpdRig::new(
        ServerMode::NCache,
        KhttpdRigParams {
            fs_cache_blocks: FS_BLOCKS,
            ncache_bytes: NCACHE_CHUNKS * (BLOCK + 128),
            ..KhttpdRigParams::default()
        },
    );
    for blocks in SIZES {
        for i in 0..PAGES_PER_SIZE {
            rig.publish_sparse(&page(blocks, i), blocks * BLOCK);
        }
    }
    for i in 0..FILLERS {
        rig.publish_sparse(&filler(i), 16 * BLOCK);
    }
    for i in 0..FILLERS {
        measured_get(&mut rig, &filler(i), 16);
    }
    rig
}

fn page(blocks: u64, i: usize) -> String {
    format!("p{blocks}-{i}")
}

fn filler(i: usize) -> String {
    format!("filler-{i}")
}

/// Pulls the page's directory entry and inode into the file-system cache,
/// so the measured GET fetches data blocks only.
fn warm_metadata(rig: &mut KhttpdRig, name: &str) {
    let fs = rig.server_mut().fs_mut();
    let ino = fs
        .lookup(Filesystem::<IscsiInitiator>::ROOT, name)
        .expect("published page");
    fs.getattr(ino).expect("page inode");
}

/// One measured GET: (allocations, blocks fetched, second-level hits).
fn measured_get(rig: &mut KhttpdRig, name: &str, blocks: u64) -> (u64, u64, u64) {
    warm_metadata(rig, name);
    let fetched = rig.target().borrow().stats().blocks_read;
    let hits = rig
        .server_mut()
        .fs_mut()
        .store_mut()
        .stats()
        .second_level_hits;
    let op = DriverOp::Get {
        path: format!("/{name}"),
    };
    let ((obs, payload), counts) = measure(|| rig.run_op(&op));
    assert_eq!(payload, blocks * BLOCK, "{name}: the whole page");
    assert_eq!(obs.app.payload_copies, 0, "{name}: a zero-copy GET");
    (
        counts.allocs,
        rig.target().borrow().stats().blocks_read - fetched,
        rig.server_mut()
            .fs_mut()
            .store_mut()
            .stats()
            .second_level_hits
            - hits,
    )
}

/// Allocations beyond the per-block budget, checked against [`PER_GET`].
fn check_budget(name: &str, allocs: u64, fetched: u64, hits: u64) {
    assert!(allocs > 0, "{name}: the counting allocator is installed");
    let per_block = PER_FETCHED_BLOCK * fetched + PER_SECOND_LEVEL_HIT * hits;
    assert!(
        allocs <= PER_GET + per_block,
        "{name}: {allocs} allocations for {fetched} fetched blocks and {hits} \
         second-level hits; budget {PER_GET} + {per_block}"
    );
}

#[test]
fn gets_that_miss_both_caches_allocate_three_per_fetched_block() {
    let mut rig = rig();
    // One page of every size first, so every reused buffer (the engine's
    // block lists, the initiator's command result) reaches its size.
    for blocks in SIZES {
        measured_get(&mut rig, &page(blocks, 0), blocks);
    }
    for blocks in SIZES {
        for i in 1..PAGES_PER_SIZE {
            let name = page(blocks, i);
            let (allocs, fetched, hits) = measured_get(&mut rig, &name, blocks);
            assert_eq!(hits, 0, "{name}: a first GET misses both caches");
            assert!(fetched >= blocks, "{name}: every block came from storage");
            check_budget(&name, allocs, fetched, hits);
        }
    }
}

#[test]
fn second_level_hits_allocate_one_per_block() {
    let mut rig = rig();
    for blocks in SIZES {
        for i in 0..PAGES_PER_SIZE {
            let name = page(blocks, i);
            measured_get(&mut rig, &name, blocks);
            // Five filler pages push the page out of the file-system
            // cache, but not out of the larger network-centric cache.
            for f in 0..5 {
                measured_get(&mut rig, &filler((i + f) % FILLERS), 16);
            }
            let (allocs, fetched, hits) = measured_get(&mut rig, &name, blocks);
            assert_eq!(fetched, 0, "{name}: nothing comes from storage");
            assert_eq!(hits, blocks, "{name}: served from the second level");
            if i > 0 {
                check_budget(&name, allocs, fetched, hits);
            }
        }
    }
}
