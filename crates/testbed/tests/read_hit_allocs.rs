//! Allocation budget of an NCache READ hit.
//!
//! A READ served from the caches moves keys, not payload: the file system
//! hands back placeholder blocks, the network-centric cache splices its
//! chunks into the reply. None of that should cost a heap allocation per
//! block. This test drives warm READ hits through [`RigDriver::run_op`]
//! at 4, 16 and 32 KB and counts every allocation the call makes: each
//! size must make the same number, and no more than [`BUDGET`].

use check::alloc::{measure, Counting};
use servers::ServerMode;
use testbed::runner::{DriverOp, RigDriver};
use testbed::{NfsRig, NfsRigParams};

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations per READ hit, whatever its size: the delivered request
/// frame (its bytes, their segment and the chain holding it) and the
/// reply's segment chain.
const BUDGET: u64 = 4;

const FILE: u64 = 256 << 10;

fn warm_rig() -> (NfsRig, u64) {
    let mut rig = NfsRig::new(ServerMode::NCache, NfsRigParams::default());
    let fh = rig.create_file("hot", FILE);
    for off in (0..FILE).step_by(32 << 10) {
        rig.run_op(&DriverOp::Read {
            fh,
            offset: off as u32,
            len: 32 << 10,
        });
    }
    (rig, fh)
}

/// Allocations of each of `n` hits of `len` bytes, after a round that
/// lets every reused buffer reach its size.
fn hit_allocs(rig: &mut NfsRig, fh: u64, len: u32, n: u32) -> Vec<u64> {
    let op = |i: u32| DriverOp::Read {
        fh,
        offset: (i * len) % FILE as u32,
        len,
    };
    for i in 0..n {
        rig.run_op(&op(i));
    }
    (0..n)
        .map(|i| {
            let ((obs, payload), counts) = measure(|| rig.run_op(&op(i)));
            assert_eq!(payload, u64::from(len), "a full-length hit");
            assert_eq!(obs.app.payload_copies, 0, "a zero-copy hit");
            assert!(obs.bursts.is_empty(), "no storage I/O on a hit");
            counts.allocs
        })
        .collect()
}

#[test]
fn read_hits_allocate_nothing_per_block() {
    let (mut rig, fh) = warm_rig();
    let per_size: Vec<(u32, Vec<u64>)> = [4u32 << 10, 16 << 10, 32 << 10]
        .into_iter()
        .map(|len| (len, hit_allocs(&mut rig, fh, len, 16)))
        .collect();
    let first = per_size[0].1[0];
    for (len, counts) in &per_size {
        assert!(
            counts.iter().all(|&c| c == first),
            "{len}-byte hits allocate {counts:?}, 4 KB hits {first}: a per-block allocation"
        );
    }
    assert!(first > 0, "the counting allocator is installed");
    assert!(
        first <= BUDGET,
        "{first} allocations per hit, budget {BUDGET}"
    );
}
