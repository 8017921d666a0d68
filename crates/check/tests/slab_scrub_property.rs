//! Slabs are scrubbed when taken, never when returned.
//!
//! A recycled slab goes back on the free list holding whatever its last
//! segment wrote. `BufPool::seg_filled` zero-fills only the `len` bytes it
//! hands to `fill`; `BufPool::seg_from_slice` overwrites every byte its
//! segment views and scrubs nothing. Over random sequences of both, at
//! random lengths (past the slab size too) with drops in between, every
//! `fill` buffer must arrive all zeros and every live segment must read
//! back exactly what was written into it.

use check::gen::*;
use check::{prop_assert, prop_assert_eq, property};

use netbuf::pool::SLAB_SIZE;
use netbuf::{BufPool, Segment};

/// One step: 0 copies a slice in, 1 builds a segment in place, 2 drops a
/// live segment; `len` is the segment length, `prefix` how much of a
/// filled segment `fill` writes, `byte` what it writes, `pick` which live
/// segment a drop takes.
type Step = (u8, usize, usize, u8, usize);

fn step() -> impl Gen<Value = Step> {
    (
        ints(0u8..3),
        ints(0usize..SLAB_SIZE + 64),
        ints(0usize..SLAB_SIZE + 64),
        any_u8(),
        ints(0usize..64),
    )
}

property! {
    #![cases(256)]

    fn prop_scrub_at_take_never_leaks(steps in vec_of(step(), 1..80)) {
        let pool = BufPool::slab_only();
        let mut live: Vec<(Segment, Vec<u8>)> = Vec::new();
        for (i, (op, len, prefix, byte, pick)) in steps.into_iter().enumerate() {
            // Distinct bytes per step, so a stale slab is never mistaken
            // for a fresh write.
            let byte = byte.wrapping_add(i as u8) | 1;
            match op {
                0 => {
                    let bytes = vec![byte; len];
                    live.push((pool.seg_from_slice(&bytes), bytes));
                }
                1 => {
                    let prefix = prefix.min(len);
                    let mut zeroed = true;
                    let seg = pool.seg_filled(len, |out| {
                        zeroed = out.iter().all(|&b| b == 0);
                        out[..prefix].fill(byte);
                    });
                    prop_assert!(zeroed, "step {i}: fill saw stale bytes");
                    let mut want = vec![byte; prefix];
                    want.resize(len, 0);
                    live.push((seg, want));
                }
                _ => {
                    if !live.is_empty() {
                        let at = pick % live.len();
                        live.swap_remove(at);
                    }
                }
            }
            for (j, (seg, want)) in live.iter().enumerate() {
                prop_assert_eq!(seg.as_slice(), &want[..], "step {}: segment {}", i, j);
            }
        }
        let stats = pool.slab_stats();
        prop_assert!(stats.returns <= stats.allocs + stats.recycles);
    }
}
