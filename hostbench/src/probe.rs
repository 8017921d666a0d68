//! A fixed host-speed probe.
//!
//! The reference host is a shared 2-CPU VM whose speed drifts by 20–30 %
//! over minutes, with identical work. Host times are therefore reported
//! *at the reference host speed*: the benchmark runs this probe between
//! batches and scales a time by [`REF_NS`] over the probe's time next to
//! it. The probe is std-only code shaped like the data plane (block
//! copies, byte sums, hash-map lookups, uncontended mutexes) over buffers
//! allocated once, so it slows down with the host but never with a change
//! to the program under test, and it leaves the heap alone between
//! batches. The raw, unscaled figures are printed too.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Nominal probe time, ns: about its median on the reference host (a
/// 2-CPU Intel Xeon VM).
pub const REF_NS: f64 = 2.5e6;

/// The probe's working set, allocated once.
pub struct Probe {
    src: Vec<u8>,
    blocks: Vec<Vec<u8>>,
    map: HashMap<u64, u64>,
    lock: Mutex<u64>,
}

impl Probe {
    /// Allocates the working set.
    pub fn new() -> Self {
        Probe {
            src: (0..32u32 << 10)
                .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
                .collect(),
            blocks: (0..8).map(|k| vec![0u8; 4096 << (k % 3)]).collect(),
            map: (0..4096u64)
                .map(|k| (k.wrapping_mul(0x9e37_79b9_7f4a_7c15), k))
                .collect(),
            lock: Mutex::new(0),
        }
    }

    /// Runs the probe once; returns its host time in ns.
    pub fn run(&mut self) -> u64 {
        let t = Instant::now();
        let mut acc = 0u64;
        for round in 0..64u64 {
            for b in &mut self.blocks {
                let len = b.len();
                b.copy_from_slice(&self.src[..len]);
                b[0] ^= round as u8;
                acc = acc.wrapping_add(b.iter().map(|&x| u64::from(x)).sum::<u64>());
            }
            for k in 0..512u64 {
                let key = (k ^ round ^ (acc & 7)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                if let Some(v) = self.map.get_mut(&key) {
                    *v += 1;
                }
                *self.lock.lock().expect("probe mutex is never poisoned") += k;
            }
            black_box(&self.blocks);
        }
        black_box((&self.map, acc));
        t.elapsed().as_nanos() as u64
    }
}
