//! In-place packet substitution against the list-building oracle.
//!
//! `ncache::substitute_payload` rewrites a packet's segment chain in
//! place and appends each resolved chunk's segments, clipped once, straight
//! into it. The oracle below is the earlier implementation: take the whole
//! chain out, resolve each stamp into a freshly shared segment list, clip
//! that list to the placeholder's length, collect the new chain and put it
//! back. On random packets mixing stamped, unstamped, missing and
//! tail-clipped placeholders, at 1 and 4 shards, both must produce the
//! same payload bytes over the same storage, the same report, the same
//! cache counters (ghost tail included) and the same ledger charges.

use check::gen::*;
use check::{prop_assert, prop_assert_eq, property};

use ncache::substitute::{substitute_payload, SubstitutionReport};
use ncache::NetCacheShards;
use netbuf::key::{Fho, FileHandle, KeyStamp, Lbn};
use netbuf::{BufPool, CopyLedger, NetBuf, Segment};

/// The list-building substitution this crate used before splicing in
/// place.
fn oracle(buf: &mut NetBuf, cache: &NetCacheShards) -> SubstitutionReport {
    let mut report = SubstitutionReport::default();
    let old = buf.take_payload();
    let mut new = Vec::with_capacity(old.len());
    for seg in old {
        let stamp = if seg.len() >= KeyStamp::LEN {
            KeyStamp::decode(seg.as_slice())
        } else {
            None
        };
        match stamp {
            Some(stamp) if stamp.is_keyed() => match cache.resolve(&stamp) {
                Some((_, cached)) => {
                    report.substituted += 1;
                    let mut remaining = seg.len();
                    for c in cached {
                        if remaining == 0 {
                            break;
                        }
                        let take = c.len().min(remaining);
                        new.push(if take == c.len() { c } else { c.slice(0, take) });
                        remaining -= take;
                    }
                }
                None => {
                    report.missing += 1;
                    new.push(seg);
                }
            },
            _ => {
                report.passed_through += 1;
                new.push(seg);
            }
        }
    }
    buf.replace_payload(new);
    report
}

/// Resident keys: block `i` is cached under LBN `i`, and even blocks also
/// under an FHO key holding different (fresher) bytes.
const BLOCKS: u64 = 6;

fn fho(i: u64) -> Fho {
    Fho::new(FileHandle(7), i * 4096)
}

/// One resident chunk: its segment lengths and the payload length it
/// claims (at most their sum).
type ChunkSpec = (Vec<usize>, usize);

fn chunk_segments(spec: &ChunkSpec, fill: u8) -> (Vec<Segment>, usize) {
    let segs: Vec<Segment> = spec
        .0
        .iter()
        .enumerate()
        .map(|(k, &len)| Segment::from_vec(vec![fill.wrapping_add(k as u8); len]))
        .collect();
    let total: usize = spec.0.iter().sum();
    (segs, spec.1.min(total))
}

/// Two caches holding the same segments (clones share storage), with a
/// ghost tail so misses probe it.
fn twin_caches(shards: usize, lbn: &[ChunkSpec], fho_chunks: &[ChunkSpec]) -> [NetCacheShards; 2] {
    let build = || {
        let c = NetCacheShards::new(BufPool::new(1 << 24), 64, shards);
        c.enable_ghost(16);
        c
    };
    let caches = [build(), build()];
    for (i, spec) in lbn.iter().enumerate() {
        let (segs, len) = chunk_segments(spec, i as u8 * 16);
        for c in &caches {
            c.insert_lbn(Lbn(i as u64), segs.clone(), len, false)
                .expect("fits");
        }
    }
    for (i, spec) in fho_chunks.iter().enumerate() {
        let (segs, len) = chunk_segments(spec, 0x80 | (i as u8 * 16));
        for c in &caches {
            c.insert_fho(fho(2 * i as u64), segs.clone(), len)
                .expect("fits");
        }
    }
    caches
}

/// A packet segment: `(kind, key, len)`. Kinds: 0 real data, 1 LBN
/// stamp, 2 FHO+LBN stamp, 3 keyless stamp, 4 stamp whose key was never
/// cached. `len` below `KeyStamp::LEN` makes any stamp unreadable.
type SegSpec = (u8, u64, usize);

fn packet_segment(spec: SegSpec) -> Segment {
    let (kind, key, len) = spec;
    let stamp = match kind {
        1 => KeyStamp::new().with_lbn(Lbn(key)),
        2 => KeyStamp::new().with_fho(fho(key)).with_lbn(Lbn(key)),
        3 => KeyStamp::new(),
        4 => KeyStamp::new().with_lbn(Lbn(BLOCKS + key)),
        _ => return Segment::from_vec(vec![0x5A; len]),
    };
    let mut bytes = vec![0u8; len];
    if len >= KeyStamp::LEN {
        stamp.encode_into(&mut bytes);
    }
    Segment::from_vec(bytes)
}

fn chunk_spec() -> impl Gen<Value = ChunkSpec> {
    (vec_of(ints(1usize..3000), 1..4), ints(1usize..5000))
}

property! {
    #![cases(128)]

    fn prop_in_place_substitution_matches_the_list_oracle(
        lbn in vec_of(chunk_spec(), 6..7),
        fho_chunks in vec_of(chunk_spec(), 3..4),
        packet in vec_of((ints(0u8..5), ints(0u64..BLOCKS), ints(1usize..6000)), 0..10),
        shards in one_of(vec![boxed(just(1usize)), boxed(just(4usize))]),
    ) {
        let [new_cache, old_cache] = twin_caches(shards, &lbn, &fho_chunks);
        let segs: Vec<Segment> = packet.iter().map(|&s| packet_segment(s)).collect();
        let build = |ledger: &CopyLedger| {
            let mut pkt = NetBuf::new(ledger);
            for s in &segs {
                pkt.append_segment(s.clone());
            }
            pkt.push_header(&[0xEE; 12]);
            pkt
        };
        let (new_ledger, old_ledger) = (CopyLedger::new(), CopyLedger::new());
        let (mut new_pkt, mut old_pkt) = (build(&new_ledger), build(&old_ledger));
        let (new0, old0) = (new_ledger.snapshot(), old_ledger.snapshot());

        let new_report = substitute_payload(&mut new_pkt, &new_cache);
        let old_report = oracle(&mut old_pkt, &old_cache);

        prop_assert_eq!(new_report, old_report);
        prop_assert_eq!(
            new_ledger.snapshot().delta_since(&new0),
            old_ledger.snapshot().delta_since(&old0)
        );
        prop_assert_eq!(new_cache.stats(), old_cache.stats());
        prop_assert_eq!(new_cache.per_shard_stats(), old_cache.per_shard_stats());
        prop_assert_eq!(new_cache.ghost_stats(), old_cache.ghost_stats());
        // Recency: hits promoted the same chunks in the same order.
        prop_assert_eq!(new_cache.clean_keys(), old_cache.clean_keys());
        prop_assert_eq!(new_pkt.header(), old_pkt.header());
        prop_assert_eq!(new_pkt.segment_count(), old_pkt.segment_count());
        for (a, b) in new_pkt.segments().zip(old_pkt.segments()) {
            prop_assert!(a.same_storage(b), "segments view different storage");
            prop_assert_eq!(a.as_slice(), b.as_slice());
        }
    }
}
