//! Cache chunks: pinned lists of network buffers.

use netbuf::pool::Pinned;
use netbuf::Segment;

/// One cached block: the network-buffer segments that carried it, exactly
/// as they arrived off the wire, plus pinned-memory accounting.
///
/// The segments are shared ([`Segment`] is reference-counted), so handing a
/// chunk's payload to an outgoing packet is pointer manipulation — the
/// logical copy at the heart of the design.
#[derive(Debug)]
pub struct Chunk {
    segs: Vec<Segment>,
    len: usize,
    dirty: bool,
    /// Stored checksum carried over from the payload's originator; packets
    /// substituted from this chunk inherit it instead of recomputing.
    csum: Option<u16>,
    _pin: Pinned,
}

impl Chunk {
    /// Assembles a chunk from arrived network-buffer segments. `len` is
    /// the payload length (the segments may carry trailing slack).
    ///
    /// # Panics
    ///
    /// Panics if the segments hold fewer than `len` bytes.
    pub fn new(segs: Vec<Segment>, len: usize, dirty: bool, pin: Pinned) -> Self {
        let have: usize = segs.iter().map(Segment::len).sum();
        assert!(have >= len, "segments hold {have} bytes, need {len}");
        Chunk {
            segs,
            len,
            dirty,
            csum: None,
            _pin: pin,
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the chunk holds no payload.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the chunk holds data newer than the storage server's copy.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Marks the chunk clean (after its data was written back).
    pub fn mark_clean(&mut self) {
        self.dirty = false;
    }

    /// Marks the chunk dirty.
    pub fn mark_dirty(&mut self) {
        self.dirty = true;
    }

    /// The stored (inheritable) checksum, if one was recorded.
    pub fn stored_csum(&self) -> Option<u16> {
        self.csum
    }

    /// Records a checksum for later inheritance.
    pub fn set_csum(&mut self, csum: u16) {
        self.csum = Some(csum);
    }

    /// Shares the payload segments (logical copy) as views clipped once to
    /// the first `limit` bytes of the payload (`usize::MAX` for all of
    /// it). The iterator's length is exact, so collecting or extending
    /// from it reserves once.
    pub fn share(&self, limit: usize) -> impl ExactSizeIterator<Item = Segment> + '_ {
        let want = self.len.min(limit);
        let mut covered = 0usize;
        let used = self
            .segs
            .iter()
            .take_while(|seg| {
                let live = covered < want;
                covered += seg.len();
                live
            })
            .count();
        let mut remaining = want;
        self.segs[..used].iter().map(move |seg| {
            let take = seg.len().min(remaining);
            remaining -= take;
            seg.slice(0, take)
        })
    }

    /// Physically materializes the payload (for integrity checks and
    /// writeback paths that must hand bytes to a copying interface).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.len);
        for seg in self.share(usize::MAX) {
            v.extend_from_slice(seg.as_slice());
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbuf::BufPool;

    fn pin(pool: &BufPool, n: u64) -> Pinned {
        pool.pin(n).expect("capacity")
    }

    #[test]
    fn share_clips_to_len_and_limit() {
        let pool = BufPool::new(1 << 20);
        let segs = vec![
            Segment::from_vec(vec![1; 1000]),
            Segment::from_vec(vec![2; 1000]),
        ];
        let c = Chunk::new(segs, 1500, false, pin(&pool, 4096));
        let lens = |limit| c.share(limit).map(|s| s.len()).collect::<Vec<_>>();
        assert_eq!(lens(usize::MAX), [1000, 500]);
        assert_eq!(lens(1500), [1000, 500]);
        assert_eq!(lens(1000), [1000]);
        assert_eq!(lens(999), [999]);
        assert_eq!(lens(1), [1]);
        assert!(lens(0).is_empty());
        assert_eq!(c.share(1200).len(), 2, "exact length");
        assert_eq!(c.to_bytes().len(), 1500);
        assert_eq!(c.len(), 1500);
        assert!(!c.is_empty());
    }

    #[test]
    fn share_is_logical_not_physical() {
        let pool = BufPool::new(1 << 20);
        let seg = Segment::from_vec(vec![7; 4096]);
        let c = Chunk::new(vec![seg.clone()], 4096, false, pin(&pool, 4096));
        let shared: Vec<Segment> = c.share(usize::MAX).collect();
        assert!(shared[0].same_storage(&seg));
    }

    #[test]
    fn dirty_lifecycle() {
        let pool = BufPool::new(1 << 20);
        let mut c = Chunk::new(
            vec![Segment::from_vec(vec![0; 64])],
            64,
            true,
            pin(&pool, 64),
        );
        assert!(c.is_dirty());
        c.mark_clean();
        assert!(!c.is_dirty());
        c.mark_dirty();
        assert!(c.is_dirty());
    }

    #[test]
    fn checksum_storage() {
        let pool = BufPool::new(1 << 20);
        let mut c = Chunk::new(
            vec![Segment::from_vec(vec![0; 64])],
            64,
            false,
            pin(&pool, 64),
        );
        assert_eq!(c.stored_csum(), None);
        c.set_csum(0xBEEF);
        assert_eq!(c.stored_csum(), Some(0xBEEF));
    }

    #[test]
    fn dropping_chunk_releases_pin() {
        let pool = BufPool::new(100);
        let c = Chunk::new(
            vec![Segment::from_vec(vec![0; 10])],
            10,
            false,
            pin(&pool, 60),
        );
        assert_eq!(pool.pinned(), 60);
        drop(c);
        assert_eq!(pool.pinned(), 0);
    }

    #[test]
    #[should_panic(expected = "need")]
    fn short_segments_panic() {
        let pool = BufPool::new(1 << 20);
        let _ = Chunk::new(
            vec![Segment::from_vec(vec![0; 10])],
            20,
            false,
            pin(&pool, 10),
        );
    }
}
