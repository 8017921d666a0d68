//! `NetBuf`: the sk_buff analogue — protocol headers plus a chain of payload
//! segments, with every byte movement charged to the copy ledger.
//!
//! Receive path: the NIC DMAs a wire frame into a single segment
//! ([`NetBuf::from_wire`]); protocol layers strip headers with
//! [`NetBuf::pull`]; what remains is payload. Send path: payload segments
//! are attached logically ([`NetBuf::append_segment`]) or copied in
//! ([`NetBuf::append_bytes`]); layers prepend headers with
//! [`NetBuf::push_header`]; [`NetBuf::to_wire`] hands the frame to the NIC
//! (a DMA, not a CPU copy).
//!
//! Like an `sk_buff`, a buffer reserves [`HEADROOM`] bytes in front of the
//! payload, so layers prepend their headers without touching the heap;
//! only a header stack that outgrows the headroom moves to a heap vector.

use std::collections::VecDeque;
use std::fmt;

use crate::accounting::CopyLedger;
use crate::segment::Segment;

/// Checksum state of a buffer (the paper's checksum-inheritance
/// optimization: cached blocks keep a valid checksum so retransmission
/// never recomputes it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CsumState {
    /// No checksum computed yet.
    #[default]
    None,
    /// Computed in software (cost was charged).
    Computed,
    /// Inherited from the payload's originator or from a cached copy —
    /// no CPU was spent.
    Inherited,
    /// Left to NIC hardware offload.
    Offloaded,
}

/// Bytes of inline header space in every [`NetBuf`]. An NFS READ reply
/// (RPC 24 + status, fattr and count 76) and every request header the
/// clients build fit; larger stacks spill to the heap.
pub const HEADROOM: usize = 128;

/// The header area: headers are prepended back to front into a fixed
/// array, falling back to one heap vector once they outgrow it.
#[derive(Clone)]
enum Headers {
    /// The headers are `room[start..]`.
    Inline { start: usize, room: [u8; HEADROOM] },
    /// Headers that outgrew the headroom, outermost first.
    Spilled(Vec<u8>),
}

impl Headers {
    fn new() -> Self {
        Headers::Inline {
            start: HEADROOM,
            room: [0; HEADROOM],
        }
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            Headers::Inline { start, room } => &room[*start..],
            Headers::Spilled(v) => v,
        }
    }

    fn prepend(&mut self, bytes: &[u8]) {
        if let Headers::Inline { start, room } = self {
            if let Some(at) = start.checked_sub(bytes.len()) {
                room[at..*start].copy_from_slice(bytes);
                *start = at;
                return;
            }
        }
        let old = self.as_slice();
        let mut spilled = Vec::with_capacity(bytes.len() + old.len());
        spilled.extend_from_slice(bytes);
        spilled.extend_from_slice(old);
        *self = Headers::Spilled(spilled);
    }
}

/// A network buffer: linear header area + chained payload segments.
///
/// # Examples
///
/// ```
/// use netbuf::{CopyLedger, NetBuf, Segment};
/// let ledger = CopyLedger::new();
/// let mut b = NetBuf::new(&ledger);
/// b.append_segment(Segment::from_vec(vec![1, 2, 3]));
/// b.push_header(&[0xAA, 0xBB]);
/// assert_eq!(b.header(), &[0xAA, 0xBB]);
/// assert_eq!(b.payload_len(), 3);
/// assert_eq!(b.to_wire(), vec![0xAA, 0xBB, 1, 2, 3]);
/// ```
#[derive(Clone)]
pub struct NetBuf {
    ledger: CopyLedger,
    header: Headers,
    segs: VecDeque<Segment>,
    csum: CsumState,
}

impl NetBuf {
    /// An empty buffer charged to `ledger`.
    pub fn new(ledger: &CopyLedger) -> Self {
        ledger.charge_allocation();
        NetBuf {
            ledger: ledger.clone(),
            header: Headers::new(),
            segs: VecDeque::new(),
            csum: CsumState::None,
        }
    }

    /// Wraps a frame the NIC DMA'd into memory. Not a CPU copy: the bytes
    /// were placed by the device, as in the paper's receive path.
    pub fn from_wire(ledger: &CopyLedger, frame: Vec<u8>) -> Self {
        ledger.charge_allocation();
        let mut segs = VecDeque::new();
        segs.push_back(Segment::from_vec(frame));
        NetBuf {
            ledger: ledger.clone(),
            header: Headers::new(),
            segs,
            csum: CsumState::None,
        }
    }

    /// The ledger this buffer charges.
    pub fn ledger(&self) -> &CopyLedger {
        &self.ledger
    }

    /// The (already-built) header bytes, outermost first.
    pub fn header(&self) -> &[u8] {
        self.header.as_slice()
    }

    /// Header length in bytes.
    pub fn header_len(&self) -> usize {
        self.header().len()
    }

    /// Payload length in bytes (sum of all segments).
    pub fn payload_len(&self) -> usize {
        self.segs.iter().map(Segment::len).sum()
    }

    /// Header + payload length.
    pub fn total_len(&self) -> usize {
        self.header_len() + self.payload_len()
    }

    /// Whether the buffer carries neither header nor payload.
    pub fn is_empty(&self) -> bool {
        self.total_len() == 0
    }

    /// Current checksum state.
    pub fn csum_state(&self) -> CsumState {
        self.csum
    }

    /// Prepends `bytes` to the header area (one protocol layer's header).
    /// Charged as header-byte movement, which Table 2 does not count as a
    /// payload copy ("since these packets are typically small, the overhead
    /// of physically copying them is not significant", §1).
    pub fn push_header(&mut self, bytes: &[u8]) {
        self.ledger.charge_header_bytes(bytes.len() as u64);
        self.header.prepend(bytes);
    }

    /// Strips and returns the first `n` bytes of *payload* (receive-side
    /// header parsing: the stripped bytes are protocol metadata). Charged
    /// as header-byte movement. Fixed-size headers use
    /// [`NetBuf::pull_into`] with a stack array instead.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` payload bytes remain.
    pub fn pull(&mut self, n: usize) -> Vec<u8> {
        self.assert_pullable(n);
        let mut out = vec![0u8; n];
        self.pull_into(&mut out);
        out
    }

    /// Strips the first `out.len()` bytes of payload into `out`; charged
    /// like [`NetBuf::pull`].
    ///
    /// # Panics
    ///
    /// Panics if fewer than `out.len()` payload bytes remain.
    pub fn pull_into(&mut self, out: &mut [u8]) {
        let n = out.len();
        self.assert_pullable(n);
        self.ledger.charge_header_bytes(n as u64);
        let mut at = 0;
        while at < n {
            let front = self.segs.pop_front().expect("payload length checked");
            let take = front.len().min(n - at);
            out[at..at + take].copy_from_slice(&front.as_slice()[..take]);
            at += take;
            if take < front.len() {
                self.segs.push_front(front.slice(take, front.len() - take));
            }
        }
    }

    fn assert_pullable(&self, n: usize) {
        assert!(
            n <= self.payload_len(),
            "pull of {n} bytes exceeds payload of {} bytes",
            self.payload_len()
        );
    }

    /// Reads payload bytes `[off, off+len)` without consuming or charging —
    /// for protocol classification only (peeking an RPC procedure number or
    /// an HTTP header; the paper's NCache module does exactly this at the
    /// driver boundary).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the payload.
    pub fn peek(&self, off: usize, len: usize) -> Vec<u8> {
        assert!(
            off + len <= self.payload_len(),
            "peek [{off}, {}) exceeds payload of {} bytes",
            off + len,
            self.payload_len()
        );
        let mut out = Vec::with_capacity(len);
        let mut skip = off;
        for seg in &self.segs {
            if out.len() == len {
                break;
            }
            let s = seg.as_slice();
            if skip >= s.len() {
                skip -= s.len();
                continue;
            }
            let avail = &s[skip..];
            skip = 0;
            let take = avail.len().min(len - out.len());
            out.extend_from_slice(&avail[..take]);
        }
        out
    }

    /// Makes room for exactly `n` more payload segments, so a buffer whose
    /// segment count is known up front sizes its chain once, and no larger.
    pub fn reserve_segments(&mut self, n: usize) {
        self.segs.reserve_exact(n);
    }

    /// Attaches a payload segment by reference — a **logical copy**; no
    /// payload bytes move.
    pub fn append_segment(&mut self, seg: Segment) {
        self.ledger.charge_logical_copy();
        self.segs.push_back(seg);
    }

    /// Copies `bytes` into a fresh payload segment — a **physical copy**,
    /// charged to the ledger.
    pub fn append_bytes(&mut self, bytes: &[u8]) {
        self.ledger.charge_payload_copy(bytes.len() as u64);
        self.segs.push_back(Segment::from_vec(bytes.to_vec()));
    }

    /// Moves an owned `bytes` vector in as a payload segment. Charged
    /// exactly like [`NetBuf::append_bytes`] — the *modeled* copy (producer
    /// buffer → network buffer) is the same — but the host moves the
    /// allocation instead of duplicating it, so call sites that already own
    /// the buffer skip one memcpy.
    pub fn append_vec(&mut self, bytes: Vec<u8>) {
        self.ledger.charge_payload_copy(bytes.len() as u64);
        self.segs.push_back(Segment::from_vec(bytes));
    }

    /// Copies `bytes` into a recycled slab from `pool` — same ledger charge
    /// as [`NetBuf::append_bytes`], but the segment storage comes from (and
    /// returns to) the pool's free list instead of the host allocator.
    pub fn append_pooled(&mut self, pool: &crate::BufPool, bytes: &[u8]) {
        self.ledger.charge_payload_copy(bytes.len() as u64);
        self.segs.push_back(pool.seg_from_slice(bytes));
    }

    /// Builds a `len`-byte payload segment in place on a recycled slab:
    /// `fill` receives a zero-initialized buffer. Charged exactly like
    /// [`NetBuf::append_bytes`] of `len` bytes (the producer still moves
    /// the payload into the network buffer; only the host-side scratch
    /// vector disappears).
    pub fn append_filled(
        &mut self,
        pool: &crate::BufPool,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) {
        self.ledger.charge_payload_copy(len as u64);
        self.segs.push_back(pool.seg_filled(len, fill));
    }

    /// Logical copy of the whole buffer: shares every segment. Charged as a
    /// single logical copy.
    pub fn share(&self) -> NetBuf {
        self.ledger.charge_logical_copy();
        self.clone()
    }

    /// Physically copies the entire payload into `out` — charged.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not exactly payload-sized.
    pub fn copy_payload_into(&self, out: &mut [u8]) {
        assert_eq!(
            out.len(),
            self.payload_len(),
            "destination must match payload length"
        );
        self.ledger.charge_payload_copy(out.len() as u64);
        let mut at = 0;
        for seg in &self.segs {
            out[at..at + seg.len()].copy_from_slice(seg.as_slice());
            at += seg.len();
        }
    }

    /// Physically copies the payload into a fresh vector — charged.
    pub fn copy_payload_to_vec(&self) -> Vec<u8> {
        let mut v = vec![0u8; self.payload_len()];
        self.copy_payload_into(&mut v);
        v
    }

    /// Physically copies the whole payload into one pooled segment —
    /// charged exactly like [`NetBuf::copy_payload_to_vec`] (one payload
    /// copy of the full length), with the destination drawn from `pool`'s
    /// slab free list.
    pub fn copy_payload_to_pooled(&self, pool: &crate::BufPool) -> Segment {
        let len = self.payload_len();
        self.ledger.charge_payload_copy(len as u64);
        pool.seg_filled(len, |out| {
            let mut at = 0;
            for seg in &self.segs {
                out[at..at + seg.len()].copy_from_slice(seg.as_slice());
                at += seg.len();
            }
        })
    }

    /// Removes and returns all payload segments (pointer manipulation;
    /// receive paths use this to hand arrived payload to a cache). The
    /// chain's own storage becomes the returned list, so nothing is
    /// allocated.
    pub fn take_payload(&mut self) -> Vec<Segment> {
        std::mem::take(&mut self.segs).into()
    }

    /// Attaches every segment of `segs` by reference, in order — one
    /// logical copy each, exactly like [`NetBuf::append_segment`]. An empty
    /// chain adopts the list's storage instead of growing its own.
    pub fn append_segments(&mut self, segs: Vec<Segment>) {
        for _ in &segs {
            self.ledger.charge_logical_copy();
        }
        if self.segs.is_empty() {
            self.segs = segs.into();
        } else {
            self.segs.extend(segs);
        }
    }

    /// Replaces the payload with `segs` (logical; charged as one logical
    /// copy, like [`NetBuf::splice_payload`]).
    pub fn replace_payload(&mut self, segs: Vec<Segment>) {
        self.ledger.charge_logical_copy();
        self.segs = segs.into();
    }

    /// Rewrites the payload chain in place: `f` receives each segment in
    /// order and appends what replaces it (itself, or other segments) to
    /// the back of the chain it is handed. Logical; charged as one
    /// logical copy — this is NCache packet substitution. When every
    /// segment is replaced by one, the chain never reallocates.
    pub fn splice_payload(&mut self, mut f: impl FnMut(Segment, &mut VecDeque<Segment>)) {
        self.ledger.charge_logical_copy();
        for _ in 0..self.segs.len() {
            let seg = self.segs.pop_front().expect("counted segment");
            f(seg, &mut self.segs);
        }
    }

    /// Iterates over payload segments.
    pub fn segments(&self) -> impl Iterator<Item = &Segment> {
        self.segs.iter()
    }

    /// Number of payload segments in the chain.
    pub fn segment_count(&self) -> usize {
        self.segs.len()
    }

    /// Computes the payload checksum in software, charging the ledger, and
    /// marks the buffer [`CsumState::Computed`]. Returns the 16-bit Internet
    /// checksum of the payload.
    pub fn compute_csum(&mut self) -> u16 {
        self.ledger.charge_csum(self.payload_len() as u64);
        // A 64-bit accumulator cannot overflow below 2^48 payload bytes.
        let mut sum: u64 = 0;
        let mut odd: Option<u8> = None;
        for seg in &self.segs {
            for &b in seg.as_slice() {
                match odd.take() {
                    None => odd = Some(b),
                    Some(hi) => sum += u64::from(u16::from_be_bytes([hi, b])),
                }
            }
        }
        if let Some(hi) = odd {
            sum += u64::from(u16::from_be_bytes([hi, 0]));
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        self.csum = CsumState::Computed;
        !(sum as u16)
    }

    /// Marks the checksum as inherited from the payload's originator (free;
    /// charged as an avoided checksum pass).
    pub fn inherit_csum(&mut self) {
        self.ledger.charge_csum_inherited();
        self.csum = CsumState::Inherited;
    }

    /// Marks the checksum as left to NIC hardware.
    pub fn offload_csum(&mut self) {
        self.csum = CsumState::Offloaded;
    }

    /// Serializes header + payload into one wire frame. This models the NIC
    /// gathering the chain by DMA, so it is *not* charged as a CPU copy.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.total_len());
        v.extend_from_slice(self.header());
        for seg in &self.segs {
            v.extend_from_slice(seg.as_slice());
        }
        v
    }
}

impl fmt::Debug for NetBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetBuf")
            .field("header_len", &self.header_len())
            .field("payload_len", &self.payload_len())
            .field("segments", &self.segs.len())
            .field("csum", &self.csum)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> CopyLedger {
        CopyLedger::new()
    }

    #[test]
    fn netbuf_is_send_and_sync() {
        // Replies move between the serialized server section and the
        // lane thread that substitutes their payload.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetBuf>();
    }

    #[test]
    fn build_and_serialize() {
        let l = ledger();
        let mut b = NetBuf::new(&l);
        b.append_bytes(&[1, 2, 3]);
        b.push_header(&[9]);
        b.push_header(&[7, 8]); // outer layer prepends
        assert_eq!(b.to_wire(), vec![7, 8, 9, 1, 2, 3]);
        assert_eq!(b.header_len(), 3);
        assert_eq!(b.payload_len(), 3);
        assert_eq!(b.total_len(), 6);
        assert!(!b.is_empty());
        let s = l.snapshot();
        assert_eq!(s.payload_copies, 1);
        assert_eq!(s.payload_bytes_copied, 3);
        assert_eq!(s.header_bytes, 3);
    }

    #[test]
    fn from_wire_and_pull_parse_headers() {
        let l = ledger();
        let mut b = NetBuf::from_wire(&l, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(b.pull(2), vec![1, 2]);
        assert_eq!(b.pull(1), vec![3]);
        assert_eq!(b.payload_len(), 3);
        assert_eq!(b.copy_payload_to_vec(), vec![4, 5, 6]);
        // Pulls were charged as header bytes, not payload copies.
        let s = l.snapshot();
        assert_eq!(s.header_bytes, 3);
        assert_eq!(s.payload_copies, 1); // only the copy_payload_to_vec
    }

    #[test]
    fn pull_across_segment_boundaries() {
        let l = ledger();
        let mut b = NetBuf::new(&l);
        b.append_segment(Segment::from_vec(vec![1, 2]));
        b.append_segment(Segment::from_vec(vec![3, 4, 5]));
        assert_eq!(b.pull(3), vec![1, 2, 3]);
        assert_eq!(b.payload_len(), 2);
        assert_eq!(b.copy_payload_to_vec(), vec![4, 5]);
    }

    #[test]
    #[should_panic(expected = "exceeds payload")]
    fn pull_too_much_panics() {
        let l = ledger();
        let mut b = NetBuf::from_wire(&l, vec![1]);
        b.pull(2);
    }

    #[test]
    fn peek_is_free_and_nonconsuming() {
        let l = ledger();
        let mut b = NetBuf::new(&l);
        b.append_segment(Segment::from_vec(vec![1, 2, 3]));
        b.append_segment(Segment::from_vec(vec![4, 5]));
        let before = l.snapshot();
        assert_eq!(b.peek(1, 3), vec![2, 3, 4]);
        assert_eq!(b.peek(0, 5), vec![1, 2, 3, 4, 5]);
        assert_eq!(b.peek(4, 1), vec![5]);
        assert_eq!(l.snapshot(), before, "peek must not charge the ledger");
        assert_eq!(b.payload_len(), 5);
    }

    #[test]
    #[should_panic(expected = "exceeds payload")]
    fn peek_out_of_range_panics() {
        let l = ledger();
        let b = NetBuf::from_wire(&l, vec![1, 2]);
        b.peek(1, 2);
    }

    #[test]
    fn logical_copies_move_no_bytes() {
        let l = ledger();
        let seg = Segment::from_vec(vec![9u8; 8192]);
        let mut a = NetBuf::new(&l);
        a.append_segment(seg.clone());
        let b = a.share();
        let s = l.snapshot();
        assert_eq!(s.payload_bytes_copied, 0);
        assert_eq!(s.logical_copies, 2); // append + share
        assert!(b.segments().next().expect("one segment").same_storage(&seg));
    }

    #[test]
    fn substitution_replaces_payload_logically() {
        let l = ledger();
        let mut pkt = NetBuf::new(&l);
        pkt.append_bytes(&[0u8; 64]); // junk placeholder
        pkt.push_header(&[0xEE]);
        let cached = Segment::from_vec(vec![42u8; 64]);
        let before = l.snapshot();
        pkt.replace_payload(vec![cached]);
        let d = l.snapshot().delta_since(&before);
        assert_eq!(d.payload_copies, 0, "substitution is pointer surgery");
        assert_eq!(d.logical_copies, 1);
        assert_eq!(pkt.to_wire()[0], 0xEE);
        assert_eq!(&pkt.to_wire()[1..], &[42u8; 64][..]);
    }

    #[test]
    fn splice_rewrites_in_order_and_charges_once() {
        let l = ledger();
        let mut pkt = NetBuf::new(&l);
        for b in 1..=4u8 {
            pkt.append_segment(Segment::from_vec(vec![b; 4]));
        }
        pkt.push_header(&[0xEE]);
        pkt.reserve_segments(4);
        let before = l.snapshot();
        // Keep odd segments, replace even ones with two halves of 9s.
        pkt.splice_payload(|seg, chain| {
            if seg.as_slice()[0] % 2 == 1 {
                chain.push_back(seg);
            } else {
                let nines = Segment::from_vec(vec![9; 4]);
                chain.push_back(nines.slice(0, 2));
                chain.push_back(nines.slice(2, 2));
            }
        });
        let d = l.snapshot().delta_since(&before);
        assert_eq!(d.logical_copies, 1, "one charge per packet");
        assert_eq!(d.payload_copies, 0);
        assert_eq!(pkt.segment_count(), 6);
        assert_eq!(
            pkt.to_wire(),
            [&[0xEE][..], &[1; 4], &[9; 4], &[3; 4], &[9; 4]].concat()
        );
    }

    #[test]
    fn headers_stay_outermost_first_across_many_pushes() {
        // Pushes of varied sizes walk the header stack through the inline
        // headroom and past it; each step must read back as the reference
        // built by prepending to a vector.
        let l = ledger();
        let mut b = NetBuf::new(&l);
        b.append_bytes(&[0xAA; 5]);
        let mut want: Vec<u8> = Vec::new();
        for i in 0..40u8 {
            let layer = vec![i; usize::from(i % 7) + 1];
            b.push_header(&layer);
            want.splice(0..0, layer.iter().copied());
            assert_eq!(b.header(), &want[..], "after push {i}");
        }
        assert!(b.header_len() > HEADROOM, "the stack outgrew the headroom");
        assert_eq!(b.total_len(), want.len() + 5);
        assert_eq!(b.to_wire(), [&want[..], &[0xAA; 5]].concat());
        assert_eq!(l.snapshot().header_bytes, want.len() as u64);
    }

    #[test]
    fn a_header_larger_than_the_headroom_works_alone_and_stacked() {
        let l = ledger();
        let big = vec![7u8; HEADROOM + 1];
        let mut b = NetBuf::new(&l);
        b.push_header(&big);
        assert_eq!(b.header(), &big[..]);
        b.push_header(&[1, 2]);
        assert_eq!(b.header(), [&[1, 2][..], &big[..]].concat());
        // Exactly filling the headroom stays inline and still reads back.
        let mut c = NetBuf::new(&l);
        c.push_header(&[3u8; HEADROOM - 1]);
        c.push_header(&[4]);
        assert_eq!(c.header_len(), HEADROOM);
        assert_eq!(c.header()[0], 4);
        c.push_header(&[5]);
        assert_eq!(c.header()[..2], [5, 4]);
        assert_eq!(c.header_len(), HEADROOM + 1);
    }

    #[test]
    fn shares_and_clones_keep_their_headers() {
        let l = ledger();
        for size in [8, HEADROOM + 8] {
            let mut b = NetBuf::new(&l);
            b.append_segment(Segment::from_vec(vec![1; 16]));
            b.push_header(&vec![6u8; size]);
            let shared = b.share();
            let cloned = b.clone();
            // Pushing onto the original leaves the copies as they were.
            b.push_header(&[9]);
            for copy in [&shared, &cloned] {
                assert_eq!(copy.header(), &vec![6u8; size][..]);
                assert_eq!(copy.payload_len(), 16);
            }
            assert_eq!(b.header_len(), size + 1);
        }
    }

    #[test]
    fn pull_into_matches_pull() {
        let l = ledger();
        let build = || {
            let mut b = NetBuf::new(&l);
            b.append_segment(Segment::from_vec(vec![1, 2]));
            b.append_segment(Segment::from_vec(vec![3, 4, 5]));
            b
        };
        let (mut a, mut b) = (build(), build());
        let mut head = [0u8; 3];
        a.pull_into(&mut head);
        assert_eq!(head.to_vec(), b.pull(3));
        assert_eq!(a.copy_payload_to_vec(), b.copy_payload_to_vec());
        assert_eq!(a.segment_count(), b.segment_count());
    }

    #[test]
    fn take_payload_empties_chain() {
        let l = ledger();
        let mut b = NetBuf::new(&l);
        b.append_segment(Segment::from_vec(vec![1]));
        b.append_segment(Segment::from_vec(vec![2]));
        let segs = b.take_payload();
        assert_eq!(segs.len(), 2);
        assert_eq!(b.payload_len(), 0);
        assert_eq!(b.segment_count(), 0);
    }

    #[test]
    fn copy_payload_into_wrong_size_panics() {
        let l = ledger();
        let mut b = NetBuf::new(&l);
        b.append_bytes(&[1, 2, 3]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = [0u8; 2];
            b.copy_payload_into(&mut out);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn checksum_matches_reference() {
        // RFC 1071 example: checksum of 00 01 f2 03 f4 f5 f6 f7.
        let l = ledger();
        let mut b = NetBuf::new(&l);
        b.append_segment(Segment::from_vec(vec![0x00, 0x01, 0xf2, 0x03]));
        b.append_segment(Segment::from_vec(vec![0xf4, 0xf5, 0xf6, 0xf7]));
        let c = b.compute_csum();
        assert_eq!(c, !0xddf2u16);
        assert_eq!(b.csum_state(), CsumState::Computed);
        assert_eq!(l.snapshot().csum_bytes, 8);
    }

    #[test]
    fn checksum_odd_length_and_split_invariance() {
        let l = ledger();
        let mut one = NetBuf::new(&l);
        one.append_segment(Segment::from_vec(vec![1, 2, 3, 4, 5]));
        let mut two = NetBuf::new(&l);
        two.append_segment(Segment::from_vec(vec![1, 2]));
        two.append_segment(Segment::from_vec(vec![3, 4, 5]));
        assert_eq!(one.compute_csum(), two.compute_csum());
    }

    #[test]
    fn csum_inheritance_is_free() {
        let l = ledger();
        let mut b = NetBuf::new(&l);
        b.append_bytes(&[1u8; 100]);
        let before = l.snapshot();
        b.inherit_csum();
        let d = l.snapshot().delta_since(&before);
        assert_eq!(d.csum_bytes, 0);
        assert_eq!(d.csum_inherited, 1);
        assert_eq!(b.csum_state(), CsumState::Inherited);
        b.offload_csum();
        assert_eq!(b.csum_state(), CsumState::Offloaded);
    }

    #[test]
    fn owning_and_pooled_appends_charge_like_append_bytes() {
        let pool = crate::BufPool::slab_only();
        let data = vec![0x42u8; 4096];

        let l_ref = ledger();
        let mut a = NetBuf::new(&l_ref);
        a.append_bytes(&data);

        let l_vec = ledger();
        let mut b = NetBuf::new(&l_vec);
        b.append_vec(data.clone());

        let l_pool = ledger();
        let mut c = NetBuf::new(&l_pool);
        c.append_pooled(&pool, &data);

        let l_fill = ledger();
        let mut d = NetBuf::new(&l_fill);
        d.append_filled(&pool, 4096, |out| out.fill(0x42));

        let reference = l_ref.snapshot();
        assert_eq!(l_vec.snapshot(), reference);
        assert_eq!(l_pool.snapshot(), reference);
        assert_eq!(l_fill.snapshot(), reference);
        assert_eq!(reference.payload_copies, 1);
        assert_eq!(reference.payload_bytes_copied, 4096);
        for buf in [&a, &b, &c, &d] {
            assert_eq!(buf.copy_payload_to_vec(), data);
        }
    }

    #[test]
    fn copy_payload_to_pooled_matches_to_vec() {
        let pool = crate::BufPool::slab_only();
        let l = ledger();
        let mut b = NetBuf::new(&l);
        b.append_segment(Segment::from_vec(vec![1, 2, 3]));
        b.append_segment(Segment::from_vec(vec![4, 5]));
        let before = l.snapshot();
        let seg = b.copy_payload_to_pooled(&pool);
        let d = l.snapshot().delta_since(&before);
        assert_eq!(d.payload_copies, 1);
        assert_eq!(d.payload_bytes_copied, 5);
        assert_eq!(seg.as_slice(), &[1, 2, 3, 4, 5]);
        assert!(seg.is_pooled());
    }

    #[test]
    fn allocation_is_counted() {
        let l = ledger();
        let _a = NetBuf::new(&l);
        let _b = NetBuf::from_wire(&l, vec![1]);
        assert_eq!(l.snapshot().allocations, 2);
    }
}
