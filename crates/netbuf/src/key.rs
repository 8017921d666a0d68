//! Logical-copy keys.
//!
//! Under NCache, the layers of a pass-through server exchange *keys* instead
//! of payloads (paper §3.1). Two kinds of key identify a cached block:
//!
//! * [`Lbn`] — the logical block number of an iSCSI read/write, keying data
//!   that arrived from (or is bound for) the storage server;
//! * [`Fho`] — a ⟨file handle, offset⟩ pair, keying data that arrived in an
//!   NFS write request from a client.
//!
//! A key travels *inside* the placeholder block that the file-system buffer
//! cache stores ("the retrieved block contains only a key and some junk
//! data", §3.2). [`KeyStamp`] is that in-block encoding; a block may carry
//! both keys at once ("some NFS read replies may contain both an FHO key
//! and an LBN key", §3.4), and the substitution engine must then consult the
//! FHO cache before the LBN cache to preserve freshness.
//!
//! [`KeyMap`] is the hash map every integer-keyed server index uses (the
//! NCache chunk map, the buffer cache, the storage image, the ghost
//! tails). Its [`KeyHasher`] is a fixed multiply/xor-shift mixer instead
//! of std's SipHash: the keys are LBNs the server allocates and
//! ⟨file handle, block offset⟩ pairs of files it created, not strings
//! chosen by a client, and no output depends on map iteration order
//! (every ordered walk sorts by recency stamp first), so nothing is lost
//! by dropping SipHash's randomized collision resistance.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A fixed, unseeded hasher for small integer keys: each written word is
/// folded in with a multiply, and [`Hasher::finish`] runs an xor-shift
/// finalizer so the high bits reach the low bits the table indexes with
/// (block-aligned byte offsets have twelve zero low bits).
#[derive(Clone, Copy, Debug, Default)]
pub struct KeyHasher(u64);

impl KeyHasher {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(23) ^ n).wrapping_mul(Self::K);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        let h = self.0 ^ (self.0 >> 32);
        let h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^ (h >> 29)
    }
}

/// Builds [`KeyHasher`]s (all identical: the hasher has no seed).
pub type BuildKeyHasher = BuildHasherDefault<KeyHasher>;

/// A hash map over server-derived integer keys, hashed with
/// [`KeyHasher`].
pub type KeyMap<K, V> = HashMap<K, V, BuildKeyHasher>;

/// A logical block number on the storage server's virtual disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lbn(pub u64);

impl fmt::Display for Lbn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lbn:{}", self.0)
    }
}

/// An opaque NFS file handle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileHandle(pub u64);

impl fmt::Display for FileHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fh:{:x}", self.0)
    }
}

/// A ⟨file handle, byte offset⟩ pair — the unique identity of a file block
/// written by an NFS client (paper §3.4).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fho {
    /// The file's NFS handle.
    pub fh: FileHandle,
    /// Byte offset of the block within the file.
    pub offset: u64,
}

impl Fho {
    /// Creates a key for the block of `fh` at byte `offset`.
    pub fn new(fh: FileHandle, offset: u64) -> Self {
        Fho { fh, offset }
    }
}

impl fmt::Display for Fho {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fho:{:x}+{}", self.fh.0, self.offset)
    }
}

/// Either kind of cache key; the index type of the network-centric cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheKey {
    /// Keys the LBN cache (data from the storage server).
    Lbn(Lbn),
    /// Keys the FHO cache (data from NFS write requests).
    Fho(Fho),
}

impl From<Lbn> for CacheKey {
    fn from(l: Lbn) -> Self {
        CacheKey::Lbn(l)
    }
}

impl From<Fho> for CacheKey {
    fn from(f: Fho) -> Self {
        CacheKey::Fho(f)
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheKey::Lbn(l) => l.fmt(f),
            CacheKey::Fho(o) => o.fmt(f),
        }
    }
}

/// The encoded stamp a placeholder block carries in lieu of payload.
///
/// Wire layout (25 bytes):
/// `magic "NCKY" (4) | flags (1) | fh (8 LE) | offset (8 LE) | lbn (8 LE)`
/// where flag bit 0 = FHO present, bit 1 = LBN present. The remainder of the
/// block is junk (zeroes).
///
/// # Examples
///
/// ```
/// use netbuf::key::{Fho, FileHandle, KeyStamp, Lbn};
///
/// let stamp = KeyStamp::new()
///     .with_fho(Fho::new(FileHandle(0xBEEF), 8192))
///     .with_lbn(Lbn(77));
/// let mut block = vec![0u8; 4096];
/// stamp.encode_into(&mut block);
/// assert_eq!(KeyStamp::decode(&block), Some(stamp));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct KeyStamp {
    /// FHO key, present when the block was last written by an NFS client.
    pub fho: Option<Fho>,
    /// LBN key, present when the block was read from the storage server.
    pub lbn: Option<Lbn>,
}

impl KeyStamp {
    /// Magic prefix marking a placeholder block.
    pub const MAGIC: [u8; 4] = *b"NCKY";
    /// Encoded size in bytes.
    pub const LEN: usize = 4 + 1 + 8 + 8 + 8;

    /// Creates an empty stamp (no keys).
    pub fn new() -> Self {
        KeyStamp::default()
    }

    /// Returns the stamp with the FHO key set.
    pub fn with_fho(mut self, fho: Fho) -> Self {
        self.fho = Some(fho);
        self
    }

    /// Returns the stamp with the LBN key set.
    pub fn with_lbn(mut self, lbn: Lbn) -> Self {
        self.lbn = Some(lbn);
        self
    }

    /// Whether the stamp carries at least one key.
    pub fn is_keyed(&self) -> bool {
        self.fho.is_some() || self.lbn.is_some()
    }

    /// Writes the stamp into the head of `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is shorter than [`KeyStamp::LEN`].
    pub fn encode_into(&self, block: &mut [u8]) {
        assert!(
            block.len() >= Self::LEN,
            "block of {} bytes too small for a {}-byte key stamp",
            block.len(),
            Self::LEN
        );
        block[0..4].copy_from_slice(&Self::MAGIC);
        let mut flags = 0u8;
        if self.fho.is_some() {
            flags |= 1;
        }
        if self.lbn.is_some() {
            flags |= 2;
        }
        block[4] = flags;
        let fho = self.fho.unwrap_or_default();
        block[5..13].copy_from_slice(&fho.fh.0.to_le_bytes());
        block[13..21].copy_from_slice(&fho.offset.to_le_bytes());
        block[21..29].copy_from_slice(&self.lbn.unwrap_or_default().0.to_le_bytes());
    }

    /// Parses a stamp from the head of `block`. Returns `None` when the
    /// block does not carry the magic (i.e. it holds real payload).
    pub fn decode(block: &[u8]) -> Option<KeyStamp> {
        if block.len() < Self::LEN || block[0..4] != Self::MAGIC {
            return None;
        }
        let flags = block[4];
        let fh = u64::from_le_bytes(block[5..13].try_into().expect("8 bytes"));
        let off = u64::from_le_bytes(block[13..21].try_into().expect("8 bytes"));
        let lbn = u64::from_le_bytes(block[21..29].try_into().expect("8 bytes"));
        Some(KeyStamp {
            fho: (flags & 1 != 0).then_some(Fho::new(FileHandle(fh), off)),
            lbn: (flags & 2 != 0).then_some(Lbn(lbn)),
        })
    }
}

impl fmt::Display for KeyStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stamp[")?;
        if let Some(fho) = self.fho {
            write!(f, "{fho}")?;
        }
        if let Some(lbn) = self.lbn {
            if self.fho.is_some() {
                write!(f, ",")?;
            }
            write!(f, "{lbn}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_round_trip_all_combinations() {
        let fho = Fho::new(FileHandle(0x1234_5678_9abc_def0), 65_536);
        let lbn = Lbn(424_242);
        for stamp in [
            KeyStamp::new(),
            KeyStamp::new().with_fho(fho),
            KeyStamp::new().with_lbn(lbn),
            KeyStamp::new().with_fho(fho).with_lbn(lbn),
        ] {
            let mut block = vec![0u8; 64];
            stamp.encode_into(&mut block);
            assert_eq!(KeyStamp::decode(&block), Some(stamp));
        }
    }

    #[test]
    fn decode_rejects_real_payload() {
        assert_eq!(KeyStamp::decode(&[0u8; 64]), None);
        assert_eq!(KeyStamp::decode(b"hello world padding padding pad"), None);
        assert_eq!(KeyStamp::decode(&[]), None);
        // Too short even with magic.
        assert_eq!(KeyStamp::decode(b"NCKY"), None);
    }

    #[test]
    fn is_keyed() {
        assert!(!KeyStamp::new().is_keyed());
        assert!(KeyStamp::new().with_lbn(Lbn(1)).is_keyed());
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn encode_into_small_block_panics() {
        KeyStamp::new().encode_into(&mut [0u8; 8]);
    }

    #[test]
    fn cache_key_conversions_and_display() {
        let k: CacheKey = Lbn(5).into();
        assert_eq!(k, CacheKey::Lbn(Lbn(5)));
        let k2: CacheKey = Fho::new(FileHandle(0xff), 4096).into();
        assert_eq!(k.to_string(), "lbn:5");
        assert_eq!(k2.to_string(), "fho:ff+4096");
        assert_eq!(
            KeyStamp::new().with_lbn(Lbn(9)).to_string(),
            "stamp[lbn:9]"
        );
    }

    #[test]
    fn cache_keys_order_and_hash() {
        let mut m = KeyMap::default();
        m.insert(CacheKey::from(Lbn(1)), "a");
        m.insert(CacheKey::from(Fho::new(FileHandle(1), 0)), "b");
        assert_eq!(m.len(), 2);
        assert_eq!(m[&CacheKey::Lbn(Lbn(1))], "a");
    }

    fn hash_of<T: std::hash::Hash>(v: &T) -> u64 {
        use std::hash::BuildHasher;
        BuildKeyHasher::default().hash_one(v)
    }

    #[test]
    fn key_hasher_is_fixed_and_separates_key_kinds() {
        // No per-process seed: the same key always hashes the same.
        assert_eq!(hash_of(&Lbn(7)), hash_of(&Lbn(7)));
        assert_ne!(
            hash_of(&CacheKey::Lbn(Lbn(7))),
            hash_of(&CacheKey::Fho(Fho::new(FileHandle(0), 7)))
        );
        // A byte-slice write agrees with the word it spells.
        let mut a = KeyHasher::default();
        a.write(&9u64.to_le_bytes());
        let mut b = KeyHasher::default();
        b.write_u64(9);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn key_hasher_spreads_block_aligned_offsets_over_low_bits() {
        // Byte offsets of 4 KiB blocks and sequential LBNs must fill a
        // power-of-two table's buckets about evenly: count the distinct
        // low 10 bits over 1024 keys of each shape.
        let lows = |hashes: Vec<u64>| {
            let mut seen = std::collections::BTreeSet::new();
            for h in hashes {
                seen.insert(h & 1023);
            }
            seen.len()
        };
        let fho = (0..1024u64)
            .map(|i| hash_of(&CacheKey::Fho(Fho::new(FileHandle(3), i * 4096))))
            .collect();
        let lbn = (0..1024u64).map(|i| hash_of(&(i + 5000))).collect();
        assert!(lows(fho) > 550, "block offsets collide in the low bits");
        assert!(lows(lbn) > 550, "sequential LBNs collide in the low bits");
    }
}
