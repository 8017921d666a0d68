//! Directory blocks: fixed-size entries, single-level directories.
//!
//! Directory contents are metadata: their blocks travel the physical-copy
//! path in every server configuration (§3.3).

use crate::error::FsError;
use crate::inode::Ino;
use crate::BLOCK_SIZE;

/// Maximum file name length.
pub const NAME_MAX: usize = 27;
/// Encoded entry size: 1 length byte + name + 4-byte inode.
pub const ENTRY_SIZE: usize = 32;
/// Entries per directory block.
pub const ENTRIES_PER_BLOCK: usize = BLOCK_SIZE / ENTRY_SIZE;

/// One directory entry.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DirEntry {
    /// Entry name.
    pub name: String,
    /// Target inode.
    pub ino: Ino,
}

/// Validates a name for use in a directory.
///
/// # Errors
///
/// [`FsError::InvalidName`] when empty, too long, or containing `/` or NUL.
pub fn validate_name(name: &str) -> Result<(), FsError> {
    if name.is_empty() || name.len() > NAME_MAX {
        return Err(FsError::InvalidName);
    }
    if name.bytes().any(|b| b == b'/' || b == 0) {
        return Err(FsError::InvalidName);
    }
    Ok(())
}

/// Parses every live entry in a directory block.
pub fn entries_in_block(block: &[u8]) -> Vec<DirEntry> {
    let mut out = Vec::new();
    for slot in block.chunks_exact(ENTRY_SIZE) {
        if let Some(e) = decode_entry(slot) {
            out.push(e);
        }
    }
    out
}

/// Decodes the entry in one 32-byte slot; `None` if the slot is free.
pub fn decode_entry(slot: &[u8]) -> Option<DirEntry> {
    Some(DirEntry {
        name: live_name(slot)?.to_string(),
        ino: slot_ino(slot),
    })
}

/// The name bytes a slot's length byte claims: `None` for a length of 0
/// or past [`NAME_MAX`].
fn name_bytes(slot: &[u8]) -> Option<&[u8]> {
    let len = slot[0] as usize;
    (1..=NAME_MAX).contains(&len).then(|| &slot[1..1 + len])
}

/// The name of a live slot, borrowed from the block; `None` if the slot is
/// free (a bad length, or a name that is not UTF-8).
fn live_name(slot: &[u8]) -> Option<&str> {
    std::str::from_utf8(name_bytes(slot)?).ok()
}

fn slot_ino(slot: &[u8]) -> Ino {
    Ino(u32::from_le_bytes(
        slot[NAME_MAX + 1..NAME_MAX + 5]
            .try_into()
            .expect("4 bytes"),
    ))
}

/// Writes `entry` into slot `slot_idx` of `block`.
///
/// # Panics
///
/// Panics if the slot index is out of range or the name is invalid
/// (callers must [`validate_name`] first).
pub fn encode_entry(block: &mut [u8], slot_idx: usize, entry: &DirEntry) {
    assert!(slot_idx < ENTRIES_PER_BLOCK, "slot out of range");
    validate_name(&entry.name).expect("caller must validate the name");
    let at = slot_idx * ENTRY_SIZE;
    let slot = &mut block[at..at + ENTRY_SIZE];
    slot.fill(0);
    slot[0] = entry.name.len() as u8;
    slot[1..1 + entry.name.len()].copy_from_slice(entry.name.as_bytes());
    slot[NAME_MAX + 1..NAME_MAX + 5].copy_from_slice(&entry.ino.0.to_le_bytes());
}

/// Clears slot `slot_idx` of `block`.
///
/// # Panics
///
/// Panics if the slot index is out of range.
pub fn clear_entry(block: &mut [u8], slot_idx: usize) {
    assert!(slot_idx < ENTRIES_PER_BLOCK, "slot out of range");
    let at = slot_idx * ENTRY_SIZE;
    block[at..at + ENTRY_SIZE].fill(0);
}

/// Finds `name` in a directory block, returning its slot index and inode.
/// Names are compared as bytes, in place: a slot whose name bytes equal a
/// `&str` is valid UTF-8, so this matches exactly the slots that decode
/// to `name`, and nothing is allocated.
pub fn find_in_block(block: &[u8], name: &str) -> Option<(usize, Ino)> {
    block
        .chunks_exact(ENTRY_SIZE)
        .position(|slot| name_bytes(slot) == Some(name.as_bytes()))
        .map(|i| (i, slot_ino(&block[i * ENTRY_SIZE..])))
}

/// Finds the first free slot in a directory block.
pub fn free_slot(block: &[u8]) -> Option<usize> {
    block
        .chunks_exact(ENTRY_SIZE)
        .position(|slot| live_name(slot).is_none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use check::gen::*;
    use check::{prop_assert_eq, property};

    #[test]
    fn entry_round_trip() {
        let mut block = vec![0u8; BLOCK_SIZE];
        let e = DirEntry {
            name: "hello.txt".to_string(),
            ino: Ino(42),
        };
        encode_entry(&mut block, 3, &e);
        assert_eq!(decode_entry(&block[3 * ENTRY_SIZE..4 * ENTRY_SIZE]), Some(e.clone()));
        assert_eq!(entries_in_block(&block), vec![e.clone()]);
        assert_eq!(find_in_block(&block, "hello.txt"), Some((3, e.ino)));
        assert_eq!(find_in_block(&block, "missing"), None);
    }

    #[test]
    fn free_slot_skips_used() {
        let mut block = vec![0u8; BLOCK_SIZE];
        assert_eq!(free_slot(&block), Some(0));
        encode_entry(
            &mut block,
            0,
            &DirEntry {
                name: "a".to_string(),
                ino: Ino(1),
            },
        );
        assert_eq!(free_slot(&block), Some(1));
    }

    #[test]
    fn clear_entry_frees_slot() {
        let mut block = vec![0u8; BLOCK_SIZE];
        encode_entry(
            &mut block,
            0,
            &DirEntry {
                name: "a".to_string(),
                ino: Ino(1),
            },
        );
        clear_entry(&mut block, 0);
        assert!(entries_in_block(&block).is_empty());
    }

    #[test]
    fn full_block_has_no_free_slot() {
        let mut block = vec![0u8; BLOCK_SIZE];
        for i in 0..ENTRIES_PER_BLOCK {
            encode_entry(
                &mut block,
                i,
                &DirEntry {
                    name: format!("f{i}"),
                    ino: Ino(i as u32),
                },
            );
        }
        assert_eq!(free_slot(&block), None);
        assert_eq!(entries_in_block(&block).len(), ENTRIES_PER_BLOCK);
    }

    #[test]
    fn name_validation() {
        assert!(validate_name("ok-name.txt").is_ok());
        assert_eq!(validate_name(""), Err(FsError::InvalidName));
        assert_eq!(validate_name(&"x".repeat(28)), Err(FsError::InvalidName));
        assert!(validate_name(&"x".repeat(27)).is_ok());
        assert_eq!(validate_name("a/b"), Err(FsError::InvalidName));
        assert_eq!(validate_name("a\0b"), Err(FsError::InvalidName));
    }

    #[test]
    #[should_panic(expected = "slot out of range")]
    fn encode_bad_slot_panics() {
        let mut block = vec![0u8; BLOCK_SIZE];
        encode_entry(
            &mut block,
            ENTRIES_PER_BLOCK,
            &DirEntry {
                name: "a".to_string(),
                ino: Ino(0),
            },
        );
    }

    property! {
        fn prop_entry_round_trip(
            name in string_of(FILENAME, 1..28),
            ino in any_u32(),
            slot in ints(0usize..ENTRIES_PER_BLOCK),
        ) {
            let mut block = vec![0u8; BLOCK_SIZE];
            let e = DirEntry { name, ino: Ino(ino) };
            encode_entry(&mut block, slot, &e);
            prop_assert_eq!(find_in_block(&block, &e.name), Some((slot, e.ino)));
        }
    }
}
