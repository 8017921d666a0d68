//! Directory name matching by bytes against the decoding oracle.
//!
//! `simfs::dir::find_in_block` and `simfs::dir::free_slot` compare a
//! slot's name bytes in place. The oracle below is the code they replaced:
//! decode every slot into an owned entry (a `String` per slot), then
//! compare names. On blocks that mix valid entries with hostile slots —
//! length 0, a length past `NAME_MAX`, names that are not UTF-8, length
//! bytes that cut a longer name short, and names that are prefixes of one
//! another — both must find the same slot and inode, report the same free
//! slot, and never panic.

use check::gen::*;
use check::{prop_assert_eq, property};

use simfs::dir::{self, ENTRY_SIZE, NAME_MAX};
use simfs::{Ino, BLOCK_SIZE};

/// Names that are prefixes of one another, one at `NAME_MAX`, multi-byte
/// UTF-8, and two that no valid slot can hold (empty, too long).
const NAMES: [&str; 10] = [
    "a",
    "ab",
    "abc",
    "abcd",
    "b",
    "index.html",
    "é",
    "名前.txt",
    "",
    "this-name-is-one-byte-too-long",
];

fn oracle_decode(slot: &[u8]) -> Option<(String, Ino)> {
    let len = slot[0] as usize;
    if len == 0 || len > NAME_MAX {
        return None;
    }
    let name = std::str::from_utf8(&slot[1..1 + len]).ok()?.to_string();
    let ino = u32::from_le_bytes(
        slot[NAME_MAX + 1..NAME_MAX + 5]
            .try_into()
            .expect("4 bytes"),
    );
    Some((name, Ino(ino)))
}

fn oracle_find(block: &[u8], name: &str) -> Option<(usize, Ino)> {
    for (i, slot) in block.chunks_exact(ENTRY_SIZE).enumerate() {
        if let Some((n, ino)) = oracle_decode(slot) {
            if n == name {
                return Some((i, ino));
            }
        }
    }
    None
}

fn oracle_free_slot(block: &[u8]) -> Option<usize> {
    block
        .chunks_exact(ENTRY_SIZE)
        .position(|slot| oracle_decode(slot).is_none())
}

/// One slot: `kind` picks a valid entry (0–2), length 0 (3), a length
/// past `NAME_MAX` (4), invalid UTF-8 (5), a length byte that cuts the
/// name short (6) or raw garbage (7).
type SlotSpec = (u8, usize, u32, Vec<u8>, u8);

fn slot_spec() -> impl Gen<Value = SlotSpec> {
    (
        ints(0u8..8),
        ints(0usize..NAMES.len()),
        any_u32(),
        bytes(ENTRY_SIZE..ENTRY_SIZE + 1),
        any_u8(),
    )
}

fn build_slot(slot: &mut [u8], (kind, name, ino, garbage, len): &SlotSpec) {
    let name = NAMES[*name].as_bytes();
    let fits = &name[..name.len().min(NAME_MAX)];
    slot[1..1 + fits.len()].copy_from_slice(fits);
    slot[0] = fits.len() as u8;
    slot[NAME_MAX + 1..].copy_from_slice(&ino.to_le_bytes());
    match kind {
        3 => slot[0] = 0,
        4 => slot[0] = (NAME_MAX as u8 + 1).max(*len),
        5 => {
            slot[1..3].copy_from_slice(&[0xC3, 0x28]);
            slot[0] = 2;
        }
        6 => slot[0] = (*len as usize % fits.len().max(1)) as u8,
        7 => slot.copy_from_slice(garbage),
        _ => {}
    }
}

property! {
    #![cases(256)]

    fn prop_byte_matching_agrees_with_the_decoding_oracle(
        slots in vec_of(slot_spec(), 0..BLOCK_SIZE / ENTRY_SIZE + 1),
    ) {
        let mut block = vec![0u8; BLOCK_SIZE];
        for (spec, slot) in slots.iter().zip(block.chunks_exact_mut(ENTRY_SIZE)) {
            build_slot(slot, spec);
        }
        for name in NAMES {
            prop_assert_eq!(dir::find_in_block(&block, name), oracle_find(&block, name), "{:?}", name);
        }
        prop_assert_eq!(dir::free_slot(&block), oracle_free_slot(&block));
        for slot in block.chunks_exact(ENTRY_SIZE) {
            prop_assert_eq!(
                dir::decode_entry(slot).map(|e| (e.name, e.ino)),
                oracle_decode(slot)
            );
        }
    }
}
