//! Stack-array encoding of bounded XDR headers.
//!
//! Every RPC and NFS header this subset builds has a small fixed upper
//! size, so encoders write into an [`Encoded`] array on the stack instead
//! of growing a heap vector word by word. Headers whose length varies
//! (a status-only error reply against a full success reply) use the
//! array's prefix; headers that always fill it hand back the bare array.

use std::fmt;
use std::ops::Deref;

/// An encoded header: the leading bytes of an `N`-byte stack array.
/// Dereferences to the encoded bytes.
///
/// # Examples
///
/// ```
/// use proto::nfs::{ReadReplyHeader, NFSERR_IO};
///
/// let err = ReadReplyHeader { status: NFSERR_IO, ..ReadReplyHeader::default() };
/// assert_eq!(&err.encode()[..], &NFSERR_IO.to_be_bytes());
/// ```
#[derive(Clone, Copy)]
pub struct Encoded<const N: usize> {
    buf: [u8; N],
    len: usize,
}

impl<const N: usize> Encoded<N> {
    /// An empty encoding.
    pub(crate) const fn new() -> Self {
        Encoded {
            buf: [0; N],
            len: 0,
        }
    }

    /// Appends raw bytes.
    ///
    /// # Panics
    ///
    /// Panics if the bytes overflow the array — an encoder sized wrong.
    pub(crate) fn put(&mut self, bytes: &[u8]) -> &mut Self {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
        self
    }

    /// Appends a big-endian XDR word.
    pub(crate) fn put_u32(&mut self, v: u32) -> &mut Self {
        self.put(&v.to_be_bytes())
    }

    /// The full array, for headers whose encoding always fills it.
    ///
    /// # Panics
    ///
    /// Panics if the encoding is shorter than `N`.
    pub(crate) fn into_array(self) -> [u8; N] {
        assert_eq!(self.len, N, "fixed-size header encoded short");
        self.buf
    }
}

impl<const N: usize> Deref for Encoded<N> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

impl<const N: usize> fmt::Debug for Encoded<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Encoded").field(&&self[..]).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn puts_append_in_order() {
        let mut e = Encoded::<8>::new();
        e.put_u32(0x0102_0304).put(&[5, 6]);
        assert_eq!(&e[..], &[1, 2, 3, 4, 5, 6]);
        e.put(&[7, 8]);
        assert_eq!(e.into_array(), [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    #[should_panic(expected = "encoded short")]
    fn short_fixed_encoding_panics() {
        let mut e = Encoded::<8>::new();
        e.put_u32(1);
        let _ = e.into_array();
    }

    #[test]
    #[should_panic]
    fn overflow_panics() {
        Encoded::<2>::new().put_u32(1);
    }
}
