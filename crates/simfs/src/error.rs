//! File system errors.

use std::fmt;

/// Errors returned by file system operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsError {
    /// No such file or directory.
    NotFound,
    /// A directory entry with this name already exists.
    Exists,
    /// The operation targets the wrong kind of object (e.g. reading a
    /// directory as a file).
    NotAFile,
    /// The target is not a directory.
    NotADirectory,
    /// No free blocks or inodes remain.
    NoSpace,
    /// An offset or length is outside the representable file range.
    InvalidRange,
    /// A name is too long or contains invalid bytes.
    InvalidName,
    /// The on-disk structure is corrupt (bad magic, bad pointer).
    Corrupt(&'static str),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound => write!(f, "no such file or directory"),
            FsError::Exists => write!(f, "file exists"),
            FsError::NotAFile => write!(f, "not a regular file"),
            FsError::NotADirectory => write!(f, "not a directory"),
            FsError::NoSpace => write!(f, "no space left on device"),
            FsError::InvalidRange => write!(f, "offset or length out of range"),
            FsError::InvalidName => write!(f, "invalid file name"),
            FsError::Corrupt(what) => write!(f, "corrupt file system: {what}"),
        }
    }
}

impl std::error::Error for FsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(FsError::NotFound.to_string(), "no such file or directory");
        assert_eq!(
            FsError::Corrupt("superblock magic").to_string(),
            "corrupt file system: superblock magic"
        );
    }

    #[test]
    fn is_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(FsError::NoSpace);
        assert!(e.to_string().contains("space"));
    }
}

/// A failed [`crate::Filesystem::write_logical`]: the error, and which of
/// the stamps are certain to be named by no placeholder in the file
/// system. Whatever those stamps refer to is the caller's to drop: no
/// flush will ever reach it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogicalWriteError {
    /// What went wrong.
    pub error: FsError,
    /// Indices of the stamps no placeholder names: all of them when the
    /// inode names no regular file, the one whose block could not be
    /// allocated when the volume filled, none otherwise. (A stamp past a
    /// failed block was never planted, but a block of the file may hold
    /// an older placeholder with the same keys.)
    pub unnamed: std::ops::Range<usize>,
}

impl From<LogicalWriteError> for FsError {
    fn from(e: LogicalWriteError) -> Self {
        e.error
    }
}
