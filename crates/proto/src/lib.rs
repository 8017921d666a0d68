#![warn(missing_docs)]
//! Wire-format subsets of every protocol the pass-through server speaks.
//!
//! The NCache design (paper §3.3, §3.5) classifies traffic as *metadata*
//! versus *regular data* by inspecting higher-level protocol headers — the
//! RPC procedure number for NFS, request context (inode type) for iSCSI, and
//! the header/body split for HTTP. This crate implements faithful, testable
//! codecs for exactly the header fields that classification and substitution
//! rely on:
//!
//! * [`csum`] — the Internet checksum (RFC 1071), including incremental
//!   update, which is what lets NCache reuse a stored checksum after
//!   substituting a packet's payload.
//! * [`ethernet`], [`ipv4`], [`udp`], [`tcp`] — framing. NFS runs over UDP
//!   and HTTP over TCP in the paper's experiments (§5.5).
//! * [`rpc`], [`nfs`] — SUN RPC and the NFS procedures the evaluation
//!   exercises (GETATTR, LOOKUP, READ, WRITE).
//! * [`iscsi`] — the SCSI command / Data-In / Data-Out PDU subset the
//!   NFS-server-to-storage-server path uses.
//! * [`http`] — HTTP/1.0 requests and responses for the kHTTPd experiments.
//! * [`xdr`] — the stack array the bounded RPC/NFS headers encode into.
//!
//! All decode functions are pure: `&[u8]` in, structured header out, with
//! byte-exact round-trip tests and property tests in each module.

pub mod csum;
pub mod error;
pub mod ethernet;
pub mod http;
pub mod ipv4;
pub mod iscsi;
pub mod nfs;
pub mod rpc;
pub mod tcp;
pub mod udp;
pub mod xdr;

pub use error::{DecodeError, Result};
pub use xdr::Encoded;
