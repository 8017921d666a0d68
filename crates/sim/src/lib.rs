#![warn(missing_docs)]
//! Deterministic discrete-event simulation substrate for the NCache
//! reproduction.
//!
//! The paper ("Network-Centric Buffer Cache Organization", ICDCS 2005)
//! evaluates NCache on a physical testbed: Pentium III 1 GHz nodes, Gigabit
//! Ethernet, and a RAID-0 IDE storage array. This crate provides the
//! simulated equivalent of that hardware: a virtual clock, an event queue,
//! FIFO-queued resources (CPUs, links, disks), a calibrated cost model, and
//! deterministic pseudo-randomness, so that the benchmark harness can
//! reproduce the *shape* of every figure in the paper's evaluation section.
//!
//! Design notes:
//!
//! * The event queue ([`queue::EventQueue`]) is fully deterministic:
//!   events are small `Copy` values of the engine's own type, and events
//!   at equal timestamps are ordered by `(lane, push sequence)`. All
//!   randomness flows from seeded [`rng::SplitMix64`] streams.
//! * Resources use exact virtual-time FIFO service ([`resource::Resource`]):
//!   a job arriving at `t` with demand `d` completes at
//!   `max(t, next_free) + d`. This is an exact simulation of a
//!   work-conserving FIFO server and is what shapes the throughput and
//!   utilization curves of Figures 4-7.
//!
//! # Examples
//!
//! An engine defines its events as an enum and dispatches them in a loop:
//!
//! ```
//! use sim::queue::EventQueue;
//! use sim::time::{Duration, SimTime};
//!
//! #[derive(Clone, Copy)]
//! enum Ev {
//!     Tick,
//!     Add(u64),
//! }
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::from_micros(5), 0, Ev::Tick);
//! let mut world = 0u64;
//! while let Some(ev) = q.pop() {
//!     match ev {
//!         Ev::Tick => {
//!             world += 1;
//!             q.push(q.now() + Duration::from_micros(5), 0, Ev::Add(10));
//!         }
//!         Ev::Add(n) => world += n,
//!     }
//! }
//! assert_eq!(world, 11);
//! assert_eq!(q.now(), SimTime::from_micros(10));
//! assert_eq!(q.dispatched(), 2);
//! ```

pub mod costs;
pub mod fault;
pub mod queue;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod time;

pub use costs::CostModel;
pub use fault::{FaultKind, FaultLink, FaultPlan, FaultSpec};
pub use queue::{Arrivals, EventQueue, Next, Slab};
pub use resource::Resource;
pub use rng::SplitMix64;
pub use sync::Shared;
pub use time::{Duration, SimTime};
