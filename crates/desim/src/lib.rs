//! # nexuspp-desim — discrete-event simulation kernel
//!
//! A small, deterministic discrete-event simulation (DES) kernel that plays
//! the role SystemC plays in the Nexus++ paper ("Hardware-Based Task
//! Dependency Resolution for the StarSs Programming Model", ICPPW 2012).
//!
//! The paper's "Task Machine" is not an RTL model: hardware blocks are
//! processes that *wait* for computed amounts of time and communicate through
//! FIFO lists and one-bit signals. This crate provides exactly the
//! primitives needed to express that style of model:
//!
//! * [`SimTime`] — picosecond-resolution simulation time (integer, no
//!   floating-point drift),
//! * [`Scheduler`] — a deterministic event queue (ties broken by insertion
//!   order, time and sequence packed into one integer key),
//! * [`Fifo`] — bounded FIFO lists with occupancy statistics and
//!   backpressure helpers (the paper's `TDs Sizes`, `New Tasks`,
//!   `Global Ready Tasks`, … lists),
//! * [`RoundRobinArbiter`] — the scan order used by the `Send TDs` and
//!   `Handle Finished` blocks, over a bitset of request lines,
//! * [`SlotPool`] — a counting resource with FIFO admission, used for the
//!   32-bank off-chip memory contention model,
//! * [`Clock`] — clock-domain helpers (cores at 2 GHz, Nexus++ at 500 MHz),
//! * [`stats`] — counters, histograms and time-weighted statistics,
//! * [`rng`] — a tiny, self-contained xoshiro256++ PRNG plus the
//!   distributions the workload generators need, so simulations are
//!   bit-reproducible forever (no external RNG crate whose stream might
//!   change between versions).
//!
//! The kernel is intentionally *not* a framework: models own their state and
//! drive the scheduler from a plain `while let Some(..) = sched.pop()` loop.
//! This keeps the hot path free of dynamic dispatch and makes the whole
//! simulation a single-threaded, deterministic state machine.

pub mod arbiter;
pub mod clock;
pub mod fifo;
pub mod rng;
pub mod sched;
pub mod slots;
pub mod stats;
pub mod time;

pub use arbiter::RoundRobinArbiter;
pub use clock::Clock;
pub use fifo::Fifo;
pub use rng::Rng;
pub use sched::Scheduler;
pub use slots::{SlotGrant, SlotPool};
pub use time::SimTime;
