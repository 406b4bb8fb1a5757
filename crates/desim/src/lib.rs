//! # nexuspp-desim — simulated time and a seeded RNG
//!
//! The two values every simulated layer of the Nexus++ reproduction shares
//! ("Hardware-Based Task Dependency Resolution for the StarSs Programming
//! Model", ICPPW 2012):
//!
//! * [`SimTime`] — picosecond-resolution simulation time (integer, no
//!   floating-point drift), the unit of trace durations, hardware timings
//!   and makespans,
//! * [`Rng`] — a tiny, self-contained xoshiro256++ PRNG plus the
//!   distributions the workload generators need, so simulations are
//!   bit-reproducible forever (no external RNG crate whose stream might
//!   change between versions).
//!
//! The event kernel that plays SystemC's role (scheduler, FIFO lists,
//! arbiters, slot pools) lives inside `nexuspp-taskmachine`, the one
//! simulator that drives it.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod rng;
pub mod time;

pub use rng::Rng;
pub use time::SimTime;
