//! # nexuspp-trace — task descriptors and traces
//!
//! The Nexus++ evaluation is *trace driven*: "Tasks information are read
//! from experimental traces, which include tasks input/output information,
//! and also their execution and memory access times." This crate is the
//! data model for those traces:
//!
//! * [`types`] — [`AccessMode`], [`Param`] (base address, size, access
//!   mode — exactly the triplet a StarSs pragma produces) and
//!   [`TaskRecord`] (parameters + execution/read/write costs),
//! * [`trace`] — in-memory [`Trace`]s with aggregate statistics, and the
//!   streaming [`TraceSource`] abstraction that lets multi-million-task
//!   workloads (Gaussian n=5000 has 12.5 M tasks) run without
//!   materialization,
//! * [`mod@format`] — a line-oriented text serialization (`.ntr`) standing in
//!   for the authors' Cell trace files,
//! * [`normalize`] — parameter-list hygiene (duplicate-address merging and
//!   validation) applied before descriptors reach the hardware model.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod format;
pub mod normalize;
pub mod trace;
pub mod types;

pub use crate::trace::{Trace, TraceSource, TraceStats, VecSource};
pub use types::{AccessMode, MemCost, Param, TaskRecord};
