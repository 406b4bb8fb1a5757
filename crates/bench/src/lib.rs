//! # nexuspp-bench — experiment harness
//!
//! Library backing the `repro` binary: one function per table/figure of
//! the paper (plus the model-side studies), each returning an
//! [`experiments::Experiment`] — tables, self-checks, CSV — that the
//! binary renders and whose failed checks set its exit status. Every
//! paper claim is one entry of [`experiments::CLAIMS`] (paper value,
//! band, configuration), evaluated by its experiment in every mode.
//! Tier-1 runs every experiment at quick scale, so "the experiment
//! reproduces" is a tested property, not a claim. Timing the threaded
//! layers is the job of the `e2e` binary in this package
//! (`src/bin/e2e/`, the repository's benchmark), not of this library.
//!
//! | Artefact | Function | Binary command |
//! |---|---|---|
//! | Table II (Gaussian sizes) | [`experiments::table2`] | `repro table2` |
//! | Table IV (parameters, ≤210 KB) | [`experiments::table4`] | `repro table4` |
//! | Figure 4 (dependency patterns) | [`experiments::fig4`] | `repro fig4` |
//! | Figure 6 (design space) | [`experiments::fig6`] | `repro fig6` |
//! | Figure 7 (pattern speedups) | [`experiments::fig7`] | `repro fig7` |
//! | Figure 8 (Gaussian speedups) | [`experiments::fig8`] | `repro fig8` |
//! | §V headline (54×/143×/221×) | [`experiments::headline`] | `repro headline` |
//! | §III-B efficiency vs Nexus | `experiments::nexus_vs` | `repro nexus-vs` |
//! | §I motivation (software RTS) | [`experiments::rts`] | `repro rts` |
//! | design ablations | [`experiments::ablate`] | `repro ablate` |
//! | multi-frame pipelining (extension) | [`experiments::video`] | `repro video` |
//! | shard scaling (extension) | [`experiments::shards`] | `repro shards` |
//! | bounded shard capacity (extension) | [`experiments::capacity`] | `repro capacity` |
//! | kick-off FIFO depths (extension) | [`experiments::wakes`] | `repro wakes` |
//! | trace export, events vs counters (extension) | [`experiments::observe`] | `repro observe` |
//! | live dashboard | [`watch::run_watch`] | `repro watch` |

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod experiments;
pub mod table;
pub mod watch;

pub use experiments::ExpOptions;
