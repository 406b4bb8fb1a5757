//! # nexuspp — reproduction of the Nexus++ hardware task manager
//!
//! Umbrella crate for the reproduction of *"Hardware-Based Task Dependency
//! Resolution for the StarSs Programming Model"* (Dallou & Juurlink, ICPP
//! Workshops 2012). It re-exports the workspace crates under stable module
//! names so applications can depend on a single crate:
//!
//! * [`desim`] — simulated time ([`desim::SimTime`]) and the seeded
//!   [`desim::Rng`],
//! * [`trace`] — task descriptor and trace data model,
//! * [`workloads`] — the paper's benchmark generators,
//! * [`core`] — the Nexus++ task pool, dependence table and resolution
//!   protocol (the paper's primary contribution), plus the unified
//!   submission surface ([`core::TaskBuilder`], [`core::SubmitError`]),
//! * [`frontend`] — the resource-versioning frontend: tasks declare
//!   named resources (`reads`/`writes`/`read_writes`), every write
//!   mints a logical version, and lowering renames versions onto
//!   distinct addresses so WAR/WAW false dependencies vanish before
//!   the hardware ever sees them,
//! * [`incr`] — the incremental re-execution layer: an editable,
//!   memoized task program ([`incr::IncrementalProgram`]) over the
//!   frontend — apply edits, and the frontend's order, recomputed at
//!   each structural commit, plus a content-hash memo store re-run only
//!   the invalidated cone on any backend,
//! * [`shard`] — sharded resolution: N address-partitioned engines
//!   composed into one logically-equivalent resolver, with a batched
//!   submission front-end, a per-shard-locked concurrent dispatcher,
//!   and an optional finite per-shard capacity (stall/retry on full
//!   shards, like the real hardware tables),
//! * [`taskmachine`] — the full-system "Task Machine" simulator on its
//!   own discrete-event kernel (the SystemC substitute), plus the
//!   multi-Maestro sharded variant,
//! * [`hw`] — the Task Machine's memory/bus/SRAM timing models and
//!   storage budgets,
//! * [`obs`] — the observability layer: lifecycle event tracing with
//!   bounded per-worker event lanes, a metrics registry over every layer's
//!   counters, Chrome-trace export and critical-path analysis,
//! * [`sched`] — the ready-task scheduling layer: per-worker
//!   work-stealing queues with a locked FIFO injector,
//! * [`runtime`] — a real threaded StarSs-like runtime built on the same
//!   resolution semantics ([`runtime::Runtime`]: any number of resolver
//!   shards, one being the single-engine case), scheduling through
//!   [`sched`],
//! * [`service`] — the runtime as a persistent facility: a streaming,
//!   multi-tenant ingress ([`service::ResolverService`]) with bounded
//!   per-tenant lanes, admission budgets, live per-tenant metrics, and
//!   two-phase graceful shutdown,
//! * [`baseline`] — the Task Machine's comparison systems: the
//!   original-Nexus limits model, a software-RTS timing model and the
//!   ideal scheduler bound.
//!
//! See `README.md` for the workspace layout and verify commands.
//!
//! ## Quickstart
//!
//! Declare work by **named resources** and let the frontend do the
//! addressing: each write mints a new logical version, lowering infers
//! the true dependency edges and renames versions onto distinct
//! physical addresses, and the lowered stream runs on any backend —
//! here the real threaded runtime, over two resolver shards:
//!
//! ```
//! use nexuspp::frontend::{Lowering, Program};
//! use nexuspp::runtime::Runtime;
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let mut p = Program::new();
//! p.resource("frame");
//! // Three refinement passes over "frame" — each mints a new version —
//! // then a stats task reading the final version.
//! for pass in 0..3u64 {
//!     p.task(0x100 + pass).read_writes("frame").submit().unwrap();
//! }
//! p.task(0x200).reads("frame").writes("stats").submit().unwrap();
//!
//! let lowered = p.lower(Lowering::Renamed).unwrap();
//! assert_eq!(lowered.edges.len(), 3, "true RAW edges only — no WAW/WAR");
//!
//! let rt = Runtime::new(2, 2);
//! let ran = Arc::new(AtomicU64::new(0));
//! for sub in lowered.tasks.iter().cloned() {
//!     let ran = Arc::clone(&ran);
//!     rt.spawn_lowered(sub, move || {
//!         ran.fetch_add(1, Ordering::Relaxed);
//!     });
//! }
//! rt.barrier();
//! assert_eq!(ran.load(Ordering::Relaxed), 4);
//!
//! // Addressing by hand instead? `TaskBuilder` is the blessed way to
//! // construct a submission; every layer accepts one and reports the
//! // same `SubmitError` surface.
//! use nexuspp::core::{DependencyEngine, NexusConfig, TaskBuilder};
//!
//! let mut engine = DependencyEngine::new(&NexusConfig::unbounded());
//! let producer = TaskBuilder::new(0x300).tag(1).writes(0x1000, 64).build();
//! let consumer = TaskBuilder::new(0x301).tag(2).reads(0x1000, 64).build();
//! let (_, ready) = engine.try_submit(producer).unwrap();
//! assert!(ready, "no dependencies yet");
//! let (_, ready) = engine.try_submit(consumer).unwrap();
//! assert!(!ready, "the RAW dependence holds the consumer back");
//! ```
//!
//! The paper's evaluation flow end to end: generate a StarSs-style
//! workload, let the simulated Nexus++ hardware discover its dependency
//! graph, and measure the speedup more worker cores buy. Then run a real
//! task graph — same resolution semantics, real threads — on the runtime.
//!
//! ```
//! use nexuspp::runtime::Runtime;
//! use nexuspp::taskmachine::{simulate_trace, MachineConfig};
//! use nexuspp::workloads::{GridPattern, GridSpec};
//!
//! // A small H.264-style wavefront: every macroblock-decode task reads
//! // its left and upper neighbours, so parallelism ramps up diagonally.
//! let spec = GridSpec {
//!     rows: 12,
//!     cols: 8,
//!     ..GridSpec::default()
//! };
//! let trace = spec.generate(GridPattern::Wavefront);
//! assert_eq!(trace.len(), 12 * 8);
//!
//! // Cycle-level simulation of the Table IV machine, 1 vs 8 workers.
//! let serial = simulate_trace(MachineConfig::with_workers(1), &trace).unwrap();
//! let parallel = simulate_trace(MachineConfig::with_workers(8), &trace).unwrap();
//! assert_eq!(serial.tasks, trace.len() as u64);
//! assert!(parallel.makespan < serial.makespan, "wavefront must scale");
//!
//! // The same dependency semantics executing real closures on threads:
//! // a two-stage pipeline wired purely by input/output declarations.
//! let rt = Runtime::new(2, 1); // 2 workers, 1 resolver shard
//! let src = rt.region(vec![1u64; 64]);
//! let mid = rt.region(vec![0u64; 64]);
//! let sum = rt.region(vec![0u64]);
//! {
//!     let (src, mid) = (src.clone(), mid.clone());
//!     rt.task().input(&src).output(&mid).spawn(move |t| {
//!         let s = t.read(&src);
//!         let mut m = t.write(&mid);
//!         for (out, inp) in m.iter_mut().zip(s.iter()) {
//!             *out = inp * 3;
//!         }
//!     });
//! }
//! {
//!     let (mid, sum) = (mid.clone(), sum.clone());
//!     rt.task().input(&mid).output(&sum).spawn(move |t| {
//!         t.write(&sum)[0] = t.read(&mid).iter().sum();
//!     });
//! }
//! rt.barrier();
//! assert_eq!(rt.with_data(&sum, |v| v[0]), 3 * 64);
//!
//! // Finite hardware tables, as a knob: the same runtime over two shards
//! // that each hold at most 2 resident tasks. Overflowing submissions
//! // stall (the paper's master-core stall) and resume on finish reports;
//! // the per-shard counters must balance once quiescent.
//! use nexuspp::runtime::ShardCapacity;
//!
//! let srt = Runtime::with_capacity(2, 2, ShardCapacity::Bounded(2));
//! let cell = srt.region(vec![0u64]);
//! for _ in 0..32 {
//!     let cell2 = cell.clone();
//!     srt.task().inout(&cell).spawn(move |t| t.write(&cell2)[0] += 1);
//! }
//! srt.barrier();
//! assert_eq!(srt.with_data(&cell, |v| v[0]), 32);
//! for shard in srt.capacity_counts() {
//!     assert_eq!(shard.stalls_observed, shard.retries_resolved);
//! }
//!
//! // The resolver as a persistent, multi-tenant facility: streaming
//! // ingress with per-tenant admission budgets and two-phase shutdown.
//! use nexuspp::core::TaskBuilder;
//! use nexuspp::service::{ResolverService, ServiceConfig, ServiceTask, TenantId};
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let svc = ResolverService::start(
//!     ServiceConfig::new(2, 2)
//!         .tenant(TenantId(1), 8)
//!         .tenant(TenantId(2), 8),
//! );
//! let ran = Arc::new(AtomicU64::new(0));
//! for tenant in 1..=2u32 {
//!     let h = svc.handle(TenantId(tenant)).unwrap();
//!     for i in 0..16u64 {
//!         let sub = TaskBuilder::new(0x300)
//!             .tag(i)
//!             .read_writes(((tenant as u64) << 32) | (i % 4), 8)
//!             .build();
//!         let ran2 = Arc::clone(&ran);
//!         h.submit_blocking(ServiceTask::new(sub, move || {
//!             ran2.fetch_add(1, Ordering::AcqRel);
//!         }))
//!         .expect("service accepting");
//!     }
//! }
//! let report = svc.shutdown(); // seal, drain, quiesce, join
//! assert!(report.graceful);
//! assert_eq!(ran.load(Ordering::Acquire), 32);
//! assert_eq!(svc.metrics_snapshot().get("tenant1", "executed"), Some(16));
//! ```

#![forbid(unsafe_code)]

pub use nexuspp_core as core;
pub use nexuspp_desim as desim;
pub use nexuspp_frontend as frontend;
pub use nexuspp_incr as incr;
pub use nexuspp_obs as obs;
pub use nexuspp_runtime as runtime;
pub use nexuspp_sched as sched;
pub use nexuspp_service as service;
pub use nexuspp_shard as shard;
pub use nexuspp_taskmachine as taskmachine;
pub use nexuspp_taskmachine::{baseline, hw};
pub use nexuspp_trace as trace;
pub use nexuspp_workloads as workloads;
