//! # nexuspp-service — the resolver as a long-running service
//!
//! Everything below this crate treats the Nexus++ resolver as a
//! library: one program builds a runtime, submits its graph, and tears
//! the runtime down. The paper's hardware, though, is a *shared
//! facility* — one task manager serving every core that submits to it.
//! This crate is the software analogue at the process level: a
//! persistent [`ResolverService`] wrapping an
//! `Arc<`[`Runtime`](nexuspp_runtime::Runtime)`>` that
//! accepts **streaming submissions from many concurrent clients**,
//! meters them per tenant, and shuts down without losing accepted work.
//!
//! The moving parts:
//!
//! * [`SubmissionHandle`] — a tenant's cheaply-clonable ingress
//!   endpoint: a bounded queue into the service. A full lane surfaces
//!   as a **retryable** [`IngressError::Backpressure`] carrying the
//!   task back to the caller; `try_submit` never parks a client.
//! * Admission — caller-runs: one routine, run under a per-lane lock by
//!   the client that just sent or by the worker that just retired a
//!   task — the service runs no thread of its own — admits in send
//!   order per tenant, charging each task against the tenant's
//!   [`TenantBudgets`](nexuspp_shard::TenantBudgets) lane before it may
//!   occupy runtime state, and absorbing the runtime's retryable
//!   [`SubmitError`](nexuspp_core::SubmitError) capacity rejections into
//!   a per-lane retry slot, which the next retirement resubmits. A
//!   thread that finds the lane locked leaves the pump to the holder.
//!   The client's body box is the runtime's, and the runtime settles the
//!   tenant's credit at retirement
//!   ([`Runtime::on_retire`](nexuspp_runtime::Runtime::on_retire)).
//!   A saturating tenant therefore stalls *its own lane only*: its
//!   queue fills, its clients see backpressure, and every other lane
//!   keeps flowing.
//! * Metrics — a per-tenant
//!   [`CounterGroup`](nexuspp_obs::CounterGroup) (submitted,
//!   backpressured, admitted, executed, …) merged with the live budget
//!   gauges into the service's
//!   [`MetricsRegistry`](nexuspp_obs::MetricsRegistry), sampled by the
//!   [`Collector`](nexuspp_obs::Collector) when the service is started
//!   with [`ResolverService::with_observer`].
//! * Shutdown — two-phase: [`ResolverService::shutdown`] first seals
//!   ingress (a write-lock barrier guarantees no in-flight
//!   `try_submit` races past the closed flag), wakes any sender parked
//!   on a full lane, and drains every lane on the calling thread; then
//!   it quiesces the runtime and joins its workers. The
//!   [`shutdown_deadline`](ResolverService::shutdown_deadline) form
//!   adds the hard-abort path: past the deadline, still-queued ingress
//!   is dropped (counted) and the runtime cancel-finishes queued tasks
//!   via [`shutdown_deadline`](nexuspp_runtime::Runtime::shutdown_deadline).
//!   Either way the [`ServiceReport`] accounts for every accepted task
//!   exactly once: executed, cancelled, or dropped-at-ingress.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod config;
mod ingress;
mod metrics;
mod service;
mod task;

pub use config::ServiceConfig;
pub use nexuspp_core::TenantId;
pub use service::{ResolverService, ServiceReport};
pub use task::{IngressError, ServiceTask, SubmissionHandle};
