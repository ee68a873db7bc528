//! `cryptopim-service` — a multi-tenant, batch-forming job scheduler
//! that turns the CryptoPIM accelerator into a long-running server.
//!
//! The paper's throughput story (§III-D) is that a 32k-provisioned chip
//! packs `32k/n` independent degree-`n` multiplications side by side
//! and streams jobs back-to-back through the pipeline. The core crate
//! exposes that as the one-shot, caller-assembles-the-batch
//! [`cryptopim::batch::multiply_batch`]; this crate supplies the
//! serving discipline around it:
//!
//! * [`Service::submit`] — continuous job admission behind a bounded
//!   queue with a configurable [`Backpressure`] policy (`Block` or
//!   `Reject`), so overload degrades gracefully instead of OOMing;
//! * a **batch former** that groups pending jobs by `(n, q)` parameter
//!   key and flushes when a group reaches the packed-lane capacity
//!   (`32k/n`, from [`cryptopim::arch::ArchConfig`]) *or* a max-linger
//!   deadline expires — the latency/occupancy trade-off of the paper's
//!   packing model, made explicit as [`ServiceConfig::linger`];
//! * a fleet of virtual **superbank workers** draining formed batches
//!   through the verified engine path, so every product is bit-identical
//!   to a direct `CryptoPim::multiply_product`;
//! * graceful [`Service::shutdown`] that drains every admitted job;
//! * [`Service::stats`] — queue depth, admission counters, realized
//!   packed-lane occupancy, and p50/p95/p99 job latency from a
//!   fixed-bucket histogram.
//!
//! The [`loadgen`] module drives all of it with a seeded, deterministic
//! open-/closed-loop workload (exposed as the `cli serve-loadgen`
//! subcommand) and bit-verifies against the direct path.
//!
//! # Example
//!
//! ```
//! use service::{Service, ServiceConfig};
//! use modmath::params::ParamSet;
//! use ntt::poly::Polynomial;
//!
//! let svc = Service::start(ServiceConfig::default());
//! let q = ParamSet::for_degree(256).unwrap().q;
//! let a = Polynomial::from_coeffs(vec![1; 256], q).unwrap();
//! let b = Polynomial::from_coeffs(vec![2; 256], q).unwrap();
//! let ticket = svc.submit(a, b).unwrap();
//! let done = ticket.wait().unwrap();
//! assert_eq!(done.product.degree_bound(), 256);
//! let stats = svc.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

pub mod error;
pub mod graph;
pub mod loadgen;
pub mod protoload;
pub mod scheduler;
pub mod stats;
pub mod ticket;

pub use error::ServiceError;
pub use graph::{ProtocolCompleted, ProtocolJob, ProtocolKind, ProtocolOutput, ProtocolTicket};
pub use protoload::{
    run_protocols, ProtoKindReport, ProtoLoadgenConfig, ProtoLoadgenReport, ProtocolMix,
};
pub use scheduler::{
    Backpressure, CompletedJob, JobTicket, Service, ServiceConfig, WideCompletedJob, WideTicket,
};
pub use stats::{LatencyHistogram, ProtocolLaneStats, ServiceStats};
pub use ticket::Ticket;

/// Convenience result alias for service operations.
pub type Result<T> = std::result::Result<T, ServiceError>;
