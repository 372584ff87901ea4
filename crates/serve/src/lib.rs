//! # lclog-serve
//!
//! The persistent cluster service: instead of building a runtime,
//! running one job, and tearing everything down (the `Cluster` /
//! `run_tasks` batch shape), `lclog-serve` keeps a **warm runtime**
//! alive — one shared stable-storage backend, one replication
//! pipeline, one sweep pool — and serves jobs submitted by concurrent
//! tenants over a line-oriented local TCP API.
//!
//! ```text
//! SUBMIT kind=ring n=8 proto=tdi rounds=12 kill=1@4 wipe=on   → OK id=1 base=0
//! STATUS 1                                                     → OK id=1 state=running ...
//! REPORT 1 / DIGESTS 1                                         → OK id=1 ... digests=...
//! METRICS / MEMBERS                                            → multi-line, END-terminated
//! SNAPSHOT / DRAIN / RETIRE <id> / PING
//! ```
//!
//! Isolation: every job gets its own fabric and virtual clock; the
//! *durable* world is shared and namespaced by a never-reused
//! `rank_base`, so a mid-job node loss (`kill=… wipe=on`) recovers
//! through the ordinary rollback/restore path — from the service-wide
//! remote manifest — without disturbing co-resident jobs. See
//! [`service::Service`].

#![warn(missing_docs)]

mod client;
pub mod job;
pub mod service;
pub mod workload;

pub use client::Client;
pub use job::{FaultSpec, JobSpec};
pub use service::{Service, ServiceConfig};
pub use workload::{Workload, WorkloadKind};
