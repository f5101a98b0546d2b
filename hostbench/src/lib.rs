//! End-to-end benchmark of mediated exchanges (client → mediator →
//! service → client) for the Starlink reproduction. See `README.md` in
//! this directory for the workloads, the metrics and how to run it.

pub mod alloc;
pub mod env;
pub mod run;
pub mod trace;
pub mod workload;
