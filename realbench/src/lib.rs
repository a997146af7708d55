//! Benchmark of the real `nm-core` + `nm-fabric` stack.
//!
//! Four closed-loop workloads ([`Workload`]) drive two [`CommCore`]s
//! through their public API on a real-time fabric with the default
//! `CoreConfig` (`LockingMode::Fine`, aggregation strategy). An untraced
//! run gives the end-to-end metrics; a traced run, whose [`probe`]s time
//! the calls into each layer from the benchmark's own code, gives the
//! per-layer metrics. See `README.md` in this directory.
//!
//! [`CommCore`]: nm_core::CommCore

pub mod hist;
pub mod probe;
pub mod report;
pub mod workload;

pub use probe::Probe;
pub use workload::{run, Budget, Phase, Stack, Traffic, Workload};
