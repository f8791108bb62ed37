//! `perfbench`: the serving benchmark of the PLASMA-HD reproduction.
//!
//! It drives the real serving stack from one process, with two client
//! connections and two client threads, through two workloads
//! (`reprobe`, `live_ingest`). Each run sets up fresh state, measures an
//! open-loop phase at a committed rate and a closed-loop phase on a fixed
//! plan, checks every answer against a cold reference, and prints one
//! JSON line of end-to-end metrics. A traced run (`--trace 1`) instead
//! replays the workload's plan through each layer's public calls and
//! prints per-layer metrics.

pub mod check;
pub mod client;
pub mod metrics;
pub mod phase;
pub mod plan;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
