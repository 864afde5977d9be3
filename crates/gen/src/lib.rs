//! # tsg-gen — workload generators for Timed Signal Graph analyses
//!
//! Deterministic, seeded generators for the graphs the paper's evaluation
//! uses (Section VIII) and for the scaling/property-test workloads:
//!
//! * [`ring`] — an `n`-event ring with `k` evenly spaced tokens,
//! * [`handshake_pipeline`] — a ladder of 4-event handshake stages,
//! * [`stack66`] — the 66-event / 112-arc stack-class graph matching the
//!   size data point of Section VIII.B,
//! * [`torus()`](torus::torus) — 2-D torus marked graphs with a closed-form cycle time,
//! * [`random_live_tsg`] — seeded random live, strongly connected,
//!   initially safe graphs for property tests and sweeps.
//!
//! Every repetitive event is labelled as a signal transition (`v3+`,
//! `x0_1+`, `r2-`, `env+`), so every generated graph without a prefix can
//! be written as `.g` text and fed to the `tsg` binary.

pub mod pipeline;
pub mod random;
pub mod rings;
pub mod torus;

pub use pipeline::{handshake_pipeline, stack66, PipelineConfig};
pub use random::{random_live_tsg, RandomTsgConfig};
pub use rings::ring;
pub use torus::torus;
