//! The experiment harness: everything needed to regenerate the paper's
//! tables and figures from one seeded synthetic lab.
//!
//! [`Lab`] assembles the full pipeline — world, topology, Ark campaign,
//! Atlas built-ins, ground truth, vendor databases, whois, gazetteer —
//! and [`experiments`] exposes one function per table/figure (see the
//! experiment index in `DESIGN.md`). The `repro` binary prints them; the
//! Criterion benches in `benches/` time the analysis stages and assert
//! the headline shapes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod lab;
#[cfg(test)]
mod reference;
pub mod timing;

pub use lab::{Lab, LabConfig, StageTiming};
pub use timing::PipelineTimings;
