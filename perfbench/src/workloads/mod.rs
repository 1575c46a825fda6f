//! The four workloads. Each takes the run's seed through [`Ctx`]; the
//! program only ever sees the problems generated from it.

pub mod inprocess;
mod loadclient;
pub mod serve_mix;

use crate::oracle::Expected;
use std::path::PathBuf;
use std::time::Instant;

/// What every workload gets.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub expected: Expected,
    /// Fresh scratch directory for caches and journals, removed at exit.
    pub tmp: PathBuf,
    pub process_start: Instant,
}

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["certify", "scale", "serve-mix", "sharded"];

pub fn run(name: &str, ctx: &Ctx) -> Option<crate::report::Report> {
    use inprocess::Kind;
    Some(match name {
        "certify" => inprocess::run(Kind::Certify, ctx),
        "scale" => inprocess::run(Kind::Scale, ctx),
        "serve-mix" => serve_mix::run(ctx),
        "sharded" => inprocess::run(Kind::Sharded, ctx),
        _ => return None,
    })
}
