//! The in-process workloads: `certify` and `scale` call
//! `engine::compile`, `sharded` calls `shard::compile_sharded` with two
//! pipe workers. One loop serves all three; they differ in their problem
//! classes, deadline, and what counts as an op's latency.

use super::Ctx;
use crate::catalogue::{self, Spec};
use crate::layers::{self, Decomposition, RaceFigures, ShardFigures};
use crate::oracle;
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use engine::{EngineConfig, EngineOutcome, Strategy};
use std::collections::HashMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Why: search and the final UNSAT proof dominate the N=4 problems,
    /// race set-up and teardown dominate the small ones — the workload
    /// for solver, descent and race changes.
    Certify,
    /// Why: no certificate ever closes at N=6..8, so it measures only the
    /// improving SAT calls, CNF build and per-lane solver load — costs a
    /// certification speed-up could raise. An op is the time to a
    /// committed target weight below Bravyi-Kitaev at N=8; N=6 and N=7
    /// ops count in `weight_vs_bk` only (see `catalogue::SCALE_TIMED`).
    Scale,
    /// Why: the only workload that crosses `shard` and `sat::wire`.
    Sharded,
}

/// `serve` maps a request deadline onto the engine's total timeout; its
/// default deadline is 10 s.
const SERVE_DEADLINE: Duration = Duration::from_secs(10);
/// The fixed `scale` deadline: no certificate closes, so every op runs
/// this long.
const SCALE_DEADLINE: Duration = Duration::from_millis(100);
/// Per-call conflict budget of the traced seed-1 descent on `scale`
/// (the descent stops at the first call that exhausts it, so its counts
/// repeat exactly).
const SCALE_DESCENT_BUDGET: u64 = 2_000;
/// Ops generated per run; the run cycles through them.
const OP_LIST: usize = 4096;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// SAT-descent lanes raced on `scale`, and the lanes allowed to run at
/// once. The engine admits at most `available_parallelism` heavy lanes
/// and the rest queue, in whatever order their threads reach the slot,
/// not in portfolio order. With the default portfolio's three descent
/// lanes on a 2-core host the queued lane never started inside the
/// 100 ms deadline, and in about one N=8 op in 600 it was the first,
/// Bravyi-Kitaev-hinted lane that queued: no lane then left the
/// Bravyi-Kitaev weight and the op missed its target. Racing the first
/// two lanes with two slots runs, in every op, the race nearly every op
/// ran before.
const SCALE_LANES: usize = 2;

/// Share of a `scale` run spent on the timed N=8 ops; the rest runs the
/// weight-only N=6 and N=7 ops.
const SCALE_TIMED_SHARE: f64 = 0.75;

impl Kind {
    /// The run's op lists, each with its share of the run time, in the
    /// order they run. `scale` runs its timed ops first and back to back:
    /// interleaved with N=6 and N=7 compiles, the median N=8 time moved
    /// 13-15% between runs, against 6% back to back (2-core x86-64 host).
    fn segments(self, seed: u64) -> Vec<(Vec<Spec>, f64)> {
        let ops = |classes: Vec<(Vec<Spec>, usize)>| catalogue::stratified(&classes, seed, OP_LIST);
        match self {
            Kind::Certify => vec![(ops(catalogue::certify_classes()), 1.0)],
            Kind::Sharded => vec![(ops(catalogue::sharded_classes()), 1.0)],
            Kind::Scale => {
                let (timed, rest): (Vec<_>, Vec<_>) = catalogue::scale_classes()
                    .into_iter()
                    .partition(|(pool, _)| catalogue::SCALE_TIMED.contains(&pool[0].modes));
                vec![
                    (ops(timed), SCALE_TIMED_SHARE),
                    (ops(rest), 1.0 - SCALE_TIMED_SHARE),
                ]
            }
        }
    }

    pub fn config(self) -> EngineConfig {
        match self {
            Kind::Certify => EngineConfig {
                total_timeout: Some(SERVE_DEADLINE),
                ..EngineConfig::default()
            },
            // The paper's "SAT w/o Alg." method: the default portfolio's
            // SAT-descent lanes, without the classical constructions. With
            // them in the race the ternary-tree lane publishes a weight the
            // descent rarely beats within the deadline, and time to target
            // would time that lane instead of the improving SAT calls.
            Kind::Scale => EngineConfig {
                total_timeout: Some(SCALE_DEADLINE),
                strategies: engine::default_portfolio(&self.warm_up().problem())
                    .into_iter()
                    .filter(|s| matches!(s, Strategy::SatDescent { .. }))
                    .take(SCALE_LANES)
                    .collect(),
                max_concurrency: Some(SCALE_LANES),
                ..EngineConfig::default()
            },
            Kind::Sharded => EngineConfig {
                total_timeout: Some(SERVE_DEADLINE),
                shards: 2,
                ..EngineConfig::default()
            },
        }
    }

    /// The untimed op of every set-up, the same whatever the seed. It
    /// faults in code and, sharded, the worker binary; on `certify` and
    /// `sharded` it is an N=2 race, whose length the race floor fixes.
    fn warm_up(self) -> Spec {
        match self {
            Kind::Scale => Spec::majorana(8, false, false),
            _ => Spec::majorana(2, false, true),
        }
    }

    fn compile(self, spec: &Spec, config: &EngineConfig) -> EngineOutcome {
        let problem = spec.problem();
        match self {
            Kind::Sharded => shard::compile_sharded(&problem, config),
            _ => engine::compile(&problem, config),
        }
    }
}

/// The figures of one measured phase.
#[derive(Default)]
struct Phase {
    /// Op latencies; a failed op counts at its cost (see [`op_latency`]).
    latencies: Vec<f64>,
    /// Returned weight ÷ Bravyi-Kitaev weight, per op that returned one.
    ratios: Vec<f64>,
    attempted: usize,
    completed: usize,
    elapsed_s: f64,
}

impl Phase {
    fn push(&mut self, latency: Result<f64, f64>) {
        match latency {
            Ok(ms) => {
                self.completed += 1;
                self.latencies.push(ms);
            }
            Err(cost_ms) => self.latencies.push(cost_ms),
        }
    }

    /// Wall time per attempted op, in seconds.
    fn seconds_per_op(&self) -> f64 {
        self.elapsed_s / self.attempted.max(1) as f64
    }
}

/// An op's latency (`Ok`), or its cost when it failed (`Err`): a compile
/// that returned no certificate, or on `scale` never reached its target,
/// counts at the time it took — up to the deadline — so a lost
/// certificate makes the latency figures worse, never better.
fn op_latency(
    kind: Kind,
    certified: bool,
    returned_ms: f64,
    to_target: Option<f64>,
) -> Result<f64, f64> {
    let reached = match kind {
        Kind::Scale => to_target,
        _ => certified.then_some(returned_ms),
    };
    reached.ok_or(returned_ms)
}

/// Accumulates the traced figures of a run.
#[derive(Default)]
struct LayerAcc {
    decomp: Vec<Decomposition>,
    races: Vec<RaceFigures>,
    shards: Vec<ShardFigures>,
}

pub fn run(kind: Kind, ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let config = kind.config();

    // ---- Set-up (five times; the first from process start) --------------
    let mut setups = Vec::new();
    let mut segments = Vec::new();
    let mut bk: HashMap<String, usize> = HashMap::new();
    for k in 0..SETUPS {
        let t = if k == 0 {
            ctx.process_start
        } else {
            Instant::now()
        };
        segments = kind.segments(ctx.seed);
        bk.clear();
        for spec in segments.iter().flat_map(|(ops, _)| ops) {
            bk.entry(spec.key())
                .or_insert_with(|| fermihedral::descent::bravyi_kitaev_bound(&spec.problem()));
        }
        std::hint::black_box(kind.compile(&kind.warm_up(), &config));
        setups.push(t.elapsed().as_secs_f64());
    }
    report.set("setup_s", stats::median(&setups), setups.len());
    let run = Run {
        kind,
        ctx,
        config: &config,
        segments: &segments,
        bk: &bk,
    };

    if !ctx.trace {
        let phase = run.measure(ctx.seconds, None, &mut report);
        report.set_latency("p50_ms", "tail_ms", &phase.latencies);
        // Every op of these workloads is a cold compile.
        report.set_latency("cold_p50_ms", "cold_tail_ms", &phase.latencies);
        report.set(
            "ops_per_s",
            phase.completed as f64 / phase.elapsed_s,
            phase.completed,
        );
        report.set(
            "weight_vs_bk",
            stats::geomean(&phase.ratios),
            phase.ratios.len(),
        );
        report.notes.push(format!(
            "{} ops in {:.2} s; deadline {:?}",
            phase.attempted,
            phase.elapsed_s,
            config.total_timeout.unwrap_or_default()
        ));
        return report;
    }

    // ---- Traced run -----------------------------------------------------
    // Half the time runs the untraced loop; the other half runs the same
    // op list from its start with every op traced and decomposed. Tracing
    // overhead is the traced half's wall time per op over the untraced
    // half's, minus one: it includes the decomposition between ops.
    let plain = run.measure(ctx.seconds / 2.0, None, &mut report);
    let mut tr = Tracer::new(ctx.process_start, true);
    let mut acc = LayerAcc::default();
    let traced = run.measure(ctx.seconds / 2.0, Some((&mut tr, &mut acc)), &mut report);
    layer_metrics(&mut report, &tr, &acc);
    layers::set_trace_metrics(
        &mut report,
        &tr,
        traced.seconds_per_op(),
        plain.seconds_per_op(),
        traced.attempted + plain.attempted,
    );
    for (name, phase) in [("untraced", &plain), ("traced", &traced)] {
        report.notes.push(format!(
            "{name} half: {} ops in {:.2} s, p50 {:.3} ms",
            phase.attempted,
            phase.elapsed_s,
            stats::median(&phase.latencies)
        ));
    }
    report.tracer = Some(tr);
    report
}

/// What every phase of a run shares.
struct Run<'a> {
    kind: Kind,
    ctx: &'a Ctx,
    config: &'a EngineConfig,
    segments: &'a [(Vec<Spec>, f64)],
    bk: &'a HashMap<String, usize>,
}

impl Run<'_> {
    /// Runs each segment's ops from the start of its list for its share
    /// of `seconds`. With a tracer, every timed op is recorded as a span,
    /// its race (and shard) figures are kept, and its problem is
    /// decomposed layer by layer.
    fn measure(
        &self,
        seconds: f64,
        mut traced: Option<(&mut Tracer, &mut LayerAcc)>,
        report: &mut Report,
    ) -> Phase {
        let mut phase = Phase::default();
        let started = Instant::now();
        let mut until = 0.0;
        for (ops, share) in self.segments {
            until += seconds * share;
            let mut i = 0;
            while started.elapsed().as_secs_f64() < until {
                let spec = &ops[i % ops.len()];
                i += 1;
                self.op(spec, &mut phase, &mut traced, report);
            }
        }
        phase.elapsed_s = started.elapsed().as_secs_f64();
        phase
    }

    fn op(
        &self,
        spec: &Spec,
        phase: &mut Phase,
        traced: &mut Option<(&mut Tracer, &mut LayerAcc)>,
        report: &mut Report,
    ) {
        let kind = self.kind;
        let op = phase.attempted as u64;
        phase.attempted += 1;
        report.attempted += 1;

        let t0 = Instant::now();
        let outcome = std::hint::black_box(kind.compile(spec, self.config));
        let returned = t0.elapsed();
        let returned_ms = returned.as_secs_f64() * 1e3;
        if let Some((tr, _)) = traced.as_mut() {
            let name = if kind == Kind::Sharded {
                "shard.compile_sharded"
            } else {
                "engine.compile"
            };
            tr.record(name, None, op, t0, t0 + returned);
        }

        // Correctness: every returned encoding, certified or not. A wrong
        // answer fails the run; it is never counted as slow.
        let Some(best) = &outcome.best else {
            report.failed += 1;
            phase.push(Err(returned_ms));
            return;
        };
        let strings: Vec<String> = best.strings.iter().map(|s| s.to_string()).collect();
        if let Err(e) = oracle::check(
            spec,
            &strings,
            best.weight,
            outcome.optimal_proved,
            &self.ctx.expected,
        ) {
            report.wrong.push(e);
            report.failed += 1;
            return;
        }
        phase
            .ratios
            .push(best.weight as f64 / self.bk[&spec.key()] as f64);

        let key = spec.key();
        let to_target = match self.ctx.expected.targets.get(&key) {
            Some(&target) => layers::time_to_target(&outcome.report, target),
            None if kind == Kind::Scale && !catalogue::SCALE_TIMED.contains(&spec.modes) => {
                // Weight only (see `catalogue::SCALE_TIMED`).
                phase.completed += 1;
                return;
            }
            None if kind == Kind::Scale => {
                report
                    .wrong
                    .push(format!("{key}: no scale target committed"));
                return;
            }
            None => None,
        };
        let latency = op_latency(kind, outcome.optimal_proved, returned_ms, to_target);
        if latency.is_err() {
            report.failed += 1;
        }
        phase.push(latency);

        if let Some((tr, acc)) = traced.as_mut() {
            acc.races.push(layers::race_figures(
                &outcome.report,
                returned_ms,
                outcome.optimal_proved.then_some(best.weight),
            ));
            if kind == Kind::Sharded {
                acc.shards
                    .push(layers::shard_figures(&outcome.report, returned_ms));
            }
            let root = tr.open("decompose", None, op);
            let budget = (kind == Kind::Scale).then_some(SCALE_DESCENT_BUDGET);
            acc.decomp
                .push(layers::decompose(tr, root, op, spec, budget));
            tr.close(root);
        }
    }
}

fn layer_metrics(report: &mut Report, tr: &Tracer, acc: &LayerAcc) {
    layers::set_compile_path_metrics(report, tr, &acc.decomp, &acc.races);
    let s = &acc.shards;
    if !s.is_empty() {
        let col = |f: fn(&ShardFigures) -> f64| s.iter().map(f).collect::<Vec<f64>>();
        report.set_median("shard.first_lane_ms", &col(|x| x.first_lane_ms));
        report.set_median("shard.coord_ms", &col(|x| x.coord_ms));
        report.set_median("shard.bridge_clauses", &col(|x| x.bridge_clauses));
        report.set("shard.dead", col(|x| x.dead).iter().sum(), s.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_timed_out_op_counts_at_its_cost_and_raises_the_tail() {
        let mut phase = Phase::default();
        for i in 0..100 {
            phase.push(op_latency(
                Kind::Certify,
                true,
                10.0 + i as f64 * 0.01,
                None,
            ));
        }
        let before = stats::tail(&phase.latencies).value;
        // Twelve compiles ran into the 10 s deadline without a
        // certificate: more than the ten the tail keeps beyond it.
        for _ in 0..12 {
            let lost = op_latency(Kind::Certify, false, 10_000.0, None);
            assert_eq!(lost, Err(10_000.0));
            phase.push(lost);
        }
        assert!(before < 11.0);
        assert_eq!(stats::tail(&phase.latencies).value, 10_000.0);
        assert_eq!(phase.completed, 100);
        // On `scale` an op that never reached its target costs what it
        // took; one that did counts its time to target.
        assert_eq!(op_latency(Kind::Scale, false, 100.4, None), Err(100.4));
        assert_eq!(op_latency(Kind::Scale, false, 100.4, Some(3.2)), Ok(3.2));
    }
}
