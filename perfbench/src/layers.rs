//! Per-layer measurements: the traced decomposition of one problem into
//! calls on each layer's public functions, and the race/shard figures
//! read from an `EngineReport`.

use crate::catalogue::Spec;
use crate::report::Report;
use crate::trace::Tracer;
use engine::{EngineReport, EventKind};
use fermihedral::descent::{solve_optimal_instance, DescentConfig, StepResult};
use pauli::{PauliString, PhasedString};
use sat::RestartPolicyKind;
use std::time::Duration;

/// What one decomposition measured.
#[derive(Debug, Clone, Default)]
pub struct Decomposition {
    pub vars: f64,
    pub clauses: f64,
    pub conflicts: f64,
    pub propagations: f64,
    /// Wall time of the whole seed-1 descent.
    pub descent_ms: f64,
    /// Improving (SAT) calls apart from the final UNSAT proof.
    pub sat_ms: f64,
    pub unsat_ms: f64,
    pub steps: f64,
}

/// Runs `spec` through the compile path's layers one public call at a
/// time, each under its own span below `parent`:
/// `engine::fingerprint` → `EncodingProblem::build` →
/// `EncodingInstance::solver` → a deterministic seed-1 descent
/// (`solve_optimal_instance`; conflict-budgeted per call, so its counts
/// repeat exactly) → `validate_strings` on the result.
pub fn decompose(
    tr: &mut Tracer,
    parent: Option<usize>,
    op: u64,
    spec: &Spec,
    conflict_budget: Option<u64>,
) -> Decomposition {
    let problem = spec.problem();
    tr.time("engine.fingerprint", parent, op, || {
        std::hint::black_box(engine::fingerprint(std::hint::black_box(&problem)))
    });
    let instance = tr.time("core.instance.build", parent, op, || problem.build());
    let stats = instance.stats();
    let solver = tr.time("sat.load", parent, op, || instance.solver());
    drop(std::hint::black_box(solver));
    let config = DescentConfig {
        solver_seed: Some(1),
        bk_phase_hint: true,
        restart_policy: Some(RestartPolicyKind::Luby { unit: 128 }),
        conflict_budget,
        ..DescentConfig::default()
    };
    let descent = tr.open("core.descent", parent, op);
    let outcome = solve_optimal_instance(&instance, &config);
    tr.close(descent);
    if let Some(best) = &outcome.best {
        let phased: Vec<PhasedString> = best
            .strings
            .iter()
            .cloned()
            .map(PhasedString::from)
            .collect();
        tr.time("encodings.validate", parent, op, || {
            std::hint::black_box(encodings::validate::validate_strings(&phased))
        });
    }
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut d = Decomposition {
        vars: stats.num_vars as f64,
        clauses: stats.num_clauses as f64,
        conflicts: outcome.solver_stats.conflicts as f64,
        propagations: outcome.solver_stats.propagations as f64,
        steps: outcome.steps.len() as f64,
        ..Decomposition::default()
    };
    for step in &outcome.steps {
        match step.result {
            StepResult::Improved(_) => d.sat_ms += ms(step.elapsed),
            StepResult::Exhausted => d.unsat_ms += ms(step.elapsed),
            _ => {}
        }
    }
    d.descent_ms = outcome.steps.iter().map(|s| ms(s.elapsed)).sum();
    d
}

/// Times `validate_strings` on returned strings (text form).
pub fn validate_text(tr: &mut Tracer, parent: Option<usize>, op: u64, strings: &[String]) {
    let phased: Vec<PhasedString> = strings
        .iter()
        .filter_map(|s| s.parse::<PauliString>().ok())
        .map(PhasedString::from)
        .collect();
    tr.time("encodings.validate", parent, op, || {
        std::hint::black_box(encodings::validate::validate_strings(&phased))
    });
}

/// Race figures of one compile, read from its report.
#[derive(Debug, Clone, Default)]
pub struct RaceFigures {
    /// Engine start → first lane start.
    pub pre_ms: f64,
    /// Deciding event → compile returned; `None` for undecided races.
    pub post_ms: Option<f64>,
    pub conflicts: f64,
    /// Conflicts spent by lanes other than the one that decided the race
    /// (the lane that proved the final floor, else the reported winner).
    pub wasted_conflicts: f64,
    pub imported: f64,
    pub imported_reasons: f64,
}

pub fn race_figures(report: &EngineReport, returned_ms: f64, weight: Option<usize>) -> RaceFigures {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut f = RaceFigures {
        pre_ms: report
            .workers
            .iter()
            .map(|w| ms(w.started_at))
            .fold(f64::INFINITY, f64::min),
        ..RaceFigures::default()
    };
    if !f.pre_ms.is_finite() {
        f.pre_ms = 0.0;
    }
    let first = |pred: &dyn Fn(EventKind) -> bool| -> Option<(f64, usize)> {
        report
            .workers
            .iter()
            .enumerate()
            .flat_map(|(i, w)| w.events.iter().map(move |e| (i, e)))
            .filter(|(_, e)| pred(e.kind))
            .map(|(i, e)| (ms(e.at), i))
            .min_by(|a, b| a.0.total_cmp(&b.0))
    };
    let decider = weight.and_then(|w| {
        let floor = first(&|k| k == EventKind::ProvedFloor(w))?;
        let found = first(&|k| matches!(k, EventKind::Improved(x) if x <= w));
        let decided_at = found.map_or(floor.0, |(t, _)| t.max(floor.0));
        f.post_ms = Some((returned_ms - decided_at).max(0.0));
        Some(floor.1)
    });
    let decider = decider.or_else(|| {
        let winner = report.winner.as_deref()?;
        report.workers.iter().position(|w| w.strategy == winner)
    });
    for (i, w) in report.workers.iter().enumerate() {
        f.conflicts += w.conflicts as f64;
        if Some(i) != decider {
            f.wasted_conflicts += w.conflicts as f64;
        }
        f.imported += w.clauses_imported as f64;
        f.imported_reasons += w.imported_reasons as f64;
    }
    f
}

/// The first improvement at or below `target`, in ms from engine start.
pub fn time_to_target(report: &EngineReport, target: usize) -> Option<f64> {
    report
        .workers
        .iter()
        .flat_map(|w| w.events.iter())
        .filter(|e| matches!(e.kind, EventKind::Improved(w) if w <= target))
        .map(|e| e.at.as_secs_f64() * 1e3)
        .min_by(f64::total_cmp)
}

/// Shard figures of one sharded compile.
#[derive(Debug, Clone, Default)]
pub struct ShardFigures {
    /// First lane start inside a worker, from that worker's engine start.
    pub first_lane_ms: f64,
    /// Coordinator-side time: compile returned minus the latest lane
    /// finish (spawn, job frames, merge, reaping).
    pub coord_ms: f64,
    pub bridge_clauses: f64,
    pub dead: f64,
}

pub fn shard_figures(report: &EngineReport, returned_ms: f64) -> ShardFigures {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let sharded = report.workers.iter().filter(|w| w.shard.is_some());
    let first = sharded
        .clone()
        .map(|w| ms(w.started_at))
        .fold(f64::INFINITY, f64::min);
    let last = sharded.map(|w| ms(w.finished_at)).fold(0.0, f64::max);
    ShardFigures {
        first_lane_ms: if first.is_finite() { first } else { 0.0 },
        coord_ms: (returned_ms - last).max(0.0),
        bridge_clauses: report.shards.iter().map(|s| s.clauses_sent as f64).sum(),
        dead: report.shards.iter().filter(|s| s.dead).count() as f64,
    }
}

/// Sets the per-layer metrics of the in-process compile path: the self
/// times of the layer spans, the seed-1 descent figures, and the race
/// figures.
pub fn set_compile_path_metrics(
    report: &mut Report,
    tr: &Tracer,
    decomp: &[Decomposition],
    races: &[RaceFigures],
) {
    let selfs = tr.self_times_ms();
    let scaled = |name: &str, k: f64| -> Vec<f64> {
        selfs
            .get(name)
            .map(|v| v.iter().map(|x| x * k).collect())
            .unwrap_or_default()
    };
    report.set_median("fingerprint.us", &scaled("engine.fingerprint", 1e3));
    report.set_median("validate.us", &scaled("encodings.validate", 1e3));
    report.set_median("instance.build_ms", &scaled("core.instance.build", 1.0));
    report.set_median("sat.load_ms", &scaled("sat.load", 1.0));

    let d = decomp;
    let col = |f: fn(&Decomposition) -> f64| d.iter().map(f).collect::<Vec<f64>>();
    report.set_median("instance.vars", &col(|x| x.vars));
    report.set_median("instance.clauses", &col(|x| x.clauses));
    report.set_median("sat.conflicts", &col(|x| x.conflicts));
    report.set_median("sat.propagations", &col(|x| x.propagations));
    report.set_median("descent.sat_ms", &col(|x| x.sat_ms));
    report.set_median("descent.unsat_ms", &col(|x| x.unsat_ms));
    report.set_median("descent.steps", &col(|x| x.steps));
    let (conflicts, descent_ms, unsat_ms): (f64, f64, f64) =
        d.iter().fold((0.0, 0.0, 0.0), |a, x| {
            (a.0 + x.conflicts, a.1 + x.descent_ms, a.2 + x.unsat_ms)
        });
    if descent_ms > 0.0 {
        report.set(
            "sat.conflicts_per_s",
            conflicts / (descent_ms / 1e3),
            d.len(),
        );
        report.set("descent.unsat_share", unsat_ms / descent_ms, d.len());
    }

    let r = races;
    report.set_median(
        "race.pre_ms",
        &r.iter().map(|x| x.pre_ms).collect::<Vec<_>>(),
    );
    report.set_median(
        "race.post_ms",
        &r.iter().filter_map(|x| x.post_ms).collect::<Vec<_>>(),
    );
    let sum = |f: fn(&RaceFigures) -> f64| r.iter().map(f).sum::<f64>();
    if sum(|x| x.conflicts) > 0.0 {
        report.set(
            "race.wasted_frac",
            sum(|x| x.wasted_conflicts) / sum(|x| x.conflicts),
            r.len(),
        );
    }
    if sum(|x| x.imported) > 0.0 {
        report.set(
            "race.useful_import_frac",
            sum(|x| x.imported_reasons) / sum(|x| x.imported),
            r.len(),
        );
    }
}

/// Sets `trace.overhead_frac` — wall time per op with tracing over wall
/// time per op without, minus one, over `ops` ops in all — and
/// `trace.spans`.
pub fn set_trace_metrics(
    report: &mut Report,
    tr: &Tracer,
    traced_s_per_op: f64,
    plain_s_per_op: f64,
    ops: usize,
) {
    if traced_s_per_op > 0.0 && plain_s_per_op > 0.0 {
        report.set(
            "trace.overhead_frac",
            traced_s_per_op / plain_s_per_op - 1.0,
            ops,
        );
    }
    report.set("trace.spans", tr.spans().len() as f64, tr.spans().len());
}
