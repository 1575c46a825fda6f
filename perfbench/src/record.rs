//! Re-derives the expected-weights file: certifies every catalogue
//! problem with a generous deadline, and records each `scale` target as
//! the worst weight that repeated runs at the scale deadline all reached.
//! The output is committed and reviewed; the Majorana optima it contains
//! are the paper's (6, 11, 16 for N = 2..4), which a test checks.

use crate::catalogue::{self, Spec, BATCH_SIZES};
use crate::oracle;
use crate::workloads::inprocess::Kind;
use engine::{EngineConfig, EventKind};
use jsonkit::{obj, Value};
use std::collections::BTreeMap;
use std::time::Duration;

/// Scale runs per target.
const TARGET_TRIALS: usize = 12;

fn certify(spec: &Spec) -> Result<usize, String> {
    let config = EngineConfig {
        total_timeout: Some(Duration::from_secs(120)),
        ..EngineConfig::default()
    };
    let outcome = engine::compile(&spec.problem(), &config);
    let best = outcome
        .best
        .ok_or_else(|| format!("{}: no encoding", spec.key()))?;
    if !outcome.optimal_proved {
        return Err(format!("{}: no certificate in 120 s", spec.key()));
    }
    let strings: Vec<String> = best.strings.iter().map(|s| s.to_string()).collect();
    let measured = oracle::measure(spec, &strings)?;
    if measured != best.weight {
        return Err(format!(
            "{}: weight {} measures {measured}",
            spec.key(),
            best.weight
        ));
    }
    Ok(best.weight)
}

fn scale_target(spec: &Spec) -> Result<usize, String> {
    let problem = spec.problem();
    let bk = fermihedral::descent::bravyi_kitaev_bound(&problem);
    let config = Kind::Scale.config();
    let mut worst = 0;
    for _ in 0..TARGET_TRIALS {
        let outcome = engine::compile(&problem, &config);
        let reached = outcome
            .report
            .workers
            .iter()
            .flat_map(|w| w.events.iter())
            .filter_map(|e| match e.kind {
                EventKind::Improved(w) => Some(w),
                _ => None,
            })
            .min()
            .unwrap_or(usize::MAX);
        worst = worst.max(reached);
    }
    if worst >= bk {
        return Err(format!("{}: a run did not get below BK {bk}", spec.key()));
    }
    Ok(worst)
}

pub fn record(out: &str) -> Result<(), String> {
    let mut specs: Vec<Spec> = Vec::new();
    for (pool, _) in catalogue::certify_classes()
        .into_iter()
        .chain(catalogue::sharded_classes())
    {
        specs.extend(pool);
    }
    specs.extend(catalogue::hit_set());
    specs.extend(catalogue::cold_universe());
    for family in catalogue::batch_universe() {
        specs.extend(BATCH_SIZES.iter().map(|&n| family.with_modes(n)));
    }
    let mut weights = BTreeMap::new();
    for spec in &specs {
        if let std::collections::btree_map::Entry::Vacant(slot) = weights.entry(spec.key()) {
            let w = certify(spec)?;
            eprintln!("{} = {w}", spec.key());
            slot.insert(Value::Num(w as f64));
        }
    }
    let mut targets = BTreeMap::new();
    for (pool, _) in catalogue::scale_classes() {
        for spec in pool {
            if !catalogue::SCALE_TIMED.contains(&spec.modes) {
                continue;
            }
            let w = scale_target(&spec)?;
            eprintln!("target {} = {w}", spec.key());
            targets.insert(spec.key(), Value::Num(w as f64));
        }
    }
    let doc = obj([
        (
            "about",
            Value::Str(
                "Certified optimum per problem key (weights) and scale target weights \
                 (targets); written by `perfbench record`, reviewed, and committed."
                    .into(),
            ),
        ),
        ("weights", Value::Obj(weights)),
        ("targets", Value::Obj(targets)),
    ]);
    std::fs::write(out, doc.to_json() + "\n").map_err(|e| format!("{out}: {e}"))
}

#[cfg(test)]
mod tests {
    use crate::catalogue::{self, Spec, BATCH_SIZES};
    use crate::oracle::Expected;

    fn committed() -> Expected {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected_weights.json");
        Expected::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn committed_majorana_optima_are_the_papers() {
        let e = committed();
        // No workload sends N=1 (optimum 2), so the file has no N=1 entry.
        for (n, w) in [(2, 6), (3, 11), (4, 16)] {
            for ai in [false, true] {
                for vac in [false, true] {
                    if let Some(&got) = e.weights.get(&Spec::majorana(n, ai, vac).key()) {
                        assert_eq!(got, w, "N={n} ai={ai} vac={vac}");
                    }
                }
            }
            assert!(e.weights.contains_key(&Spec::majorana(n, true, true).key()));
        }
    }

    #[test]
    fn every_problem_a_workload_can_send_has_an_answer() {
        let e = committed();
        let mut specs: Vec<Spec> = Vec::new();
        for (pool, _) in catalogue::certify_classes()
            .into_iter()
            .chain(catalogue::sharded_classes())
        {
            specs.extend(pool);
        }
        specs.extend(catalogue::hit_set());
        specs.extend(catalogue::cold_universe());
        for family in catalogue::batch_universe() {
            specs.extend(BATCH_SIZES.iter().map(|&n| family.with_modes(n)));
        }
        for spec in specs {
            assert!(e.weights.contains_key(&spec.key()), "{}", spec.key());
        }
        for (pool, _) in catalogue::scale_classes() {
            for spec in pool {
                if !catalogue::SCALE_TIMED.contains(&spec.modes) {
                    assert!(!e.targets.contains_key(&spec.key()), "{}", spec.key());
                    continue;
                }
                let target = e.targets[&spec.key()];
                let bk = fermihedral::descent::bravyi_kitaev_bound(&spec.problem());
                assert!(
                    target < bk,
                    "{}: target {target} not below BK {bk}",
                    spec.key()
                );
            }
        }
    }
}
