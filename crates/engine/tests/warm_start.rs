//! Differential tests of cross-size warm-start transfer: a cold portfolio
//! and one warm-started from an embedded smaller optimum must certify the
//! *same* optimum, the warm race must open at (or below) the cold race's
//! first incumbent, and a warm-started single lane must spend strictly
//! fewer conflicts than its cold twin.

use engine::{compile, CacheStatus, EngineConfig, EngineOutcome, EventKind, Strategy};
use fermihedral::{EncodingProblem, Objective};
use pauli::PauliString;
use sat::{ExportLbd, RestartPolicyKind};
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

fn tmp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fermihedral-warmstart-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn descent_lanes() -> Vec<Strategy> {
    vec![
        Strategy::SatDescent {
            seed: 1,
            random_branch: 0.0,
            bk_phase_hint: true,
            restart: RestartPolicyKind::default(),
            export_lbd: ExportLbd::default(),
        },
        Strategy::SatDescent {
            seed: 2,
            random_branch: 0.02,
            bk_phase_hint: false,
            restart: RestartPolicyKind::Geometric {
                initial: 100,
                factor: 1.5,
            },
            export_lbd: ExportLbd::default(),
        },
        Strategy::SatDescent {
            seed: 3,
            random_branch: 0.1,
            bk_phase_hint: false,
            restart: RestartPolicyKind::Fixed { interval: 512 },
            export_lbd: ExportLbd::default(),
        },
    ]
}

fn total_conflicts(outcome: &EngineOutcome) -> u64 {
    outcome.report.workers.iter().map(|w| w.conflicts).sum()
}

/// Weight of the earliest `Improved` event across all workers — the
/// race's first incumbent.
fn first_incumbent(outcome: &EngineOutcome) -> usize {
    outcome
        .report
        .workers
        .iter()
        .flat_map(|w| &w.events)
        .filter_map(|e| match e.kind {
            EventKind::Improved(w) => Some((e.at, w)),
            _ => None,
        })
        .min_by_key(|(at, _)| *at)
        .map(|(_, w)| w)
        .expect("a run that certified must have found an incumbent")
}

/// The cold/warm differential on `small → large` full-SAT instances.
fn differential(small: usize, large: usize, timeout: Duration) {
    let dir = tmp_cache(&format!("diff-{small}-{large}"));
    let large_problem = EncodingProblem::full_sat(large, Objective::MajoranaWeight);

    // Cold: no cache at all.
    let cold = compile(
        &large_problem,
        &EngineConfig {
            strategies: descent_lanes(),
            total_timeout: Some(timeout),
            ..EngineConfig::default()
        },
    );
    assert!(cold.optimal_proved, "cold N={large} must certify");
    assert!(cold.report.warm_start.is_none(), "cold run warm-started");

    // Seed the cache (and the cross-size index) with the small optimum.
    let seed = |dir: &PathBuf| {
        let seed = compile(
            &EncodingProblem::full_sat(small, Objective::MajoranaWeight),
            &EngineConfig {
                strategies: descent_lanes(),
                total_timeout: Some(timeout),
                cache_dir: Some(dir.clone()),
                ..EngineConfig::default()
            },
        );
        assert!(seed.optimal_proved, "seed N={small} must certify");
    };
    seed(&dir);

    // Warm: same configuration as cold, plus the seeded cache. The
    // same-size lookup misses, the cross-size index answers.
    let warm = compile(
        &large_problem,
        &EngineConfig {
            strategies: descent_lanes(),
            total_timeout: Some(timeout),
            cache_dir: Some(dir.clone()),
            ..EngineConfig::default()
        },
    );
    assert!(warm.optimal_proved, "warm N={large} must certify");
    assert_eq!(
        warm.weight(),
        cold.weight(),
        "cold and warm-started races must certify the same optimum"
    );
    assert_eq!(warm.report.cache, CacheStatus::HitCrossSize);
    assert_eq!(warm.report.cache_counters.hit_cross_size, 1);
    let warm_start = warm
        .report
        .warm_start
        .as_ref()
        .expect("warm run must report its warm start");
    assert_eq!(warm_start.source, "cross-size");
    assert_eq!(warm_start.from_modes, Some(small));

    // The embedded incumbent is available at t = 0; it must be at least
    // as good as whatever the cold race found *first*.
    assert!(
        warm_start.weight <= first_incumbent(&cold),
        "warm initial incumbent {} worse than cold first incumbent {}",
        warm_start.weight,
        first_incumbent(&cold)
    );
    // And the embedding is a real upper bound: never below the optimum.
    assert!(warm_start.weight >= warm.weight().unwrap());

    // The warm start skips the whole descent from the Bravyi-Kitaev bound
    // down to the embedded weight — strictly fewer conflicts. Compared on
    // the deterministic single seed-1 lane: a clause-sharing race's total
    // varies run to run by more than the warm start saves. Its cache is
    // seeded afresh, since the warm race above stored the large optimum.
    let single_dir = tmp_cache(&format!("single-{small}-{large}"));
    seed(&single_dir);
    let single_lane = |cache_dir: Option<PathBuf>| {
        compile(
            &large_problem,
            &EngineConfig {
                strategies: descent_lanes()[..1].to_vec(),
                total_timeout: Some(timeout),
                cache_dir,
                ..EngineConfig::default()
            },
        )
    };
    let cold_single = single_lane(None);
    let warm_single = single_lane(Some(single_dir.clone()));
    assert!(cold_single.optimal_proved && warm_single.optimal_proved);
    assert_eq!(warm_single.weight(), cold.weight());
    assert_eq!(warm_single.report.cache, CacheStatus::HitCrossSize);
    assert!(
        total_conflicts(&warm_single) < total_conflicts(&cold_single),
        "warm lane spent {} conflicts, cold {}",
        total_conflicts(&warm_single),
        total_conflicts(&cold_single)
    );
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&single_dir).unwrap();
}

#[test]
fn warm_started_4_mode_race_matches_cold_optimum() {
    // N=3 → N=4 full SAT: the acceptance instance. The cold N=4 optimum
    // is 16; the N=3 optimum (11) embeds at weight 11 + 2·(parity + 1).
    differential(3, 4, Duration::from_secs(120));
}

#[test]
#[ignore = "hours-scale: N=5 full-SAT certification"]
fn warm_started_5_mode_race_matches_cold_optimum() {
    differential(4, 5, Duration::from_secs(6 * 60 * 60));
}

#[test]
fn cross_size_prefers_the_largest_cached_size() {
    // With N=2 *and* N=3 cached, an N=4 compile must embed from N=3.
    let dir = tmp_cache("largest");
    let config = |cache: bool| EngineConfig {
        strategies: descent_lanes(),
        total_timeout: Some(Duration::from_secs(120)),
        cache_dir: cache.then(|| dir.clone()),
        ..EngineConfig::default()
    };
    for n in [2usize, 3] {
        let seeded = compile(
            &EncodingProblem::full_sat(n, Objective::MajoranaWeight),
            &config(true),
        );
        assert!(seeded.optimal_proved);
    }
    let warm = compile(
        &EncodingProblem::full_sat(4, Objective::MajoranaWeight),
        &config(true),
    );
    assert_eq!(
        warm.report.warm_start.as_ref().and_then(|w| w.from_modes),
        Some(3)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cross_size_respects_problem_family_boundaries() {
    // A cached full-SAT N=2 optimum must NOT warm-start an N=3 problem
    // with different constraint toggles (its embedding may not even be
    // feasible there, and the family key must keep them apart).
    let dir = tmp_cache("family");
    let seeded = compile(
        &EncodingProblem::full_sat(2, Objective::MajoranaWeight),
        &EngineConfig {
            strategies: descent_lanes(),
            cache_dir: Some(dir.clone()),
            ..EngineConfig::default()
        },
    );
    assert!(seeded.optimal_proved);
    let other_family = compile(
        &EncodingProblem::new(3, Objective::MajoranaWeight).with_vacuum_condition(false),
        &EngineConfig {
            strategies: descent_lanes(),
            cache_dir: Some(dir.clone()),
            ..EngineConfig::default()
        },
    );
    assert_eq!(other_family.report.cache, CacheStatus::Miss);
    assert!(other_family.report.warm_start.is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_warm_entry_is_rejected_at_the_trust_boundary() {
    // A same-size best-so-far entry whose strings are shape-correct but
    // algebraically invalid, with a *lying* weight below the true
    // optimum. Published unchecked, it would poison the shared bound
    // (descent would go straight to UNSAT at 5 and "certify" an invalid
    // encoding at a weight its strings never had). The engine must treat
    // it as a miss and certify the real optimum cold.
    let dir = tmp_cache("corrupt-warm");
    let problem = EncodingProblem::full_sat(2, Objective::MajoranaWeight);
    let cache = engine::SolutionCache::open(&dir).unwrap();
    let fp = engine::fingerprint(&problem);
    cache
        .store(
            &fp,
            &engine::CacheEntry {
                // XX/YY commute: not a valid encoding.
                strings: ["XX", "YY", "ZI", "IZ"]
                    .iter()
                    .map(|s| PauliString::from_str(s).unwrap())
                    .collect(),
                weight: 5,
                optimal: false,
                strategy: "corrupt".into(),
            },
        )
        .unwrap();

    let outcome = compile(
        &problem,
        &EngineConfig {
            strategies: descent_lanes(),
            cache_dir: Some(dir.clone()),
            ..EngineConfig::default()
        },
    );
    assert_eq!(outcome.weight(), Some(6), "optimum survives the bad entry");
    assert!(outcome.optimal_proved);
    assert_eq!(
        outcome.report.cache,
        CacheStatus::Miss,
        "an invalid entry is a miss, not a warm start"
    );
    assert!(outcome.report.warm_start.is_none());
    // The poison file was deleted and the genuine result stored in its
    // place — without the repair, store_if_better would refuse the real
    // optimum against the lying weight 5 forever.
    let repaired = cache.lookup(&fp).expect("cache repaired");
    assert_eq!((repaired.weight, repaired.optimal), (6, true));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lying_optimal_entry_is_demoted_and_repaired() {
    // Valid strings (the true N=2 optimum), but the file claims weight 5
    // and optimality. The claim must not be served: the strings are
    // demoted to a warm start at their *measured* weight, the race
    // certifies for real, and the corrected entry replaces the liar.
    let dir = tmp_cache("lying-optimal");
    let problem = EncodingProblem::full_sat(2, Objective::MajoranaWeight);
    let cache = engine::SolutionCache::open(&dir).unwrap();
    let fp = engine::fingerprint(&problem);
    cache
        .store(
            &fp,
            &engine::CacheEntry {
                strings: ["IX", "IY", "XZ", "YZ"]
                    .iter()
                    .map(|s| PauliString::from_str(s).unwrap())
                    .collect(),
                weight: 5,
                optimal: true,
                strategy: "liar".into(),
            },
        )
        .unwrap();

    let outcome = compile(
        &problem,
        &EngineConfig {
            strategies: descent_lanes(),
            cache_dir: Some(dir.clone()),
            ..EngineConfig::default()
        },
    );
    assert!(!outcome.from_cache, "a lying optimal claim must not serve");
    assert_eq!(outcome.weight(), Some(6));
    assert!(outcome.optimal_proved);
    let warm = outcome
        .report
        .warm_start
        .expect("strings demoted to warm start");
    assert_eq!(warm.source, "cache-entry");
    assert_eq!(warm.weight, 6, "re-measured, not the claimed 5");
    let repaired = cache.lookup(&fp).expect("cache repaired");
    assert_eq!((repaired.weight, repaired.optimal), (6, true));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn config_warm_hint_seeds_the_race() {
    // The shard-worker path: no cache, the hint arrives via the config.
    // A valid JW hint must be adopted (source "config") and the race
    // still certifies; an invalid hint must be ignored entirely.
    let problem = EncodingProblem::full_sat(2, Objective::MajoranaWeight);
    let jw: Vec<PauliString> = ["IX", "IY", "XZ", "YZ"]
        .iter()
        .map(|s| PauliString::from_str(s).unwrap())
        .collect();
    let outcome = compile(
        &problem,
        &EngineConfig {
            strategies: descent_lanes(),
            warm_hint: Some(jw),
            ..EngineConfig::default()
        },
    );
    assert_eq!(outcome.weight(), Some(6));
    assert!(outcome.optimal_proved);
    let warm = outcome.report.warm_start.expect("hint adopted");
    assert_eq!(warm.source, "config");
    assert_eq!(warm.weight, 6, "re-measured, not trusted");

    let invalid: Vec<PauliString> = ["XX", "YY", "ZI", "IZ"]
        .iter()
        .map(|s| PauliString::from_str(s).unwrap())
        .collect();
    let outcome = compile(
        &problem,
        &EngineConfig {
            strategies: descent_lanes(),
            warm_hint: Some(invalid),
            ..EngineConfig::default()
        },
    );
    assert_eq!(outcome.weight(), Some(6));
    assert!(
        outcome.report.warm_start.is_none(),
        "invalid config hint must be discarded"
    );
}
