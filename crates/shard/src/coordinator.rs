//! The pipe transport of a sharded race: spawns `fermihedral-shard
//! worker` processes, partitions the portfolio's lanes across them, and
//! seats them in the `race` module's seat table, whose one event loop
//! bridges their [`sat::SharedContext`]s — incumbent bounds, learnt
//! clauses, UNSAT floors, and cancellation all travel as [`sat::wire`]
//! frames over the workers' stdin/stdout pipes.
//!
//! A spawned worker's seat exists from the spawn on; until its `Hello`
//! arrives it is *pending* (it gates completion but gets no race
//! traffic). Killing the process severs its link, a dropped pipe is a
//! death at once (a process cannot rejoin), and after the race every
//! child is reaped: a worker that ended without a `Result` and without a
//! clean exit is flagged dead, and its exit status lands in its
//! post-mortem bundle.
//!
//! This module also owns the cache-aware wrapper every transport shares
//! ([`compile_cached_race`]).

use crate::fleet::FleetOptions;
use crate::race::{blocking_frames, serve_link, Link, RacePolicy, Registry, SeatEvent, SeatTable};
use engine::{
    compile_with, cross_size_warm_start, default_portfolio, fingerprint, partition_strategies,
    validated_weight, CacheEntry, CacheStatus, EngineConfig, EngineOutcome, EngineReport,
    SolutionCache, Strategy, WarmStartReport,
};
use fermihedral::descent::BestEncoding;
use fermihedral::EncodingProblem;
use sat::CancelToken;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// The worker binary's file name.
pub const WORKER_BIN: &str = "fermihedral-shard";

/// How long the reap waits for workers to close their stdout after the
/// race before killing them.
const REAP_GRACE: Duration = Duration::from_secs(2);

/// Process-management options for a sharded run.
#[derive(Clone, Default)]
pub struct ShardOptions {
    /// Path to the worker binary; `None` resolves via
    /// [`default_worker_bin`].
    pub worker_bin: Option<PathBuf>,
    /// Called with `(shard, pid)` for every spawned worker — the
    /// fault-injection tests use this to SIGKILL a worker mid-race.
    pub spawn_hook: Option<Arc<dyn Fn(usize, u32) + Send + Sync>>,
    /// Directory for `postmortem-<shard>.json` bundles, written for
    /// every worker that dies or breaks protocol. `None` falls back to
    /// the `FERMIHEDRAL_POSTMORTEM_DIR` environment variable; unset
    /// both and no bundles are written.
    pub postmortem_dir: Option<PathBuf>,
}

impl std::fmt::Debug for ShardOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardOptions")
            .field("worker_bin", &self.worker_bin)
            .field("spawn_hook", &self.spawn_hook.is_some())
            .field("postmortem_dir", &self.postmortem_dir)
            .finish()
    }
}

/// Locates the worker binary: the `FERMIHEDRAL_SHARD_BIN` environment
/// variable, then `fermihedral-shard` next to the current executable,
/// then in its parent directory (where cargo puts workspace binaries
/// relative to test executables in `deps/`).
pub fn default_worker_bin() -> Option<PathBuf> {
    if let Ok(path) = std::env::var("FERMIHEDRAL_SHARD_BIN") {
        let path = PathBuf::from(path);
        if path.is_file() {
            return Some(path);
        }
    }
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    let name = format!("{WORKER_BIN}{}", std::env::consts::EXE_SUFFIX);
    [dir.join(&name), dir.parent()?.join(&name)]
        .into_iter()
        .find(|c| c.is_file())
}

/// Compiles with lanes sharded across [`EngineConfig::shards`] worker
/// processes. With fewer than 2 shards (or when no worker can be
/// spawned) this degrades to the in-process [`engine::compile`].
pub fn compile_sharded(problem: &EncodingProblem, config: &EngineConfig) -> EngineOutcome {
    let cache = config
        .cache_dir
        .as_ref()
        .and_then(|dir| SolutionCache::open(dir).ok())
        .map(|c| c.with_byte_cap(config.cache_byte_cap));
    compile_sharded_with(
        problem,
        config,
        cache.as_ref(),
        None,
        &ShardOptions::default(),
    )
}

/// [`compile_sharded`] against an externally managed cache handle and
/// cancellation token — the form the compilation server uses (mirrors
/// the in-process engine's service entry point).
pub fn compile_sharded_with(
    problem: &EncodingProblem,
    config: &EngineConfig,
    cache: Option<&SolutionCache>,
    external_cancel: Option<&CancelToken>,
    options: &ShardOptions,
) -> EngineOutcome {
    if config.shards < 2 {
        // Keep the caller's cache handle and cancellation token: a
        // degraded run must stay cancellable (server shutdown!) and its
        // cache traffic must land on the shared counters.
        return compile_with(problem, config, cache, external_cancel);
    }
    let Some(worker_bin) = options.worker_bin.clone().or_else(default_worker_bin) else {
        telemetry::log_warn!(
            "shard.coordinator",
            "worker binary not found; racing in-process instead",
            shards = config.shards,
        );
        return compile_with(problem, config, cache, external_cancel);
    };
    compile_cached_race(
        problem,
        config,
        cache,
        external_cancel,
        config.shards,
        |fp_hex, strategies, warm_start, started| {
            let parts = partition_strategies(strategies, config.shards);
            telemetry::log_info!(
                "shard.coordinator",
                "race started",
                shards = parts.len(),
                modes = problem.num_modes(),
                lanes = strategies.len(),
                fingerprint = fp_hex,
            );
            race_pipes(
                problem,
                config,
                parts,
                fp_hex,
                &worker_bin,
                options,
                warm_start,
                started,
                external_cancel,
            )
        },
    )
}

/// The cache-aware wrapper shared by every race transport (pipe workers
/// here, the TCP fleet in [`crate::fleet`]): probes the cache
/// (validated optimal hit → early return, same-size or cross-size warm
/// start otherwise), runs the supplied race, contains total loss by
/// falling back to the in-process engine, applies the warm-start
/// incumbent to the merged result, and stores the winner back.
///
/// The race closure receives the problem fingerprint, the resolved lane
/// strategies, the warm-start entry (strings seed the Job frames, the
/// weight opens the bound), and the race's start instant; it returns
/// the merged outcome plus the accepted UNSAT floor.
pub(crate) fn compile_cached_race<F>(
    problem: &EncodingProblem,
    config: &EngineConfig,
    cache: Option<&SolutionCache>,
    external_cancel: Option<&CancelToken>,
    shards_hint: usize,
    race: F,
) -> EngineOutcome
where
    F: FnOnce(&str, &[Strategy], Option<&CacheEntry>, Instant) -> (EngineOutcome, usize),
{
    let started = Instant::now();
    let fp = fingerprint(problem);

    // Coordinator root span: the whole sharded race, cache probe to
    // cache store. Worker spans arriving in Trace frames are shifted
    // onto this process's timeline, so in Perfetto this span visually
    // contains every worker lane.
    let mut race_span = telemetry::span("shard.race");
    race_span.attr("shards", shards_hint as u64);
    race_span.attr("modes", problem.num_modes() as u64);
    race_span.attr("fingerprint", fp.to_hex());

    // ---- Cache probe (the coordinator owns the cache) -------------------
    let mut cache_status = if cache.is_some() {
        CacheStatus::Miss
    } else {
        CacheStatus::Disabled
    };
    let mut warm_start: Option<CacheEntry> = None;
    let mut warm_report: Option<WarmStartReport> = None;
    if let Some(cache) = cache {
        if let Some(entry) = cache.lookup(&fp) {
            // Trust boundary, mirroring the in-process engine: the entry
            // is re-validated and re-measured before its weight may steer
            // the race (a lying weight below the true optimum would make
            // every worker go UNSAT and "certify" a non-encoding), and an
            // optimal claim is only served when the strings measure at
            // the claimed weight.
            if let Some(measured) = validated_weight(problem, &entry.strings) {
                if entry.optimal && measured == entry.weight {
                    return EngineOutcome {
                        best: Some(BestEncoding {
                            strings: entry.strings.clone(),
                            weight: entry.weight,
                        }),
                        optimal_proved: true,
                        from_cache: true,
                        report: EngineReport {
                            fingerprint: fp.to_hex(),
                            total_elapsed: started.elapsed(),
                            cache: CacheStatus::HitOptimal,
                            cache_counters: cache.counters(),
                            winner: Some(format!("cache[{}]", entry.strategy)),
                            warm_start: None,
                            workers: Vec::new(),
                            shards: Vec::new(),
                        },
                    };
                }
                if measured != entry.weight {
                    // A lying weight (understated, in particular) would
                    // make store_if_better refuse this run's genuine
                    // result forever; the tail re-stores the truth.
                    let _ = cache.invalidate(&fp);
                }
                cache_status = CacheStatus::HitWarmStart;
                warm_report = Some(WarmStartReport {
                    source: "cache-entry".into(),
                    from_modes: None,
                    weight: measured,
                });
                warm_start = Some(CacheEntry {
                    strings: entry.strings,
                    weight: measured,
                    optimal: false,
                    strategy: entry.strategy,
                });
            } else {
                // A poison file would also block store_if_better from
                // ever recording this run's genuine result: delete it.
                let _ = cache.invalidate(&fp);
            }
        }
        if warm_start.is_none() {
            if let Some((entry, from_modes)) = cross_size_warm_start(cache, problem) {
                // Cross-size transfer: the coordinator owns the cache, so
                // it is the one that lifts a smaller cached optimum and
                // hands the embedded encoding to every worker (strings in
                // the Job frame, weight as the opening Bound broadcast).
                cache.note_cross_size_hit();
                cache_status = CacheStatus::HitCrossSize;
                warm_report = Some(WarmStartReport {
                    source: "cross-size".into(),
                    from_modes: Some(from_modes),
                    weight: entry.weight,
                });
                warm_start = Some(entry);
            }
        }
    }

    // ---- Run the race over whatever transport the caller brought --------
    let strategies = if config.strategies.is_empty() {
        default_portfolio(problem)
    } else {
        config.strategies.clone()
    };
    let (mut outcome, floor) = race(&fp.to_hex(), &strategies, warm_start.as_ref(), started);

    // Total-loss containment: every worker died (or never spawned — a
    // missing binary lands here too) before reporting anything. The user
    // asked for a compilation, not an obituary: race in-process instead,
    // keeping the dead-shard forensics in the report.
    if outcome.best.is_none() && outcome.report.shards.iter().all(|s| s.dead) {
        telemetry::log_warn!(
            "shard.coordinator",
            "every worker died; racing in-process instead",
            shards = outcome.report.shards.len(),
        );
        let dead_shards = std::mem::take(&mut outcome.report.shards);
        // No cache handle: this function's tail owns the probe/store;
        // the external cancel still aborts the fallback race promptly.
        outcome = compile_with(problem, config, None, external_cancel);
        outcome.report.shards = dead_shards;
    }

    // ---- Cache store and warm-start fallback ----------------------------
    if let Some(entry) = &warm_start {
        let cached_better = outcome
            .best
            .as_ref()
            .is_none_or(|b| entry.weight < b.weight);
        if cached_better {
            // The race never beat the cached best-so-far; keep it. It may
            // even be optimal now: the warm-start weight was broadcast as
            // the opening bound, so a run whose lanes all went UNSAT has
            // proved a floor *at* the cached weight.
            outcome.best = Some(BestEncoding {
                strings: entry.strings.clone(),
                weight: entry.weight,
            });
            outcome.report.winner = Some(format!("cache[{}]", entry.strategy));
            outcome.optimal_proved = floor != 0 && entry.weight == floor;
        }
    }
    outcome.report.fingerprint = fp.to_hex();
    outcome.report.cache = cache_status;
    outcome.report.warm_start = warm_report;
    outcome.report.total_elapsed = started.elapsed();
    if let (Some(cache), Some(best)) = (cache, &outcome.best) {
        let entry = CacheEntry {
            strings: best.strings.clone(),
            weight: best.weight,
            optimal: outcome.optimal_proved,
            strategy: outcome.report.winner.clone().unwrap_or_default(),
        };
        let _ = cache.store_if_better(&fp, &entry);
        // Feed the cross-size index so *larger* problems of this family
        // can warm-start from this run's result.
        let _ = engine::SizeIndex::open(cache.dir()).record(problem, &fp);
        outcome.report.cache_counters = cache.counters();
    }
    if race_span.active() {
        if let Some(best) = &outcome.best {
            race_span.attr("weight", best.weight as u64);
        }
        race_span.attr("optimal_proved", outcome.optimal_proved);
        race_span.attr(
            "dead_shards",
            outcome.report.shards.iter().filter(|s| s.dead).count() as u64,
        );
    }
    telemetry::log_info!(
        "shard.coordinator",
        "race finished",
        weight = outcome.best.as_ref().map(|b| b.weight as u64).unwrap_or(0),
        optimal = outcome.optimal_proved,
        dead_shards = outcome.report.shards.iter().filter(|s| s.dead).count(),
        elapsed_ms = started.elapsed().as_millis() as u64,
    );
    drop(race_span);
    telemetry::flush();
    outcome
}

/// Spawns one worker per lane part, seats them, runs the race, and reaps.
#[allow(clippy::too_many_arguments)]
fn race_pipes(
    problem: &EncodingProblem,
    config: &EngineConfig,
    parts: Vec<Vec<Strategy>>,
    fp_hex: &str,
    worker_bin: &PathBuf,
    options: &ShardOptions,
    warm_start: Option<&CacheEntry>,
    started: Instant,
    external_cancel: Option<&CancelToken>,
) -> (EngineOutcome, usize) {
    let registry = Arc::new(Registry::new());
    // The fleet's default liveness deadline and clause digest; a pipe
    // cannot be re-opened, so a dropped one is not held for a rejoin.
    let fleet = FleetOptions::default();
    let policy = RacePolicy {
        heartbeat_deadline: fleet.heartbeat_deadline,
        rejoin_window: Duration::ZERO,
        clause_digest: fleet.clause_digest,
    };
    let shards = parts.len();
    let mut table = SeatTable::new(
        &registry, problem, config, fp_hex, warm_start, policy, parts,
    );
    let mut children = Vec::with_capacity(shards);
    for shard in 0..shards {
        let seat = table.add_pending();
        let spawned = Command::new(worker_bin)
            .arg("worker")
            .arg("--shard")
            .arg(shard.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn();
        let mut child = match spawned {
            Ok(child) => child,
            Err(e) => {
                telemetry::log_error!(
                    "shard.coordinator",
                    "spawning worker failed",
                    shard = shard,
                    error = e.to_string(),
                );
                seat.report.dead = true;
                registry.reserve(None);
                children.push(None);
                continue;
            }
        };
        if let Some(hook) = &options.spawn_hook {
            hook(shard, child.id());
        }
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        let child = Arc::new(Mutex::new(child));
        registry.reserve(Some(Link::Process(child.clone())));
        let registry = registry.clone();
        std::thread::spawn(move || {
            let frames = blocking_frames(stdout);
            serve_link(&registry, frames, stdin, None, Some(shard), "pipe");
        });
        children.push(Some(child));
    }
    let events = registry.events();
    table.run(&events, started, external_cancel);
    reap(&registry, &events, &mut table, &children);
    drop(events);
    table.finish(started, options.postmortem_dir.clone())
}

/// Reaps every spawned worker and settles the verdicts the race left to
/// exit status. A worker is collected once its stdout has closed (it is
/// exiting); one that has not closed it within [`REAP_GRACE`] is killed.
/// No result and no clean exit 0 means the worker died — was signalled,
/// crashed, or had to be killed — whenever that happened relative to
/// the `Cancel` broadcast.
fn reap(
    registry: &Registry,
    events: &mpsc::Receiver<SeatEvent>,
    table: &mut SeatTable,
    children: &[Option<Arc<Mutex<Child>>>],
) {
    // EOF on every stdin lets a lingering worker exit.
    registry.close_outboxes();
    let deadline = Instant::now() + REAP_GRACE;
    for (shard, child) in children.iter().enumerate() {
        let Some(child) = child else {
            continue;
        };
        while !table.seats[shard].closed {
            let left = deadline.saturating_duration_since(Instant::now());
            match events.recv_timeout(left) {
                Ok(SeatEvent::Gone { shard, .. }) => table.seats[shard].closed = true,
                Ok(_) => {}      // wind-down traffic
                Err(_) => break, // deadline
            }
        }
        let seat = &mut table.seats[shard];
        let mut child = child.lock().unwrap();
        if !seat.closed {
            let _ = child.kill();
        }
        let status = child.wait().ok();
        seat.exit_status = status.map(|s| s.to_string());
        if seat.result.is_none() && !status.is_some_and(|s| s.success()) {
            seat.report.dead = true;
        }
    }
}
