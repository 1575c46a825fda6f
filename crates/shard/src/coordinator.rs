//! The coordinator half of a sharded race: spawns `fermihedral-shard
//! worker` processes, partitions the portfolio's lanes across them, and
//! bridges their [`sat::SharedContext`]s — incumbent bounds, learnt
//! clauses, UNSAT floors, and cancellation all travel as [`sat::wire`]
//! frames over the workers' stdin/stdout pipes.
//!
//! # Echo-free clause forwarding
//!
//! A clause arriving from shard `s` is forwarded to every *other* live
//! shard, never back to `s` ([`sat::wire::RemoteClause::shard`] is
//! overwritten with the observed sender, so even a confused worker
//! cannot loop its own clauses). Inside each worker the injected clause
//! lands with the bridge lane as its `source`, which the bridge never
//! drains back out — the two halves of the no-echo guarantee.
//!
//! # Certification across processes
//!
//! An UNSAT certificate is a property of the shared formula, so a
//! `Floor(f)` from any shard bounds every shard. The coordinator merges
//! floors (max) and incumbent weights (min); the moment they meet, the
//! race is decided and every worker gets `Cancel`. The winning strings
//! arrive with the terminal `Result` frames.
//!
//! # Crash containment
//!
//! A worker that dies (EOF without a `Result`), breaks protocol, or
//! reports an encoding that fails validation is marked **dead** in
//! [`engine::ShardReport`] and the race degrades to the survivors — a
//! SIGKILL'd worker must never take the whole compilation down.
//!
//! # Post-mortems
//!
//! Workers checkpoint their flight-recorder ring over `BlackBox` frames
//! (always on, best-effort, latest-wins). When a worker dies and a
//! post-mortem directory is configured ([`ShardOptions::postmortem_dir`]
//! or `FERMIHEDRAL_POSTMORTEM_DIR`), the coordinator folds the last
//! checkpoint, the job context, the wire counters, and the reaped exit
//! status into `<dir>/postmortem-<shard>.json` — the corpse's own last
//! words, available even though its stderr died with it.

use crate::proto::{BlackBoxCheckpoint, Job, ShardResult};
use engine::{
    compile_with, cross_size_warm_start, default_portfolio, fingerprint, partition_strategies,
    CacheEntry, CacheStatus, EngineConfig, EngineOutcome, EngineReport, ShardReport, SolutionCache,
    Strategy, WarmStartReport, WorkerReport,
};
use fermihedral::descent::BestEncoding;
use fermihedral::{EncodingProblem, Objective};
use jsonkit::{obj, Value};
use pauli::PhasedString;
use sat::wire::{read_frame_counted, Frame, RemoteClause};
use sat::CancelToken;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The worker binary's file name.
pub const WORKER_BIN: &str = "fermihedral-shard";

/// Extra wall-clock past the configured timeout before the coordinator
/// broadcasts `Cancel` itself (workers enforce the timeout first).
const CANCEL_GRACE: Duration = Duration::from_millis(500);

/// Extra wall-clock past the cancel broadcast before surviving workers
/// are killed outright.
const KILL_GRACE: Duration = Duration::from_secs(5);

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
            let race = Race::launch(
                problem,
                config,
                &parts,
                fp_hex,
                &worker_bin,
                options,
                warm_start,
            );
            race.run(started, config.total_timeout, external_cancel, problem)
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
            let valid = entry.strings.len() == 2 * problem.num_modes()
                && validates(problem, &entry.strings);
            if valid {
                let measured = measure_weight(problem, &entry.strings);
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

/// One event from a worker's reader thread. Frames carry their arrival
/// time so the event loop can report its own forwarding latency.
enum Event {
    Frame(usize, Frame, Instant),
    /// EOF or a read error: the worker is gone (clean or not).
    Gone(usize),
}

/// Per-direction, per-peer wire telemetry: frame counts by type and
/// total bytes, recorded into the process-wide metric set. Counter
/// handles are cached per reader/writer thread so the hot path never
/// re-resolves names. (Aggregate gates sum by name prefix, so the peer
/// label refines without breaking them.)
pub(crate) struct WireMeter {
    dir: &'static str,
    peer: usize,
    bytes: std::sync::Arc<telemetry::Counter>,
    frames: Vec<(&'static str, std::sync::Arc<telemetry::Counter>)>,
}

impl WireMeter {
    pub(crate) fn new(dir: &'static str, peer: usize) -> WireMeter {
        WireMeter {
            dir,
            peer,
            bytes: telemetry::global().metrics().counter(&format!(
                "wire_bytes_total{{dir=\"{dir}\",peer=\"{peer}\"}}"
            )),
            frames: Vec::new(),
        }
    }

    pub(crate) fn record(&mut self, kind: &'static str, bytes: usize) {
        self.bytes.add(bytes as u64);
        if let Some((_, counter)) = self.frames.iter().find(|(k, _)| *k == kind) {
            counter.inc();
            return;
        }
        let counter = telemetry::global().metrics().counter(&format!(
            "wire_frames_total{{type=\"{kind}\",dir=\"{}\",peer=\"{}\"}}",
            self.dir, self.peer
        ));
        counter.inc();
        self.frames.push((kind, counter));
    }
}

/// Counter for frames shed at a peer's full outbox: the price of never
/// letting one slow peer head-of-line-block the race.
pub(crate) fn wire_dropped_counter(
    dir: &'static str,
    peer: usize,
) -> std::sync::Arc<telemetry::Counter> {
    telemetry::global().metrics().counter(&format!(
        "wire_frames_dropped_total{{dir=\"{dir}\",peer=\"{peer}\"}}"
    ))
}

/// Per-worker outgoing queue depth. Frames beyond it are dropped
/// (clause/bound sharing is best-effort); `Job` is always the first
/// frame into an empty queue, and the kill path never needs the pipe.
const WRITER_QUEUE: usize = 1024;

struct Worker {
    /// `None` when the spawn itself failed.
    child: Option<Child>,
    /// Bounded queue into the worker's dedicated writer thread. Writes
    /// to a worker that stops draining its stdin back up *here* (and
    /// get dropped), never in a blocking `write` on the event loop — a
    /// frozen worker must not be able to wedge the whole race.
    tx: Option<mpsc::SyncSender<Frame>>,
    report: ShardReport,
    result: Option<ShardResult>,
    /// Hello seen and Job sent.
    jobbed: bool,
    /// The worker's stdout reached EOF (clean exit or crash).
    gone: bool,
    /// Latest `BlackBox` checkpoint payload — each shipment replaces
    /// the last, so a death always leaves the freshest ring behind.
    black_box: Option<Vec<u8>>,
    /// Exit status as reaped (`None` until reap, or if reaping failed).
    exit_status: Option<String>,
    /// Telemetry counter for frames shed at this worker's full outbox.
    dropped: std::sync::Arc<telemetry::Counter>,
}

impl Worker {
    fn kill(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
        }
        self.report.dead = true;
        self.tx = None;
    }
}

struct Race {
    workers: Vec<Worker>,
    events: mpsc::Receiver<Event>,
    jobs: Vec<Job>,
    /// Cache warm-start weight, broadcast as the opening bound.
    initial_bound: Option<usize>,
    /// Where post-mortem bundles for dead workers are written.
    postmortem_dir: Option<PathBuf>,
}

impl Race {
    #[allow(clippy::too_many_arguments)]
    fn launch(
        problem: &EncodingProblem,
        config: &EngineConfig,
        parts: &[Vec<Strategy>],
        fp_hex: &str,
        worker_bin: &PathBuf,
        options: &ShardOptions,
        warm_start: Option<&CacheEntry>,
    ) -> Race {
        let (tx, events) = mpsc::channel();
        let mut workers = Vec::with_capacity(parts.len());
        let mut jobs = Vec::with_capacity(parts.len());
        for (shard, lanes) in parts.iter().enumerate() {
            jobs.push(Job {
                shard,
                total_shards: parts.len(),
                fingerprint: fp_hex.to_string(),
                problem: problem.clone(),
                strategies: lanes.clone(),
                total_timeout: config.total_timeout,
                conflict_budget_per_call: config.conflict_budget_per_call,
                persist_on_budget: config.persist_on_budget,
                clause_sharing: config.clause_sharing,
                max_concurrency: config.max_concurrency,
                warm_hint: warm_start.map(|e| e.strings.clone()),
                // Recording on in this process → ask workers to record
                // too, under the run's fingerprint as the context id.
                trace_id: telemetry::global().is_enabled().then(|| fp_hex.to_string()),
            });
            let mut report = ShardReport {
                shard,
                lanes: lanes.len(),
                ..ShardReport::default()
            };
            let spawned = Command::new(worker_bin)
                .arg("worker")
                .arg("--shard")
                .arg(shard.to_string())
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn();
            match spawned {
                Ok(mut child) => {
                    if let Some(hook) = &options.spawn_hook {
                        hook(shard, child.id());
                    }
                    let stdin = child.stdin.take().expect("stdin was piped");
                    let stdout = child.stdout.take().expect("stdout was piped");
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        let mut stdout = stdout;
                        let mut meter = WireMeter::new("rx", shard);
                        loop {
                            match read_frame_counted(&mut stdout) {
                                Ok(Some((frame, bytes))) => {
                                    meter.record(frame.kind(), bytes);
                                    if tx.send(Event::Frame(shard, frame, Instant::now())).is_err()
                                    {
                                        return;
                                    }
                                }
                                Ok(None) | Err(_) => {
                                    let _ = tx.send(Event::Gone(shard));
                                    return;
                                }
                            }
                        }
                    });
                    // Writer thread: the only place that blocks on the
                    // worker's stdin. Exits when the queue sender drops
                    // (EOF for the worker) or the pipe breaks.
                    let (wtx, wrx) = mpsc::sync_channel::<Frame>(WRITER_QUEUE);
                    std::thread::spawn(move || {
                        let mut stdin = stdin;
                        let mut meter = WireMeter::new("tx", shard);
                        while let Ok(frame) = wrx.recv() {
                            let bytes = match frame.to_bytes() {
                                Ok(bytes) => bytes,
                                Err(e) => {
                                    // Encode-time cap enforcement: shed the
                                    // oversized best-effort frame instead of
                                    // letting the peer tear down the link.
                                    telemetry::log_warn!(
                                        "shard.coordinator",
                                        "dropping unencodable frame",
                                        shard = shard,
                                        kind = frame.kind(),
                                        error = e.to_string(),
                                    );
                                    continue;
                                }
                            };
                            meter.record(frame.kind(), bytes.len());
                            if stdin
                                .write_all(&bytes)
                                .and_then(|()| stdin.flush())
                                .is_err()
                            {
                                return;
                            }
                        }
                    });
                    workers.push(Worker {
                        child: Some(child),
                        tx: Some(wtx),
                        report,
                        result: None,
                        jobbed: false,
                        gone: false,
                        black_box: None,
                        exit_status: None,
                        dropped: wire_dropped_counter("tx", shard),
                    });
                }
                Err(e) => {
                    telemetry::log_error!(
                        "shard.coordinator",
                        "spawning worker failed",
                        shard = shard,
                        error = e.to_string(),
                    );
                    report.dead = true;
                    workers.push(Worker {
                        child: None,
                        tx: None,
                        report,
                        result: None,
                        jobbed: false,
                        gone: true,
                        black_box: None,
                        exit_status: None,
                        dropped: wire_dropped_counter("tx", shard),
                    });
                }
            }
        }
        Race {
            workers,
            events,
            jobs,
            initial_bound: warm_start.map(|e| e.weight),
            postmortem_dir: options
                .postmortem_dir
                .clone()
                .or_else(|| std::env::var_os("FERMIHEDRAL_POSTMORTEM_DIR").map(PathBuf::from)),
        }
    }

    /// Queues a frame for one worker's writer thread. Returns whether
    /// the frame was accepted: a full queue (worker not draining) drops
    /// best-effort traffic instead of blocking the event loop, and a
    /// disconnected one (writer saw a broken pipe) drops the sender.
    fn send(&mut self, shard: usize, frame: &Frame) -> bool {
        let worker = &mut self.workers[shard];
        let Some(tx) = worker.tx.as_ref() else {
            return false;
        };
        match tx.try_send(frame.clone()) {
            Ok(()) => true,
            Err(mpsc::TrySendError::Full(_)) => {
                worker.report.frames_dropped += 1;
                worker.dropped.inc();
                false
            }
            Err(mpsc::TrySendError::Disconnected(_)) => {
                worker.tx = None;
                false
            }
        }
    }

    fn broadcast(&mut self, frame: &Frame, except: Option<usize>) {
        for shard in 0..self.workers.len() {
            if Some(shard) != except {
                self.send(shard, frame);
            }
        }
    }

    fn alive(&self, shard: usize) -> bool {
        let w = &self.workers[shard];
        !w.report.dead && !w.gone && w.result.is_none()
    }

    /// Alive and sent its `Job`. A worker still awaiting its `Job` exits
    /// on any frame but `Cancel`, so race traffic waits for it; the `Job`
    /// send primes it with the best bound.
    fn racing(&self, shard: usize) -> bool {
        self.alive(shard) && self.workers[shard].jobbed
    }

    fn run(
        mut self,
        started: Instant,
        total_timeout: Option<Duration>,
        external_cancel: Option<&CancelToken>,
        problem: &EncodingProblem,
    ) -> (EngineOutcome, usize) {
        // Lightest weight any shard (or the warm-start cache entry)
        // established; strictly-better updates are forwarded to peers.
        let mut best_bound = self.initial_bound.unwrap_or(usize::MAX);
        // Raw floor claims steer the race (early cancel); the *final*
        // certificate only trusts claims consistent with a validated
        // encoding — see `merge`.
        let mut floor = 0usize;
        let mut floor_claims: Vec<usize> = Vec::new();
        // Best encoding shipped over the wire alongside a Bound
        // improvement — survives its finder's death; see `merge`.
        let mut wire_best: Option<WireIncumbent> = None;
        let mut cancel_sent_at: Option<Instant> = None;
        // Time from a frame's arrival off the pipe to the event loop
        // picking it up — the bridge's own forwarding latency.
        let forward_latency = telemetry::global().metrics().histogram(
            "bridge_forward_latency",
            &[50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000],
        );

        loop {
            // All workers accounted for (result, death, or clean exit)?
            if self
                .workers
                .iter()
                .all(|w| w.result.is_some() || w.report.dead || w.gone)
            {
                break;
            }

            // Deadline and external-cancel management.
            let now = Instant::now();
            let overdue = total_timeout.is_some_and(|t| now >= started + t + CANCEL_GRACE);
            let externally_cancelled = external_cancel.is_some_and(CancelToken::is_cancelled);
            if (overdue || externally_cancelled) && cancel_sent_at.is_none() {
                self.broadcast(&Frame::Cancel, None);
                cancel_sent_at = Some(now);
            }
            if cancel_sent_at.is_some_and(|at| now >= at + KILL_GRACE) {
                // Workers that ignored Cancel long past grace: kill them.
                for shard in 0..self.workers.len() {
                    if self.alive(shard) {
                        self.workers[shard].kill();
                    }
                }
                break;
            }

            let event = match self.events.recv_timeout(Duration::from_millis(20)) {
                Ok(event) => event,
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            };
            if let Event::Frame(_, _, received_at) = &event {
                forward_latency.record(received_at.elapsed());
            }
            match event {
                Event::Frame(shard, Frame::Hello { protocol, .. }, _) => {
                    if protocol != sat::wire::PROTOCOL_VERSION {
                        telemetry::log_error!(
                            "shard.coordinator",
                            "protocol mismatch; dropping worker",
                            shard = shard,
                            worker_protocol = protocol,
                            coordinator_protocol = sat::wire::PROTOCOL_VERSION,
                        );
                        self.workers[shard].kill();
                        continue;
                    }
                    if !self.workers[shard].jobbed {
                        self.workers[shard].jobbed = true;
                        let job = Frame::Job(self.jobs[shard].to_bytes());
                        self.send(shard, &job);
                        // A warm-start (or earlier shard's) bound primes
                        // the newcomer's descent immediately.
                        if best_bound != usize::MAX {
                            self.send(shard, &Frame::Bound(best_bound as u64));
                        }
                    }
                }
                Event::Frame(shard, Frame::Clause(RemoteClause { clause, .. }), _) => {
                    self.workers[shard].report.clauses_sent += 1;
                    // After Cancel, workers stop reading their stdin;
                    // forwarding into an undrained pipe could stall this
                    // loop once the buffer fills. The race is decided —
                    // drop wind-down traffic instead.
                    if cancel_sent_at.is_some() {
                        continue;
                    }
                    let forwarded = Frame::Clause(RemoteClause {
                        shard: shard as u32, // trust the pipe, not the tag
                        clause,
                    });
                    for target in 0..self.workers.len() {
                        if target != shard && self.racing(target) && self.send(target, &forwarded) {
                            self.workers[target].report.clauses_received += 1;
                        }
                    }
                }
                Event::Frame(shard, Frame::Bound(weight), _) => {
                    self.workers[shard].report.bounds_sent += 1;
                    let weight = weight as usize;
                    if weight < best_bound {
                        best_bound = weight;
                        for target in 0..self.workers.len() {
                            if target != shard
                                && self.racing(target)
                                && cancel_sent_at.is_none()
                                && self.send(target, &Frame::Bound(weight as u64))
                            {
                                self.workers[target].report.bounds_received += 1;
                            }
                        }
                        if floor != 0 && best_bound <= floor && cancel_sent_at.is_none() {
                            self.broadcast(&Frame::Cancel, None);
                            cancel_sent_at = Some(Instant::now());
                        }
                    }
                }
                Event::Frame(_, Frame::Floor(f), _) => {
                    floor = floor.max(f as usize);
                    floor_claims.push(f as usize);
                    if floor != 0 && best_bound <= floor && cancel_sent_at.is_none() {
                        // The incumbent meets the proven floor: decided.
                        self.broadcast(&Frame::Cancel, None);
                        cancel_sent_at = Some(Instant::now());
                    }
                }
                Event::Frame(shard, Frame::Result(payload), _) => {
                    match ShardResult::from_bytes(&payload) {
                        Ok(result) => {
                            if let Some(f) = result.proved_floor {
                                floor = floor.max(f);
                                floor_claims.push(f);
                            }
                            if let Some(w) = result.weight {
                                best_bound = best_bound.min(w);
                            }
                            let decided = result.optimal || (floor != 0 && best_bound <= floor);
                            self.workers[shard].result = Some(result);
                            // Let the worker exit: dropping its queue
                            // sender ends the writer thread, which drops
                            // the pipe — EOF on the worker's stdin.
                            self.workers[shard].tx = None;
                            if decided && cancel_sent_at.is_none() {
                                self.broadcast(&Frame::Cancel, None);
                                cancel_sent_at = Some(Instant::now());
                            }
                        }
                        Err(e) => {
                            telemetry::log_error!(
                                "shard.coordinator",
                                "worker sent a bad result; marking it dead",
                                shard = shard,
                                error = e,
                            );
                            self.workers[shard].report.dead = true;
                        }
                    }
                }
                Event::Frame(shard, Frame::Trace(payload), _) => {
                    // Span batches are best-effort diagnostics: a torn
                    // batch from a killed worker is logged and dropped,
                    // never allowed to fail the race.
                    let registry = telemetry::global();
                    match std::str::from_utf8(&payload)
                        .map_err(|_| "not UTF-8".to_string())
                        .and_then(telemetry::chrome::TraceBatch::from_json)
                    {
                        Ok(mut batch) => {
                            // Workers report their *cumulative* drop count;
                            // keep the latest per shard, don't sum.
                            registry
                                .metrics()
                                .gauge(&format!("trace_worker_dropped{{shard=\"{shard}\"}}"))
                                .set(batch.dropped as i64);
                            batch.shift_onto(registry.epoch_wall_us());
                            registry.inject(batch.events);
                        }
                        Err(e) => {
                            telemetry::log_warn!(
                                "shard.coordinator",
                                "worker sent a bad trace batch; dropping it",
                                shard = shard,
                                error = e,
                            );
                        }
                    }
                }
                Event::Frame(shard, Frame::BlackBox(payload), _) => {
                    // Always-on checkpoint: keep only the latest — the
                    // whole ring rides every shipment, so older payloads
                    // are strict subsets of newer ones.
                    self.workers[shard].black_box = Some(payload);
                }
                Event::Frame(shard, Frame::Incumbent(payload), _) => {
                    record_wire_incumbent(&mut wire_best, problem, shard, &payload);
                }
                Event::Frame(_, _, _) => {} // Job/Cancel from a worker: ignore
                Event::Gone(shard) => {
                    self.workers[shard].gone = true;
                    self.workers[shard].tx = None;
                    // EOF without a result before any Cancel is always a
                    // death. After Cancel it is ambiguous — a no-work
                    // worker winds down resultless by design — so the
                    // verdict is deferred to its exit status at reap
                    // time (clean 0 = wind-down, anything else = death).
                    if self.workers[shard].result.is_none() && cancel_sent_at.is_none() {
                        telemetry::log_warn!(
                            "shard.coordinator",
                            "worker died mid-race; degrading to survivors",
                            shard = shard,
                        );
                        self.workers[shard].report.dead = true;
                    }
                }
            }
        }

        // Reap every child, and settle the deferred death verdicts from
        // the Gone handler. A worker is collected once its reader thread
        // reports Gone (its stdout closed, so it is exiting); one that
        // has not closed it within 2 s is killed.
        for worker in &mut self.workers {
            worker.tx = None; // EOF lets a lingering worker exit
        }
        for shard in 0..self.workers.len() {
            let deadline = Instant::now() + Duration::from_secs(2);
            while !self.workers[shard].gone {
                let left = deadline.saturating_duration_since(Instant::now());
                match self.events.recv_timeout(left) {
                    Ok(Event::Gone(gone)) => self.workers[gone].gone = true,
                    Ok(Event::Frame(..)) => {} // wind-down traffic
                    Err(_) => break,           // deadline, or every reader gone
                }
            }
            let worker = &mut self.workers[shard];
            let Some(child) = &mut worker.child else {
                continue;
            };
            if !worker.gone {
                let _ = child.kill();
            }
            let status = child.wait().ok();
            worker.exit_status = status.map(|s| s.to_string());
            // No result and not a clean exit 0: the worker died (was
            // signalled, crashed, or had to be killed), whenever that
            // happened relative to the Cancel broadcast.
            if worker.result.is_none() && !status.is_some_and(|s| s.success()) {
                worker.report.dead = true;
            }
        }

        if let Some(dir) = self.postmortem_dir.clone() {
            self.write_postmortems(&dir);
        }

        self.merge(started, &floor_claims, wire_best, problem)
    }

    /// Writes `postmortem-<shard>.json` for every dead worker: its last
    /// checkpointed flight-recorder ring (if any checkpoint made it over
    /// the wire), job context, wire counters, and exit status — enough
    /// to explain the corpse without reproducing the race.
    fn write_postmortems(&self, dir: &Path) {
        if !self.workers.iter().any(|w| w.report.dead) {
            return;
        }
        if let Err(e) = std::fs::create_dir_all(dir) {
            telemetry::log_error!(
                "shard.coordinator",
                "creating post-mortem directory failed",
                dir = dir.display().to_string(),
                error = e.to_string(),
            );
            return;
        }
        for worker in &self.workers {
            if !worker.report.dead {
                continue;
            }
            let shard = worker.report.shard;
            write_postmortem_bundle(
                dir,
                shard,
                worker.exit_status.as_deref(),
                &self.jobs[shard],
                &worker.report,
                worker.black_box.as_deref(),
            );
        }
    }

    /// [`merge_results`] over this race's seats.
    fn merge(
        self,
        started: Instant,
        floor_claims: &[usize],
        wire_best: Option<WireIncumbent>,
        problem: &EncodingProblem,
    ) -> (EngineOutcome, usize) {
        let initial_bound = self.initial_bound;
        let mut seats: Vec<SeatOutcome> = self
            .workers
            .into_iter()
            .map(|w| SeatOutcome {
                report: w.report,
                result: w.result,
            })
            .collect();
        graft_wire_incumbent(&mut seats, wire_best);
        merge_results(started, floor_claims, problem, initial_bound, seats)
    }
}

/// One shard's contribution to a race, as the merge step sees it —
/// transport-agnostic (pipe workers and fleet peers both end here).
pub(crate) struct SeatOutcome {
    pub(crate) report: ShardReport,
    pub(crate) result: Option<ShardResult>,
}

/// The lightest validated wire-shipped incumbent of a race: measured
/// weight, the encoding, the lane that found it, and the shard that
/// shipped it.
pub(crate) type WireIncumbent = (usize, Vec<pauli::PauliString>, String, usize);

/// Folds an `Incumbent` frame into the race's best wire-shipped witness.
/// Validates and re-measures before trusting anything — this payload
/// exists precisely because its sender may die, so it must stand on its
/// own at merge time.
pub(crate) fn record_wire_incumbent(
    wire_best: &mut Option<WireIncumbent>,
    problem: &EncodingProblem,
    shard: usize,
    payload: &[u8],
) {
    let update = match crate::proto::IncumbentUpdate::from_bytes(payload) {
        Ok(update) => update,
        Err(e) => {
            telemetry::log_warn!(
                "shard.coordinator",
                "worker sent a bad incumbent; dropping it",
                shard = shard,
                error = e,
            );
            return;
        }
    };
    if update.strings.len() != 2 * problem.num_modes() || !validates(problem, &update.strings) {
        telemetry::log_warn!(
            "shard.coordinator",
            "worker shipped an invalid incumbent encoding; dropping it",
            shard = shard,
            claimed_weight = update.weight,
        );
        return;
    }
    let weight = measure_weight(problem, &update.strings);
    if wire_best.as_ref().is_none_or(|(w, ..)| weight < *w) {
        telemetry::log_debug!(
            "shard.coordinator",
            "wire incumbent recorded",
            shard = shard,
            weight = weight,
        );
        *wire_best = Some((weight, update.strings, update.winner, shard));
    }
}

/// Grafts the race's best wire-shipped incumbent into its owner's seat
/// before the merge, so an artifact whose finder died (taking the only
/// `Result`-borne copy with it) still competes — without it, a race
/// steered below a lost witness ends floor-met but uncertified.
pub(crate) fn graft_wire_incumbent(seats: &mut [SeatOutcome], wire_best: Option<WireIncumbent>) {
    let Some((weight, strings, winner, shard)) = wire_best else {
        return;
    };
    let Some(seat) = seats.iter_mut().find(|s| s.report.shard == shard) else {
        return;
    };
    let result = seat.result.get_or_insert_with(ShardResult::default);
    if result.weight.is_none_or(|w| weight < w) {
        result.weight = Some(weight);
        result.strings = Some(strings);
        result.winner = Some(winner);
    }
}

/// Merges shard results into one engine outcome plus the *accepted*
/// UNSAT floor. Validates any claimed best encoding, and only trusts
/// floor claims consistent with it — a corrupt worker must not be able
/// to poison the cache or the caller. (A floor *equal* to the validated
/// optimum is accepted on the worker's word: an UNSAT proof cannot be
/// cheaply re-checked, and workers are this repository's own binary —
/// the same trust extended to an in-process thread. The defense here is
/// against corruption and provable lies, not a fully Byzantine peer.)
pub(crate) fn merge_results(
    started: Instant,
    floor_claims: &[usize],
    problem: &EncodingProblem,
    initial_bound: Option<usize>,
    seats: Vec<SeatOutcome>,
) -> (EngineOutcome, usize) {
    {
        let mut best: Option<(BestEncoding, String)> = None;
        let mut workers: Vec<WorkerReport> = Vec::new();
        let mut shards: Vec<ShardReport> = Vec::new();
        for (shard, worker) in seats.into_iter().enumerate() {
            shards.push(worker.report);
            let Some(result) = worker.result else {
                continue;
            };
            for mut lane in result.workers {
                lane.shard = Some(shard);
                workers.push(lane);
            }
            if let (Some(claimed), Some(strings)) = (result.weight, result.strings) {
                let valid =
                    strings.len() == 2 * problem.num_modes() && validates(problem, &strings);
                if !valid {
                    telemetry::log_error!(
                        "shard.coordinator",
                        "worker claimed an invalid encoding; marking it dead",
                        shard = shard,
                        claimed_weight = claimed,
                    );
                    shards[shard].dead = true;
                    continue;
                }
                // Trust the strings, not the claim: re-measure locally so
                // a corrupt weight can neither steal the win nor fake an
                // optimality certificate.
                let weight = measure_weight(problem, &strings);
                if weight != claimed {
                    telemetry::log_warn!(
                        "shard.coordinator",
                        "claimed weight disagrees with measurement; using the measurement",
                        shard = shard,
                        claimed = claimed,
                        measured = weight,
                    );
                }
                let better = best.as_ref().is_none_or(|(b, _)| weight < b.weight);
                if better {
                    best = Some((
                        BestEncoding { strings, weight },
                        result.winner.unwrap_or_else(|| format!("shard-{shard}")),
                    ));
                }
            }
        }
        let (best, winner) = match best {
            Some((b, w)) => (Some(b), Some(w)),
            None => (None, None),
        };
        // A floor strictly above a known-feasible weight — the race's
        // validated best, or failing that the warm-start cache entry —
        // claims a real encoding is impossible: a provable lie; discard
        // it. The strongest remaining claim is the accepted floor.
        let reference = best.as_ref().map(|b| b.weight).or(initial_bound);
        let floor = reference
            .map(|r| {
                floor_claims
                    .iter()
                    .copied()
                    .filter(|&f| f <= r)
                    .max()
                    .unwrap_or(0)
            })
            .unwrap_or(0);
        let optimal_proved = floor != 0 && best.as_ref().is_some_and(|b| b.weight == floor);
        let outcome = EngineOutcome {
            best,
            optimal_proved,
            from_cache: false,
            report: EngineReport {
                fingerprint: String::new(), // filled by the caller
                total_elapsed: started.elapsed(),
                cache: CacheStatus::Disabled, // filled by the caller
                cache_counters: Default::default(),
                winner,
                warm_start: None, // filled by the caller
                workers,
                shards,
            },
        };
        (outcome, floor)
    }
}

/// Writes one `postmortem-<shard>.json` bundle: the worker's last
/// checkpointed flight-recorder ring (if any checkpoint made it over
/// the wire), job context, wire counters, and exit status
/// (`None` = a remote fleet peer, whose exit status is unknowable).
/// Shared by the pipe coordinator and the TCP fleet.
pub(crate) fn write_postmortem_bundle(
    dir: &Path,
    shard: usize,
    exit_status: Option<&str>,
    job: &Job,
    report: &ShardReport,
    black_box: Option<&[u8]>,
) {
    // The checkpoint is worker-reported; a torn payload from a
    // mid-write kill must not lose the coordinator-side context.
    let flight_recorder = black_box
        .and_then(|bytes| BlackBoxCheckpoint::from_bytes(bytes).ok())
        .map(|c| c.flight_recorder)
        .unwrap_or(Value::Null);
    let bundle = obj([
        ("shard", Value::Num(shard as f64)),
        ("protocol", Value::Num(sat::wire::PROTOCOL_VERSION as f64)),
        (
            "exit_status",
            exit_status
                .map(|s| Value::Str(s.to_string()))
                .unwrap_or(Value::Null),
        ),
        (
            "job",
            obj([
                ("fingerprint", Value::Str(job.fingerprint.clone())),
                ("modes", Value::Num(job.problem.num_modes() as f64)),
                ("total_shards", Value::Num(job.total_shards as f64)),
                (
                    "lanes",
                    Value::Arr(
                        job.strategies
                            .iter()
                            .map(|s| Value::Str(s.name()))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "wire",
            obj([
                ("clauses_sent", Value::Num(report.clauses_sent as f64)),
                (
                    "clauses_received",
                    Value::Num(report.clauses_received as f64),
                ),
                ("bounds_sent", Value::Num(report.bounds_sent as f64)),
                ("bounds_received", Value::Num(report.bounds_received as f64)),
            ]),
        ),
        ("flight_recorder", flight_recorder),
    ]);
    let path = dir.join(format!("postmortem-{shard}.json"));
    match std::fs::write(&path, bundle.to_json()) {
        Ok(()) => {
            telemetry::log_warn!(
                "shard.coordinator",
                "post-mortem written",
                shard = shard,
                path = path.display().to_string(),
                exit_status = exit_status.unwrap_or("remote"),
            );
        }
        Err(e) => {
            telemetry::log_error!(
                "shard.coordinator",
                "writing post-mortem failed",
                shard = shard,
                path = path.display().to_string(),
                error = e.to_string(),
            );
        }
    }
}

/// Full validation of a worker-claimed encoding against the problem's
/// constraints and objective (weight must match the claim's).
fn validates(problem: &EncodingProblem, strings: &[pauli::PauliString]) -> bool {
    let phased: Vec<PhasedString> = strings.iter().map(|s| s.clone().into()).collect();
    let report = encodings::validate::validate_strings(&phased);
    report.anticommuting
        && report.algebraically_independent
        && (!problem.has_vacuum_condition() || report.xy_pair_condition)
}

/// Objective-aware weight of an encoding (used by the differential
/// tests; mirrors the engine's internal measure).
pub fn measure_weight(problem: &EncodingProblem, strings: &[pauli::PauliString]) -> usize {
    let phased: Vec<PhasedString> = strings.iter().map(|s| s.clone().into()).collect();
    match problem.objective() {
        Objective::MajoranaWeight => encodings::weight::majorana_weight(&phased),
        Objective::HamiltonianWeight(monomials) => {
            encodings::weight::structure_weight(&phased, monomials)
        }
    }
}
