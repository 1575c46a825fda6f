//! Multi-host lane sharding: the TCP transport for the shard protocol.
//!
//! A [`FleetServer`] listens on a TCP address; remote `fermihedral-shard
//! worker --connect` processes register with a `Hello`/`Welcome`
//! handshake, and [`compile_fleet_with`] races the portfolio across
//! whoever is registered when the race starts. The race itself is
//! the `race` module's seat table and event loop, the same one pipe
//! workers run in; what differs from pipes is only this:
//!
//! * **Accept, not spawn** — links are opened by workers connecting,
//!   for as long as the server lives and across any number of races.
//!   The server assigns shard ids at `Hello` time, and a race waits up
//!   to [`FleetOptions::join_timeout`] for [`FleetOptions::min_peers`]
//!   of them. A worker registering into a *running* race is armed at
//!   once, taking over a dead seat's orphaned lanes when there is one.
//! * **Severing** shuts the socket down instead of killing a process;
//!   a remote peer's exit status is unknowable, so its post-mortem has
//!   none.
//! * **Rejoin** — a worker that lost its connection mid-race reconnects
//!   under its shard id within [`FleetOptions::heartbeat_deadline`] and
//!   is re-armed: its `Job` is resent, primed with the current incumbent
//!   bound and a replay of the last [`FleetOptions::clause_digest`]
//!   learnt clauses that crossed the bridge, so it resumes contributing
//!   instead of restarting cold. A pipe worker cannot rejoin, so for
//!   pipes that window is zero.
//!
//! The cache probe/store is [`compile_cached_race`], shared
//! with pipes as well.

use crate::coordinator::compile_cached_race;
use crate::race::{merge_results, serve_link, Link, RacePolicy, Registry, SeatTable, LOOP_TICK};
use engine::{CacheEntry, EngineConfig, EngineOutcome, SolutionCache, Strategy};
use fermihedral::EncodingProblem;
use sat::wire::FrameReader;
use sat::CancelToken;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Socket read timeout: bounds how long a reader thread can block
/// without noticing server shutdown.
const SOCKET_READ_TIMEOUT: Duration = Duration::from_millis(100);

/// Fleet coordinator policy.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// A peer silent (not even heartbeats) this long is declared dead;
    /// a mid-race disconnect gets the same window to reconnect before
    /// its seat degrades.
    pub heartbeat_deadline: Duration,
    /// How many recently-forwarded clauses the server retains for
    /// replay to rejoining and late-joining peers.
    pub clause_digest: usize,
    /// A race will wait up to `join_timeout` for at least `min_peers`
    /// registered workers before falling back to in-process compilation.
    pub min_peers: usize,
    pub join_timeout: Duration,
    /// Where post-mortem bundles for dead peers are written.
    pub postmortem_dir: Option<PathBuf>,
}

impl Default for FleetOptions {
    fn default() -> FleetOptions {
        FleetOptions {
            heartbeat_deadline: Duration::from_secs(3),
            clause_digest: 512,
            min_peers: 1,
            join_timeout: Duration::from_secs(30),
            postmortem_dir: None,
        }
    }
}

/// A listening fleet coordinator: accepts worker registrations for as
/// long as it lives, across any number of races.
pub struct FleetServer {
    registry: Arc<Registry>,
    options: FleetOptions,
    local_addr: SocketAddr,
}

impl FleetServer {
    /// Binds `addr` and starts accepting worker registrations.
    pub fn bind(addr: &str, options: FleetOptions) -> std::io::Result<FleetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let registry = Arc::new(Registry::new());
        {
            let registry = registry.clone();
            std::thread::spawn(move || accept_loop(listener, registry));
        }
        telemetry::log_info!(
            "shard.fleet",
            "fleet coordinator listening",
            addr = local_addr.to_string(),
        );
        Ok(FleetServer {
            registry,
            options,
            local_addr,
        })
    }

    /// The bound address (resolves `:0` for tests).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Currently-connected peers.
    pub fn peer_count(&self) -> usize {
        self.registry.connected().len()
    }
}

impl Drop for FleetServer {
    fn drop(&mut self) {
        self.registry.shutdown.store(true, Ordering::Relaxed);
        self.registry.sever_all();
        // Wake the accept loop so it can observe the flag and exit.
        let _ = TcpStream::connect(self.local_addr);
    }
}

fn accept_loop(listener: TcpListener, registry: Arc<Registry>) {
    loop {
        let Ok((stream, peer_addr)) = listener.accept() else {
            return;
        };
        if registry.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let registry = registry.clone();
        std::thread::spawn(move || {
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(SOCKET_READ_TIMEOUT));
            let Ok(output) = stream.try_clone() else {
                return;
            };
            let link = stream.try_clone().ok().map(Link::Socket);
            let mut reader = FrameReader::new();
            serve_link(
                &registry,
                || reader.read(&mut &stream),
                output,
                link,
                None,
                &peer_addr.to_string(),
            );
        });
    }
}

/// Server form of the fleet race, mirroring
/// [`crate::compile_sharded_with`]: shared cache, external
/// cancellation, and the registered fleet as the transport. With no
/// peers registered within the join window the race degrades to the
/// in-process engine (the same total-loss containment as all-dead pipe
/// workers).
pub fn compile_fleet_with(
    problem: &EncodingProblem,
    config: &EngineConfig,
    cache: Option<&SolutionCache>,
    external_cancel: Option<&CancelToken>,
    server: &FleetServer,
) -> EngineOutcome {
    compile_cached_race(
        problem,
        config,
        cache,
        external_cancel,
        server.peer_count().max(1),
        |fp_hex, strategies, warm_start, started| {
            run_fleet_race(
                server,
                problem,
                config,
                fp_hex,
                strategies,
                warm_start,
                started,
                external_cancel,
            )
        },
    )
}

#[allow(clippy::too_many_arguments)]
fn run_fleet_race(
    server: &FleetServer,
    problem: &EncodingProblem,
    config: &EngineConfig,
    fp_hex: &str,
    strategies: &[Strategy],
    warm_start: Option<&CacheEntry>,
    started: Instant,
    external_cancel: Option<&CancelToken>,
) -> (EngineOutcome, usize) {
    let registry = &server.registry;
    let opts = &server.options;
    let events = registry.events();

    // ---- Wait for the fleet to muster: wake on every registration ------
    let join_deadline = Instant::now() + opts.join_timeout;
    while registry.connected().len() < opts.min_peers
        && !external_cancel.is_some_and(CancelToken::is_cancelled)
    {
        let left = join_deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        let _ = events.recv_timeout(left.min(LOOP_TICK));
    }
    // Flush anything queued before this race (stale results/traces from
    // a previous race, join/leave churn): the registry snapshot below is
    // the ground truth for who is connected *now*.
    while events.try_recv().is_ok() {}

    let connected = registry.connected();
    if connected.is_empty() {
        telemetry::log_warn!(
            "shard.fleet",
            "no workers registered; degrading to in-process race",
            waited_ms = opts.join_timeout.as_millis() as u64,
        );
        // Zero seats → the caller's total-loss containment races
        // in-process.
        return merge_results(
            started,
            &[],
            problem,
            warm_start.map(|e| e.weight),
            Vec::new(),
        );
    }
    let parts = engine::partition_strategies(strategies, connected.len());
    telemetry::log_info!(
        "shard.fleet",
        "race started",
        peers = connected.len(),
        modes = problem.num_modes(),
        lanes = strategies.len(),
        fingerprint = fp_hex,
    );
    let policy = RacePolicy {
        heartbeat_deadline: opts.heartbeat_deadline,
        rejoin_window: opts.heartbeat_deadline,
        clause_digest: opts.clause_digest,
    };
    let part_count = parts.len();
    let mut table = SeatTable::new(registry, problem, config, fp_hex, warm_start, policy, parts);
    table.add_idle(registry.seat_count());
    for (k, &shard) in connected.iter().enumerate() {
        table.arm_part(shard, k % part_count);
    }
    table.run(&events, started, external_cancel);
    drop(events);
    table.finish(started, opts.postmortem_dir.clone())
}
