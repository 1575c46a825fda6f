//! `serve-mix`: a real `serve::start` server with a heavy and a light
//! keyed tenant, a solution cache and a request journal, driven over
//! loopback by an open loop at one fixed offered rate, in the request
//! shares of `serve_loadgen --tenants`.
//!
//! Why: the HTTP, queue, cache and journal layers do nearly all the work
//! here and none in the other workloads. Reads (cache hits) sit beside
//! writes (cold solves and batches that store and journal), so a gain
//! for one that costs the other shows.

use super::loadclient::LoadClient;
use super::Ctx;
use crate::catalogue::{self, Arrival, Request, Spec, BATCH_SIZES};
use crate::layers::{self, RaceFigures};
use crate::oracle;
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use engine::{CacheEntry, EngineConfig, Fingerprint, SolutionCache};
use jsonkit::{obj, Value};
use serve::client::Client;
use serve::tenant::TenantConfig;
use serve::ServeConfig;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offered load, requests per second. Far below saturation at the parent
/// commit (at 240/s goodput still matched the offered load, 2-core
/// x86-64 host), and low enough that a 25 s run sends about as many
/// batches (one in eight requests) as there are batch families, so
/// nearly every batch is a never-seen family that warm-starts across
/// sizes.
const RATE: f64 = 24.0;
/// Goodput counts responses within this latency (from due time).
const LATENCY_LIMIT_MS: f64 = 500.0;
/// Client threads, each with one keep-alive connection at a time.
const CLIENTS: usize = 2;
/// Requests a connection carries before its sender moves to a fresh one:
/// `serve_loadgen`'s default of 40 requests per client connection. The
/// server runs each connection on its own thread. With the same two
/// connections for a whole run, the median cache hit held still within a
/// run but moved between runs by up to 30% (0.34 against 0.45 ms, 2-core
/// x86-64 virtual machine); with a fresh connection every 40 requests it
/// moves between parts of one run instead, and the run's median averages
/// over fifteen connections.
const REQUESTS_PER_CONNECTION: usize = 40;
/// The heavy and light tenants (indexed by `catalogue::HEAVY`/`LIGHT`),
/// with the quotas `serve_loadgen --tenants` gives them.
const TENANTS: [(&str, &str); 2] = [("heavy", "perfbench-heavy"), ("light", "perfbench-light")];
const SETUPS: usize = 9;
/// `GET /v1/solution` reads of each hit-set entry in the traced run.
const READS_PER_HIT: usize = 50;
/// Cold problems the traced run decomposes in-process after the run.
const DECOMPOSE: usize = 16;

fn server_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        solve_workers: 2,
        engine: EngineConfig {
            cache_dir: Some(dir.join("cache")),
            ..EngineConfig::default()
        },
        tenants: TENANTS
            .iter()
            .map(|(name, key)| TenantConfig {
                name: (*name).into(),
                api_key: (*key).into(),
                max_in_flight: 4,
                max_queued: 64,
            })
            .collect(),
        journal_dir: Some(dir.join("journal")),
        ..ServeConfig::default()
    }
}

fn body(spec: &Spec, modes: Value) -> String {
    obj(spec.request_fields(modes)).to_json_compact()
}

/// One request on the wire; returns the status and parsed body.
fn send(client: &mut LoadClient, tenant: usize, request: &Request) -> (u16, Value) {
    let key = [("x-api-key", TENANTS[tenant].1)];
    let result = match request {
        Request::Hit(spec) | Request::Cold(spec) => client.request(
            "POST",
            "/v1/compile",
            &body(spec, Value::Num(spec.modes as f64)),
            &key,
        ),
        Request::Batch(spec) => client.request(
            "POST",
            "/v1/compile-batch",
            &body(
                spec,
                Value::Arr(BATCH_SIZES.iter().map(|&n| Value::Num(n as f64)).collect()),
            ),
            &key,
        ),
    };
    result.unwrap_or_else(|e| (0, Value::Str(e.to_string())))
}

/// How long before a due time the generator stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(200);

/// One request of the open loop, timed.
#[derive(Debug, Clone)]
pub struct Timed<T> {
    pub index: usize,
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub out: T,
}

impl<T> Timed<T> {
    /// Latency from the due time: includes any wait a stall imposed.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent it.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// An open-loop generator: request `i` is due at `start + dues[i]`
/// seconds whatever happened before it. `threads` senders take requests
/// in due order; a sender still busy when a request falls due sends it
/// late, and the lateness stays in the request's latency. A sender moves
/// to a fresh connection after every `per_connection` requests; it opens
/// each one a whole connection's life ahead, so the server has accepted
/// it before its first request.
pub fn open_loop<C, T: Send>(
    dues: &[f64],
    threads: usize,
    per_connection: usize,
    connect: impl Fn() -> C + Sync,
    perform: impl Fn(&mut C, usize) -> T + Sync,
) -> Vec<Timed<T>> {
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(dues.len()));
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut client = connect();
                let mut standby = connect();
                let mut mine = Vec::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&due_s) = dues.get(index) else { break };
                    if !mine.is_empty() && mine.len() % per_connection.max(1) == 0 {
                        client = std::mem::replace(&mut standby, connect());
                    }
                    let due = start + Duration::from_secs_f64(due_s);
                    // Sleep to just short of the due time, then spin: a
                    // plain sleep wakes up tens of microseconds late.
                    let now = Instant::now();
                    if due > now + SPIN {
                        std::thread::sleep(due - now - SPIN);
                    }
                    while Instant::now() < due {
                        std::hint::spin_loop();
                    }
                    let sent = Instant::now();
                    let out = perform(&mut client, index);
                    mine.push(Timed {
                        index,
                        due,
                        sent,
                        done: Instant::now(),
                        out,
                    });
                }
                results.lock().expect("no sender panicked").extend(mine);
            });
        }
    });
    let mut all = results.into_inner().expect("no sender panicked");
    all.sort_by_key(|t| t.index);
    all
}

/// Counter and histogram values from the server's `/metrics`.
fn scrape(addr: SocketAddr) -> BTreeMap<String, f64> {
    match Client::connect(addr).and_then(|mut c| c.request_text("GET", "/metrics", None)) {
        Ok((200, text)) => parse_exposition(&text),
        _ => BTreeMap::new(),
    }
}

/// Sample name (labels included) → value, from Prometheus text.
fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            Some((name.to_string(), value.parse::<f64>().ok()?))
        })
        .collect()
}

struct Server {
    handle: serve::ServerHandle,
    dir: PathBuf,
    /// Fingerprints of the hit set, in hit-set order.
    fps: Vec<String>,
}

impl Server {
    fn stop(&self) {
        self.handle.shutdown();
        self.handle.join();
    }
}

/// Starts a server in a fresh directory and pre-solves the hit set.
fn set_up(ctx: &Ctx, k: usize, report: &mut Report) -> Result<Server, String> {
    let dir = ctx.tmp.join(format!("serve-{k}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let handle = serve::start(server_config(&dir)).map_err(|e| format!("serve::start: {e}"))?;
    let mut client = LoadClient::connect(handle.local_addr()).map_err(|e| e.to_string())?;
    let mut fps = Vec::new();
    for spec in catalogue::hit_set() {
        let (status, value) = send(&mut client, catalogue::HEAVY, &Request::Hit(spec.clone()));
        if status != 200 {
            return Err(format!("pre-solve of {} answered {status}", spec.key()));
        }
        if let Err(e) = check_entry(&spec, &value, ctx) {
            report.wrong.push(e);
        }
        fps.push(
            value
                .get("fingerprint")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
        );
    }
    Ok(Server { handle, dir, fps })
}

fn strings_of(value: &Value) -> Vec<String> {
    value
        .get("strings")
        .and_then(Value::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(|s| s.as_str().map(String::from))
                .collect()
        })
        .unwrap_or_default()
}

/// Oracle over one compile response (or batch entry).
/// `Ok(false)` = well-formed but not certified (a failed op).
fn check_entry(spec: &Spec, value: &Value, ctx: &Ctx) -> Result<bool, String> {
    let certified = value.get("optimal").and_then(Value::as_bool) == Some(true);
    let Some(weight) = value.get("weight").and_then(Value::as_usize) else {
        return Ok(false);
    };
    oracle::check(spec, &strings_of(value), weight, certified, &ctx.expected)?;
    Ok(certified)
}

/// Checks one response of the run; `Ok(false)` = a failed request.
fn check_response(
    arrival: &Arrival,
    status: u16,
    value: &Value,
    ctx: &Ctx,
) -> Result<bool, String> {
    if status != 200 {
        return Ok(false);
    }
    match &arrival.request {
        Request::Hit(spec) | Request::Cold(spec) => check_entry(spec, value, ctx),
        Request::Batch(family) => {
            let entries = value.get("entries").and_then(Value::as_arr).unwrap_or(&[]);
            let mut all = entries.len() == BATCH_SIZES.len();
            for entry in entries {
                let Some(modes) = entry.get("modes").and_then(Value::as_usize) else {
                    all = false;
                    continue;
                };
                all &= check_entry(&family.with_modes(modes), entry, ctx)?;
            }
            Ok(all)
        }
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();

    // ---- Set-up (five times; the first from process start) --------------
    let mut setups = Vec::new();
    let mut server: Option<Server> = None;
    for k in 0..SETUPS {
        // The previous set-up's server is shut down before the clock
        // starts: shutdown is not set-up.
        if let Some(old) = server.take() {
            old.stop();
            let _ = std::fs::remove_dir_all(&old.dir);
        }
        let t = if k == 0 {
            ctx.process_start
        } else {
            Instant::now()
        };
        match set_up(ctx, k, &mut report) {
            Ok(s) => server = Some(s),
            Err(e) => {
                report.wrong.push(format!("set-up: {e}"));
                return report;
            }
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("set up at least once");
    report.set("setup_s", stats::median(&setups), setups.len());
    let addr = server.handle.local_addr();
    let schedule = catalogue::serve_schedule(ctx.seed, RATE, ctx.seconds);
    let dues: Vec<f64> = schedule.iter().map(|a| a.due_s).collect();

    // ---- Measured phase -------------------------------------------------
    let before = scrape(addr);
    let started = Instant::now();
    let results = open_loop(
        &dues,
        CLIENTS,
        REQUESTS_PER_CONNECTION,
        || LoadClient::connect(addr).expect("connect to the local server"),
        |client, i| {
            let a = &schedule[i];
            let (status, value) = send(client, a.tenant, &a.request);
            let server_ms = value
                .get("elapsed_ms")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            (status, value, server_ms)
        },
    );
    let elapsed = results
        .iter()
        .map(|t| t.done)
        .max()
        .map_or(0.0, |end| (end - started).as_secs_f64());
    let after = scrape(addr);
    let measured_s = started.elapsed().as_secs_f64();
    // Time the traced run spends on its own bookkeeping: the solution
    // reads below, building spans, and the decomposition after the run.
    let mut trace_work = Duration::ZERO;
    let mut read_lookups = None;
    if ctx.trace {
        // The production mix has no `GET /v1/solution` reads, so the
        // lookup histogram is filled here, after the open loop, by reads
        // of the hit set.
        let t0 = Instant::now();
        if let Ok(mut client) = Client::connect(addr) {
            for _ in 0..READS_PER_HIT {
                for (spec, fp) in catalogue::hit_set().iter().zip(&server.fps) {
                    let read = client.request_with_headers(
                        "GET",
                        &format!("/v1/solution/{fp}"),
                        None,
                        &[],
                    );
                    match read {
                        Ok((200, _, value)) => {
                            if let Err(e) = check_entry(spec, &value, ctx) {
                                report.wrong.push(e);
                            }
                        }
                        other => report
                            .wrong
                            .push(format!("read of {}: {other:?}", spec.key())),
                    }
                }
            }
        }
        let reads = scrape(addr);
        let count = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
        let n = count(&reads, "serve_lookup_latency_seconds_count")
            - count(&after, "serve_lookup_latency_seconds_count");
        let sum = count(&reads, "serve_lookup_latency_seconds_sum")
            - count(&after, "serve_lookup_latency_seconds_sum");
        if n > 0.0 {
            read_lookups = Some((sum / n * 1e3, n as usize));
        }
        trace_work += t0.elapsed();
    }
    server.stop();

    // ---- Oracle and end-to-end figures ---------------------------------
    let mut all = Vec::new();
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut server_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut good = 0usize;
    let mut tr = Tracer::new(ctx.process_start, ctx.trace);
    let mut cold_done: Vec<(Spec, Value)> = Vec::new();
    for t in &results {
        let arrival = &schedule[t.index];
        let (status, value, srv) = &t.out;
        report.attempted += 1;
        let latency = t.latency_ms();
        let ok = match check_response(arrival, *status, value, ctx) {
            Ok(ok) => ok,
            Err(e) => {
                report.wrong.push(e);
                false
            }
        };
        let class = arrival.request.class();
        if !ok {
            // A failed or refused request misses every latency limit: it
            // counts as lasting the whole run.
            report.failed += 1;
            all.push(ctx.seconds * 1e3);
            if class == "cold" {
                by_class.entry(class).or_default().push(ctx.seconds * 1e3);
            }
            continue;
        }
        all.push(latency);
        by_class.entry(class).or_default().push(latency);
        server_ms.entry(class).or_default().push(*srv);
        if latency <= LATENCY_LIMIT_MS {
            good += 1;
        }
        if let Request::Cold(spec) = &arrival.request {
            cold_done.push((spec.clone(), value.clone()));
        }
        if ctx.trace {
            let t0 = Instant::now();
            let op = t.index as u64;
            let root = tr.record("serve.op", None, op, t.due, t.done);
            let rt = tr.record("client.round_trip", root, op, t.sent, t.done);
            let srv = Duration::from_secs_f64(srv / 1e3).min(t.done - t.sent);
            tr.record("serve.server", rt, op, t.done - srv, t.done);
            trace_work += t0.elapsed();
        }
    }
    report.set_latency("p50_ms", "tail_ms", &all);
    let cold = by_class.get("cold").cloned().unwrap_or_default();
    report.set_latency("cold_p50_ms", "cold_tail_ms", &cold);
    report.set("ops_per_s", good as f64 / elapsed.max(1e-9), good);
    let ratios: Vec<f64> = results
        .iter()
        .filter(|t| t.out.0 == 200)
        .filter_map(|t| {
            let spec = match &schedule[t.index].request {
                Request::Hit(s) | Request::Cold(s) => s.clone(),
                Request::Batch(_) => return None,
            };
            let w = t.out.1.get("weight").and_then(Value::as_f64)?;
            Some(w / fermihedral::descent::bravyi_kitaev_bound(&spec.problem()) as f64)
        })
        .collect();
    report.set("weight_vs_bk", stats::geomean(&ratios), ratios.len());

    let lates: Vec<f64> = results.iter().map(Timed::late_ms).collect();
    report.notes.push(format!(
        "open loop: {} requests at {RATE}/s over {:.2} s, {CLIENTS} connections; \
         generator lateness p50 {:.3} ms, max {:.3} ms, {} sent >1 ms late",
        results.len(),
        elapsed,
        stats::median(&lates),
        lates.iter().copied().fold(0.0, f64::max),
        lates.iter().filter(|&&l| l > 1.0).count()
    ));
    for (class, v) in &by_class {
        report.notes.push(format!(
            "class {class}: {} ok, p50 {:.3} ms, tail {:.3} ms",
            v.len(),
            stats::median(v),
            stats::tail(v).value
        ));
    }

    if ctx.trace {
        let delta = |name: &str| after.get(name).unwrap_or(&0.0) - before.get(name).unwrap_or(&0.0);
        let mean_ms = |family: &str| {
            let n = delta(&format!("{family}_count"));
            (n > 0.0).then(|| (delta(&format!("{family}_sum")) / n * 1e3, n as usize))
        };
        if let Some((v, n)) = mean_ms("serve_queue_wait_seconds") {
            report.set("serve.queue_wait_ms", v, n);
        }
        if let Some((v, n)) = read_lookups {
            report.set("serve.lookup_ms", v, n);
        }
        let n = results.len();
        report.set(
            "serve.rejected",
            delta("serve_queue_rejections_total") + delta("serve_tenant_rejections_total"),
            n,
        );
        report.set(
            "serve.coalesced",
            delta("serve_coalesced_requests_total"),
            n,
        );
        report.set(
            "serve.journal_appends",
            delta("serve_journal_appends_total"),
            n,
        );
        let hits = delta("serve_cache_fast_path_total")
            + ["optimal", "warm_start", "cross_size"]
                .iter()
                .map(|k| delta(&format!("serve_cache_hits_total{{kind=\"{k}\"}}")))
                .sum::<f64>();
        let probes = hits + delta("serve_cache_misses_total");
        if probes > 0.0 {
            report.set("cache.hit_ratio", hits / probes, probes as usize);
        }
        report.set_median(
            "serve.http_ms",
            tr.self_times_ms()
                .get("client.round_trip")
                .map_or(&[][..], |v| &v[..]),
        );
        report.set_median(
            "serve.server_hit_ms",
            server_ms.get("hit").map_or(&[][..], |v| &v[..]),
        );
        report.set_median(
            "serve.server_cold_ms",
            server_ms.get("cold").map_or(&[][..], |v| &v[..]),
        );
        report.set_median(
            "serve.hit_p50_ms",
            by_class.get("hit").map_or(&[][..], |v| &v[..]),
        );
        let t0 = Instant::now();
        decompose(ctx, &mut report, &mut tr, &server, &cold_done);
        trace_work += t0.elapsed();
        // The open loop runs the same in both runs (its spans are built
        // from timestamps afterwards), so the overhead is the traced
        // run's extra wall time per request.
        let n = results.len().max(1) as f64;
        layers::set_trace_metrics(
            &mut report,
            &tr,
            (measured_s + trace_work.as_secs_f64()) / n,
            measured_s / n,
            results.len(),
        );
        report.tracer = Some(tr);
    }
    let _ = std::fs::remove_dir_all(&server.dir);
    report
}

/// After the run: the in-process layers under the served traffic, each
/// timed around its public call — fingerprint and validation on the hit
/// set, cache lookup against the server's cache directory, cache store
/// of the cold results, and a decomposed compile of some cold problems.
fn decompose(
    ctx: &Ctx,
    report: &mut Report,
    tr: &mut Tracer,
    server: &Server,
    cold: &[(Spec, Value)],
) {
    let op = u64::MAX;
    let root = tr.open("decompose", None, op);
    let hits = catalogue::hit_set();
    for spec in &hits {
        let problem = spec.problem();
        for _ in 0..10 {
            tr.time("engine.fingerprint", root, op, || {
                std::hint::black_box(engine::fingerprint(std::hint::black_box(&problem)))
            });
        }
    }
    if let Ok(cache) = SolutionCache::open(server.dir.join("cache")) {
        let mut lookups = Vec::new();
        for fp in server.fps.iter().filter_map(|h| Fingerprint::from_hex(h)) {
            for _ in 0..5 {
                let t = Instant::now();
                let entry = std::hint::black_box(cache.lookup(&fp));
                lookups.push(t.elapsed().as_secs_f64() * 1e6);
                tr.record("engine.cache.lookup", root, op, t, Instant::now());
                if let Some(entry) = entry {
                    let strings: Vec<String> =
                        entry.strings.iter().map(|s| s.to_string()).collect();
                    layers::validate_text(tr, root, op, &strings);
                }
            }
        }
        report.set_median("cache.lookup_us", &lookups);
    }
    let scratch = ctx.tmp.join("store-probe");
    if let Ok(cache) = SolutionCache::open(&scratch) {
        let mut stores = Vec::new();
        for (spec, value) in cold.iter().take(64) {
            let strings = strings_of(value)
                .iter()
                .filter_map(|s| s.parse().ok())
                .collect();
            let entry = CacheEntry {
                strings,
                weight: value.get("weight").and_then(Value::as_usize).unwrap_or(0),
                optimal: true,
                strategy: "perfbench".into(),
            };
            let fp = engine::fingerprint(&spec.problem());
            let t = Instant::now();
            let _ = cache.store(&fp, &entry);
            stores.push(t.elapsed().as_secs_f64() * 1e6);
            tr.record("engine.cache.store", root, op, t, Instant::now());
        }
        report.set_median("cache.store_us", &stores);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let mut decomp = Vec::new();
    let mut races: Vec<RaceFigures> = Vec::new();
    let config = EngineConfig {
        total_timeout: Some(Duration::from_secs(10)),
        ..EngineConfig::default()
    };
    for (spec, _) in cold.iter().take(DECOMPOSE) {
        let t0 = Instant::now();
        let outcome = engine::compile(&spec.problem(), &config);
        let returned_ms = t0.elapsed().as_secs_f64() * 1e3;
        tr.record("engine.compile", root, op, t0, Instant::now());
        races.push(layers::race_figures(
            &outcome.report,
            returned_ms,
            outcome.optimal_proved.then(|| outcome.weight()).flatten(),
        ));
        decomp.push(layers::decompose(tr, root, op, spec, None));
    }
    tr.close(root);

    layers::set_compile_path_metrics(report, tr, &decomp, &races);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_reports_its_lateness() {
        // Twenty requests due 1 ms apart, one sender, each taking 5 ms:
        // the sender falls behind, so later requests go out late and
        // their latency (from due time) includes the wait.
        let dues: Vec<f64> = (0..20).map(|i| i as f64 * 1e-3).collect();
        let out = open_loop(
            &dues,
            1,
            40,
            || (),
            |_, _| std::thread::sleep(Duration::from_millis(5)),
        );
        assert_eq!(out.len(), 20);
        assert!(out[0].late_ms() < 5.0);
        let last = &out[19];
        assert!(last.late_ms() >= 60.0, "late {}", last.late_ms());
        assert!(last.latency_ms() >= last.late_ms() + 5.0);
        // A sender that keeps up does not accumulate lateness (the bound
        // is loose: other tests share the cores).
        let dues: Vec<f64> = (0..20).map(|i| i as f64 * 5e-3).collect();
        let out = open_loop(&dues, 2, 40, || (), |_, _| ());
        assert!(out.iter().all(|t| t.late_ms() < 30.0));
    }

    #[test]
    fn open_loop_moves_to_the_standby_connection_every_n_requests() {
        // Connections are numbered in the order they are opened; the
        // standby is opened with the first, and a new standby at each
        // move.
        let opened = AtomicUsize::new(0);
        let dues = vec![0.0; 12];
        let out = open_loop(
            &dues,
            1,
            5,
            || opened.fetch_add(1, Ordering::Relaxed),
            |conn, _| *conn,
        );
        let used: Vec<usize> = out.iter().map(|t| t.out).collect();
        assert_eq!(used, [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2]);
        assert_eq!(opened.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn prometheus_lines_parse_by_full_name() {
        // The scrape keys are full sample names, labels included.
        let text = "# TYPE x counter\nserve_x_total 3\nserve_h_seconds_sum 0.5\nserve_c{kind=\"optimal\"} 2";
        let out = parse_exposition(text);
        assert_eq!(out.len(), 3);
        assert_eq!(out["serve_c{kind=\"optimal\"}"], 2.0);
        assert_eq!(out["serve_h_seconds_sum"], 0.5);
    }
}
