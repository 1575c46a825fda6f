//! The one race loop every shard transport runs: a seat table fed by
//! per-link reader threads, whatever opened the link.
//!
//! A *link* is one worker's pair of byte streams. Pipe races open links
//! by spawning `fermihedral-shard worker` processes
//! ([`crate::coordinator`]); the TCP fleet opens them by accepting
//! connections ([`crate::fleet`]). From there on both run the same code:
//!
//! * [`serve_link`]: the `Hello`/`Welcome` handshake, registration in the
//!   [`Registry`], a writer thread draining a bounded outbox onto the
//!   link, and a reader loop that echoes heartbeats and hands every other
//!   frame to the race as a [`SeatEvent`];
//! * [`SeatTable::run`]: arming, echo-free forwarding, bound/floor/result
//!   decisions, traces, black boxes, incumbents, deadline/cancel/kill
//!   grace and liveness;
//! * [`SeatTable::finish`]: post-mortems and the validated merge.
//!
//! What stays per transport is opening a link, severing it
//! ([`Link::sever`]), how long a dropped seat is held for a rejoin
//! ([`RacePolicy::rejoin_window`]: zero for pipes, which cannot rejoin),
//! and, for spawned workers, the post-race reap that settles verdicts by
//! exit status.
//!
//! # Echo-free clause forwarding
//!
//! A clause arriving from shard `s` is forwarded to every *other* armed
//! seat, never back to `s` ([`sat::wire::RemoteClause::shard`] is
//! overwritten with the observed sender, so even a confused worker
//! cannot loop its own clauses). Inside each worker the injected clause
//! lands with the bridge lane as its `source`, which the bridge never
//! drains back out — the two halves of the no-echo guarantee. A seat
//! that has not been sent its `Job` gets no race traffic at all: a
//! worker still waiting for its job treats anything but `Cancel` as a
//! protocol violation.
//!
//! # Certification across processes
//!
//! An UNSAT certificate is a property of the shared formula, so a
//! `Floor(f)` from any shard bounds every shard. The loop merges floors
//! (max) and incumbent weights (min); the moment they meet, the race is
//! decided and every seat gets one `Cancel`. The winning strings arrive
//! with the terminal `Result` frames, or with the `Incumbent` frames that
//! ship each improvement so a dying finder cannot take the only copy.
//!
//! # Crash containment
//!
//! A worker that dies (EOF without a `Result`), goes silent past the
//! heartbeat deadline, breaks protocol, or reports an encoding that
//! fails validation is marked **dead** in [`engine::ShardReport`] and
//! the race degrades to the survivors.
//!
//! # Post-mortems
//!
//! Workers checkpoint their flight-recorder ring over `BlackBox` frames
//! (always on, best-effort, latest-wins). When a worker dies and a
//! post-mortem directory is configured (the transport's option, or
//! `FERMIHEDRAL_POSTMORTEM_DIR`), the last checkpoint, the job context,
//! the wire counters and, for a spawned worker, the reaped exit status
//! are folded into `<dir>/postmortem-<shard>.json`.

use crate::proto::{BlackBoxCheckpoint, IncumbentUpdate, Job, ShardResult};
use engine::{
    validated_weight, CacheEntry, CacheStatus, EngineConfig, EngineOutcome, EngineReport,
    ShardReport, Strategy, WorkerReport,
};
use fermihedral::descent::BestEncoding;
use fermihedral::EncodingProblem;
use jsonkit::{obj, Value};
use sat::wire::{
    read_frame_counted, write_frame, Frame, FrameIoError, FrameRead, RemoteClause, HELLO_ANY_SHARD,
    PROTOCOL_VERSION,
};
use sat::CancelToken;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Extra wall-clock past the configured timeout before the coordinator
/// broadcasts `Cancel` itself (workers enforce the timeout first).
const CANCEL_GRACE: Duration = Duration::from_millis(500);

/// Extra wall-clock past the cancel broadcast before links that ignored
/// it are severed.
const KILL_GRACE: Duration = Duration::from_secs(5);

/// Per-link outgoing queue depth. Frames beyond it are dropped (counted
/// in `wire_frames_dropped_total` and the seat's report) rather than
/// letting one slow worker head-of-line-block the race; `Welcome` and
/// `Job` always enter an empty queue.
const OUTBOX_DEPTH: usize = 1024;

/// How long an accepted connection may sit in the handshake (no
/// `Hello`) before it is dropped. A spawned worker's blocking pipe never
/// times out a read, so its handshake ends only with a frame or EOF.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(5);

/// How long a waiting race blocks without an event before it re-checks
/// its deadline and the external cancel token.
pub(crate) const LOOP_TICK: Duration = Duration::from_millis(20);

/// How a race forces a link down (liveness kill, kill grace, server
/// shutdown). Severing a link makes its reader see EOF.
pub(crate) enum Link {
    /// An accepted TCP connection: shut down both directions.
    Socket(TcpStream),
    /// A spawned worker process: kill it (the pipe coordinator reaps it).
    Process(Arc<Mutex<Child>>),
}

impl Link {
    pub(crate) fn sever(&self) {
        match self {
            Link::Socket(stream) => {
                let _ = stream.shutdown(Shutdown::Both);
            }
            Link::Process(child) => {
                let _ = child.lock().unwrap().kill();
            }
        }
    }
}

/// One seat's link state, owned by the registry: the link threads
/// update it, the race loop reads it under the registry lock.
struct PeerSlot {
    /// Outbox into the link's writer thread; `None` while no link is up.
    tx: Option<mpsc::SyncSender<Frame>>,
    /// Between a completed handshake and the link's EOF.
    connected: bool,
    /// Bumped on every rejoin; events from an earlier link carry the old
    /// value and are discarded.
    generation: u64,
    /// Milliseconds since the registry's epoch at the last received frame.
    last_rx_ms: Arc<AtomicU64>,
    link: Option<Link>,
    dropped: Arc<telemetry::Counter>,
}

impl PeerSlot {
    fn new(shard: usize, link: Option<Link>) -> PeerSlot {
        PeerSlot {
            tx: None,
            connected: false,
            generation: 0,
            last_rx_ms: Arc::new(AtomicU64::new(0)),
            link,
            dropped: wire_dropped_counter("tx", shard),
        }
    }
}

/// What the link threads report into the race loop.
pub(crate) enum SeatEvent {
    /// Handshake complete; `rejoin` when the link reclaimed a seat an
    /// earlier link of the same worker held.
    Joined { shard: usize, rejoin: bool },
    Frame {
        shard: usize,
        generation: u64,
        frame: Frame,
        /// Arrival time, for the loop's forwarding-latency histogram.
        at: Instant,
    },
    /// The link closed (EOF, read error, severed, or a failed handshake
    /// of a spawned worker).
    Gone { shard: usize, generation: u64 },
}

/// The seats a coordinator knows, whoever opened their links. A pipe
/// race owns one for its lifetime; a fleet server keeps one across races.
pub(crate) struct Registry {
    peers: Mutex<Vec<PeerSlot>>,
    events_tx: mpsc::Sender<SeatEvent>,
    /// Held by whichever race is running; idle between races.
    events_rx: Mutex<mpsc::Receiver<SeatEvent>>,
    epoch: Instant,
    pub(crate) shutdown: AtomicBool,
}

impl Registry {
    pub(crate) fn new() -> Registry {
        let (events_tx, events_rx) = mpsc::channel();
        Registry {
            peers: Mutex::new(Vec::new()),
            events_tx,
            events_rx: Mutex::new(events_rx),
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
        }
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// The event stream, held for the duration of one race.
    pub(crate) fn events(&self) -> MutexGuard<'_, mpsc::Receiver<SeatEvent>> {
        self.events_rx.lock().unwrap()
    }

    /// Seats whose links are through the handshake and still open.
    pub(crate) fn connected(&self) -> Vec<usize> {
        let peers = self.peers.lock().unwrap();
        (0..peers.len()).filter(|&s| peers[s].connected).collect()
    }

    pub(crate) fn seat_count(&self) -> usize {
        self.peers.lock().unwrap().len()
    }

    /// Reserves the next seat for a worker about to say `Hello` on a link
    /// its transport opened (a spawned process); returns the seat.
    pub(crate) fn reserve(&self, link: Option<Link>) -> usize {
        let mut peers = self.peers.lock().unwrap();
        let shard = peers.len();
        peers.push(PeerSlot::new(shard, link));
        shard
    }

    /// Severs every link (server shutdown).
    pub(crate) fn sever_all(&self) {
        for peer in self.peers.lock().unwrap().iter() {
            if let Some(link) = &peer.link {
                link.sever();
            }
        }
    }

    /// Drops every outbox: each writer thread ends and closes its link's
    /// sending half, which a spawned worker reads as EOF on stdin.
    pub(crate) fn close_outboxes(&self) {
        for peer in self.peers.lock().unwrap().iter_mut() {
            peer.tx = None;
        }
    }

    /// Seats a `Hello`: the reserved seat of a spawned worker, a seat
    /// the worker held before (a rejoin), or a new one. `Welcome` is
    /// queued before the outbox is published, so it is the link's first
    /// frame whatever the race sends.
    fn register(
        &self,
        requested: u32,
        spawned: Option<usize>,
        outbox: mpsc::SyncSender<Frame>,
        link: Option<Link>,
        last_rx_ms: Arc<AtomicU64>,
    ) -> (usize, bool, u64) {
        let mut peers = self.peers.lock().unwrap();
        let reclaimed = spawned.or_else(|| {
            (requested != HELLO_ANY_SHARD)
                .then_some(requested as usize)
                .filter(|&s| s < peers.len() && !peers[s].connected)
        });
        let rejoin = reclaimed.is_some() && spawned.is_none();
        let shard = reclaimed.unwrap_or_else(|| {
            let shard = peers.len();
            peers.push(PeerSlot::new(shard, None));
            shard
        });
        let _ = outbox.try_send(Frame::Welcome {
            shard: shard as u32,
            protocol: PROTOCOL_VERSION,
        });
        let slot = &mut peers[shard];
        slot.generation += u64::from(rejoin);
        slot.tx = Some(outbox);
        slot.connected = true;
        slot.last_rx_ms = last_rx_ms;
        if link.is_some() {
            slot.link = link;
        }
        (shard, rejoin, slot.generation)
    }

    /// The link of `generation` closed: free the seat for a rejoin (the
    /// race decides whether and when the seat is *dead*).
    fn disconnect(&self, shard: usize, generation: u64) {
        let mut peers = self.peers.lock().unwrap();
        let slot = &mut peers[shard];
        if slot.generation == generation {
            slot.connected = false;
            slot.tx = None;
            slot.link = None;
        }
    }

    /// Best-effort send on the outbox of `shard`'s current link.
    fn echo(&self, shard: usize, generation: u64, frame: Frame) {
        let peers = self.peers.lock().unwrap();
        if let Some(tx) = peers
            .get(shard)
            .filter(|p| p.generation == generation)
            .and_then(|p| p.tx.as_ref())
        {
            let _ = tx.try_send(frame);
        }
    }
}

/// Runs one link once its transport has opened it: the `Hello`/`Welcome`
/// handshake, registration, the outbox writer thread, then frames into
/// the race until the link closes. `spawned` names the seat reserved for
/// a spawned worker; `None` (an accepted connection) seats the worker at
/// `Hello` time. `link` is how the race severs an accepted connection
/// (a spawned worker's was given to [`Registry::reserve`]).
///
/// `read` yields the link's next frame: a [`sat::wire::FrameReader`]
/// over a socket with a read timeout, or [`blocking_frames`] over a
/// pipe, which never times out a read.
pub(crate) fn serve_link(
    registry: &Registry,
    mut read: impl FnMut() -> Result<FrameRead, FrameIoError>,
    output: impl Write + Send + 'static,
    link: Option<Link>,
    spawned: Option<usize>,
    peer: &str,
) {
    let deadline = Instant::now() + HANDSHAKE_DEADLINE;
    let hello = loop {
        if Instant::now() >= deadline || registry.shutdown.load(Ordering::Relaxed) {
            break None;
        }
        match read() {
            Ok(FrameRead::Frame {
                frame: Frame::Hello { shard, protocol },
                ..
            }) => break Some((shard, protocol)),
            Ok(FrameRead::Idle) => continue,
            // Anything that isn't a Hello is not a worker.
            Ok(FrameRead::Frame { .. }) | Ok(FrameRead::Eof) | Err(_) => break None,
        }
    };
    let requested = match hello {
        Some((requested, PROTOCOL_VERSION)) => requested,
        rejected => {
            if let Some((_, protocol)) = rejected {
                telemetry::log_warn!(
                    "shard.coordinator",
                    "rejecting worker: protocol mismatch",
                    peer = peer,
                    worker_protocol = protocol,
                    coordinator_protocol = PROTOCOL_VERSION,
                );
                // Send our own version so the worker can log *why* and
                // give up instead of reconnect-looping.
                let mut output = output;
                let _ = write_frame(
                    &mut output,
                    &Frame::Welcome {
                        shard: HELLO_ANY_SHARD,
                        protocol: PROTOCOL_VERSION,
                    },
                )
                .and_then(|()| output.flush());
            }
            // A spawned worker's seat exists already: it is gone.
            if let Some(shard) = spawned {
                if let Some(link) = &registry.peers.lock().unwrap()[shard].link {
                    link.sever();
                }
                let _ = registry.events_tx.send(SeatEvent::Gone {
                    shard,
                    generation: 0,
                });
            }
            return;
        }
    };

    let (outbox, drain) = mpsc::sync_channel::<Frame>(OUTBOX_DEPTH);
    let last_rx_ms = Arc::new(AtomicU64::new(registry.now_ms()));
    let (shard, rejoin, generation) =
        registry.register(requested, spawned, outbox, link, last_rx_ms.clone());
    telemetry::log_info!(
        "shard.coordinator",
        "worker registered",
        shard = shard,
        peer = peer,
        rejoin = rejoin,
    );
    // The only place that blocks on the link's sending half. It ends when
    // every outbox sender is gone (the seat disconnected, or the race
    // closed the outboxes) or the link breaks.
    std::thread::spawn(move || {
        let mut output = output;
        let mut meter = WireMeter::new("tx", shard);
        while let Ok(frame) = drain.recv() {
            let bytes = match frame.to_bytes() {
                Ok(bytes) => bytes,
                Err(e) => {
                    // Encode-time cap enforcement: shed the oversized
                    // best-effort frame instead of letting the peer tear
                    // down the link.
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
            if output
                .write_all(&bytes)
                .and_then(|()| output.flush())
                .is_err()
            {
                return;
            }
        }
    });
    let _ = registry.events_tx.send(SeatEvent::Joined { shard, rejoin });

    let mut meter = WireMeter::new("rx", shard);
    while !registry.shutdown.load(Ordering::Relaxed) {
        match read() {
            Ok(FrameRead::Frame { frame, wire_bytes }) => {
                meter.record(frame.kind(), wire_bytes);
                last_rx_ms.store(registry.now_ms(), Ordering::Relaxed);
                if let Frame::Heartbeat { seq } = frame {
                    // Echo so the worker can measure *our* liveness too.
                    registry.echo(shard, generation, Frame::Heartbeat { seq });
                    continue;
                }
                let event = SeatEvent::Frame {
                    shard,
                    generation,
                    frame,
                    at: Instant::now(),
                };
                if registry.events_tx.send(event).is_err() {
                    break;
                }
            }
            Ok(FrameRead::Idle) => continue,
            Ok(FrameRead::Eof) | Err(_) => break,
        }
    }
    registry.disconnect(shard, generation);
    let _ = registry
        .events_tx
        .send(SeatEvent::Gone { shard, generation });
    telemetry::log_info!("shard.coordinator", "worker disconnected", shard = shard);
}

/// The frame source of a blocking stream (a spawned worker's stdout):
/// exact frame reads through a small buffer, so a burst of clause frames
/// costs one read call, not two per frame. (A [`sat::wire::FrameReader`]
/// would also do, but it zero-fills a 64 KiB chunk per refill and grows
/// to hundreds of KiB per link.)
pub(crate) fn blocking_frames(input: impl Read) -> impl FnMut() -> Result<FrameRead, FrameIoError> {
    let mut input = std::io::BufReader::new(input);
    move || {
        Ok(match read_frame_counted(&mut input)? {
            Some((frame, wire_bytes)) => FrameRead::Frame { frame, wire_bytes },
            None => FrameRead::Eof,
        })
    }
}

/// Per-direction, per-peer wire telemetry: frame counts by type and
/// total bytes, recorded into the process-wide metric set. Counter
/// handles are cached per link thread so the hot path never re-resolves
/// names. (Aggregate gates sum by name prefix, so the peer label refines
/// without breaking them.)
struct WireMeter {
    dir: &'static str,
    peer: usize,
    bytes: Arc<telemetry::Counter>,
    frames: Vec<(&'static str, Arc<telemetry::Counter>)>,
}

impl WireMeter {
    fn new(dir: &'static str, peer: usize) -> WireMeter {
        WireMeter {
            dir,
            peer,
            bytes: telemetry::global().metrics().counter(&format!(
                "wire_bytes_total{{dir=\"{dir}\",peer=\"{peer}\"}}"
            )),
            frames: Vec::new(),
        }
    }

    fn record(&mut self, kind: &'static str, bytes: usize) {
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
fn wire_dropped_counter(dir: &'static str, peer: usize) -> Arc<telemetry::Counter> {
    telemetry::global().metrics().counter(&format!(
        "wire_frames_dropped_total{{dir=\"{dir}\",peer=\"{peer}\"}}"
    ))
}

/// What differs between transports once their links are open.
pub(crate) struct RacePolicy {
    /// A connected seat silent (not even heartbeats) this long is
    /// declared dead and its link severed.
    pub(crate) heartbeat_deadline: Duration,
    /// How long a seat whose link dropped mid-race is held for a rejoin
    /// before it is declared dead: zero for pipes, which cannot rejoin.
    pub(crate) rejoin_window: Duration,
    /// How many recently forwarded clauses are replayed to a seat armed
    /// mid-race (a late joiner or a rejoin).
    pub(crate) clause_digest: usize,
}

/// One race seat: a shard id's contribution, whichever links carried it.
pub(crate) struct Seat {
    pub(crate) report: ShardReport,
    pub(crate) result: Option<ShardResult>,
    /// Latest `BlackBox` checkpoint payload — each shipment replaces the
    /// last, so a death always leaves the freshest ring behind.
    black_box: Option<Vec<u8>>,
    /// The seat's lane assignment: sent, or while `pending`, planned.
    job: Option<Job>,
    /// Spawned but not yet through the handshake: it gates completion,
    /// gets no race traffic, and is armed with its planned job on joining.
    pending: bool,
    /// Mid-race disconnect time; cleared on rejoin, promoted to `dead`
    /// once the rejoin window passes without one.
    missing_since: Option<Instant>,
    /// A late joiner took over this dead seat's lanes.
    orphan_claimed: bool,
    /// Disconnected (or joined) after `Cancel`: resultless by design, not
    /// a death — and no longer gating the race's completion.
    wound_down: bool,
    /// The link's reader reported EOF; for a spawned worker, its stdout
    /// closed, so it is exiting.
    pub(crate) closed: bool,
    /// Exit status as reaped (spawned workers only).
    pub(crate) exit_status: Option<String>,
    lag: Arc<telemetry::Gauge>,
}

impl Seat {
    fn new(shard: usize) -> Seat {
        Seat {
            report: ShardReport {
                shard,
                ..ShardReport::default()
            },
            result: None,
            black_box: None,
            job: None,
            pending: false,
            missing_since: None,
            orphan_claimed: false,
            wound_down: false,
            closed: false,
            exit_status: None,
            lag: telemetry::global()
                .metrics()
                .gauge(&format!("fleet_heartbeat_lag_ms{{shard=\"{shard}\"}}")),
        }
    }

    /// Accounted seats no longer gate the race's completion.
    fn accounted(&self) -> bool {
        self.result.is_some() || self.report.dead || self.job.is_none() || self.wound_down
    }

    /// Armed with a job and still owing a result: eligible for race traffic.
    fn racing(&self) -> bool {
        !self.pending && !self.accounted()
    }
}

/// The lightest validated wire-shipped incumbent of a race: measured
/// weight, the encoding, the lane that found it, and the shard that
/// shipped it.
type WireIncumbent = (usize, Vec<pauli::PauliString>, String, usize);

/// One race's state on the coordinator side: the seat table plus the
/// race-global bound, floor and incumbent.
pub(crate) struct SeatTable<'a> {
    registry: &'a Registry,
    problem: &'a EncodingProblem,
    config: &'a EngineConfig,
    fp_hex: &'a str,
    warm_start: Option<&'a CacheEntry>,
    policy: RacePolicy,
    /// Lane partition; a joining seat without a job of its own takes
    /// part `shard % parts.len()`.
    parts: Vec<Vec<Strategy>>,
    pub(crate) seats: Vec<Seat>,
    /// Lightest weight any shard (or the warm-start entry) established;
    /// strictly-better updates are forwarded to peers.
    best_bound: usize,
    /// Raw floor claims steer the race (early cancel); the final
    /// certificate only trusts claims consistent with a validated
    /// encoding — see [`merge_results`].
    floor: usize,
    floor_claims: Vec<usize>,
    wire_best: Option<WireIncumbent>,
    cancel_sent_at: Option<Instant>,
    digest: VecDeque<RemoteClause>,
}

impl<'a> SeatTable<'a> {
    pub(crate) fn new(
        registry: &'a Registry,
        problem: &'a EncodingProblem,
        config: &'a EngineConfig,
        fp_hex: &'a str,
        warm_start: Option<&'a CacheEntry>,
        policy: RacePolicy,
        parts: Vec<Vec<Strategy>>,
    ) -> SeatTable<'a> {
        SeatTable {
            registry,
            problem,
            config,
            fp_hex,
            warm_start,
            policy,
            parts,
            seats: Vec::new(),
            best_bound: warm_start.map_or(usize::MAX, |e| e.weight),
            floor: 0,
            floor_claims: Vec::new(),
            wire_best: None,
            cancel_sent_at: None,
            digest: VecDeque::new(),
        }
    }

    /// Opens the next seat, planned to run the next lane part once its
    /// worker joins.
    pub(crate) fn add_pending(&mut self) -> &mut Seat {
        let shard = self.seats.len();
        let lanes = &self.parts[shard % self.parts.len()];
        let mut seat = Seat::new(shard);
        seat.report.lanes = lanes.len();
        seat.job = Some(self.make_job(shard, lanes));
        seat.pending = true;
        self.seats.push(seat);
        &mut self.seats[shard]
    }

    /// Opens idle seats up to `count` (fleet seats not in this race).
    pub(crate) fn add_idle(&mut self, count: usize) {
        while self.seats.len() < count {
            self.seats.push(Seat::new(self.seats.len()));
        }
    }

    fn make_job(&self, shard: usize, lanes: &[Strategy]) -> Job {
        Job {
            shard,
            total_shards: self.parts.len(),
            fingerprint: self.fp_hex.to_string(),
            problem: self.problem.clone(),
            strategies: lanes.to_vec(),
            total_timeout: self.config.total_timeout,
            conflict_budget_per_call: self.config.conflict_budget_per_call,
            persist_on_budget: self.config.persist_on_budget,
            clause_sharing: self.config.clause_sharing,
            max_concurrency: self.config.max_concurrency,
            warm_hint: self.warm_start.map(|e| e.strings.clone()),
            // Recording on in this process → ask workers to record too,
            // under the run's fingerprint as the context id.
            trace_id: telemetry::global()
                .is_enabled()
                .then(|| self.fp_hex.to_string()),
        }
    }

    /// Queues a frame on a seat's outbox without blocking. A full outbox
    /// (a worker not draining) drops the frame — clause and bound sharing
    /// is best-effort — and counts it against the seat.
    fn send(&mut self, shard: usize, frame: &Frame) -> bool {
        let peers = self.registry.peers.lock().unwrap();
        let Some(slot) = peers.get(shard) else {
            return false;
        };
        let Some(tx) = slot.tx.as_ref() else {
            return false;
        };
        match tx.try_send(frame.clone()) {
            Ok(()) => true,
            Err(mpsc::TrySendError::Full(_)) => {
                slot.dropped.inc();
                self.seats[shard].report.frames_dropped += 1;
                false
            }
            Err(mpsc::TrySendError::Disconnected(_)) => false,
        }
    }

    /// Arms a seat with lane part `part` (a race's first fleet seats).
    pub(crate) fn arm_part(&mut self, shard: usize, part: usize) {
        let lanes = self.parts[part].clone();
        self.arm(shard, &lanes);
    }

    /// Arms a seat: job, current bound, digest replay. The same for a
    /// race's first seats, late joiners, and rejoins.
    fn arm(&mut self, shard: usize, lanes: &[Strategy]) {
        let job = self.make_job(shard, lanes);
        self.send(shard, &Frame::Job(job.to_bytes()));
        let seat = &mut self.seats[shard];
        seat.job = Some(job);
        seat.pending = false;
        seat.report.lanes = lanes.len();
        if self.best_bound != usize::MAX {
            self.send(shard, &Frame::Bound(self.best_bound as u64));
        }
        let replay: Vec<Frame> = self
            .digest
            .iter()
            .filter(|c| c.shard as usize != shard)
            .map(|c| Frame::Clause(c.clone()))
            .collect();
        for frame in &replay {
            self.send(shard, frame);
        }
    }

    /// Broadcasts `Cancel` to every seat, once per race.
    fn cancel(&mut self) {
        if self.cancel_sent_at.is_some() {
            return;
        }
        self.cancel_sent_at = Some(Instant::now());
        for shard in 0..self.seats.len() {
            self.send(shard, &Frame::Cancel);
        }
    }

    /// The incumbent meets the proved floor: decided.
    fn cancel_if_decided(&mut self) {
        if self.floor != 0 && self.best_bound <= self.floor {
            self.cancel();
        }
    }

    fn claim_floor(&mut self, floor: usize) {
        self.floor = self.floor.max(floor);
        self.floor_claims.push(floor);
    }

    /// Whether an event of `generation` comes from `shard`'s current link.
    fn current(&self, shard: usize, generation: u64) -> bool {
        shard < self.seats.len()
            && self.registry.peers.lock().unwrap()[shard].generation == generation
    }

    /// Runs the race until every seat is accounted for, or the kill grace
    /// after `Cancel` runs out.
    pub(crate) fn run(
        &mut self,
        events: &mpsc::Receiver<SeatEvent>,
        started: Instant,
        external_cancel: Option<&CancelToken>,
    ) {
        // Time from a frame's arrival off the link to the loop picking it
        // up — the bridge's own forwarding latency.
        let forward_latency = telemetry::global().metrics().histogram(
            "bridge_forward_latency",
            &[50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000],
        );
        while !self.seats.iter().all(Seat::accounted) {
            let now = Instant::now();
            let overdue = self
                .config
                .total_timeout
                .is_some_and(|t| now >= started + t + CANCEL_GRACE);
            if overdue || external_cancel.is_some_and(CancelToken::is_cancelled) {
                self.cancel();
            }
            if self.cancel_sent_at.is_some_and(|at| now >= at + KILL_GRACE) {
                self.sever_stragglers();
                break;
            }
            self.sweep_liveness(now);

            let event = match events.recv_timeout(LOOP_TICK) {
                Ok(event) => event,
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            };
            match event {
                SeatEvent::Joined { shard, rejoin } => self.joined(shard, rejoin),
                SeatEvent::Gone { shard, generation } => {
                    if self.current(shard, generation) {
                        self.gone(shard);
                    }
                }
                SeatEvent::Frame {
                    shard,
                    generation,
                    frame,
                    at,
                } => {
                    forward_latency.record(at.elapsed());
                    if self.current(shard, generation) {
                        self.on_frame(shard, frame);
                    } else if let Frame::Incumbent(payload) = &frame {
                        // A superseded link's last incumbent is still a
                        // race-global fact, validated on its own evidence;
                        // everything else from a stale link drops.
                        record_wire_incumbent(&mut self.wire_best, self.problem, shard, payload);
                    }
                }
            }
        }
    }

    fn joined(&mut self, shard: usize, rejoin: bool) {
        self.add_idle(shard + 1);
        let seat = &mut self.seats[shard];
        seat.missing_since = None;
        if rejoin {
            seat.report.rejoins += 1;
            seat.report.dead = false;
        }
        if seat.result.is_some() {
            return; // already contributed; idle until the next race
        }
        if self.cancel_sent_at.is_some() {
            // Winding down: don't arm a seat nobody will wait for — and
            // don't let it gate completion either.
            self.send(shard, &Frame::Cancel);
            self.seats[shard].wound_down = true;
            return;
        }
        self.seats[shard].wound_down = false;
        let lanes = if let Some(job) = &self.seats[shard].job {
            // Planned (a spawned worker) or a rejoin: the same lanes,
            // re-sent — a rejoiner's local race died with its link.
            job.strategies.clone()
        } else if let Some(orphan) = self.seats.iter().position(|s| {
            s.report.dead && !s.orphan_claimed && s.result.is_none() && s.job.is_some()
        }) {
            // A late joiner inherits a dead seat's lanes.
            self.seats[orphan].orphan_claimed = true;
            self.seats[orphan].job.as_ref().unwrap().strategies.clone()
        } else {
            self.parts[shard % self.parts.len()].clone()
        };
        telemetry::log_info!(
            "shard.coordinator",
            "arming worker",
            shard = shard,
            rejoin = rejoin,
            lanes = lanes.len(),
            digest_replay = self.digest.len(),
        );
        self.arm(shard, &lanes);
    }

    fn gone(&mut self, shard: usize) {
        let seat = &mut self.seats[shard];
        seat.closed = true;
        if seat.accounted() {
            return;
        }
        if self.cancel_sent_at.is_some() {
            // Post-cancel wind-down: a worker hanging up instead of
            // delivering a Result is not a death by itself (a spawned
            // worker's exit status settles it at reap), and must not
            // gate completion.
            seat.wound_down = true;
        } else if self.policy.rejoin_window.is_zero() {
            telemetry::log_warn!(
                "shard.coordinator",
                "worker died mid-race; degrading to survivors",
                shard = shard,
            );
            seat.report.dead = true;
        } else {
            telemetry::log_warn!(
                "shard.coordinator",
                "worker link lost mid-race; holding its seat",
                shard = shard,
                window_ms = self.policy.rejoin_window.as_millis() as u64,
            );
            seat.missing_since = Some(Instant::now());
        }
    }

    /// The loop's only reading of worker frames.
    fn on_frame(&mut self, shard: usize, frame: Frame) {
        match frame {
            Frame::Clause(RemoteClause { clause, .. }) => {
                self.seats[shard].report.clauses_sent += 1;
                // After Cancel, workers stop reading; the race is decided
                // — drop wind-down traffic instead of filling outboxes.
                if self.cancel_sent_at.is_some() {
                    return;
                }
                let remote = RemoteClause {
                    shard: shard as u32, // trust the link, not the tag
                    clause,
                };
                self.digest.push_back(remote.clone());
                while self.digest.len() > self.policy.clause_digest {
                    self.digest.pop_front();
                }
                let forwarded = Frame::Clause(remote);
                for target in 0..self.seats.len() {
                    if target != shard
                        && self.seats[target].racing()
                        && self.send(target, &forwarded)
                    {
                        self.seats[target].report.clauses_received += 1;
                    }
                }
            }
            Frame::Bound(weight) => {
                self.seats[shard].report.bounds_sent += 1;
                let weight = weight as usize;
                if weight < self.best_bound {
                    self.best_bound = weight;
                    for target in 0..self.seats.len() {
                        if target != shard
                            && self.cancel_sent_at.is_none()
                            && self.seats[target].racing()
                            && self.send(target, &Frame::Bound(weight as u64))
                        {
                            self.seats[target].report.bounds_received += 1;
                        }
                    }
                    self.cancel_if_decided();
                }
            }
            Frame::Floor(f) => {
                self.claim_floor(f as usize);
                self.cancel_if_decided();
            }
            Frame::Result(payload) => match ShardResult::from_bytes(&payload) {
                Ok(result) => {
                    if let Some(f) = result.proved_floor {
                        self.claim_floor(f);
                    }
                    if let Some(w) = result.weight {
                        self.best_bound = self.best_bound.min(w);
                    }
                    let optimal = result.optimal;
                    self.seats[shard].result = Some(result);
                    if optimal {
                        self.cancel();
                    }
                    self.cancel_if_decided();
                }
                Err(e) => {
                    telemetry::log_error!(
                        "shard.coordinator",
                        "worker sent a bad result; marking it dead",
                        shard = shard,
                        error = e,
                    );
                    self.seats[shard].report.dead = true;
                }
            },
            Frame::Trace(payload) => {
                // Span batches are best-effort diagnostics: a torn batch
                // from a killed worker is logged and dropped, never
                // allowed to fail the race.
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
            // Always-on checkpoint: keep only the latest — the whole ring
            // rides every shipment, so older payloads are strict subsets.
            Frame::BlackBox(payload) => self.seats[shard].black_box = Some(payload),
            Frame::Incumbent(payload) => {
                record_wire_incumbent(&mut self.wire_best, self.problem, shard, &payload);
            }
            _ => {} // Hello/Welcome/Job/Cancel from a worker: ignore
        }
    }

    /// Heartbeat lag and rejoin windows of the seats still owing a result.
    fn sweep_liveness(&mut self, now: Instant) {
        let peers = self.registry.peers.lock().unwrap();
        let now_ms = self.registry.now_ms();
        for (shard, seat) in self.seats.iter_mut().enumerate() {
            if seat.accounted() {
                continue;
            }
            let Some(slot) = peers.get(shard) else {
                continue;
            };
            if slot.connected {
                let lag = now_ms.saturating_sub(slot.last_rx_ms.load(Ordering::Relaxed));
                seat.lag.set(lag as i64);
                if lag > self.policy.heartbeat_deadline.as_millis() as u64 {
                    telemetry::log_warn!(
                        "shard.coordinator",
                        "worker silent past deadline; degrading to survivors",
                        shard = shard,
                        lag_ms = lag,
                    );
                    seat.report.dead = true;
                    if let Some(link) = &slot.link {
                        link.sever();
                    }
                }
            } else if seat
                .missing_since
                .is_some_and(|since| now >= since + self.policy.rejoin_window)
            {
                telemetry::log_warn!(
                    "shard.coordinator",
                    "worker never rejoined; degrading to survivors",
                    shard = shard,
                );
                seat.report.dead = true;
            }
        }
    }

    /// Workers that ignored `Cancel` long past grace: sever them and
    /// close the race on whatever reports exist.
    fn sever_stragglers(&mut self) {
        let peers = self.registry.peers.lock().unwrap();
        for (shard, seat) in self.seats.iter_mut().enumerate() {
            if !seat.accounted() {
                seat.report.dead = true;
                if let Some(link) = peers.get(shard).and_then(|p| p.link.as_ref()) {
                    link.sever();
                }
            }
        }
    }

    /// Writes post-mortems for dead seats into `postmortem_dir` (or
    /// `FERMIHEDRAL_POSTMORTEM_DIR`), then merges the seats that held a
    /// job into one outcome plus the accepted UNSAT floor.
    pub(crate) fn finish(
        self,
        started: Instant,
        postmortem_dir: Option<PathBuf>,
    ) -> (EngineOutcome, usize) {
        let dir = postmortem_dir
            .or_else(|| std::env::var_os("FERMIHEDRAL_POSTMORTEM_DIR").map(PathBuf::from));
        if let Some(dir) = dir {
            write_postmortems(&dir, &self.seats);
        }
        let mut outcomes: Vec<SeatOutcome> = self
            .seats
            .into_iter()
            .filter(|s| s.job.is_some())
            .map(|s| SeatOutcome {
                report: s.report,
                result: s.result,
            })
            .collect();
        graft_wire_incumbent(&mut outcomes, self.wire_best);
        merge_results(
            started,
            &self.floor_claims,
            self.problem,
            self.warm_start.map(|e| e.weight),
            outcomes,
        )
    }
}

/// Writes `postmortem-<shard>.json` for every dead seat that held a job.
fn write_postmortems(dir: &Path, seats: &[Seat]) {
    if !seats.iter().any(|s| s.report.dead) {
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
    for seat in seats {
        if let (true, Some(job)) = (seat.report.dead, &seat.job) {
            write_postmortem_bundle(dir, seat, job);
        }
    }
}

/// One seat's contribution to a race, as the merge step sees it.
pub(crate) struct SeatOutcome {
    pub(crate) report: ShardReport,
    pub(crate) result: Option<ShardResult>,
}

/// Folds an `Incumbent` frame into the race's best wire-shipped witness.
/// Validates and re-measures before trusting anything — this payload
/// exists precisely because its sender may die, so it must stand on its
/// own at merge time.
fn record_wire_incumbent(
    wire_best: &mut Option<WireIncumbent>,
    problem: &EncodingProblem,
    shard: usize,
    payload: &[u8],
) {
    let update = match IncumbentUpdate::from_bytes(payload) {
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
    let Some(weight) = validated_weight(problem, &update.strings) else {
        telemetry::log_warn!(
            "shard.coordinator",
            "worker shipped an invalid incumbent encoding; dropping it",
            shard = shard,
            claimed_weight = update.weight,
        );
        return;
    };
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
fn graft_wire_incumbent(seats: &mut [SeatOutcome], wire_best: Option<WireIncumbent>) {
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
    let mut best: Option<(BestEncoding, String)> = None;
    let mut workers: Vec<WorkerReport> = Vec::new();
    let mut shards: Vec<ShardReport> = Vec::new();
    for (index, seat) in seats.into_iter().enumerate() {
        let shard = seat.report.shard;
        shards.push(seat.report);
        let Some(result) = seat.result else {
            continue;
        };
        for mut lane in result.workers {
            lane.shard = Some(shard);
            workers.push(lane);
        }
        let (Some(claimed), Some(strings)) = (result.weight, result.strings) else {
            continue;
        };
        // Trust the strings, not the claim: re-measure locally so a
        // corrupt weight can neither steal the win nor fake an optimality
        // certificate.
        let Some(weight) = validated_weight(problem, &strings) else {
            telemetry::log_error!(
                "shard.coordinator",
                "worker claimed an invalid encoding; marking it dead",
                shard = shard,
                claimed_weight = claimed,
            );
            shards[index].dead = true;
            continue;
        };
        if weight != claimed {
            telemetry::log_warn!(
                "shard.coordinator",
                "claimed weight disagrees with measurement; using the measurement",
                shard = shard,
                claimed = claimed,
                measured = weight,
            );
        }
        if best.as_ref().is_none_or(|(b, _)| weight < b.weight) {
            let winner = result.winner.unwrap_or_else(|| format!("shard-{shard}"));
            best = Some((BestEncoding { strings, weight }, winner));
        }
    }
    let (best, winner) = match best {
        Some((b, w)) => (Some(b), Some(w)),
        None => (None, None),
    };
    // A floor strictly above a known-feasible weight — the race's
    // validated best, or failing that the warm-start cache entry — claims
    // a real encoding is impossible: a provable lie; discard it. The
    // strongest remaining claim is the accepted floor.
    let reference = best.as_ref().map(|b| b.weight).or(initial_bound);
    let floor = reference
        .and_then(|r| floor_claims.iter().copied().filter(|&f| f <= r).max())
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

/// Writes one `postmortem-<shard>.json` bundle: the worker's last
/// checkpointed flight-recorder ring (if any checkpoint made it over
/// the wire), job context, wire counters, and exit status (`null` for a
/// remote fleet peer, whose exit status is unknowable).
fn write_postmortem_bundle(dir: &Path, seat: &Seat, job: &Job) {
    let report = &seat.report;
    let shard = report.shard;
    let exit_status = seat.exit_status.as_deref();
    // The checkpoint is worker-reported; a torn payload from a mid-write
    // kill must not lose the coordinator-side context.
    let flight_recorder = seat
        .black_box
        .as_deref()
        .and_then(|bytes| BlackBoxCheckpoint::from_bytes(bytes).ok())
        .map(|c| c.flight_recorder)
        .unwrap_or(Value::Null);
    let bundle = obj([
        ("shard", Value::Num(shard as f64)),
        ("protocol", Value::Num(PROTOCOL_VERSION as f64)),
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

#[cfg(test)]
mod tests {
    //! The loop's decision rules, driven through in-memory links: each
    //! fake link is registered like a worker's `Hello`, its frames are
    //! pushed straight into the event channel, and its outbox is read
    //! back from the receiving end the writer thread would drain.

    use super::*;
    use engine::BaselineKind;
    use fermihedral::Objective;
    use pauli::PauliString;
    use sat::{Lit, SharedClause};
    use std::str::FromStr;

    fn strings(text: &[&str]) -> Vec<PauliString> {
        text.iter()
            .map(|s| PauliString::from_str(s).unwrap())
            .collect()
    }

    /// Jordan-Wigner at N=2: a valid encoding of weight 6, the optimum.
    fn jordan_wigner_2() -> Vec<PauliString> {
        strings(&["XI", "YI", "ZX", "ZY"])
    }

    fn problem() -> EncodingProblem {
        EncodingProblem::full_sat(2, Objective::MajoranaWeight)
    }

    fn table<'a>(
        registry: &'a Registry,
        problem: &'a EncodingProblem,
        config: &'a EngineConfig,
        seats: usize,
    ) -> SeatTable<'a> {
        let policy = RacePolicy {
            heartbeat_deadline: Duration::from_secs(60),
            rejoin_window: Duration::ZERO,
            clause_digest: 16,
        };
        let parts = vec![vec![Strategy::Baseline(BaselineKind::JordanWigner)]; seats];
        SeatTable::new(registry, problem, config, "fp", None, policy, parts)
    }

    /// Registers an in-memory link (for `spawned`'s reserved seat, or a
    /// new one) and returns the seat plus the far end of its outbox.
    fn attach(registry: &Registry, spawned: Option<usize>) -> (usize, mpsc::Receiver<Frame>) {
        let (outbox, far_end) = mpsc::sync_channel(OUTBOX_DEPTH);
        let last_rx_ms = Arc::new(AtomicU64::new(registry.now_ms()));
        let (shard, _, _) = registry.register(HELLO_ANY_SHARD, spawned, outbox, None, last_rx_ms);
        (shard, far_end)
    }

    /// `count` seats, every one connected and armed (a fleet race start).
    fn armed(
        registry: &Registry,
        table: &mut SeatTable,
        count: usize,
    ) -> Vec<mpsc::Receiver<Frame>> {
        let links: Vec<_> = (0..count).map(|_| attach(registry, None).1).collect();
        table.add_idle(count);
        for shard in 0..count {
            table.arm_part(shard, shard);
        }
        links
    }

    fn push(registry: &Registry, shard: usize, frame: Frame) {
        let at = Instant::now();
        let generation = 0;
        let event = SeatEvent::Frame {
            shard,
            generation,
            frame,
            at,
        };
        registry.events_tx.send(event).unwrap();
    }

    fn clause() -> Frame {
        Frame::Clause(RemoteClause {
            shard: 7, // a lying tag: the loop must stamp the real sender
            clause: SharedClause {
                lits: vec![Lit::from_dimacs(1), Lit::from_dimacs(-2)],
                lbd: 2,
                bound_tag: None,
                source: 0,
            },
        })
    }

    fn result(weight: Option<usize>, strings: Option<Vec<PauliString>>, optimal: bool) -> Frame {
        let result = ShardResult {
            weight,
            strings,
            optimal,
            ..ShardResult::default()
        };
        Frame::Result(result.to_bytes())
    }

    fn run(registry: &Registry, table: &mut SeatTable) {
        let events = registry.events();
        table.run(&events, Instant::now(), None);
    }

    fn kinds(far_end: &mpsc::Receiver<Frame>) -> Vec<&'static str> {
        far_end.try_iter().map(|f| f.kind()).collect()
    }

    #[test]
    fn a_clause_reaches_every_other_armed_seat_and_never_its_sender() {
        let (registry, problem, config) = (Registry::new(), problem(), EngineConfig::default());
        let mut table = table(&registry, &problem, &config, 3);
        let links = armed(&registry, &mut table, 3);
        push(&registry, 1, clause());
        for shard in 0..3 {
            push(&registry, shard, result(None, None, false));
        }
        run(&registry, &mut table);

        for (shard, far_end) in links.iter().enumerate() {
            let clauses: Vec<u32> = far_end
                .try_iter()
                .filter_map(|f| match f {
                    Frame::Clause(c) => Some(c.shard),
                    _ => None,
                })
                .collect();
            let expected: Vec<u32> = if shard == 1 { vec![] } else { vec![1] };
            assert_eq!(clauses, expected, "seat {shard}");
        }
        let reports: Vec<_> = table.seats.iter().map(|s| &s.report).collect();
        assert_eq!(reports[1].clauses_sent, 1);
        assert_eq!(
            reports
                .iter()
                .map(|r| r.clauses_received)
                .collect::<Vec<_>>(),
            [1, 0, 1]
        );
    }

    #[test]
    fn a_seat_without_a_job_gets_no_race_traffic() {
        // Two spawned workers; both links finish the handshake, but the
        // loop has only seen seat 0 join when seat 0 starts exporting.
        let (registry, problem, config) = (Registry::new(), problem(), EngineConfig::default());
        let mut table = table(&registry, &problem, &config, 2);
        for _ in 0..2 {
            table.add_pending();
            registry.reserve(None);
        }
        let (_, first) = attach(&registry, Some(0));
        let (_, late) = attach(&registry, Some(1));
        let send = |event| registry.events_tx.send(event).unwrap();
        send(SeatEvent::Joined {
            shard: 0,
            rejoin: false,
        });
        push(&registry, 0, Frame::Bound(9));
        push(&registry, 0, clause());
        send(SeatEvent::Joined {
            shard: 1,
            rejoin: false,
        });
        push(&registry, 0, result(None, None, false));
        push(&registry, 1, result(None, None, false));
        run(&registry, &mut table);

        assert_eq!(kinds(&first), ["welcome", "job"], "no echo to the sender");
        // The late seat's traffic starts with its Job, primed with the
        // race's bound and a replay of the clause it missed.
        assert_eq!(kinds(&late), ["welcome", "job", "bound", "clause"]);
        assert_eq!(table.seats[1].report.clauses_received, 0, "held back");
    }

    #[test]
    fn a_floor_meeting_the_incumbent_cancels_exactly_once() {
        let (registry, problem, config) = (Registry::new(), problem(), EngineConfig::default());
        let mut table = table(&registry, &problem, &config, 2);
        let links = armed(&registry, &mut table, 2);
        push(&registry, 0, Frame::Bound(6));
        push(&registry, 1, Frame::Floor(6)); // decided here
        push(&registry, 0, Frame::Floor(6));
        push(&registry, 0, Frame::Bound(6));
        push(&registry, 0, result(Some(6), Some(jordan_wigner_2()), true));
        push(&registry, 1, result(None, None, false));
        run(&registry, &mut table);

        for (shard, far_end) in links.iter().enumerate() {
            let cancels = kinds(far_end).iter().filter(|&&k| k == "cancel").count();
            assert_eq!(cancels, 1, "seat {shard}");
        }
        let (outcome, floor) = table.finish(Instant::now(), None);
        assert_eq!((outcome.weight(), floor), (Some(6), 6));
        assert!(outcome.optimal_proved);
    }

    #[test]
    fn a_floor_above_the_validated_best_is_discarded_at_merge() {
        let (registry, problem, config) = (Registry::new(), problem(), EngineConfig::default());
        let mut table = table(&registry, &problem, &config, 2);
        let _links = armed(&registry, &mut table, 2);
        push(&registry, 1, Frame::Floor(7)); // "nothing below 7 exists"
        push(
            &registry,
            0,
            result(Some(6), Some(jordan_wigner_2()), false),
        );
        push(&registry, 1, result(None, None, false));
        run(&registry, &mut table);

        let (outcome, floor) = table.finish(Instant::now(), None);
        assert_eq!(outcome.weight(), Some(6));
        assert_eq!(floor, 0, "a floor above a valid encoding is a lie");
        assert!(!outcome.optimal_proved);
    }

    #[test]
    fn strings_of_mixed_qubit_counts_are_dropped_not_a_panic() {
        // 2N strings, but one on 3 qubits: the Pauli algebra asserts equal
        // widths, so the shape check has to come first.
        let problem = problem();
        let mixed = strings(&["XI", "YI", "ZX", "ZYI"]);
        assert_eq!(validated_weight(&problem, &mixed), None);

        let mut wire_best = None;
        let update = IncumbentUpdate {
            weight: 6,
            strings: mixed.clone(),
            winner: "peer".into(),
        };
        record_wire_incumbent(&mut wire_best, &problem, 0, &update.to_bytes());
        assert!(wire_best.is_none());

        let seat = SeatOutcome {
            report: ShardReport::default(),
            result: Some(ShardResult {
                weight: Some(6),
                strings: Some(mixed),
                ..ShardResult::default()
            }),
        };
        let (outcome, floor) = merge_results(Instant::now(), &[6], &problem, None, vec![seat]);
        assert!(outcome.best.is_none());
        assert!(outcome.report.shards[0].dead);
        assert_eq!(floor, 0);
    }
}
