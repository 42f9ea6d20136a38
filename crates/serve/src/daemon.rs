//! The `fleetd` daemon core: TCP acceptor, per-shard bounded ingress
//! queues with admission control, worker loops, and the control plane.
//!
//! ## Threading shape
//!
//! One acceptor thread owns the listener; each connection gets a reader
//! thread (frame parse + dispatch) and a writer thread (serializing
//! pre-encoded reply frames from an mpsc channel, so shard workers and
//! control handlers never contend on the socket). Each shard worker
//! owns its [`ShardRunner`] and drains a bounded
//! [`std::sync::mpsc::sync_channel`] — the *only* buffering between the
//! socket and the simulated system, so memory stays bounded no matter
//! the offered load: when every live queue is at its depth watermark
//! the request is rejected with a typed frame instead of queued.
//!
//! ## Write-ahead discipline
//!
//! A worker appends each request to its ingress log *before* delivering
//! it, so the log is always a superset of what influenced the simulated
//! state: replay can only over-approximate, never miss. Checkpoints
//! (`checkpoint_every` served requests) sync the log first, then write
//! the snapshot whose progress cursor points into it — a crash between
//! the two replays a little more of the log, landing in the same state.

use std::collections::BTreeSet;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use indra_bench::Histogram;
use indra_core::RecoveryLevel;
use indra_fleet::{aggregate_stats, FleetStats, ShardError, ShardOutput};
use indra_persist::{
    IngressKind, IngressRecord, IngressWriter, PersistError, SnapshotStore, INGRESS_FILE,
};
use indra_replica::read_cursor;

use crate::proto::{
    encode_frame, read_frame, Frame, FrameError, HealthReply, RejectReason, Verdict,
};
use crate::{decode_engine_meta, encode_engine_meta, Disposition, EngineConfig, ShardRunner};

/// Host-side daemon configuration (everything that does *not* influence
/// the simulated trajectory lives here; the sim-deterministic knobs are
/// in [`EngineConfig`], which is what gets persisted to `serve.meta`).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Sim-deterministic engine knobs (persisted; replay reuses them).
    pub engine: EngineConfig,
    /// Initial live shard count.
    pub shards: usize,
    /// Ingress queue depth per shard (the admission watermark).
    pub queue_depth: usize,
    /// Durably checkpoint a shard after every N served requests
    /// (0 = log-only; replay then recovers from the log alone).
    pub checkpoint_every: u32,
    /// State directory: `serve.meta` + one `shard-NNNN/` per shard
    /// (ingress log, base snapshot, journal).
    pub state_dir: PathBuf,
    /// TCP port to bind on loopback (0 = ephemeral).
    pub port: u16,
    /// Replicas per shard (1 = unreplicated). Every cell of a shard's
    /// [`ShardRunner`] gets each admitted request and votes on
    /// (outcome, output hash, state digest): at K = 2 a split revives
    /// both cells and retries, at K = 3 a majority masks any faulty
    /// cell, the primary included. The reply and the log follow the
    /// trusted ballot, so `--replay` output stays byte-identical
    /// whatever K is.
    pub replicas: usize,
    /// Proactively revive each cell every N admitted requests, staggered
    /// so cell `r` of K fires when `(cursor + r·N/K) % N == 0` (None =
    /// never). At K = 1 the lone cell rejuvenates too.
    pub rejuvenate_every: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            engine: EngineConfig::default(),
            shards: 4,
            queue_depth: 16,
            checkpoint_every: 8,
            state_dir: PathBuf::from("fleetd-state"),
            port: 0,
            replicas: 1,
            rejuvenate_every: None,
        }
    }
}

/// Daemon-level error.
#[derive(Debug)]
pub enum ServeError {
    /// Socket / filesystem failure.
    Io(std::io::Error),
    /// Durable state store failure.
    Persist(PersistError),
    /// A shard failed to build or persist.
    Shard(ShardError),
    /// A shard worker thread panicked outside the guarded deliver path.
    WorkerPanicked {
        /// Which shard.
        shard: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Persist(e) => write!(f, "persist error: {e}"),
            ServeError::Shard(e) => write!(f, "shard error: {e}"),
            ServeError::WorkerPanicked { shard } => write!(f, "shard {shard} worker panicked"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

impl From<PersistError> for ServeError {
    fn from(e: PersistError) -> ServeError {
        ServeError::Persist(e)
    }
}

impl From<ShardError> for ServeError {
    fn from(e: ShardError) -> ServeError {
        ServeError::Shard(e)
    }
}

/// Final report of a daemon run. `stats` obeys the fleet determinism
/// contract (pure function of the admitted ingress logs); wall-clock
/// figures stay outside it.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Deterministic fleet statistics (replay reproduces these bytes).
    pub stats: FleetStats,
    /// Requests turned away at admission (host-side, not replayed —
    /// rejected requests never touch simulated state).
    pub rejected: u64,
    /// Wall-clock daemon lifetime.
    pub wall_seconds: f64,
}

/// One request admitted to a shard queue.
struct WorkItem {
    id: u64,
    malicious: bool,
    data: Vec<u8>,
    /// Pre-encoded reply frames go back through the connection's writer.
    reply: Sender<Vec<u8>>,
}

/// Live counters one shard worker publishes for the control plane.
#[derive(Debug, Default)]
struct ShardShared {
    served: AtomicU64,
    detections: AtomicU64,
    revivals: AtomicU64,
    quarantined: AtomicU64,
    divergences: AtomicU64,
    divergent_masked: AtomicU64,
    rejuvenations: AtomicU64,
    detection_insns: AtomicU64,
    draining: AtomicBool,
}

struct Slot {
    shard: usize,
    tx: Option<SyncSender<WorkItem>>,
    shared: Arc<ShardShared>,
    handle: Option<JoinHandle<Result<ShardOutput, ShardError>>>,
}

struct Router {
    slots: Vec<Slot>,
    next_shard_id: usize,
}

impl Router {
    fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.tx.is_some()).count()
    }

    fn draining(&self) -> usize {
        self.slots.iter().filter(|s| s.tx.is_none() && s.handle.is_some()).count()
    }
}

struct Inner {
    cfg: ServeConfig,
    router: Mutex<Router>,
    rr: AtomicUsize,
    rejected: AtomicU64,
    stop: AtomicBool,
    shutdown_requested: AtomicBool,
}

impl Inner {
    fn health(&self) -> HealthReply {
        let router = self.router.lock().expect("router lock");
        let mut served = 0;
        let mut detections = 0;
        let mut revivals = 0;
        let mut quarantined = 0;
        let mut divergences = 0;
        let mut divergent_masked = 0;
        let mut rejuvenations = 0;
        let mut detection_insns = 0;
        for slot in &router.slots {
            served += slot.shared.served.load(Ordering::SeqCst);
            detections += slot.shared.detections.load(Ordering::SeqCst);
            revivals += slot.shared.revivals.load(Ordering::SeqCst);
            quarantined += slot.shared.quarantined.load(Ordering::SeqCst);
            divergences += slot.shared.divergences.load(Ordering::SeqCst);
            divergent_masked += slot.shared.divergent_masked.load(Ordering::SeqCst);
            rejuvenations += slot.shared.rejuvenations.load(Ordering::SeqCst);
            detection_insns += slot.shared.detection_insns.load(Ordering::SeqCst);
        }
        let live = router.live() as u32;
        HealthReply {
            ok: live > 0,
            app: self.cfg.engine.app.name().to_string(),
            scale: self.cfg.engine.scale,
            shards_live: live,
            shards_draining: router.draining() as u32,
            served,
            detections,
            revivals,
            quarantined,
            rejected: self.rejected.load(Ordering::SeqCst),
            replicas: self.cfg.replicas.max(1) as u32,
            divergences,
            divergent_masked,
            rejuvenations,
            detection_insns,
        }
    }

    fn stats_json(&self) -> String {
        let h = self.health();
        indra_core::json::JsonObject::new()
            .str("app", &h.app)
            .u64("scale", u64::from(h.scale))
            .u64("shards_live", u64::from(h.shards_live))
            .u64("shards_draining", u64::from(h.shards_draining))
            .u64("served", h.served)
            .u64("detections", h.detections)
            .u64("revivals", h.revivals)
            .u64("quarantined", h.quarantined)
            .u64("rejected", h.rejected)
            .u64("replicas", u64::from(h.replicas))
            .u64("divergences", h.divergences)
            .u64("divergent_masked", h.divergent_masked)
            .u64("rejuvenations", h.rejuvenations)
            .u64("detection_insns", h.detection_insns)
            .finish()
    }

    /// Routes a request round-robin across live shards; every live
    /// queue full → typed rejection (never unbounded buffering).
    fn route(&self, item: WorkItem) -> Result<(), (WorkItem, RejectReason)> {
        let router = self.router.lock().expect("router lock");
        let live: Vec<&Slot> = router.slots.iter().filter(|s| s.tx.is_some()).collect();
        if live.is_empty() {
            return Err((item, RejectReason::NoShards));
        }
        let start = self.rr.fetch_add(1, Ordering::Relaxed) % live.len();
        let mut item = item;
        for off in 0..live.len() {
            let slot = live[(start + off) % live.len()];
            let tx = slot.tx.as_ref().expect("live slot has tx");
            match tx.try_send(item) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Full(back)) | Err(TrySendError::Disconnected(back)) => {
                    item = back;
                }
            }
        }
        Err((item, RejectReason::QueueFull))
    }
}

/// A running `fleetd` instance. Dropping it without [`Daemon::stop`]
/// leaks the worker threads; always stop.
pub struct Daemon {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    started: Instant,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon").field("addr", &self.addr).finish_non_exhaustive()
    }
}

/// Shard directories present in a state dir, in shard order.
pub(crate) fn discover_shards(root: &Path) -> Result<Vec<usize>, ServeError> {
    let mut ids = Vec::new();
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        let name = entry.file_name();
        if let Some(num) = name.to_string_lossy().strip_prefix("shard-") {
            if let Ok(id) = num.parse::<usize>() {
                ids.push(id);
            }
        }
    }
    ids.sort_unstable();
    Ok(ids)
}

impl Daemon {
    /// Binds the listener, spawns (or resumes) the shard workers and
    /// the acceptor, and returns immediately.
    ///
    /// A state dir that already holds `serve.meta` is *resumed*: the
    /// stored [`EngineConfig`] wins over `cfg.engine` (replay identity
    /// requires the original sim knobs), every existing shard directory
    /// gets a worker (recovering checkpoint + ingress log), and new
    /// shards are added only if `cfg.shards` exceeds the existing count.
    ///
    /// # Errors
    ///
    /// Bind failure, store corruption, or a shard that cannot deploy.
    pub fn start(mut cfg: ServeConfig) -> Result<Daemon, ServeError> {
        let store = SnapshotStore::create(&cfg.state_dir)?;
        match store.read_meta() {
            Ok(meta) => cfg.engine = decode_engine_meta(&meta)?,
            Err(PersistError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                store.write_meta(&encode_engine_meta(&cfg.engine))?;
            }
            Err(e) => return Err(e.into()),
        }
        let existing = discover_shards(store.root())?;
        let mut shard_ids: BTreeSet<usize> = existing.into_iter().collect();
        let mut next_fresh = 0usize;
        while shard_ids.len() < cfg.shards {
            shard_ids.insert(next_fresh);
            next_fresh += 1;
        }
        let next_shard_id = shard_ids.last().map_or(0, |m| m + 1);

        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let addr = listener.local_addr()?;

        let inner = Arc::new(Inner {
            cfg,
            router: Mutex::new(Router { slots: Vec::new(), next_shard_id }),
            rr: AtomicUsize::new(0),
            rejected: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
        });

        {
            let mut router = inner.router.lock().expect("router lock");
            for shard in shard_ids {
                router.slots.push(spawn_shard(&inner.cfg, shard)?);
            }
        }

        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if inner.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        let inner = Arc::clone(&inner);
                        std::thread::spawn(move || handle_conn(&inner, stream));
                    }
                }
            })
        };

        Ok(Daemon { inner, addr, acceptor: Some(acceptor), started: Instant::now() })
    }

    /// The bound listen address (loopback; port may be ephemeral).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a client sent a `SHUTDOWN` frame (or
    /// [`Daemon::request_shutdown`] ran); the owner should then call
    /// [`Daemon::stop`].
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Raises the shutdown flag (e.g. from a signal handler's poll
    /// loop).
    pub fn request_shutdown(&self) {
        self.inner.shutdown_requested.store(true, Ordering::SeqCst);
    }

    /// Stops accepting, drains every shard queue, flushes final
    /// checkpoints, joins the workers and folds the deterministic fleet
    /// stats (shard order, like the batch executor).
    ///
    /// # Errors
    ///
    /// The first shard worker failure, if any.
    pub fn stop(mut self) -> Result<ServeReport, ServeError> {
        self.inner.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor out of accept().
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let slots = {
            let mut router = self.inner.router.lock().expect("router lock");
            // Closing every sender ends each worker's recv loop once its
            // queue drains; workers then checkpoint and exit.
            for slot in &mut router.slots {
                slot.tx = None;
            }
            std::mem::take(&mut router.slots)
        };
        let mut outputs = Vec::new();
        for mut slot in slots {
            if let Some(h) = slot.handle.take() {
                match h.join() {
                    Ok(Ok(out)) => outputs.push(out),
                    Ok(Err(e)) => return Err(e.into()),
                    Err(_) => return Err(ServeError::WorkerPanicked { shard: slot.shard }),
                }
            }
        }
        outputs.sort_by_key(|o| o.plan.shard);
        let mut latency = Histogram::new();
        for out in &outputs {
            for s in &out.report.samples {
                latency.record(s.cycles);
            }
        }
        Ok(ServeReport {
            stats: aggregate_stats(&outputs, latency),
            rejected: self.inner.rejected.load(Ordering::SeqCst),
            wall_seconds: self.started.elapsed().as_secs_f64(),
        })
    }
}

/// Everything one shard worker needs that was decided at spawn time.
struct WorkerCfg {
    engine: EngineConfig,
    root: PathBuf,
    shard: usize,
    checkpoint_every: u32,
    replicas: usize,
    rejuvenate_every: Option<u64>,
}

fn spawn_shard(cfg: &ServeConfig, shard: usize) -> Result<Slot, ServeError> {
    let (tx, rx) = mpsc::sync_channel::<WorkItem>(cfg.queue_depth.max(1));
    let shared = Arc::new(ShardShared::default());
    let worker_shared = Arc::clone(&shared);
    let worker_cfg = WorkerCfg {
        engine: cfg.engine.clone(),
        root: cfg.state_dir.clone(),
        shard,
        checkpoint_every: cfg.checkpoint_every,
        replicas: cfg.replicas.max(1),
        rejuvenate_every: cfg.rejuvenate_every,
    };
    let handle = std::thread::Builder::new()
        .name(format!("shard-{shard:04}"))
        .spawn(move || shard_worker(&worker_cfg, &worker_shared, &rx))
        .map_err(ServeError::Io)?;
    Ok(Slot { shard, tx: Some(tx), shared, handle: Some(handle) })
}

fn publish(shared: &ShardShared, runner: &ShardRunner) {
    let report = runner.report();
    shared.served.store(report.served, Ordering::SeqCst);
    shared.detections.store(report.detections.len() as u64, Ordering::SeqCst);
    shared
        .detection_insns
        .store(report.detections.iter().map(|d| d.insns_into_request).sum(), Ordering::SeqCst);
    shared.quarantined.store(runner.quarantined(), Ordering::SeqCst);
    let c = runner.counters;
    shared.revivals.store(c.revivals, Ordering::SeqCst);
    shared.divergences.store(c.divergences, Ordering::SeqCst);
    shared.divergent_masked.store(c.divergent_masked, Ordering::SeqCst);
    shared.rejuvenations.store(c.rejuvenations, Ordering::SeqCst);
}

/// Durably appends the tombstones the runner just created.
fn log_tombstones(log: &mut IngressWriter, seqs: &[u64]) -> Result<(), PersistError> {
    for &seq in seqs {
        log.append(&IngressRecord {
            seq,
            kind: IngressKind::Quarantine,
            request_id: 0,
            malicious: false,
            data: Vec::new(),
        })?;
        log.sync()?;
    }
    Ok(())
}

/// One shard worker: recover durable state, then serve the queue until
/// every sender is gone, checkpointing as configured.
///
/// The worker drives one [`ShardRunner`] of `cfg.replicas` cells, all
/// started from the shard's checkpoint (loaded once) and the ingress
/// log's tail. The runner votes after every request and revives dead or
/// out-voted cells from the checkpoint it recovered from or last wrote;
/// the reply, the tombstones and the final stats follow the trusted
/// ballot, so `--replay` output is byte-identical whatever K is.
fn shard_worker(
    cfg: &WorkerCfg,
    shared: &ShardShared,
    rx: &Receiver<WorkItem>,
) -> Result<ShardOutput, ShardError> {
    let shard = cfg.shard;
    let store = SnapshotStore::open(&cfg.root).map_err(ShardError::Persist)?;
    let dir = store.shard_dir(shard);
    std::fs::create_dir_all(&dir).map_err(|e| ShardError::Persist(e.into()))?;
    let (mut log, records) = IngressWriter::recover(&dir.join(INGRESS_FILE), shard as u32)
        .map_err(ShardError::Persist)?;
    let checkpoint = match store.load_shard(shard).map_err(ShardError::Persist)? {
        Some(loaded) => {
            let cursor = read_cursor(&loaded.progress).map_err(ShardError::Persist)?;
            Some((loaded.state, cursor))
        }
        None => None,
    };
    let (mut runner, fresh) = ShardRunner::replicated(
        cfg.engine.clone(),
        shard,
        cfg.replicas,
        cfg.rejuvenate_every,
        records,
        checkpoint,
    )?;
    // Recovery may have quarantined entries that killed the engine
    // deterministically; durably tombstone them before serving.
    log_tombstones(&mut log, &fresh).map_err(ShardError::Persist)?;
    log.sync().map_err(ShardError::Persist)?;
    let mut writer = if cfg.checkpoint_every > 0 {
        Some(store.shard_writer(shard).map_err(ShardError::Persist)?)
    } else {
        None
    };
    publish(shared, &runner);

    let mut since_checkpoint = 0u32;
    while let Ok(item) = rx.recv() {
        let rec = IngressRecord {
            seq: runner.next_seq(),
            kind: IngressKind::Request,
            request_id: item.id,
            malicious: item.malicious,
            data: item.data,
        };
        // Write-ahead: log the admission before the sim sees it.
        log.append(&rec).map_err(ShardError::Persist)?;
        let (disp, tombstones) = runner.admit(rec);
        log_tombstones(&mut log, &tombstones).map_err(ShardError::Persist)?;
        let verdict = match disp {
            Disposition::Served { .. } => Verdict::Served,
            Disposition::Detected { level: RecoveryLevel::Micro } => Verdict::DetectedMicro,
            Disposition::Detected { level: RecoveryLevel::Macro } => Verdict::DetectedMacro,
            Disposition::Quarantined => Verdict::Quarantined,
        };
        let latency_cycles = match disp {
            Disposition::Served { cycles } => cycles,
            _ => 0,
        };
        let frame = Frame::Response { id: item.id, shard: shard as u32, verdict, latency_cycles };
        // A vanished client is not a shard problem; the request is
        // already part of durable history either way.
        let _ = item.reply.send(encode_frame(&frame));
        publish(shared, &runner);
        since_checkpoint += 1;
        if let Some(w) = writer.as_mut() {
            if since_checkpoint >= cfg.checkpoint_every {
                since_checkpoint = 0;
                log.sync().map_err(ShardError::Persist)?;
                runner.checkpoint(w).map_err(ShardError::Persist)?;
            }
        }
        if runner.rejuvenate() {
            publish(shared, &runner);
        }
    }

    // Drained (all senders gone): final flush + checkpoint.
    log.sync().map_err(ShardError::Persist)?;
    if let Some(w) = writer.as_mut() {
        runner.checkpoint(w).map_err(ShardError::Persist)?;
    }
    shared.draining.store(true, Ordering::SeqCst);
    Ok(runner.finish(true))
}

/// Per-connection reader loop: parse frames, dispatch, reply through
/// the writer thread. A malformed frame gets a typed `ControlErr` and
/// closes the connection (framing is unrecoverable once desynced).
fn handle_conn(inner: &Arc<Inner>, stream: TcpStream) {
    let Ok(mut write_half) = stream.try_clone() else { return };
    let (reply_tx, reply_rx) = mpsc::channel::<Vec<u8>>();
    let writer = std::thread::spawn(move || {
        while let Ok(bytes) = reply_rx.recv() {
            if write_half.write_all(&bytes).is_err() {
                break;
            }
        }
        let _ = write_half.flush();
    });
    let mut read_half = stream;
    loop {
        match read_frame(&mut read_half) {
            Ok(frame) => {
                if !dispatch(inner, frame, &reply_tx) {
                    break;
                }
            }
            Err(FrameError::Closed) => break,
            Err(e) => {
                let _ = reply_tx.send(encode_frame(&Frame::ControlErr { msg: e.to_string() }));
                break;
            }
        }
    }
    drop(reply_tx);
    let _ = writer.join();
}

/// Handles one inbound frame; returns false to close the connection.
fn dispatch(inner: &Arc<Inner>, frame: Frame, reply: &Sender<Vec<u8>>) -> bool {
    let send = |f: &Frame| reply.send(encode_frame(f)).is_ok();
    match frame {
        Frame::Request { id, malicious, data } => {
            let item = WorkItem { id, malicious, data, reply: reply.clone() };
            match inner.route(item) {
                Ok(()) => true,
                Err((item, reason)) => {
                    inner.rejected.fetch_add(1, Ordering::SeqCst);
                    send(&Frame::Rejected { id: item.id, reason })
                }
            }
        }
        Frame::Stats => send(&Frame::StatsReply { json: inner.stats_json() }),
        Frame::Health => send(&Frame::HealthReply(inner.health())),
        Frame::Drain { shard } => {
            let mut router = inner.router.lock().expect("router lock");
            match router.slots.iter_mut().find(|s| s.shard == shard as usize) {
                Some(slot) if slot.tx.is_some() => {
                    slot.tx = None;
                    slot.shared.draining.store(true, Ordering::SeqCst);
                    drop(router);
                    send(&Frame::ControlOk { detail: format!("draining shard {shard}") })
                }
                Some(_) => {
                    send(&Frame::ControlErr { msg: format!("shard {shard} already draining") })
                }
                None => send(&Frame::ControlErr { msg: format!("no such shard {shard}") }),
            }
        }
        Frame::Scale { shards } => {
            let target = shards as usize;
            let mut router = inner.router.lock().expect("router lock");
            let live = router.live();
            if target == 0 {
                return send(&Frame::ControlErr { msg: "target must be at least 1".into() });
            }
            if target == live {
                return send(&Frame::ControlOk { detail: format!("already at {live} shards") });
            }
            if target > live {
                for _ in live..target {
                    let shard = router.next_shard_id;
                    router.next_shard_id += 1;
                    match spawn_shard(&inner.cfg, shard) {
                        Ok(slot) => router.slots.push(slot),
                        Err(e) => {
                            drop(router);
                            return send(&Frame::ControlErr {
                                msg: format!("spawn shard {shard}: {e}"),
                            });
                        }
                    }
                }
            } else {
                // Drain the highest-numbered live shards down to target.
                let mut to_drain = live - target;
                for slot in router.slots.iter_mut().rev() {
                    if to_drain == 0 {
                        break;
                    }
                    if slot.tx.is_some() {
                        slot.tx = None;
                        slot.shared.draining.store(true, Ordering::SeqCst);
                        to_drain -= 1;
                    }
                }
            }
            drop(router);
            send(&Frame::ControlOk { detail: format!("scaling {live} -> {target} live shards") })
        }
        Frame::Shutdown => {
            inner.shutdown_requested.store(true, Ordering::SeqCst);
            send(&Frame::ControlOk { detail: "shutting down".into() })
        }
        Frame::Response { .. }
        | Frame::Rejected { .. }
        | Frame::StatsReply { .. }
        | Frame::HealthReply(_)
        | Frame::ControlOk { .. }
        | Frame::ControlErr { .. } => {
            send(&Frame::ControlErr { msg: "server-side frame on client path".into() });
            false
        }
    }
}
