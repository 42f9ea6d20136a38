//! The serve workloads: `fleetd` in-process over loopback, driven
//! closed-loop, then replayed and restarted from its own state dir.
//!
//! Load shape: one connection keeps [`WINDOW`] requests in flight (two
//! callers that each wait for their reply) against a one-shard daemon,
//! so the shard worker is the only busy thread and the completion rate
//! is its capacity. An episode is a fresh daemon on a fresh state dir
//! fed the same seeded requests: [`WARMUP`] untimed requests (superblock
//! and predecode caches, the base checkpoint) and then the timed ones.
//! Every episode has the same length because checkpoint bytes and digest
//! input grow with history.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use indra_bench::Histogram;
use indra_core::IndraSystem;
use indra_fleet::aggregate_stats;
use indra_persist::{
    encode_ingress_record, CheckpointReceipt, IngressKind, IngressRecord, IngressWriter,
    ShardCheckpointWriter, SnapshotStore, WireReader, WireWriter, INGRESS_FILE,
};
use indra_replica::DigestCache;
use indra_rng::Rng;
use indra_serve::{
    encode_engine_meta, read_frame, replay_state_dir, write_frame, Daemon, Disposition,
    EngineConfig, Frame, ServeConfig, ShardRunner, Verdict,
};
use indra_workloads::{
    attack_request, benign_request, build_app_scaled, detectable_attack_suite, ServiceApp,
};

use crate::report::{median, pct, peak_rss_mb, percentile, ratio, Outcome};
use crate::trace::{Layer, LayerTotals, Tracer};
use crate::Args;

/// Requests in flight on the client connection.
pub const WINDOW: usize = 2;
/// Untimed requests at the start of every episode: two checkpoint
/// intervals, so the base snapshot and the first journal delta are
/// written before the clock starts.
pub const WARMUP: usize = 16;
/// The daemon's default checkpoint cadence.
const CHECKPOINT_EVERY: u32 = 8;
/// A reply slower than this counts the rest of the episode as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One serve workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub app: ServiceApp,
    pub scale: u32,
    pub replicas: usize,
    pub attack_per_mille: u32,
    /// Timed requests per episode.
    pub timed: usize,
}

impl ServeSpec {
    fn engine(&self) -> EngineConfig {
        EngineConfig { app: self.app, scale: self.scale, ..EngineConfig::default() }
    }

    fn serve_config(&self, dir: &Path) -> ServeConfig {
        ServeConfig {
            engine: self.engine(),
            shards: 1,
            checkpoint_every: CHECKPOINT_EVERY,
            state_dir: dir.to_path_buf(),
            replicas: self.replicas,
            ..ServeConfig::default()
        }
    }

    /// Warm-up + timed requests; one more (benign) probes the restart.
    fn total(&self) -> usize {
        WARMUP + self.timed
    }
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Payload {
    pub malicious: bool,
    pub data: Vec<u8>,
}

/// Builds every request an episode sends, from the seed alone: exactly
/// `attack_per_mille` of the warm-up and of the timed requests are real
/// exploits from `detectable_attack_suite` at seeded positions, and the
/// final restart probe is benign.
pub fn payloads(spec: &ServeSpec, seed: u64) -> Vec<Payload> {
    let image = build_app_scaled(spec.app, spec.scale);
    let attacks = detectable_attack_suite(&image);
    let mut rng = Rng::seed_from_u64(seed);
    let mut malicious = Vec::with_capacity(spec.total() + 1);
    for len in [WARMUP, spec.timed] {
        let n_attacks = len * spec.attack_per_mille as usize / 1000;
        let mut part: Vec<bool> = (0..len).map(|i| i < n_attacks).collect();
        for i in (1..len).rev() {
            part.swap(i, rng.range_usize(0, i + 1));
        }
        malicious.extend(part);
    }
    malicious.push(false);
    malicious
        .into_iter()
        .map(|m| {
            let data = if m && !attacks.is_empty() {
                attack_request(*rng.pick(&attacks), &image)
            } else {
                benign_request(rng.gen_u8(), rng.gen_u8())
            };
            Payload { malicious: m && !attacks.is_empty(), data }
        })
        .collect()
}

/// How the daemon answered one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    Verdict(Verdict),
    Rejected,
}

#[derive(Debug, Clone, Copy)]
struct Reply {
    answer: Answer,
    latency_ns: u64,
}

/// Per-episode failure tallies (rejected, lost, quarantined, benign not
/// served) over the timed requests.
#[derive(Debug, Default, Clone, Copy)]
struct Failures {
    rejected: u64,
    lost: u64,
    quarantined: u64,
    benign_not_served: u64,
}

impl Failures {
    fn total(&self) -> u64 {
        self.rejected + self.lost + self.quarantined + self.benign_not_served
    }
}

fn connect(addr: std::net::SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    s.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| format!("timeout: {e}"))?;
    Ok(s)
}

fn send(stream: &mut TcpStream, id: usize, p: &Payload) -> Result<(), String> {
    let frame = Frame::Request { id: id as u64, malicious: p.malicious, data: p.data.clone() };
    write_frame(stream, &frame).map_err(|e| format!("send request {id}: {e}"))
}

/// Sends `payloads[range]` keeping [`WINDOW`] in flight; one reply per
/// request, in send order. A read failure leaves the remaining entries
/// `None` (lost).
fn closed_loop(
    stream: &mut TcpStream,
    payloads: &[Payload],
    range: std::ops::Range<usize>,
) -> Result<Vec<Option<Reply>>, String> {
    let base = range.start;
    let mut replies: Vec<Option<Reply>> = vec![None; range.len()];
    let mut sent_at: Vec<Option<Instant>> = vec![None; range.len()];
    let mut next = range.start;
    let mut in_flight = 0usize;
    while next < range.end && in_flight < WINDOW {
        sent_at[next - base] = Some(Instant::now());
        send(stream, next, &payloads[next])?;
        next += 1;
        in_flight += 1;
    }
    while in_flight > 0 {
        let (id, answer) = match read_frame(stream) {
            Ok(Frame::Response { id, verdict, .. }) => (id as usize, Answer::Verdict(verdict)),
            Ok(Frame::Rejected { id, .. }) => (id as usize, Answer::Rejected),
            Ok(other) => return Err(format!("unexpected frame {other:?}")),
            Err(_) => break,
        };
        let at = Instant::now();
        let slot = id.checked_sub(base).filter(|i| *i < replies.len());
        let Some(i) = slot else { return Err(format!("reply for unknown request {id}")) };
        let latency_ns = sent_at[i].map_or(0, |t| (at - t).as_nanos() as u64);
        replies[i] = Some(Reply { answer, latency_ns });
        in_flight -= 1;
        if next < range.end {
            sent_at[next - base] = Some(Instant::now());
            send(stream, next, &payloads[next])?;
            next += 1;
            in_flight += 1;
        }
    }
    Ok(replies)
}

fn health_divergences(stream: &mut TcpStream) -> Result<u64, String> {
    write_frame(stream, &Frame::Health).map_err(|e| format!("health: {e}"))?;
    match read_frame(stream) {
        Ok(Frame::HealthReply(h)) => Ok(h.divergences),
        other => Err(format!("health reply: {other:?}")),
    }
}

/// Checks each reply against ground truth and tallies failures.
fn tally(
    payloads: &[Payload],
    base: usize,
    replies: &[Option<Reply>],
    problems: &mut Vec<String>,
) -> Failures {
    let mut f = Failures::default();
    for (i, r) in replies.iter().enumerate() {
        let p = &payloads[base + i];
        match r.map(|r| r.answer) {
            None => f.lost += 1,
            Some(Answer::Rejected) => f.rejected += 1,
            Some(Answer::Verdict(Verdict::Quarantined)) => f.quarantined += 1,
            Some(Answer::Verdict(Verdict::Served)) if p.malicious => {
                problems.push(format!("request {} is an exploit and was served", base + i));
            }
            Some(Answer::Verdict(Verdict::Served)) => {}
            Some(Answer::Verdict(_)) if !p.malicious => f.benign_not_served += 1,
            Some(Answer::Verdict(_)) => {}
        }
    }
    f
}

/// One closed-loop daemon episode on a fresh state dir.
struct Episode {
    setup_s: f64,
    window_s: f64,
    latencies_ns: Vec<u64>,
    failures: Failures,
    stats_json: String,
    served: u64,
    total_cycles: u64,
}

/// Payload generation, `Daemon::start`, warm-up, the timed window, a
/// HEALTH read and `Daemon::stop`. Setup runs from the start of payload
/// generation until the first warm-up request is answered.
fn daemon_episode(
    spec: &ServeSpec,
    seed: u64,
    dir: &Path,
    problems: &mut Vec<String>,
) -> Result<(Episode, Vec<Payload>), String> {
    let t0 = Instant::now();
    let payloads = payloads(spec, seed);
    let daemon = Daemon::start(spec.serve_config(dir)).map_err(|e| format!("start: {e}"))?;
    let mut stream = connect(daemon.addr())?;
    let first = closed_loop(&mut stream, &payloads, 0..1)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let warm = closed_loop(&mut stream, &payloads, 1..WARMUP)?;
    let t1 = Instant::now();
    let timed = closed_loop(&mut stream, &payloads, WARMUP..spec.total())?;
    let window_s = t1.elapsed().as_secs_f64();
    let divergences = health_divergences(&mut stream)?;
    let _ = stream.flush();
    drop(stream);
    let report = daemon.stop().map_err(|e| format!("stop: {e}"))?;

    let mut warm_all = first;
    warm_all.extend(warm);
    let warm_fail = tally(&payloads, 0, &warm_all, problems);
    if warm_fail.total() > 0 {
        problems.push(format!("warm-up failures: {warm_fail:?}"));
    }
    let failures = tally(&payloads, WARMUP, &timed, problems);
    let s = &report.stats;
    if s.detections != s.attacks_sent || s.true_detections != s.attacks_sent {
        problems.push(format!(
            "detections {} (true {}) != attacks sent {}",
            s.detections, s.true_detections, s.attacks_sent
        ));
    }
    if s.benign_served != s.benign_sent {
        problems.push(format!("benign served {} of {}", s.benign_served, s.benign_sent));
    }
    if divergences != 0 {
        problems.push(format!("{divergences} replica divergences without injected chaos"));
    }
    let latencies_ns = timed.iter().flatten().map(|r| r.latency_ns).collect();
    let episode = Episode {
        setup_s,
        window_s,
        latencies_ns,
        failures,
        stats_json: s.to_json(),
        served: s.served,
        total_cycles: s.total_shard_cycles,
    };
    Ok((episode, payloads))
}

/// Restarts the daemon on a stopped run's dir and times it until the
/// restart probe (a new benign request) is answered.
fn recover(
    spec: &ServeSpec,
    dir: &Path,
    payloads: &[Payload],
    served_before: u64,
    problems: &mut Vec<String>,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let daemon = Daemon::start(spec.serve_config(dir)).map_err(|e| format!("restart: {e}"))?;
    let mut stream = connect(daemon.addr())?;
    let probe = spec.total();
    let reply = closed_loop(&mut stream, payloads, probe..probe + 1)?;
    let recover_s = t0.elapsed().as_secs_f64();
    drop(stream);
    let report = daemon.stop().map_err(|e| format!("stop after restart: {e}"))?;
    if reply[0].map(|r| r.answer) != Some(Answer::Verdict(Verdict::Served)) {
        problems.push(format!("restart probe answered {:?}", reply[0]));
    }
    if report.stats.served != served_before + 1 {
        problems.push(format!(
            "restarted daemon reports {} served, expected {}",
            report.stats.served,
            served_before + 1
        ));
    }
    Ok(recover_s)
}

fn retired(sys: &IndraSystem) -> u64 {
    let m = sys.machine();
    (0..m.num_cores()).map(|c| m.core(c).retired()).sum()
}

/// Instructions the primary retires over the timed requests, from an
/// in-process runner fed the same records (sim-deterministic).
fn timed_insns(spec: &ServeSpec, payloads: &[Payload]) -> Result<u64, String> {
    let mut runner = ShardRunner::new(spec.engine(), 0).map_err(|e| format!("runner: {e}"))?;
    let mut before = 0;
    for (i, p) in payloads[..spec.total()].iter().enumerate() {
        if i == WARMUP {
            before = retired(runner.system_mut());
        }
        runner.admit(record(runner.next_seq(), i, p));
    }
    Ok(retired(runner.system_mut()) - before)
}

fn record(seq: u64, id: usize, p: &Payload) -> IngressRecord {
    IngressRecord {
        seq,
        kind: IngressKind::Request,
        request_id: id as u64,
        malicious: p.malicious,
        data: p.data.clone(),
    }
}

/// Untraced run: end-to-end metrics.
pub fn run(spec: &ServeSpec, args: &Args, root: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut episodes: Vec<Episode> = Vec::new();
    let mut replay_s = 0.0;
    let mut replayed = 0u64;
    let mut recover_s = Vec::new();
    let mut last_payloads = Vec::new();
    // Peak RSS through the first episode: later episodes only add
    // allocator retention, which varies with how many fit in the run.
    let mut rss_mb = 0.0;
    let started = Instant::now();
    let mut n = 0;
    while n == 0 || started.elapsed().as_secs_f64() < args.seconds {
        let dir = root.join(format!("episode-{n}"));
        let (ep, payloads) = daemon_episode(spec, args.seed, &dir, &mut out.problems)?;

        let t = Instant::now();
        let replay = replay_state_dir(&dir).map_err(|e| format!("replay: {e}"))?;
        replay_s += t.elapsed().as_secs_f64();
        replayed += replay.requests_replayed;
        let replay_json = replay.stats.to_json();
        out.check(replay_json == ep.stats_json, || {
            format!(
                "replay stats differ from live:\n live   {}\n replay {replay_json}",
                ep.stats_json
            )
        });
        recover_s.push(recover(spec, &dir, &payloads, ep.served, &mut out.problems)?);
        let _ = std::fs::remove_dir_all(&dir);

        eprintln!(
            "perfbench: episode {n}: {:.1} req/s, p50 {:.4} ms, p99 {:.4} ms, setup {:.4} s",
            spec.timed as f64 / ep.window_s,
            percentile(&ep.latencies_ns, 50.0) as f64 / 1e6,
            percentile(&ep.latencies_ns, 99.0) as f64 / 1e6,
            ep.setup_s
        );
        if let Some(first) = episodes.first() {
            out.check(first.stats_json == ep.stats_json, || {
                "episodes with identical inputs produced different stats".to_string()
            });
        }
        if n == 0 {
            rss_mb = peak_rss_mb();
        }
        episodes.push(ep);
        last_payloads = payloads;
        n += 1;
    }

    let insns = timed_insns(spec, &last_payloads)? * spec.replicas as u64;
    let window: f64 = episodes.iter().map(|e| e.window_s).sum();
    let timed = (spec.timed * episodes.len()) as f64;
    let lat: Vec<u64> = episodes.iter().flat_map(|e| e.latencies_ns.iter().copied()).collect();
    out.attempted = timed as u64;
    out.failed = episodes.iter().map(|e| e.failures.total()).sum();
    let ep0 = &episodes[0];
    out.metric("tput_rps", timed / window);
    out.metric("p50_ms", percentile(&lat, 50.0) as f64 / 1e6);
    out.metric("p99_ms", percentile(&lat, 99.0) as f64 / 1e6);
    out.metric("replay_rps", replayed as f64 / replay_s);
    out.metric("recover_s", median(&recover_s));
    let setups: Vec<f64> = episodes.iter().map(|e| e.setup_s).collect();
    out.metric("setup_s", median(&setups));
    out.metric("peak_rss_mb", rss_mb);
    out.metric("sim_mips", insns as f64 * episodes.len() as f64 / window / 1e6);
    out.metric("sim_cycles_per_req", ratio(ep0.total_cycles as f64, ep0.served as f64));
    eprintln!(
        "perfbench: {} episodes x {} timed requests, {} latency samples",
        episodes.len(),
        spec.timed,
        lat.len()
    );
    Ok(out)
}

/// The shard worker's per-request call sequence, run in-process.
struct Pipeline {
    runner: ShardRunner,
    followers: Vec<(ShardRunner, DigestCache)>,
    primary_cache: DigestCache,
    history: Vec<IngressRecord>,
    log: IngressWriter,
    writer: ShardCheckpointWriter,
    since_checkpoint: u32,
    divergences: u64,
    ingress_bytes: u64,
    receipts: Vec<CheckpointReceipt>,
}

fn cursor_blob(cursor: u64) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u64(cursor);
    w.finish()
}

fn read_cursor(progress: &[u8]) -> Result<u64, String> {
    let mut r = WireReader::new(progress);
    r.u64("progress cursor").map_err(|e| e.to_string())
}

impl Pipeline {
    /// The worker's start-up on a fresh dir: meta, ingress log, primary
    /// and follower runners, checkpoint writer.
    fn start(spec: &ServeSpec, dir: &Path) -> Result<Pipeline, String> {
        let store = SnapshotStore::create(dir).map_err(|e| e.to_string())?;
        store.write_meta(&encode_engine_meta(&spec.engine())).map_err(|e| e.to_string())?;
        std::fs::create_dir_all(store.shard_dir(0)).map_err(|e| e.to_string())?;
        let (mut log, _) = IngressWriter::recover(&store.shard_dir(0).join(INGRESS_FILE), 0)
            .map_err(|e| e.to_string())?;
        let runner = ShardRunner::new(spec.engine(), 0).map_err(|e| e.to_string())?;
        log.sync().map_err(|e| e.to_string())?;
        let writer = store.shard_writer(0).map_err(|e| e.to_string())?;
        let mut followers = Vec::new();
        for _ in 1..spec.replicas {
            let f = ShardRunner::new(spec.engine(), 0).map_err(|e| e.to_string())?;
            followers.push((f, DigestCache::new()));
        }
        Ok(Pipeline {
            runner,
            followers,
            primary_cache: DigestCache::new(),
            history: Vec::new(),
            log,
            writer,
            since_checkpoint: 0,
            divergences: 0,
            ingress_bytes: 0,
            receipts: Vec::new(),
        })
    }

    /// One request: append, admit, replica admits and digests, and every
    /// [`CHECKPOINT_EVERY`] requests sync + freeze + checkpoint.
    fn step(&mut self, t: &mut Tracer, id: usize, p: &Payload) -> Result<Disposition, String> {
        t.set_request(id as u32);
        let root = t.begin(Layer::Request);
        let rec = record(self.runner.next_seq(), id, p);
        let shadow = (!self.followers.is_empty()).then(|| rec.clone());
        self.ingress_bytes += encode_ingress_record(&rec).len() as u64;
        let log = &mut self.log;
        t.leaf(Layer::IngressAppend, || log.append(&rec)).map_err(|e| e.to_string())?;
        if let Some(r) = &shadow {
            self.history.push(r.clone());
        }
        let runner = &mut self.runner;
        let (disp, tombstones) = t.leaf(Layer::EngineAdmit, || runner.admit(rec));
        if !tombstones.is_empty() {
            return Err(format!("request {id} was quarantined"));
        }
        if let Some(shadow) = shadow {
            let (cache, runner) = (&mut self.primary_cache, &mut self.runner);
            let primary = t.leaf(Layer::Digest, || cache.digest(runner.system_mut()).value);
            for (f, cache) in &mut self.followers {
                let (fdisp, _) = t.leaf(Layer::EngineAdmit, || f.admit(shadow.clone()));
                let fdigest = t.leaf(Layer::Digest, || cache.digest(f.system_mut()).value);
                if fdisp != disp || fdigest != primary {
                    self.divergences += 1;
                }
            }
        }
        self.since_checkpoint += 1;
        if self.since_checkpoint >= CHECKPOINT_EVERY {
            self.since_checkpoint = 0;
            self.checkpoint(t)?;
        }
        t.end(root);
        Ok(disp)
    }

    fn checkpoint(&mut self, t: &mut Tracer) -> Result<(), String> {
        let log = &mut self.log;
        t.leaf(Layer::IngressSync, || log.sync()).map_err(|e| e.to_string())?;
        let runner = &self.runner;
        let (state, cursor) = t.leaf(Layer::CkptFreeze, || runner.freeze());
        let writer = &mut self.writer;
        let receipt = t
            .leaf(Layer::CkptWrite, || writer.checkpoint(&state, &cursor_blob(cursor)))
            .map_err(|e| e.to_string())?;
        self.runner.wal.absorb(receipt);
        self.receipts.push(receipt);
        Ok(())
    }
}

/// What one in-process pipeline pass measured.
struct PipelineRun {
    /// Wall of the timed requests, seconds.
    wall_s: f64,
    ledger: Vec<LayerTotals>,
    traced_requests: usize,
    stats_json: String,
    counters: Vec<(&'static str, f64)>,
    ingress_bytes: u64,
    /// Every checkpoint receipt: the base snapshot, then journal deltas.
    receipts: Vec<CheckpointReceipt>,
    /// The receipts written during the timed requests.
    timed_receipts: std::ops::Range<usize>,
}

/// Feeds the episode's requests through the worker's call sequence; the
/// timed requests run under a tracer that records spans when `traced`.
fn pipeline(
    spec: &ServeSpec,
    payloads: &[Payload],
    dir: &Path,
    traced: bool,
    problems: &mut Vec<String>,
) -> Result<PipelineRun, String> {
    let mut p = Pipeline::start(spec, dir)?;
    let mut quiet = Tracer::new(false);
    for (i, pl) in payloads[..WARMUP].iter().enumerate() {
        p.step(&mut quiet, i, pl)?;
    }
    let mut t = Tracer::new(traced);
    let first_timed = p.receipts.len();
    let bytes_before = p.ingress_bytes;
    let counts_before = sim_counts(p.runner.system_mut());
    let t0 = Instant::now();
    for (i, pl) in payloads.iter().enumerate().take(spec.total()).skip(WARMUP) {
        let disp = p.step(&mut t, i, pl)?;
        let detected = matches!(disp, Disposition::Detected { .. });
        if detected != pl.malicious {
            problems.push(format!("pipeline request {i}: {disp:?} for malicious={}", pl.malicious));
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let timed_receipts = first_timed..p.receipts.len();
    let ingress_bytes = p.ingress_bytes - bytes_before;
    let counters = sim_metrics(&counts_before, &sim_counts(p.runner.system_mut()));
    // Drain like the daemon: final sync and checkpoint.
    p.checkpoint(&mut quiet)?;
    if p.divergences != 0 {
        problems.push(format!("pipeline saw {} replica divergences", p.divergences));
    }
    let out = p.runner.finish(true);
    let mut latency = Histogram::new();
    for s in &out.report.samples {
        latency.record(s.cycles);
    }
    let stats_json = aggregate_stats(std::slice::from_ref(&out), latency).to_json();
    Ok(PipelineRun {
        wall_s,
        ledger: t.ledger(),
        traced_requests: t.requests(),
        stats_json,
        counters,
        ingress_bytes,
        receipts: p.receipts,
        timed_receipts,
    })
}

/// The restart read path on a stopped pipeline's dir, in the worker's
/// order: ingress log, then per replica checkpoint load and rebuild.
fn traced_recovery(spec: &ServeSpec, dir: &Path, t: &mut Tracer) -> Result<(), String> {
    let store = SnapshotStore::open(dir).map_err(|e| e.to_string())?;
    let path = store.shard_dir(0).join(INGRESS_FILE);
    t.set_request(u32::MAX);
    let (_log, records) = t
        .leaf(Layer::RecoverLogRead, || IngressWriter::recover(&path, 0))
        .map_err(|e| e.to_string())?;
    for _ in 0..spec.replicas {
        let loaded =
            t.leaf(Layer::RecoverLoad, || store.load_shard(0)).map_err(|e| e.to_string())?;
        let checkpoint = match loaded {
            Some(l) => Some((l.state, read_cursor(&l.progress)?)),
            None => None,
        };
        let recs = records.clone();
        let (_runner, fresh) = t
            .leaf(Layer::RecoverRebuild, || {
                ShardRunner::from_log(spec.engine(), 0, recs, checkpoint)
            })
            .map_err(|e| e.to_string())?;
        if !fresh.is_empty() {
            return Err(format!("restart quarantined {fresh:?}"));
        }
    }
    Ok(())
}

/// Raw sim-layer counts of a system, summed over its cores.
fn sim_counts(sys: &IndraSystem) -> BTreeMap<&'static str, u64> {
    let m = sys.machine();
    let mut c = BTreeMap::new();
    let mut add = |k: &'static str, v: u64| *c.entry(k).or_insert(0) += v;
    for id in 0..m.num_cores() {
        add("insns", m.core(id).retired());
        add("block_insns", m.superblock_stats(id).block_insns);
        let pd = m.predecode_stats(id);
        add("pd_hits", pd.hits);
        add("pd_misses", pd.misses);
        let mem = m.core_mem(id);
        add("il1_miss", mem.il1().stats().misses);
        add("dl1_miss", mem.dl1().stats().misses);
        add("l2_miss", mem.l2().stats().misses);
        add("dtlb_miss", mem.dtlb().stats().misses);
    }
    let dram = m.dram().stats();
    let mon = sys.monitor().stats();
    let scheme = sys.scheme().stats();
    let detections = &sys.report().detections;
    add("cycles", sys.service_cycles());
    add("dram_accesses", dram.accesses);
    add("dram_row_hits", dram.row_hits);
    add("monitor_checks", mon.call_return_checks + mon.code_origin_checks + mon.indirect_checks);
    add("monitor_busy", mon.busy_cycles);
    add("fifo_full", m.fifo().stats().full_stalls);
    add("line_copies", scheme.line_copies);
    add("rollbacks", scheme.rollbacks);
    add("lazy_restores", scheme.lazy_restores);
    add("detections", detections.len() as u64);
    add("detect_insns", detections.iter().map(|d| d.insns_into_request).sum());
    add("discards", detections.iter().filter(|d| d.discarded.is_some()).count() as u64);
    c
}

/// Sim-layer metrics (instruction engine, memory model, monitor and
/// FIFO, delta backup, recovery, compartments) over the counts
/// accumulated between two [`sim_counts`] reads.
fn sim_metrics(
    before: &BTreeMap<&'static str, u64>,
    after: &BTreeMap<&'static str, u64>,
) -> Vec<(&'static str, f64)> {
    let d = |k: &str| (after[k] - before[k]) as f64;
    vec![
        ("sim.insns", d("insns")),
        ("sim.cycles", d("cycles")),
        ("sim.sb_coverage", ratio(d("block_insns"), d("insns"))),
        ("sim.predecode_hit", ratio(d("pd_hits"), d("pd_hits") + d("pd_misses"))),
        ("mem.il1_miss", d("il1_miss")),
        ("mem.dl1_miss", d("dl1_miss")),
        ("mem.l2_miss", d("l2_miss")),
        ("mem.dtlb_miss", d("dtlb_miss")),
        ("mem.dram_row_hit", ratio(d("dram_row_hits"), d("dram_accesses"))),
        ("monitor.checks", d("monitor_checks")),
        ("monitor.busy_cycles", d("monitor_busy")),
        ("fifo.full_stalls", d("fifo_full")),
        ("delta.line_copies", d("line_copies")),
        ("delta.rollbacks", d("rollbacks")),
        ("delta.lazy_restores", d("lazy_restores")),
        ("recovery.detections", d("detections")),
        ("recovery.detect_insns_mean", ratio(d("detect_insns"), d("detections"))),
        ("compartment.discards", d("discards")),
    ]
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Traced run: the per-layer ledger.
pub fn run_traced(spec: &ServeSpec, args: &Args, root: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let started = Instant::now();
    let dir = root.join("daemon");
    let (ep, payloads) = daemon_episode(spec, args.seed, &dir, &mut out.problems)?;
    let _ = std::fs::remove_dir_all(&dir);
    out.attempted = spec.timed as u64;
    out.failed = ep.failures.total();

    // Interleaved traced / untraced pipeline passes.
    let mut on: Vec<PipelineRun> = Vec::new();
    let mut off_walls = Vec::new();
    let mut recovery = Tracer::new(true);
    let mut pass = 0;
    while pass < 2 || started.elapsed().as_secs_f64() < args.seconds {
        for traced in [pass % 2 == 0, pass % 2 != 0] {
            let dir = root.join(format!("pipeline-{pass}-{traced}"));
            let run = pipeline(spec, &payloads, &dir, traced, &mut out.problems)?;
            out.check(run.stats_json == ep.stats_json, || {
                format!(
                    "pipeline stats differ from the daemon's:\n daemon   {}\n pipeline {}",
                    ep.stats_json, run.stats_json
                )
            });
            if traced {
                if on.is_empty() {
                    traced_recovery(spec, &dir, &mut recovery)?;
                }
                on.push(run);
            } else {
                off_walls.push(run.wall_s);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        pass += 1;
    }

    let n = spec.timed as f64;
    let daemon_ms = ep.window_s * 1e3 / n;
    let off_ms = median(&off_walls) * 1e3 / n;
    let on_ms = median(&on.iter().map(|r| r.wall_s).collect::<Vec<_>>()) * 1e3 / n;
    // Per-metric medians over the traced passes.
    let per_pass: Vec<Vec<(&'static str, f64)>> = on.iter().map(|r| ledger_metrics(r, n)).collect();
    let first = &on[0];
    out.check(first.traced_requests == spec.timed, || {
        format!("traced {} requests, expected {}", first.traced_requests, spec.timed)
    });
    out.metric("trace.requests", n);
    out.metric("trace.wall_ms", on_ms);
    out.metric("trace.overhead_pct", pct(on_ms - off_ms, off_ms));
    for (i, (name, _)) in per_pass[0].iter().enumerate() {
        let values: Vec<f64> = per_pass.iter().map(|m| m[i].1).collect();
        out.metric(name, median(&values));
    }
    out.metric("serve.front_ms", daemon_ms - off_ms);
    let rec = recovery.ledger();
    out.metric("recover.load_ms", ms(rec[Layer::RecoverLoad as usize].inclusive_ns as f64));
    out.metric("recover.log_read_ms", ms(rec[Layer::RecoverLogRead as usize].inclusive_ns as f64));
    out.metric("recover.rebuild_ms", ms(rec[Layer::RecoverRebuild as usize].inclusive_ns as f64));
    for (name, value) in &first.counters {
        out.metric(name, *value);
    }
    eprintln!(
        "perfbench: daemon {daemon_ms:.4} ms/req, pipeline {off_ms:.4} ms/req untraced, \
         {on_ms:.4} ms/req traced, {} traced passes",
        on.len()
    );
    Ok(out)
}

/// Layer times (per call and per request), shares and counts of one
/// traced pipeline pass of `n` timed requests.
fn ledger_metrics(r: &PipelineRun, n: f64) -> Vec<(&'static str, f64)> {
    let l = |layer: Layer| &r.ledger[layer as usize];
    let wall_ns = r.wall_s * 1e9;
    let self_ns = |layers: &[Layer]| layers.iter().map(|&x| l(x).self_ns as f64).sum::<f64>();
    let covered = self_ns(&[
        Layer::IngressAppend,
        Layer::IngressSync,
        Layer::EngineAdmit,
        Layer::Digest,
        Layer::CkptFreeze,
        Layer::CkptWrite,
    ]);
    let digest = l(Layer::Digest);
    let tenth = (digest.durations_ns.len() / 10).max(1);
    let mean = |d: &[u64]| ratio(d.iter().sum::<u64>() as f64, d.len() as f64);
    let (first_tenth, last_tenth) = if digest.durations_ns.is_empty() {
        (0.0, 0.0)
    } else {
        let d = &digest.durations_ns;
        (mean(&d[..tenth]), mean(&d[d.len() - tenth..]))
    };
    let timed = &r.receipts[r.timed_receipts.clone()];
    let first_bytes = r.receipts.first().map_or(0, |c| c.bytes);
    let last_bytes = timed.last().map_or(0, |c| c.bytes);
    vec![
        ("trace.coverage_pct", pct(covered, wall_ns)),
        ("ingress.append_us", l(Layer::IngressAppend).mean_ns() / 1e3),
        ("ingress.sync_ms", ms(l(Layer::IngressSync).mean_ns())),
        ("ingress.bytes", r.ingress_bytes as f64),
        ("ingress.share_pct", pct(self_ns(&[Layer::IngressAppend, Layer::IngressSync]), wall_ns)),
        ("engine.admit_ms", ms(l(Layer::EngineAdmit).mean_ns())),
        ("engine.admits", l(Layer::EngineAdmit).calls as f64),
        ("engine.share_pct", pct(self_ns(&[Layer::EngineAdmit]), wall_ns)),
        ("ckpt.freeze_ms", ms(l(Layer::CkptFreeze).mean_ns())),
        ("ckpt.write_ms", ms(l(Layer::CkptWrite).mean_ns())),
        ("ckpt.count", l(Layer::CkptWrite).calls as f64),
        ("ckpt.bytes_first", first_bytes as f64),
        ("ckpt.bytes_last", last_bytes as f64),
        ("ckpt.pages", timed.iter().map(|c| c.pages).sum::<u64>() as f64),
        ("ckpt.share_pct", pct(self_ns(&[Layer::CkptFreeze, Layer::CkptWrite]), wall_ns)),
        ("digest.ms", ms(digest.mean_ns())),
        ("digest.calls", digest.calls as f64),
        ("digest.ms_first_tenth", ms(first_tenth)),
        ("digest.ms_last_tenth", ms(last_tenth)),
        ("digest.share_pct", pct(self_ns(&[Layer::Digest]), wall_ns)),
        ("layers.ms_per_req", ms(covered) / n),
    ]
}
