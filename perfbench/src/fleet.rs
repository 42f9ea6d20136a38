//! `fleet_paper`: batch `run_fleet` jobs at paper scale.
//!
//! Two shards (`nfs`, `sendmail`) at scale 1 with 125‰ exploits on the
//! fleet's simulated open-loop arrivals: no sockets, no persistence and
//! no replicas in the timed jobs, so host time goes to the instruction
//! engine, memory model, monitor and delta engine and to the
//! `fleet::shard` run loop. A job's wall is the latency a batch user sees;
//! the fleet's durable read side is measured after the timed jobs by
//! killing a checkpointed run and resuming it with `resume_fleet`.

use std::path::Path;
use std::time::Instant;

use indra_fleet::{resume_fleet, run_fleet, shard_schedule, FleetConfig, FleetReport};
use indra_rng::derive_seed;
use indra_serve::{EngineConfig, ShardEngine};
use indra_workloads::{build_app_scaled, detectable_attack_suite, OpenLoopTraffic, ServiceApp};

use crate::report::{median, pct, peak_rss_mb, percentile, ratio, Outcome};
use crate::trace::{Layer, Tracer};
use crate::Args;

/// Requests per shard in one job.
const REQUESTS_PER_SHARD: u32 = 24;
/// Exploit share of the arrivals, in ‰.
const ATTACK_PER_MILLE: u32 = 125;
/// Crash-and-resume measurements of the read side per run.
const READ_SIDE_REPEATS: usize = 3;
/// Exploits in every shard's schedule.
const ATTACKS_PER_SHARD: u64 = (REQUESTS_PER_SHARD * ATTACK_PER_MILLE / 1000) as u64;

fn config(seed: u64) -> FleetConfig {
    FleetConfig {
        shards: 2,
        apps: vec![ServiceApp::Nfs, ServiceApp::Sendmail],
        requests_per_shard: REQUESTS_PER_SHARD,
        scale: 1,
        attack_per_mille: ATTACK_PER_MILLE,
        seed,
        ..FleetConfig::default()
    }
}

/// The fleet seed for `seed`: the first seed derived from it whose
/// shard schedules each hold exactly [`ATTACKS_PER_SHARD`] exploits, so
/// every seed runs the same mix and only which requests vary.
fn fleet_seed(seed: u64) -> u64 {
    let template = config(seed);
    let images: Vec<_> =
        template.apps.iter().map(|&a| build_app_scaled(a, template.scale)).collect();
    let suites: Vec<_> = images.iter().map(detectable_attack_suite).collect();
    (0..)
        .map(|k| derive_seed(seed, k))
        .find(|&candidate| {
            config(candidate).plans().iter().all(|plan| {
                let app = plan.shard % images.len();
                let traffic = OpenLoopTraffic::with_attack_mix(
                    REQUESTS_PER_SHARD,
                    suites[app].clone(),
                    ATTACK_PER_MILLE,
                    template.mean_gap_cycles,
                    plan.seed,
                );
                let attacks = traffic.generate(&images[app]).iter().filter(|r| r.malicious).count();
                attacks as u64 == ATTACKS_PER_SHARD
            })
        })
        .expect("some derived seed has the expected attack count")
}

/// The fleet's set-up work, done the way each shard does it: build the
/// image and the seeded arrival schedule, then build and deploy a system.
fn setup(cfg: &FleetConfig) -> Result<f64, String> {
    let t = Instant::now();
    for plan in cfg.plans() {
        std::hint::black_box(shard_schedule(cfg, &plan));
        let engine = EngineConfig { app: plan.app, scale: cfg.scale, ..EngineConfig::default() };
        std::hint::black_box(ShardEngine::new(&engine).map_err(|e| format!("deploy: {e}"))?);
    }
    Ok(t.elapsed().as_secs_f64())
}

/// Requests a report disposed of: served or detected.
fn disposed(r: &FleetReport) -> u64 {
    r.stats.served + r.stats.detections
}

fn check_job(out: &mut Outcome, r: &FleetReport, reference: &str) {
    let s = &r.stats;
    out.check(s.to_json() == reference, || "fleet stats differ between identical jobs".into());
    out.check(s.detections == s.attacks_sent && s.true_detections == s.attacks_sent, || {
        format!(
            "detections {} (true {}) != attacks {}",
            s.detections, s.true_detections, s.attacks_sent
        )
    });
    out.check(s.per_shard.iter().all(|p| p.completed), || "a shard did not complete".into());
    out.check(s.per_shard.iter().all(|p| p.attacks_sent == ATTACKS_PER_SHARD), || {
        format!("a shard's schedule does not hold {ATTACKS_PER_SHARD} exploits")
    });
}

/// Kills a checkpointed copy of the job at its first checkpoint, taken
/// once `checkpoint_every` requests per shard are served, then times
/// `resume_fleet` to quota (which writes no further checkpoint while
/// fewer than `checkpoint_every` requests remain). Returns (resume
/// seconds, requests the resume re-executed); the resumed stats must
/// match the uninterrupted job's.
fn crash_and_resume(
    cfg: &FleetConfig,
    checkpoint_every: u32,
    dir: &Path,
    reference: &str,
    out: &mut Outcome,
) -> Result<(f64, u64), String> {
    let crashed = run_fleet(&FleetConfig {
        checkpoint_every,
        store_dir: Some(dir.to_string_lossy().into_owned()),
        halt_after_checkpoints: Some(1),
        ..cfg.clone()
    });
    let t = Instant::now();
    let resumed = resume_fleet(dir).map_err(|e| format!("resume: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(dir);
    out.check(resumed.stats.to_json() == reference, || {
        format!("resumed fleet stats differ from the uninterrupted job (checkpoint every {checkpoint_every})")
    });
    Ok((secs, disposed(&resumed).saturating_sub(disposed(&crashed))))
}

/// Untraced run: end-to-end metrics.
pub fn run(args: &Args, root: &Path) -> Result<Outcome, String> {
    let cfg = config(fleet_seed(args.seed));
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut jobs: Vec<FleetReport> = Vec::new();
    let started = Instant::now();
    let mut reference = String::new();
    while jobs.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        setups.push(setup(&cfg)?);
        let r = run_fleet(&cfg);
        if jobs.is_empty() {
            reference = r.stats.to_json();
        }
        check_job(&mut out, &r, &reference);
        jobs.push(r);
    }
    let first = &jobs[0].stats;
    out.check(first.benign_served == first.benign_sent, || {
        format!("benign served {} of {}", first.benign_served, first.benign_sent)
    });

    // Read side: a resume from a checkpoint halfway through re-executes
    // the second half (replay_rps); a resume from the last possible one
    // thaws and serves the final requests (recover_s).
    let served = first.per_shard.iter().map(|p| p.served);
    let (min_served, max_served) = (served.clone().min().unwrap_or(2), served.max().unwrap_or(2));
    let half = u32::try_from((max_served / 2 + 1).min(min_served).max(1)).unwrap_or(1);
    let last = u32::try_from(min_served.saturating_sub(1).max(1)).unwrap_or(1);
    let (mut replay_rps, mut recover_s) = (Vec::new(), Vec::new());
    for rep in 0..READ_SIDE_REPEATS {
        let dir = root.join(format!("replay-{rep}"));
        let (secs, replayed) = crash_and_resume(&cfg, half, &dir, &reference, &mut out)?;
        replay_rps.push(replayed as f64 / secs);
        let dir = root.join(format!("recover-{rep}"));
        recover_s.push(crash_and_resume(&cfg, last, &dir, &reference, &mut out)?.0);
    }

    let job_ns: Vec<u64> = jobs.iter().map(|j| (j.wall_seconds * 1e9) as u64).collect();
    out.attempted = jobs.iter().map(|j| j.stats.benign_sent + j.stats.attacks_sent).sum();
    out.failed = jobs.iter().map(|j| j.stats.benign_sent - j.stats.benign_served).sum();
    let per_job = |f: &dyn Fn(&FleetReport) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
    out.metric("tput_rps", per_job(&|j| j.wall_req_per_sec));
    out.metric("p50_ms", percentile(&job_ns, 50.0) as f64 / 1e6);
    out.metric("p99_ms", percentile(&job_ns, 99.0) as f64 / 1e6);
    out.metric("replay_rps", median(&replay_rps));
    out.metric("recover_s", median(&recover_s));
    out.metric("setup_s", median(&setups));
    out.metric("peak_rss_mb", peak_rss_mb());
    out.metric("sim_mips", per_job(&|j| j.host_mips()));
    out.metric("sim_cycles_per_req", ratio(first.total_shard_cycles as f64, first.served as f64));
    eprintln!(
        "perfbench: {} fleet jobs of {} requests",
        jobs.len(),
        first.benign_sent + first.attacks_sent
    );
    Ok(out)
}

/// Traced run: the fleet executor's shard walls and the sim counts
/// `run_fleet` reports, with `run_fleet` spans interleaved with
/// untraced jobs for the overhead.
pub fn run_traced(args: &Args) -> Result<Outcome, String> {
    let cfg = config(fleet_seed(args.seed));
    let mut out = Outcome::default();
    let mut on: Vec<(FleetReport, f64)> = Vec::new();
    let mut off = Vec::new();
    let mut tracer = Tracer::new(true);
    let started = Instant::now();
    let mut reference = String::new();
    let mut pass = 0u32;
    while pass < 2 || started.elapsed().as_secs_f64() < args.seconds {
        for traced in [pass.is_multiple_of(2), !pass.is_multiple_of(2)] {
            let t = Instant::now();
            let r = if traced {
                tracer.set_request(pass);
                tracer.leaf(Layer::FleetRun, || run_fleet(&cfg))
            } else {
                run_fleet(&cfg)
            };
            let secs = t.elapsed().as_secs_f64();
            if reference.is_empty() {
                reference = r.stats.to_json();
            }
            check_job(&mut out, &r, &reference);
            if traced {
                on.push((r, secs));
            } else {
                off.push(secs);
            }
        }
        pass += 1;
    }
    let ledger = tracer.ledger();
    let run = &ledger[Layer::FleetRun as usize];
    let on_walls: Vec<f64> = on.iter().map(|(_, s)| *s).collect();
    let (on_s, off_s) = (median(&on_walls), median(&off));
    let (r, _) = &on[0];
    let s = &r.stats;
    let requests = (s.benign_sent + s.attacks_sent) as f64;
    let shard_wall = |i: usize| {
        median(&on.iter().map(|(r, _)| r.shard_host[i].wall_seconds).collect::<Vec<_>>())
    };
    let straggler = median(
        &on.iter()
            .map(|(r, _)| {
                let walls: Vec<f64> = r.shard_host.iter().map(|h| h.wall_seconds).collect();
                let mean = walls.iter().sum::<f64>() / walls.len() as f64;
                ratio(walls.iter().copied().fold(0.0, f64::max), mean)
            })
            .collect::<Vec<_>>(),
    );
    let insns: u64 = r.shard_host.iter().map(|h| h.insns).sum();
    let block: u64 = r.shard_host.iter().map(|h| h.superblocks.block_insns).sum();
    let (pd_hits, pd_misses) = r
        .shard_host
        .iter()
        .fold((0, 0), |(h, m), x| (h + x.predecode.hits, m + x.predecode.misses));
    out.attempted = requests as u64;
    out.failed = s.benign_sent - s.benign_served;
    out.metric("trace.requests", requests);
    out.metric("trace.wall_ms", on_s * 1e3 / requests);
    out.metric("trace.overhead_pct", pct(on_s - off_s, off_s));
    out.metric("trace.coverage_pct", pct(run.self_ns as f64, on_walls.iter().sum::<f64>() * 1e9));
    out.metric("layers.ms_per_req", run.mean_ns() / 1e6 / requests);
    out.metric("fleet.shard0_wall_s", shard_wall(0));
    out.metric("fleet.shard1_wall_s", shard_wall(1));
    out.metric("fleet.straggler", straggler);
    out.metric("sim.insns", insns as f64);
    out.metric("sim.cycles", s.total_shard_cycles as f64);
    out.metric("sim.sb_coverage", ratio(block as f64, insns as f64));
    out.metric("sim.predecode_hit", ratio(pd_hits as f64, (pd_hits + pd_misses) as f64));
    out.metric("recovery.detections", s.detections as f64);
    out.metric(
        "recovery.detect_insns_mean",
        ratio(s.detection_latency_insns as f64, s.detections as f64),
    );
    Ok(out)
}
