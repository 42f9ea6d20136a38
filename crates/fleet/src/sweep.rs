//! The `fleetbench` shard-count scaling sweep (logic; the thin binary
//! wrapper lives in the root package so `cargo run --bin fleetbench`
//! works from the workspace root).
//!
//! For each shard count the sweep runs the *same* per-shard workload —
//! so total work grows with the fleet — and reports sim-time throughput
//! (requests per million cycles of makespan), wall-clock throughput,
//! benign-service ratio, detection counts and latency percentiles. The
//! wall-clock speedup column is the honest parallelism signal: on a
//! multi-core host it grows with shard count; on a single hardware
//! thread it stays flat while the deterministic stats stay identical.

use indra_bench::cli::{self, Cli};
use indra_bench::{help_text, CsvSink};
use indra_core::json::{json_array, JsonObject};
use indra_persist::ScratchDir;

use crate::{
    resume_fleet, run_fleet, run_fleet_supervised, ChaosConfig, FleetConfig, FleetReport,
    SupervisorConfig,
};

/// Parsed `fleetbench` command line.
#[derive(Debug, Clone)]
pub struct SweepArgs {
    /// Shard counts to sweep, in order.
    pub shard_counts: Vec<usize>,
    /// Base fleet configuration (shards overridden per sweep point).
    pub base: FleetConfig,
    /// CSV output directory (`--csv DIR`).
    pub csv: Option<String>,
    /// Emit each point's full report as JSON (`--json`).
    pub json: bool,
    /// Resume a killed run from its checkpoint directory (`--resume
    /// DIR`); every other traffic flag is ignored — the directory's
    /// `fleet.meta` is authoritative.
    pub resume: Option<String>,
    /// Run the supervised chaos mode instead of the scaling sweep
    /// (`--chaos PROFILE`, or `--chaos campaign` for the whole ladder).
    pub chaos: Option<String>,
    /// Chaos seed override (`--chaos-seed N`).
    pub chaos_seed: Option<u64>,
    /// Revival budget override (`--max-revivals N`).
    pub max_revivals: Option<u32>,
    /// Heartbeat deadline override (`--shard-deadline-ms N`).
    pub shard_deadline_ms: Option<u64>,
    /// Shrink the workload to smoke-test size (`--quick`).
    pub quick: bool,
    /// Where the chaos JSON report goes (`--chaos-out PATH`; the
    /// campaign defaults to `results/BENCH_chaos.json`).
    pub chaos_out: Option<String>,
    /// Fail unless total revivals reach this floor
    /// (`--assert-revivals-min N`).
    pub assert_revivals_min: Option<u64>,
    /// Fail unless every chaos run's availability reaches this floor
    /// (`--assert-availability-min F`).
    pub assert_availability_min: Option<f64>,
    /// Replicas per shard (`--replicas K`, 1–3). Values above 1 switch
    /// the run to the divergence-voting replica executor (dispatched by
    /// the `fleetbench` binary — this crate only validates).
    pub replicas: usize,
    /// Proactive-rejuvenation cadence in admitted requests
    /// (`--rejuvenate-every N`).
    pub rejuvenate_every: Option<u64>,
    /// Run the replica benchmark sweep and write
    /// `results/BENCH_replica.json` (`--replica-bench`).
    pub replica_bench: bool,
    /// Fail a replicated run unless voting caught at least this many
    /// divergences (`--assert-divergences-min N`).
    pub assert_divergences_min: Option<u64>,
}

const FLEETBENCH: Cli = Cli {
    about: "fleetbench — INDRA fleet shard-count scaling sweep",
    tool: "fleetbench",
    flags: &[
        ("--shards", "1,2,4,6"),
        ("--requests", "N"),
        ("--scale", "N"),
        ("--attack-per-mille", "N"),
        ("--fault-every", "N"),
        ("--seed", "N"),
        ("--csv", "DIR"),
        ("--json", ""),
        ("--no-fast-paths", ""),
        ("--no-superblocks", ""),
        ("--no-compartments", ""),
        ("--quick", ""),
        ("--checkpoint-every", "N"),
        ("--store", "DIR"),
        ("--halt-after", "N"),
        ("--resume", "DIR"),
        ("--chaos", "PROFILE|campaign"),
        ("--chaos-seed", "N"),
        ("--max-revivals", "N"),
        ("--shard-deadline-ms", "N"),
        ("--chaos-out", "PATH"),
        ("--assert-revivals-min", "N"),
        ("--assert-availability-min", "F"),
        ("--replicas", "K"),
        ("--rejuvenate-every", "N"),
        ("--replica-bench", ""),
        ("--assert-divergences-min", "N"),
    ],
    operands: "",
    prose: "\
Each shard is fed its seeded schedule one request at a time through the
shard runner. --fault-every N injects a hardware fault right after the
request that brings a shard's served count to each multiple of N.

--no-fast-paths disables the host-side predecode and translation
caches (slow reference path); --no-superblocks disables the superblock
execution engine (hot basic blocks batched into pre-validated micro-op
traces). The deterministic stats are byte-identical either way — only
the host mips and sb% columns move.

--no-compartments disables per-request compartments (fine-grained
rewind-and-discard of only the guilty request's pages and heap arena
on detection). Attack-free fault-free stats are byte-identical either
way; under attack, compartments retry benign requests instead of
losing them, so outcomes differ by design. Compartments also shrink
WAL deltas — the wal KB/pages columns report checkpoint volume.

Crash-safe checkpointing: --checkpoint-every N durably snapshots each
shard to --store DIR after every N served requests; --halt-after K
(needs --checkpoint-every) simulates a crash by killing each shard
after its Kth checkpoint. --resume DIR restores a killed run from its
checkpoint directory and runs it to the original quota — the final
stats are byte-identical to an uninterrupted run.

Chaos mode: --chaos PROFILE (off, light, kills, stalls, wal, poison,
default, heavy) runs the fleet under supervision with that fault
schedule injected, at the largest --shards point; --chaos campaign
runs the off/light/default/heavy ladder and writes
results/BENCH_chaos.json. A checkpoint store is created automatically
(in a temp dir) when --store is absent so revival really replays from
disk. --assert-revivals-min / --assert-availability-min turn the run
into a self-checking smoke test.

Replication: --replicas K (2 or 3) runs K deterministic replicas of
every shard with per-request divergence voting — a silently corrupted
replica (--chaos stealth) votes apart, is masked and revived onto the
majority's state; the deterministic stats stay byte-identical to an
undisturbed run. Revivals restore the shard's latest checkpoint: an
in-memory cut every 4 served requests, or the durable one that
--checkpoint-every N writes to --store DIR. --rejuvenate-every N
(1-1000000) proactively
restarts each replica that way every N admitted requests, staggered so
the group keeps its voting quorum. --replica-bench runs
the K=1/2/3 detection and overhead sweep and writes
results/BENCH_replica.json. In replicated runs --chaos-out PATH saves
the deterministic FleetStats JSON and --assert-divergences-min N fails
the run unless voting caught at least N divergences.",
};

/// `fleetbench --help` text.
pub const USAGE: &str = help_text!(FLEETBENCH);

/// Parses CLI arguments (exposed for testing).
///
/// # Errors
///
/// [`USAGE`] itself for `--help`; otherwise a message naming the bad
/// flag, followed by the usage.
pub fn parse_args(args: impl Iterator<Item = String>) -> Result<SweepArgs, String> {
    FLEETBENCH.parse(USAGE, args, |a| {
        let b = FleetConfig::default();
        let chaos = a.get("--chaos").map(str::to_owned);
        if let Some(name) = chaos.as_deref().filter(|&name| name != "campaign") {
            ChaosConfig::profile(name).map_err(|e| format!("--chaos: {e}"))?;
        }
        let mut out = SweepArgs {
            shard_counts: a.list("--shards", 1..)?.unwrap_or_else(|| vec![1, 2, 4, 6]),
            base: FleetConfig {
                requests_per_shard: a.num("--requests", .., b.requests_per_shard)?,
                scale: a.num("--scale", 1.., b.scale)?,
                attack_per_mille: a.num("--attack-per-mille", 0..=1000, b.attack_per_mille)?,
                fault_every: a.opt("--fault-every", ..)?,
                seed: a.num("--seed", .., b.seed)?,
                checkpoint_every: a.num("--checkpoint-every", .., b.checkpoint_every)?,
                store_dir: a.get("--store").map(str::to_owned),
                halt_after_checkpoints: a.opt("--halt-after", ..)?,
                fast_paths: !a.has("--no-fast-paths"),
                superblocks: !a.has("--no-superblocks"),
                compartments: !a.has("--no-compartments"),
                ..b
            },
            csv: a.get("--csv").map(str::to_owned),
            json: a.has("--json"),
            resume: a.get("--resume").map(str::to_owned),
            chaos,
            chaos_seed: a.opt("--chaos-seed", ..)?,
            max_revivals: a.opt("--max-revivals", ..)?,
            shard_deadline_ms: a.opt("--shard-deadline-ms", 1..)?,
            quick: a.has("--quick"),
            chaos_out: a.get("--chaos-out").map(str::to_owned),
            assert_revivals_min: a.opt("--assert-revivals-min", ..)?,
            assert_availability_min: a.opt("--assert-availability-min", ..)?,
            replicas: a.num("--replicas", 1..=3, 1)?,
            rejuvenate_every: a.opt("--rejuvenate-every", 1..=1_000_000)?,
            replica_bench: a.has("--replica-bench"),
            assert_divergences_min: a.opt("--assert-divergences-min", ..)?,
        };
        if out.base.checkpoint_every > 0 && out.base.store_dir.is_none() {
            return Err("--checkpoint-every needs --store DIR".into());
        }
        if out.base.halt_after_checkpoints.is_some() && out.base.checkpoint_every == 0 {
            return Err("--halt-after needs --checkpoint-every".into());
        }
        if out.quick {
            // Smoke-test shape: fewer requests, deeper work-scale cut.
            out.base.requests_per_shard = 12;
            out.base.scale = 40;
        }
        Ok(out)
    })
}

/// Runs the sweep, printing the scaling table (and optional JSON) to
/// stdout and mirroring it into `<csv>/fleet_scaling.csv`.
///
/// With `--resume DIR` the sweep is skipped entirely: the checkpointed
/// fleet is restored and run to quota, and its single report returned.
///
/// # Errors
///
/// A resume failure (missing/corrupt checkpoint directory) is returned
/// as a printable message; the sweep itself only errors via panics.
pub fn run_sweep(args: &SweepArgs) -> Result<Vec<FleetReport>, String> {
    if let Some(dir) = &args.resume {
        let report = resume_fleet(dir).map_err(|e| format!("--resume {dir}: {e}"))?;
        let s = &report.stats;
        println!(
            "resumed fleet from {dir}: {} shards, served {}, benign {:.1}%, \
             attacks {}, detections {}",
            s.shards,
            s.served,
            s.benign_service_ratio * 100.0,
            s.attacks_sent,
            s.true_detections,
        );
        if args.json {
            println!("{}", report.to_json());
        }
        return Ok(vec![report]);
    }
    if let Some(name) = &args.chaos {
        return run_chaos(args, name);
    }
    let sink = match &args.csv {
        Some(dir) => CsvSink::to_dir(dir),
        None => CsvSink::disabled(),
    };
    println!(
        "fleet scaling sweep: {} requests/shard, scale 1/{}, {}‰ attacks, seed {:#x}",
        args.base.requests_per_shard, args.base.scale, args.base.attack_per_mille, args.base.seed
    );
    println!(
        "{:>6} {:>8} {:>8} {:>8} {:>7} {:>9} {:>11} {:>10} {:>7} {:>6} {:>8} {:>7} {:>9} {:>8}",
        "shards",
        "served",
        "benign%",
        "attacks",
        "detect",
        "req/Mcyc",
        "wall req/s",
        "speedup",
        "mips",
        "sb%",
        "wal KB",
        "wal pg",
        "p50 cyc",
        "p99 cyc"
    );

    let mut reports = Vec::new();
    let mut rows = Vec::new();
    let mut base_wall_rps = 0.0f64;
    for (i, &shards) in args.shard_counts.iter().enumerate() {
        let cfg = FleetConfig { shards, ..args.base.clone() };
        let report = run_fleet(&cfg);
        let s = &report.stats;
        if i == 0 {
            base_wall_rps = report.wall_req_per_sec;
        }
        // Speedup over the first sweep point, normalized per shard of
        // work: point k does (shards_k / shards_0)× the work.
        let work = shards as f64 / args.shard_counts[0] as f64;
        let speedup =
            if base_wall_rps > 0.0 { report.wall_req_per_sec / base_wall_rps } else { 0.0 };
        let wal_bytes: u64 = report.shard_host.iter().map(|h| h.wal_bytes).sum();
        let wal_pages: u64 = report.shard_host.iter().map(|h| h.wal_pages).sum();
        println!(
            "{:>6} {:>8} {:>7.1}% {:>8} {:>7} {:>9.2} {:>11.1} {:>9.2}x {:>7.2} {:>5.1}% {:>8.1} {:>7} {:>9} {:>8}",
            shards,
            s.served,
            s.benign_service_ratio * 100.0,
            s.attacks_sent,
            s.true_detections,
            s.served_per_mcycle,
            report.wall_req_per_sec,
            speedup,
            report.host_mips(),
            report.superblock_coverage() * 100.0,
            wal_bytes as f64 / 1024.0,
            wal_pages,
            s.latency.p50,
            s.latency.p99,
        );
        if args.json {
            println!("{}", report.to_json());
        }
        rows.push(vec![
            shards.to_string(),
            s.served.to_string(),
            format!("{:.4}", s.benign_service_ratio),
            s.attacks_sent.to_string(),
            s.detections.to_string(),
            s.true_detections.to_string(),
            s.micro_recoveries.to_string(),
            s.macro_recoveries.to_string(),
            format!("{:.3}", s.served_per_mcycle),
            format!("{:.1}", report.wall_req_per_sec),
            format!("{:.3}", speedup),
            format!("{:.3}", work),
            format!("{:.3}", report.host_mips()),
            format!("{:.4}", report.superblock_coverage()),
            report.shard_host.iter().map(|h| h.superblocks.translations).sum::<u64>().to_string(),
            report.shard_host.iter().map(|h| h.superblocks.hits).sum::<u64>().to_string(),
            report.shard_host.iter().map(|h| h.superblocks.invalidations).sum::<u64>().to_string(),
            wal_bytes.to_string(),
            wal_pages.to_string(),
            s.latency.p50.to_string(),
            s.latency.p95.to_string(),
            s.latency.p99.to_string(),
        ]);
        reports.push(report);
    }
    sink.write(
        "fleet_scaling",
        &[
            "shards",
            "served",
            "benign_service_ratio",
            "attacks_sent",
            "detections",
            "true_detections",
            "micro_recoveries",
            "macro_recoveries",
            "served_per_mcycle",
            "wall_req_per_sec",
            "wall_speedup",
            "relative_work",
            "mips",
            "sb_coverage",
            "sb_translations",
            "sb_hits",
            "sb_invalidations",
            "wal_bytes",
            "wal_pages",
            "p50_cycles",
            "p95_cycles",
            "p99_cycles",
        ],
        &rows,
    );
    if sink.is_enabled() {
        println!("csv: wrote fleet_scaling.csv");
    }
    Ok(reports)
}

/// The profile ladder `--chaos campaign` sweeps, in intensity order.
pub const CAMPAIGN_PROFILES: [&str; 4] = ["off", "light", "default", "heavy"];

/// Builds the supervisor policy for one chaos profile, applying the
/// CLI overrides.
fn supervisor_for(args: &SweepArgs, profile: &str) -> Result<SupervisorConfig, String> {
    let mut chaos = ChaosConfig::profile(profile)?;
    if let Some(seed) = args.chaos_seed {
        chaos.seed = seed;
    }
    let mut sup = SupervisorConfig { chaos, ..SupervisorConfig::default() };
    if let Some(m) = args.max_revivals {
        sup.max_revivals = m;
    }
    if let Some(d) = args.shard_deadline_ms {
        sup.deadline_ms = d;
    }
    Ok(sup)
}

/// Runs the supervised chaos mode: one profile, or the whole campaign
/// ladder. Prints a per-profile supervision table, optionally mirrors
/// it to CSV/JSON, and enforces the `--assert-*` floors.
///
/// # Errors
///
/// Unknown profile names, unwritable output files, and violated
/// assertion floors.
fn run_chaos(args: &SweepArgs, name: &str) -> Result<Vec<FleetReport>, String> {
    let profiles: Vec<&str> =
        if name == "campaign" { CAMPAIGN_PROFILES.to_vec() } else { vec![name] };
    let shards = *args.shard_counts.last().expect("parse_args rejects empty --shards");
    println!(
        "chaos {}: {} shards, {} requests/shard, scale 1/{}, traffic seed {:#x}",
        name, shards, args.base.requests_per_shard, args.base.scale, args.base.seed
    );
    println!(
        "{:>8} {:>8} {:>8} {:>6} {:>8} {:>11} {:>10} {:>13} {:>8} {:>8}",
        "profile",
        "revivals",
        "crashes",
        "hangs",
        "harness",
        "quarantined",
        "abandoned",
        "availability",
        "mttr ms",
        "served"
    );

    let sink = match &args.csv {
        Some(dir) => CsvSink::to_dir(dir),
        None => CsvSink::disabled(),
    };
    let mut reports = Vec::new();
    let mut rows = Vec::new();
    let mut entries = Vec::new();
    let mut total_revivals = 0u64;
    let mut worst_availability = 1.0f64;
    for profile in profiles {
        let mut cfg = FleetConfig { shards, ..args.base.clone() };
        // Revival needs a durable store; conjure a scratch one when the
        // caller did not provide theirs.
        let scratch = if cfg.store_dir.is_none() {
            let dir = ScratchDir::new(&format!("chaos-{profile}"))
                .map_err(|e| format!("scratch store: {e}"))?;
            cfg.store_dir = Some(dir.path().to_string_lossy().into_owned());
            if cfg.checkpoint_every == 0 {
                cfg.checkpoint_every = 3;
            }
            Some(dir)
        } else {
            None
        };
        let sup = supervisor_for(args, profile)?;
        let report = run_fleet_supervised(&cfg, &sup);
        drop(scratch);
        let s = report.supervision.as_ref().expect("supervised runs carry supervision stats");
        println!(
            "{:>8} {:>8} {:>8} {:>6} {:>8} {:>11} {:>10} {:>13.4} {:>8.1} {:>8}",
            profile,
            s.revivals,
            s.crashes,
            s.hangs,
            s.harness_errors,
            s.quarantined_requests,
            s.abandoned_shards,
            s.availability,
            s.mean_time_to_revive_ms,
            report.stats.served,
        );
        if args.json {
            println!("{}", report.to_json());
        }
        total_revivals += s.revivals;
        worst_availability = worst_availability.min(s.availability);
        rows.push(vec![
            profile.to_string(),
            s.revivals.to_string(),
            s.crashes.to_string(),
            s.hangs.to_string(),
            s.harness_errors.to_string(),
            s.chaos_host_events.to_string(),
            s.quarantined_requests.to_string(),
            s.abandoned_shards.to_string(),
            format!("{:.6}", s.availability),
            format!("{:.3}", s.mean_time_to_revive_ms),
            report.stats.served.to_string(),
            format!("{:.3}", report.wall_seconds),
        ]);
        entries.push(
            JsonObject::new()
                .str("profile", profile)
                .u64("shards", shards as u64)
                .u64("requests_per_shard", u64::from(cfg.requests_per_shard))
                .u64("chaos_seed", sup.chaos.seed)
                .raw("supervision", &s.to_json())
                .raw("stats", &report.stats.to_json())
                .f64("wall_seconds", report.wall_seconds)
                .finish(),
        );
        reports.push(report);
    }
    sink.write(
        "fleet_chaos",
        &[
            "profile",
            "revivals",
            "crashes",
            "hangs",
            "harness_errors",
            "chaos_host_events",
            "quarantined_requests",
            "abandoned_shards",
            "availability",
            "mttr_ms",
            "served",
            "wall_seconds",
        ],
        &rows,
    );
    if sink.is_enabled() {
        println!("csv: wrote fleet_chaos.csv");
    }

    let out_path = args
        .chaos_out
        .clone()
        .or_else(|| (name == "campaign").then(|| "results/BENCH_chaos.json".to_string()));
    if let Some(path) = out_path {
        let doc = JsonObject::new()
            .str("bench", "fleet_chaos")
            .str("mode", name)
            .raw("runs", &json_array(entries.iter().cloned()))
            .finish();
        cli::write_out(&path, &doc)?;
        println!("chaos report: wrote {path}");
    }

    cli::floor("revivals", total_revivals, args.assert_revivals_min)?;
    cli::floor("availability", worst_availability, args.assert_availability_min)?;
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<SweepArgs, String> {
        parse_args(words.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_the_full_flag_set() {
        let a = parse(&[
            "--shards",
            "2,4",
            "--requests",
            "9",
            "--scale",
            "30",
            "--attack-per-mille",
            "250",
            "--seed",
            "7",
            "--json",
            "--no-fast-paths",
            "--no-superblocks",
            "--no-compartments",
        ])
        .unwrap();
        assert_eq!(a.shard_counts, vec![2, 4]);
        assert_eq!(a.base.requests_per_shard, 9);
        assert_eq!(a.base.scale, 30);
        assert_eq!(a.base.attack_per_mille, 250);
        assert_eq!(a.base.seed, 7);
        assert!(a.json);
        assert!(!a.base.fast_paths);
        assert!(!a.base.superblocks);
        assert!(!a.base.compartments);
        let d = parse(&[]).unwrap();
        assert!(d.base.fast_paths && d.base.superblocks, "both engines default on");
        assert!(d.base.compartments, "compartments default on");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--shards", "0"]).is_err());
        assert!(parse(&["--attack-per-mille", "1001"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }

    #[test]
    fn parses_and_validates_replica_flags() {
        let a = parse(&[
            "--replicas",
            "3",
            "--rejuvenate-every",
            "8",
            "--replica-bench",
            "--assert-divergences-min",
            "2",
        ])
        .unwrap();
        assert_eq!(a.replicas, 3);
        assert_eq!(a.rejuvenate_every, Some(8));
        assert!(a.replica_bench);
        assert_eq!(a.assert_divergences_min, Some(2));
        assert_eq!(parse(&[]).unwrap().replicas, 1, "unreplicated by default");
        // 0 and absurd values are rejected with the usage text.
        for bad in [["--replicas", "0"], ["--replicas", "4"], ["--replicas", "-1"]] {
            let err = parse(&bad).unwrap_err();
            assert!(err.contains("--replicas"), "{err}");
        }
        for bad in [["--rejuvenate-every", "0"], ["--rejuvenate-every", "1000001"]] {
            let err = parse(&bad).unwrap_err();
            assert!(err.contains("--rejuvenate-every"), "{err}");
            assert!(err.contains("USAGE"), "usage must ride along: {err}");
        }
    }

    #[test]
    fn parses_chaos_flags() {
        let a = parse(&[
            "--chaos",
            "default",
            "--chaos-seed",
            "99",
            "--max-revivals",
            "3",
            "--shard-deadline-ms",
            "750",
            "--quick",
            "--chaos-out",
            "/tmp/chaos.json",
            "--assert-revivals-min",
            "1",
            "--assert-availability-min",
            "0.7",
        ])
        .unwrap();
        assert_eq!(a.chaos.as_deref(), Some("default"));
        assert_eq!(a.chaos_seed, Some(99));
        assert_eq!(a.max_revivals, Some(3));
        assert_eq!(a.shard_deadline_ms, Some(750));
        assert!(a.quick);
        assert_eq!(a.base.requests_per_shard, 12, "--quick shrinks the workload");
        assert_eq!(a.chaos_out.as_deref(), Some("/tmp/chaos.json"));
        assert_eq!(a.assert_revivals_min, Some(1));
        assert_eq!(a.assert_availability_min, Some(0.7));
        // campaign is accepted; unknown profiles and zero deadlines are not.
        assert_eq!(parse(&["--chaos", "campaign"]).unwrap().chaos.as_deref(), Some("campaign"));
        assert!(parse(&["--chaos", "frobnicate"]).is_err());
        assert!(parse(&["--shard-deadline-ms", "0"]).is_err());
    }
}
