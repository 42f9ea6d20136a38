//! redteambench — coverage-guided red-team campaign benchmark.
//!
//! Runs the seeded `indra-redteam` campaign (four attack families:
//! in-policy JOP plants, smashed returns, dormant corruption, format
//! exhaustion) against a generated service and reports the
//! **detection-latency distribution by family**: how many instructions
//! each payload retired into its request before the monitor, watchdog
//! or a fault stopped it — and which payloads were never stopped at
//! all.
//!
//! Results go to `results/BENCH_redteam.json`. The output is
//! **byte-deterministic** for a given `--seed`: every candidate, score
//! and minimization step derives from it, and no wall-clock values are
//! written to the file. `--assert-families-min` /
//! `--assert-detections-min` / `--assert-undetected-min` turn the run
//! into a self-checking smoke test.

use std::process::ExitCode;
use std::time::Instant;

use indra_bench::cli::{self, Cli};
use indra_bench::help_text;
use indra_core::json::{json_array, JsonObject};
use indra_redteam::{run_campaign, CampaignConfig, FamilyReport};

struct Args {
    quick: bool,
    seed: u64,
    out: String,
    assert_families_min: Option<u64>,
    assert_detections_min: Option<u64>,
    assert_undetected_min: Option<u64>,
}

const REDTEAMBENCH: Cli = Cli {
    about: "redteambench — coverage-guided red-team campaign benchmark",
    tool: "redteambench",
    flags: &[
        ("--quick", ""),
        ("--seed", "N"),
        ("--out", "PATH"),
        ("--assert-families-min", "N"),
        ("--assert-detections-min", "N"),
        ("--assert-undetected-min", "N"),
    ],
    operands: "",
    prose: "\
Evolves attack payloads across four families (jop_chain, rop_ret,
dormant_span, exhaust) against a generated service, scores each by how
far it got before detection, and writes the detection-latency
distribution by family to results/BENCH_redteam.json. Output is
byte-deterministic for a given --seed. The assert flags exit non-zero
when fewer than N families were exercised, fewer than N candidates
were detected, or fewer than N ran undetected.",
};
const USAGE: &str = help_text!(REDTEAMBENCH);

fn parse_args() -> Result<Args, String> {
    REDTEAMBENCH.parse(USAGE, std::env::args().skip(1), |a| {
        Ok(Args {
            quick: a.has("--quick"),
            seed: a.num("--seed", .., 1)?,
            out: a.get("--out").unwrap_or("results/BENCH_redteam.json").to_owned(),
            assert_families_min: a.opt("--assert-families-min", ..)?,
            assert_detections_min: a.opt("--assert-detections-min", ..)?,
            assert_undetected_min: a.opt("--assert-undetected-min", ..)?,
        })
    })
}

/// Latency distribution over the detected candidates of one family.
fn latency_json(lat: &[u64]) -> String {
    let mut o = JsonObject::new();
    o.u64("count", lat.len() as u64);
    if let (Some(&min), Some(&max)) = (lat.first(), lat.last()) {
        let mean = lat.iter().sum::<u64>() / lat.len() as u64;
        o.u64("min", min).u64("p50", lat[lat.len() / 2]).u64("max", max).u64("mean", mean);
    }
    o.finish()
}

fn family_json(f: &FamilyReport) -> String {
    let lat = f.latencies();
    let b = &f.best;
    JsonObject::new()
        .str("family", f.family.as_str())
        .u64("evaluated", f.evaluated.len() as u64)
        .u64("detected", lat.len() as u64)
        .u64("undetected", f.undetected() as u64)
        .raw("latency", &latency_json(&lat))
        .raw("latencies", &json_array(lat.iter().map(u64::to_string)))
        .raw(
            "best",
            &JsonObject::new()
                .str("genome", &b.genome.serialize())
                .bool("detected", b.score.detected)
                .str("cause", b.score.cause.as_str())
                .u64("insns_into_request", b.score.insns_into_request)
                .u64("writes_landed", u64::from(b.score.writes_landed))
                .u64("policy_checks_passed", b.score.policy_checks_passed)
                .u64("requests_survived", u64::from(b.score.requests_survived))
                .u64("fitness", b.score.fitness)
                .finish(),
        )
        .finish()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => return cli::exit(&msg, USAGE),
    };
    let cfg = CampaignConfig {
        seed: args.seed,
        cohort: if args.quick { 2 } else { 6 },
        mutations: if args.quick { 1 } else { 6 },
        ..CampaignConfig::default()
    };

    println!(
        "redteambench: seed {}, {} on {}@{} (timeout {} insns), cohort {}, mutations {}",
        cfg.seed,
        if args.quick { "quick" } else { "full" },
        cfg.eval.app,
        cfg.eval.scale,
        cfg.eval.request_timeout_insns,
        cfg.cohort,
        cfg.mutations,
    );
    let started = Instant::now();
    let report = run_campaign(&cfg);
    let wall = started.elapsed().as_secs_f64();

    println!(
        "{:>14} {:>5} {:>7} {:>6} {:>10} {:>10} {:>10}  best",
        "family", "evald", "detect", "undet", "lat min", "lat p50", "lat max"
    );
    for f in &report.families {
        let lat = f.latencies();
        let (min, p50, max) = if lat.is_empty() {
            ("-".into(), "-".into(), "-".into())
        } else {
            (lat[0].to_string(), lat[lat.len() / 2].to_string(), lat[lat.len() - 1].to_string())
        };
        println!(
            "{:>14} {:>5} {:>7} {:>6} {:>10} {:>10} {:>10}  {} ({}, {} insns, {} writes)",
            f.family.as_str(),
            f.evaluated.len(),
            lat.len(),
            f.undetected(),
            min,
            p50,
            max,
            f.best.genome.serialize(),
            if f.best.score.detected { f.best.score.cause.as_str() } else { "undetected" },
            f.best.score.insns_into_request,
            f.best.score.writes_landed,
        );
    }

    let detections = report.detections() as u64;
    let undetected: u64 = report.families.iter().map(|f| f.undetected() as u64).sum();
    println!(
        "totals: {} candidates, {} detected, {} undetected in {wall:.1}s",
        report.evaluated(),
        detections,
        undetected,
    );

    // No wall-clock in the file: byte-determinism is a contract here.
    let json = JsonObject::new()
        .str("bench", "redteam")
        .bool("quick", args.quick)
        .u64("seed", report.seed)
        .str("app", cfg.eval.app.name())
        .u64("scale", u64::from(cfg.eval.scale))
        .u64("request_timeout_insns", cfg.eval.request_timeout_insns)
        .u64("cohort", u64::from(cfg.cohort))
        .u64("mutations", u64::from(cfg.mutations))
        .raw("families", &json_array(report.families.iter().map(family_json)))
        .u64("evaluated", report.evaluated() as u64)
        .u64("detections", detections)
        .u64("undetected", undetected)
        .finish();
    cli::write_out(&args.out, &format!("{json}\n")).expect("write results json");
    println!("wrote {}", args.out);

    let families_exercised =
        report.families.iter().filter(|f| !f.evaluated.is_empty()).count() as u64;
    let floors = cli::floor("families exercised", families_exercised, args.assert_families_min)
        .and(cli::floor("detections", detections, args.assert_detections_min))
        .and(cli::floor("undetected candidates", undetected, args.assert_undetected_min));
    if let Err(msg) = floors {
        eprintln!("redteambench: {msg}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
