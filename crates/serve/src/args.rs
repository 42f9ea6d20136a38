//! Command-line tables for the `fleetd` and `loadgen` binaries (logic
//! here, thin wrappers in the root package — same split as
//! `fleetbench`), on the shared [`indra_bench::cli`] flag table.

use std::ops::Bound::Excluded;
use std::path::PathBuf;

use indra_bench::cli::Cli;
use indra_bench::help_text;
use indra_workloads::ServiceApp;

use crate::daemon::ServeConfig;

/// Parsed `fleetd` command line.
#[derive(Debug, Clone)]
pub struct FleetdArgs {
    /// Daemon configuration (ignored in replay mode except for paths).
    pub serve: ServeConfig,
    /// Replay mode: reproduce the stats of this state directory and
    /// exit (no socket, no writes).
    pub replay: Option<PathBuf>,
    /// Where to write the final deterministic stats JSON (defaults to
    /// `<state>/FLEET_stats.json` when serving, stdout-only when
    /// replaying).
    pub out: Option<PathBuf>,
}

const FLEETD: Cli = Cli {
    about: "fleetd — INDRA fleet service daemon (length-prefixed binary protocol on\n\
            loopback TCP, deterministic record/replay)",
    tool: "fleetd",
    flags: &[
        ("--state", "DIR"),
        ("--port", "N"),
        ("--shards", "N"),
        ("--app", "NAME"),
        ("--scale", "N"),
        ("--queue-depth", "N"),
        ("--checkpoint-every", "N"),
        ("--seed", "N"),
        ("--replicas", "K"),
        ("--rejuvenate-every", "N"),
        ("--no-superblocks", ""),
        ("--no-compartments", ""),
        ("--replay", "DIR"),
        ("--out", "PATH"),
        ("--quick", ""),
    ],
    operands: "",
    prose: "\
--state DIR is required unless --replay DIR is given.

--no-superblocks disables the host-side superblock execution engine
(hot basic blocks batched into pre-validated micro-op traces); the
simulated stats are byte-identical either way. Persisted to
`serve.meta`, so a resumed or replayed run keeps the setting.

--no-compartments disables per-request compartments (fine-grained
rewind-and-discard of only the guilty request's pages and heap arena
on detection). Attack-free stats are byte-identical either way; under
attack, compartments retry benign requests instead of losing them.
Persisted to `serve.meta` like the other sim knobs.

Replication: --replicas K (1-3, default 1) runs K replicas of every
shard on the identical admitted stream and votes on (outcome, output
hash, state digest) after each request. K=3 out-votes and revives any
faulty replica, the primary included; K=2 revives both and retries; a
request that fails the vote twice is tombstoned. --rejuvenate-every N
(1-1000000) revives each replica from the shard's checkpoint + ingress
tail once every N admitted requests, staggered across the K replicas
(replica r fires when (cursor + r*N/K) % N == 0; at K=1 the lone
replica too). HEALTH reports the divergence and rejuvenation counters.
Replay output is byte-identical whatever K is.

Serving: binds 127.0.0.1:<port> (0 = ephemeral; the chosen address is
printed as `fleetd listening on ADDR`), spawns one worker per shard and
serves until SIGINT/SIGTERM or a SHUTDOWN frame, then drains, writes a
final checkpoint per shard and dumps the deterministic fleet stats to
--out (default <state>/FLEET_stats.json). A --state directory from an
earlier run (even one killed with SIGKILL) is resumed: `serve.meta` is
authoritative for the sim knobs and every shard recovers checkpoint +
ingress log.

Replay: --replay re-runs DIR's per-shard ingress logs from scratch,
read-only, and prints stats JSON byte-identical to the live run's.",
};

/// `fleetd --help` text.
pub const FLEETD_USAGE: &str = help_text!(FLEETD);

/// Parses the `fleetd` command line.
///
/// # Errors
///
/// [`FLEETD_USAGE`] itself for `--help`; otherwise a message naming the
/// bad flag, followed by the usage.
pub fn parse_fleetd_args(args: impl Iterator<Item = String>) -> Result<FleetdArgs, String> {
    FLEETD.parse(FLEETD_USAGE, args, |a| {
        let d = ServeConfig::default();
        let mut engine = d.engine.clone();
        if let Some(name) = a.get("--app") {
            engine.app =
                app_by_name(name).ok_or_else(|| format!("--app: unknown service {name:?}"))?;
        }
        engine.scale = a.num("--scale", 1.., engine.scale)?;
        engine.seed = a.num("--seed", .., engine.seed)?;
        engine.superblocks = !a.has("--no-superblocks");
        engine.compartments = !a.has("--no-compartments");
        let mut serve = ServeConfig {
            engine,
            shards: a.num("--shards", 1.., d.shards)?,
            queue_depth: a.num("--queue-depth", 1.., d.queue_depth)?,
            checkpoint_every: a.num("--checkpoint-every", .., d.checkpoint_every)?,
            port: a.num("--port", .., d.port)?,
            replicas: a.num("--replicas", 1..=3, d.replicas)?,
            rejuvenate_every: a.opt("--rejuvenate-every", 1..=1_000_000)?,
            ..d
        };
        // Smoke-test shape: fewer shards at a deeper work-scale cut.
        if a.has("--quick") {
            serve.shards = serve.shards.min(2);
            serve.engine.scale = serve.engine.scale.max(60);
            serve.checkpoint_every = 4;
        }
        let replay = a.get("--replay").map(PathBuf::from);
        match (a.get("--state"), &replay) {
            (Some(dir), _) => serve.state_dir = PathBuf::from(dir),
            (None, Some(_)) => {}
            (None, None) => return Err("--state DIR is required".into()),
        }
        Ok(FleetdArgs { serve, replay, out: a.get("--out").map(PathBuf::from) })
    })
}

pub(crate) fn app_by_name(name: &str) -> Option<ServiceApp> {
    ServiceApp::ALL.iter().copied().find(|a| a.name() == name)
}

/// Parsed `loadgen` command line.
#[derive(Debug, Clone)]
pub struct LoadgenArgs {
    /// Daemon address, e.g. `127.0.0.1:4600`.
    pub addr: String,
    /// Offered loads to sweep, in requests per wall-clock second.
    pub rates: Vec<f64>,
    /// Requests per sweep point.
    pub requests: u32,
    /// Attack probability per request, in ‰ (0–1000).
    pub attack_per_mille: u32,
    /// Traffic seed (payload mix only — pacing is wall-clock).
    pub seed: u64,
    /// Where the sweep JSON goes (`--out PATH`).
    pub out: Option<PathBuf>,
    /// Smoke-test shape: two rates, few requests.
    pub quick: bool,
    /// Send a `SHUTDOWN` frame after the sweep.
    pub shutdown: bool,
    /// Fail unless the sweep observed at least this many detections.
    pub assert_min_detections: Option<u64>,
    /// How long to wait for in-flight responses after the last send.
    pub drain_timeout_ms: u64,
}

const LOADGEN: Cli = Cli {
    about: "loadgen — open-loop load generator for fleetd",
    tool: "loadgen",
    flags: &[
        ("--addr", "HOST:PORT"),
        ("--rates", "R1,R2,..."),
        ("--requests", "N"),
        ("--attack-per-mille", "N"),
        ("--seed", "N"),
        ("--out", "PATH"),
        ("--quick", ""),
        ("--shutdown", ""),
        ("--assert-min-detections", "N"),
        ("--drain-timeout-ms", "N"),
    ],
    operands: "",
    prose: "\
--addr HOST:PORT is required.

Fetches HEALTH first to learn the daemon's service app and work scale,
then replays a benign + real-exploit mix at each offered load (open
loop: send times follow the schedule, never the server). Reports, per
point, admitted/rejected counts and wall-clock latency percentiles of
admitted requests, plus the saturation knee (highest offered load whose
rejection ratio stays within 1%). --shutdown asks the daemon to drain
and exit afterwards; --assert-min-detections turns the run into a
self-checking smoke test.",
};

/// `loadgen --help` text.
pub const LOADGEN_USAGE: &str = help_text!(LOADGEN);

/// Parses the `loadgen` command line.
///
/// # Errors
///
/// [`LOADGEN_USAGE`] itself for `--help`; otherwise a message naming the
/// bad flag, followed by the usage.
pub fn parse_loadgen_args(args: impl Iterator<Item = String>) -> Result<LoadgenArgs, String> {
    LOADGEN.parse(LOADGEN_USAGE, args, |a| {
        let addr = a.get("--addr").ok_or("--addr HOST:PORT is required")?.to_owned();
        let rates = a.list("--rates", (Excluded(0.0), Excluded(f64::INFINITY)))?;
        let mut out = LoadgenArgs {
            addr,
            rates: rates.unwrap_or_else(|| vec![4.0, 8.0, 16.0, 32.0, 64.0]),
            requests: a.num("--requests", 1.., 48)?,
            attack_per_mille: a.num("--attack-per-mille", 0..=1000, 120)?,
            seed: a.num("--seed", .., 0x10ad_6e4a)?,
            out: a.get("--out").map(PathBuf::from),
            quick: a.has("--quick"),
            shutdown: a.has("--shutdown"),
            assert_min_detections: a.opt("--assert-min-detections", ..)?,
            drain_timeout_ms: a.num("--drain-timeout-ms", 1.., 30_000)?,
        };
        if out.quick {
            out.rates = vec![8.0, 96.0];
            out.requests = 16;
            out.attack_per_mille = out.attack_per_mille.max(250);
        }
        Ok(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> std::vec::IntoIter<String> {
        args.iter().map(|s| (*s).to_string()).collect::<Vec<_>>().into_iter()
    }

    #[test]
    fn fleetd_defaults_and_overrides_parse() {
        let a = parse_fleetd_args(sv(&[
            "--state",
            "/tmp/x",
            "--port",
            "4601",
            "--shards",
            "3",
            "--app",
            "bind",
            "--scale",
            "25",
            "--queue-depth",
            "7",
            "--checkpoint-every",
            "2",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(a.serve.state_dir, PathBuf::from("/tmp/x"));
        assert_eq!(a.serve.port, 4601);
        assert_eq!(a.serve.shards, 3);
        assert_eq!(a.serve.engine.app, ServiceApp::Bind);
        assert_eq!(a.serve.engine.scale, 25);
        assert_eq!(a.serve.queue_depth, 7);
        assert_eq!(a.serve.checkpoint_every, 2);
        assert_eq!(a.serve.engine.seed, 9);
        assert!(a.replay.is_none());
        assert!(a.serve.engine.superblocks, "superblocks default on");
        let a = parse_fleetd_args(sv(&["--state", "d", "--no-superblocks"])).unwrap();
        assert!(!a.serve.engine.superblocks);
        assert!(FLEETD_USAGE.contains("--no-superblocks"));
        assert!(a.serve.engine.compartments, "compartments default on");
        let a = parse_fleetd_args(sv(&["--state", "d", "--no-compartments"])).unwrap();
        assert!(!a.serve.engine.compartments);
        assert!(FLEETD_USAGE.contains("--no-compartments"));
    }

    #[test]
    fn fleetd_unknown_flag_is_an_error_with_usage() {
        let err = parse_fleetd_args(sv(&["--state", "d", "--bogus"])).unwrap_err();
        assert!(err.contains("unknown option --bogus"));
        assert!(err.contains("USAGE"), "error must carry the usage string");
    }

    #[test]
    fn fleetd_malformed_value_is_an_error() {
        assert!(parse_fleetd_args(sv(&["--state", "d", "--port", "nope"])).is_err());
        assert!(parse_fleetd_args(sv(&["--state", "d", "--shards", "0"])).is_err());
        assert!(parse_fleetd_args(sv(&["--state", "d", "--app", "notepad"])).is_err());
        assert!(parse_fleetd_args(sv(&["--state", "d", "--scale"])).is_err());
    }

    #[test]
    fn fleetd_replica_flags_parse_and_validate() {
        let a = parse_fleetd_args(sv(&["--state", "d"])).unwrap();
        assert_eq!(a.serve.replicas, 1, "unreplicated by default");
        assert_eq!(a.serve.rejuvenate_every, None);
        let a =
            parse_fleetd_args(sv(&["--state", "d", "--replicas", "3", "--rejuvenate-every", "16"]))
                .unwrap();
        assert_eq!(a.serve.replicas, 3);
        assert_eq!(a.serve.rejuvenate_every, Some(16));
        for bad in [["--replicas", "0"], ["--replicas", "4"], ["--replicas", "-1"]] {
            let err = parse_fleetd_args(sv(&["--state", "d", bad[0], bad[1]])).unwrap_err();
            assert!(err.contains("USAGE") || err.contains("--replicas"), "{err}");
        }
        for bad in [["--rejuvenate-every", "0"], ["--rejuvenate-every", "1000001"]] {
            let err = parse_fleetd_args(sv(&["--state", "d", bad[0], bad[1]])).unwrap_err();
            assert!(err.contains("[1, 1000000]"), "{err}");
        }
        assert!(FLEETD_USAGE.contains("--replicas K"));
        assert!(FLEETD_USAGE.contains("--rejuvenate-every N"));
    }

    #[test]
    fn fleetd_requires_state_unless_replaying() {
        assert!(parse_fleetd_args(sv(&["--port", "1"])).is_err());
        let a = parse_fleetd_args(sv(&["--replay", "dir"])).unwrap();
        assert_eq!(a.replay, Some(PathBuf::from("dir")));
    }

    #[test]
    fn fleetd_help_returns_the_usage_string() {
        assert_eq!(parse_fleetd_args(sv(&["--help"])).unwrap_err(), FLEETD_USAGE);
    }

    #[test]
    fn loadgen_parses_and_validates() {
        let a = parse_loadgen_args(sv(&[
            "--addr",
            "127.0.0.1:9",
            "--rates",
            "2,4.5",
            "--requests",
            "10",
            "--shutdown",
            "--assert-min-detections",
            "3",
        ]))
        .unwrap();
        assert_eq!(a.addr, "127.0.0.1:9");
        assert_eq!(a.rates, vec![2.0, 4.5]);
        assert_eq!(a.requests, 10);
        assert!(a.shutdown);
        assert_eq!(a.assert_min_detections, Some(3));
    }

    #[test]
    fn loadgen_rejects_bad_input() {
        assert!(parse_loadgen_args(sv(&[])).is_err(), "--addr is required");
        assert!(parse_loadgen_args(sv(&["--addr", "a", "--rates", "0"])).is_err());
        assert!(parse_loadgen_args(sv(&["--addr", "a", "--rates", "-3"])).is_err());
        assert!(parse_loadgen_args(sv(&["--addr", "a", "--requests", "x"])).is_err());
        let err = parse_loadgen_args(sv(&["--addr", "a", "--frobnicate"])).unwrap_err();
        assert!(err.contains("unknown option --frobnicate") && err.contains("USAGE"));
    }
}
