//! Command-line parsing for the `fleetd` and `loadgen` binaries
//! (logic here, thin wrappers in the root package — same split as
//! `fleetbench`). Unknown or malformed flags produce a usage-bearing
//! error string; the wrappers exit nonzero on it.

use std::path::PathBuf;

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
    /// Smoke-test shape: fewer shards at a deeper work-scale cut.
    pub quick: bool,
}

/// `fleetd --help` text.
pub const FLEETD_USAGE: &str = "\
fleetd — INDRA fleet service daemon (length-prefixed binary protocol on
loopback TCP, deterministic record/replay)

USAGE: fleetd --state DIR [--port N] [--shards N] [--app NAME]
              [--scale N] [--queue-depth N] [--checkpoint-every N]
              [--seed N] [--replicas K] [--rejuvenate-every N]
              [--no-superblocks] [--no-compartments] [--out PATH]
              [--quick]
       fleetd --replay DIR [--out PATH]

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
revives each replica from the shard's checkpoint + ingress tail once
every N admitted requests, staggered across the K replicas (replica r
fires when (cursor + r*N/K) % N == 0; at K=1 the lone replica too).
HEALTH reports the divergence and rejuvenation counters. Replay output
is byte-identical whatever K is.

Serving: binds 127.0.0.1:<port> (0 = ephemeral; the chosen address is
printed as `fleetd listening on ADDR`), spawns one worker per shard and
serves until SIGINT/SIGTERM or a SHUTDOWN frame, then drains, writes a
final checkpoint per shard and dumps the deterministic fleet stats to
--out (default <state>/FLEET_stats.json). A --state directory from an
earlier run (even one killed with SIGKILL) is resumed: `serve.meta` is
authoritative for the sim knobs and every shard recovers checkpoint +
ingress log.

Replay: --replay re-runs DIR's per-shard ingress logs from scratch,
read-only, and prints stats JSON byte-identical to the live run's.";

/// Parses the `fleetd` command line.
///
/// # Errors
///
/// A usage-bearing message on unknown options or unparsable values.
pub fn parse_fleetd_args(args: impl Iterator<Item = String>) -> Result<FleetdArgs, String> {
    fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
        args.next().ok_or_else(|| format!("{flag} needs a value\n{FLEETD_USAGE}"))
    }
    let mut out =
        FleetdArgs { serve: ServeConfig::default(), replay: None, out: None, quick: false };
    let mut state: Option<PathBuf> = None;
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--state" => state = Some(PathBuf::from(value(&mut args, "--state")?)),
            "--port" => {
                out.serve.port =
                    value(&mut args, "--port")?.parse().map_err(|e| format!("--port: {e}"))?;
            }
            "--shards" => {
                out.serve.shards =
                    value(&mut args, "--shards")?.parse().map_err(|e| format!("--shards: {e}"))?;
                if out.serve.shards == 0 {
                    return Err("--shards needs a positive count".into());
                }
            }
            "--app" => {
                let name = value(&mut args, "--app")?;
                out.serve.engine.app = app_by_name(&name)
                    .ok_or_else(|| format!("--app: unknown service {name:?}\n{FLEETD_USAGE}"))?;
            }
            "--scale" => {
                out.serve.engine.scale =
                    value(&mut args, "--scale")?.parse().map_err(|e| format!("--scale: {e}"))?;
                if out.serve.engine.scale == 0 {
                    return Err("--scale needs a positive divisor".into());
                }
            }
            "--queue-depth" => {
                out.serve.queue_depth = value(&mut args, "--queue-depth")?
                    .parse()
                    .map_err(|e| format!("--queue-depth: {e}"))?;
                if out.serve.queue_depth == 0 {
                    return Err("--queue-depth needs a positive depth".into());
                }
            }
            "--checkpoint-every" => {
                out.serve.checkpoint_every = value(&mut args, "--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?;
            }
            "--seed" => {
                out.serve.engine.seed =
                    value(&mut args, "--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--replicas" => {
                let k: usize = value(&mut args, "--replicas")?
                    .parse()
                    .map_err(|e| format!("--replicas: {e}\n{FLEETD_USAGE}"))?;
                if !(1..=3).contains(&k) {
                    return Err(format!("--replicas needs 1, 2 or 3 (got {k})\n{FLEETD_USAGE}"));
                }
                out.serve.replicas = k;
            }
            "--rejuvenate-every" => {
                let n: u64 = value(&mut args, "--rejuvenate-every")?
                    .parse()
                    .map_err(|e| format!("--rejuvenate-every: {e}\n{FLEETD_USAGE}"))?;
                if n == 0 || n > 1_000_000 {
                    return Err(format!(
                        "--rejuvenate-every is out of [1, 1000000] (got {n})\n{FLEETD_USAGE}"
                    ));
                }
                out.serve.rejuvenate_every = Some(n);
            }
            "--no-superblocks" => out.serve.engine.superblocks = false,
            "--no-compartments" => out.serve.engine.compartments = false,
            "--replay" => out.replay = Some(PathBuf::from(value(&mut args, "--replay")?)),
            "--out" => out.out = Some(PathBuf::from(value(&mut args, "--out")?)),
            "--quick" => out.quick = true,
            "--help" | "-h" => return Err(FLEETD_USAGE.into()),
            other => return Err(format!("unknown option {other}\n{FLEETD_USAGE}")),
        }
    }
    if out.quick {
        out.serve.shards = out.serve.shards.min(2);
        out.serve.engine.scale = out.serve.engine.scale.max(60);
        out.serve.checkpoint_every = 4;
    }
    match (state, &out.replay) {
        (Some(dir), _) => out.serve.state_dir = dir,
        (None, Some(_)) => {}
        (None, None) => return Err(format!("--state DIR is required\n{FLEETD_USAGE}")),
    }
    Ok(out)
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

/// `loadgen --help` text.
pub const LOADGEN_USAGE: &str = "\
loadgen — open-loop load generator for fleetd

USAGE: loadgen --addr HOST:PORT [--rates R1,R2,...] [--requests N]
               [--attack-per-mille N] [--seed N] [--out PATH]
               [--quick] [--shutdown] [--assert-min-detections N]
               [--drain-timeout-ms N]

Fetches HEALTH first to learn the daemon's service app and work scale,
then replays a benign + real-exploit mix at each offered load (open
loop: send times follow the schedule, never the server). Reports, per
point, admitted/rejected counts and wall-clock latency percentiles of
admitted requests, plus the saturation knee (highest offered load whose
rejection ratio stays within 1%). --shutdown asks the daemon to drain
and exit afterwards; --assert-min-detections turns the run into a
self-checking smoke test.";

/// Parses the `loadgen` command line.
///
/// # Errors
///
/// A usage-bearing message on unknown options or unparsable values.
pub fn parse_loadgen_args(args: impl Iterator<Item = String>) -> Result<LoadgenArgs, String> {
    fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
        args.next().ok_or_else(|| format!("{flag} needs a value\n{LOADGEN_USAGE}"))
    }
    let mut out = LoadgenArgs {
        addr: String::new(),
        rates: vec![4.0, 8.0, 16.0, 32.0, 64.0],
        requests: 48,
        attack_per_mille: 120,
        seed: 0x10ad_6e4a,
        out: None,
        quick: false,
        shutdown: false,
        assert_min_detections: None,
        drain_timeout_ms: 30_000,
    };
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => out.addr = value(&mut args, "--addr")?,
            "--rates" => {
                let v = value(&mut args, "--rates")?;
                out.rates = v
                    .split(',')
                    .map(|s| s.trim().parse::<f64>().map_err(|e| format!("--rates: {e}")))
                    .collect::<Result<_, _>>()?;
                if out.rates.is_empty() || out.rates.iter().any(|r| *r <= 0.0 || !r.is_finite()) {
                    return Err("--rates needs positive finite rates".into());
                }
            }
            "--requests" => {
                out.requests = value(&mut args, "--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?;
                if out.requests == 0 {
                    return Err("--requests needs a positive count".into());
                }
            }
            "--attack-per-mille" => {
                out.attack_per_mille = value(&mut args, "--attack-per-mille")?
                    .parse()
                    .map_err(|e| format!("--attack-per-mille: {e}"))?;
                if out.attack_per_mille > 1000 {
                    return Err("--attack-per-mille is out of [0, 1000]".into());
                }
            }
            "--seed" => {
                out.seed =
                    value(&mut args, "--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => out.out = Some(PathBuf::from(value(&mut args, "--out")?)),
            "--quick" => out.quick = true,
            "--shutdown" => out.shutdown = true,
            "--assert-min-detections" => {
                out.assert_min_detections = Some(
                    value(&mut args, "--assert-min-detections")?
                        .parse()
                        .map_err(|e| format!("--assert-min-detections: {e}"))?,
                );
            }
            "--drain-timeout-ms" => {
                out.drain_timeout_ms = value(&mut args, "--drain-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--drain-timeout-ms: {e}"))?;
                if out.drain_timeout_ms == 0 {
                    return Err("--drain-timeout-ms needs a positive timeout".into());
                }
            }
            "--help" | "-h" => return Err(LOADGEN_USAGE.into()),
            other => return Err(format!("unknown option {other}\n{LOADGEN_USAGE}")),
        }
    }
    if out.addr.is_empty() {
        return Err(format!("--addr HOST:PORT is required\n{LOADGEN_USAGE}"));
    }
    if out.quick {
        out.rates = vec![8.0, 96.0];
        out.requests = 16;
        out.attack_per_mille = out.attack_per_mille.max(250);
    }
    Ok(out)
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
