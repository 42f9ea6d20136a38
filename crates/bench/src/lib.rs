#![warn(missing_docs)]
//! # indra-bench — the experiment harness
//!
//! Shared measurement machinery for regenerating every table and figure
//! of the paper's evaluation (§4). The [`run`] entry point drives one
//! service under one configuration and returns the [`Metrics`] every
//! figure is computed from; the `paper` binary (`cargo run -p indra-bench
//! --bin paper`) prints the actual table/figure series, and the Criterion
//! benches wrap the same runner.

pub mod cli;
mod csv;
mod hist;

pub use csv::CsvSink;
pub use hist::{Histogram, HistogramSummary};

use indra_core::{IndraSystem, MonitorConfig, RunReport, RunState, SchemeKind, SystemConfig};
use indra_isa::Image;
use indra_mem::CacheStats;
use indra_sim::{CamStats, FifoStats};
use indra_workloads::{build_service, Attack, ServiceApp, Traffic, WorkloadSpec};

/// One experiment's knobs.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The service under test.
    pub app: ServiceApp,
    /// Work-scale divisor (1 = paper scale; tests use 10–50).
    pub scale: u32,
    /// Measured benign requests.
    pub requests: u32,
    /// Warm-up requests excluded from statistics.
    pub warmup: u32,
    /// Monitoring on/off (Fig. 11's two bars).
    pub monitoring: bool,
    /// Checkpoint scheme (Table 3 / Figs. 14–16).
    pub scheme: SchemeKind,
    /// Inject an attack after every N benign requests.
    pub attack: Option<(Attack, u32)>,
    /// Trace FIFO entries (Fig. 12).
    pub fifo_entries: usize,
    /// CAM filter entries (Fig. 10); 0 disables the filter.
    pub cam_entries: usize,
    /// Monitor policy/cost overrides.
    pub monitor: MonitorConfig,
    /// Macro (application) checkpoint cadence override in requests; the
    /// paper default is 10,000 — dormant-attack experiments shrink it.
    pub macro_interval: Option<u64>,
    /// Traffic seed.
    pub seed: u64,
}

impl RunOptions {
    /// Paper-defaults for `app`: INDRA fully on, Table 4 machine.
    #[must_use]
    pub fn paper(app: ServiceApp) -> RunOptions {
        RunOptions {
            app,
            scale: 1,
            requests: 12,
            warmup: 3,
            monitoring: true,
            scheme: SchemeKind::Delta,
            attack: None,
            fifo_entries: 32,
            cam_entries: 32,
            monitor: MonitorConfig::default(),
            macro_interval: None,
            seed: 0x0001_e00a + app as u64,
        }
    }

    /// Like [`RunOptions::paper`] but scaled down for fast runs.
    #[must_use]
    pub fn quick(app: ServiceApp) -> RunOptions {
        RunOptions { scale: 10, requests: 8, warmup: 2, ..RunOptions::paper(app) }
    }
}

/// Everything the figures need from one run.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Mean resurrectee cycles per benign response, measured
    /// delivery→response (excludes queueing and recovery time).
    pub mean_response_cycles: f64,
    /// Total measured resurrectee cycles divided by benign responses —
    /// the service-time metric the paper's response-time figures use:
    /// recovery work delays subsequent clients, so it must count.
    pub cycles_per_benign: f64,
    /// Mean instructions per request (Fig. 13).
    pub insns_per_request: f64,
    /// IL1 statistics (Fig. 9).
    pub il1: CacheStats,
    /// CAM filter statistics (Fig. 10).
    pub cam: CamStats,
    /// FIFO statistics (Fig. 12).
    pub fifo: FifoStats,
    /// Scheme statistics (Figs. 14–16, Table 3).
    pub scheme: indra_core::SchemeStats,
    /// Monitor statistics.
    pub monitor: indra_core::MonitorStats,
    /// The raw run report (detections, samples).
    pub report: RunReport,
    /// Requests the harness queued.
    pub requests_sent: usize,
}

/// Builds the service image for `opts` (callers reuse it when they need
/// symbol addresses for attack targeting).
#[must_use]
pub fn build_image(opts: &RunOptions) -> Image {
    let spec = WorkloadSpec::for_app(opts.app);
    let spec = if opts.scale > 1 { spec.scaled_down(opts.scale) } else { spec };
    build_service(&spec)
}

/// Runs one experiment to completion and collects metrics.
///
/// # Panics
///
/// Panics if the run exhausts its instruction budget without the service
/// going idle — that indicates a harness bug, not a measurement.
#[must_use]
pub fn run(opts: &RunOptions) -> Metrics {
    let image = build_image(opts);
    run_with_image(opts, &image)
}

/// [`run`] against a pre-built image.
#[must_use]
pub fn run_with_image(opts: &RunOptions, image: &Image) -> Metrics {
    let mut cfg = SystemConfig {
        machine: indra_sim::MachineConfig {
            fifo_entries: opts.fifo_entries,
            cam_entries: opts.cam_entries,
            ..indra_sim::MachineConfig::default()
        },
        monitor: opts.monitor,
        monitoring: opts.monitoring,
        scheme: opts.scheme,
        ..SystemConfig::default()
    };
    if let Some(interval) = opts.macro_interval {
        cfg.hybrid.macro_interval = interval;
    }
    let mut sys = IndraSystem::new(cfg);
    sys.deploy(image).expect("deploy");

    let budget_per_request =
        WorkloadSpec::for_app(opts.app).approx_insns_per_request().max(100_000) * 6;

    // Warm-up.
    let warm = Traffic::benign(opts.warmup, opts.seed ^ 0x5EED).generate(image);
    for r in &warm {
        sys.push_request(r.data.clone(), r.malicious);
    }
    let state = sys.run(budget_per_request * u64::from(opts.warmup.max(1)));
    assert_eq!(state, RunState::Idle, "warmup must drain");
    sys.reset_measurements();

    // Measured traffic.
    let script = match opts.attack {
        Some((attack, every)) => Traffic::with_attacks(opts.requests, attack, every, opts.seed),
        None => Traffic::benign(opts.requests, opts.seed),
    }
    .generate(image);
    for r in &script {
        sys.push_request(r.data.clone(), r.malicious);
    }
    let start_cycles = sys.service_cycles();
    let budget = budget_per_request * (script.len() as u64 + 2);
    let state = sys.run(budget);
    // Halted is a legitimate outcome: undetected shellcode kills the
    // service (the unmonitored-injection experiments rely on observing
    // exactly that).
    assert_ne!(state, RunState::BudgetExhausted, "{}: run must settle", opts.app);
    let span = sys.service_cycles() - start_cycles;

    let core = sys.config().service_core;
    let benign = sys.report().benign_served.max(1);
    Metrics {
        mean_response_cycles: sys.report().mean_benign_response(),
        cycles_per_benign: span as f64 / benign as f64,
        insns_per_request: sys.report().mean_instructions_per_request(),
        il1: sys.machine().core_mem(core).il1().stats(),
        cam: sys.machine().cam(core).stats(),
        fifo: sys.machine().fifo().stats(),
        scheme: sys.scheme().stats(),
        monitor: sys.monitor().stats(),
        report: sys.report().clone(),
        requests_sent: script.len(),
    }
}

/// Convenience: the monitoring-overhead ratio for one app (Fig. 11) —
/// response time with monitoring over response time without.
#[must_use]
pub fn monitoring_overhead(app: ServiceApp, scale: u32) -> f64 {
    let mut on = RunOptions::paper(app);
    on.scale = scale;
    on.scheme = SchemeKind::None; // isolate monitoring (backup measured separately)
    let mut off = on.clone();
    off.monitoring = false;
    let with = run(&on);
    let without = run(&off);
    with.cycles_per_benign / without.cycles_per_benign
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_metrics() {
        let mut opts = RunOptions::quick(ServiceApp::Bind);
        opts.requests = 4;
        opts.warmup = 1;
        let m = run(&opts);
        assert_eq!(m.report.served, 4);
        assert!(m.mean_response_cycles > 0.0);
        assert!(m.insns_per_request > 1000.0);
        assert!(m.il1.accesses > 0);
        assert!(m.report.detections.is_empty());
    }
}
