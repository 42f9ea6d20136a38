//! `loadgen` — open-loop load generator for `fleetd`. All logic lives
//! in [`indra_serve::loadgen`]; this wrapper only parses flags so
//! `cargo run --release --bin loadgen` works from the workspace root.

use std::process::ExitCode;

use indra::bench::cli;
use indra::serve::{parse_loadgen_args, run_loadgen, LOADGEN_USAGE};

fn main() -> ExitCode {
    match parse_loadgen_args(std::env::args().skip(1)) {
        Ok(args) => match run_loadgen(&args) {
            Ok(report) => {
                match report.knee_rps {
                    Some(knee) => println!("loadgen: saturation knee at {knee:.1} req/s offered"),
                    None => println!("loadgen: overloaded at every offered rate (no knee)"),
                }
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => cli::exit(&msg, LOADGEN_USAGE),
    }
}
