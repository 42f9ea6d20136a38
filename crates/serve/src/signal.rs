//! Minimal std-only SIGINT/SIGTERM handling.
//!
//! The workspace builds with no external crates, so instead of a signal
//! crate this uses the one libc entry point the handlers need:
//! `signal(2)` with a handler that only stores to a static
//! `AtomicBool` (the async-signal-safe subset). Consumers poll the
//! flag — the fleet driver between requests
//! ([`indra_fleet::FleetConfig::shutdown`]), `fleetd`'s main loop
//! between health polls — so delivery timing never races anything.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the handler on the first SIGINT or SIGTERM.
pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

extern "C" fn handle(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs the SIGINT/SIGTERM handlers and returns the flag they
/// raise. Safe to call more than once. The second signal still lands
/// in the same handler, so a graceful drain cannot be interrupted into
/// a torn store by mashing ctrl-C (SIGKILL remains available and is
/// exactly what the ingress log + checkpoints are designed to survive).
pub fn install_shutdown_handler() -> &'static AtomicBool {
    unsafe {
        signal(SIGINT, handle);
        signal(SIGTERM, handle);
    }
    &SHUTDOWN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handler_raises_the_flag() {
        let flag = install_shutdown_handler();
        assert!(!flag.load(Ordering::SeqCst));
        handle(SIGINT);
        assert!(flag.load(Ordering::SeqCst));
        SHUTDOWN.store(false, Ordering::SeqCst);
    }
}
