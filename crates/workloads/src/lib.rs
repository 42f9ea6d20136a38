#![warn(missing_docs)]
//! # indra-workloads — the six evaluated network services
//!
//! The paper's testbed runs ftpd, httpd (Apache), bind, sendmail, imapd
//! and nfsd as real daemons. This crate generates their synthetic IR32
//! equivalents: one server skeleton (recv → parse → ingest → dispatch →
//! work → respond) instantiated with per-application profiles calibrated
//! to the paper's measurements — instructions per request (Fig. 13), IL1
//! miss rate (Fig. 9) and dirty-line density (Fig. 15).
//!
//! Every generated service carries two genuine vulnerabilities (a stack
//! buffer overflow in `parse` and a global-buffer overflow under the
//! handler function-pointer table in `ingest`) plus two buggy opcodes
//! (wild write, dormant pointer plant). The [`Attack`] generator produces
//! requests that really exploit them — the "attack" payloads contain
//! actual addresses and actual encoded IR32 shellcode.
//!
//! ```no_run
//! use indra_workloads::{build_app, ServiceApp, Traffic, Attack, UNMAPPED_ADDR};
//!
//! let image = build_app(ServiceApp::Httpd);
//! let script = Traffic::with_attacks(
//!     20, Attack::WildWrite { addr: UNMAPPED_ADDR }, 5, 42,
//! ).generate(&image);
//! assert!(script.iter().any(|r| r.malicious));
//! ```

mod attack;
mod gen;
mod spec;
mod traffic;

pub use attack::{
    attack_request, benign_request, detectable_attack_suite, encode_request,
    format_overscan_request, format_writes_request, injected_code_addr, shellcode_words,
    standard_attack_suite, Attack, UNMAPPED_ADDR,
};
pub use gen::{
    build_app, build_app_scaled, build_service, PAYLOAD_OFFSET, RX_CAPACITY, VULN_BUF_LEN,
};
pub use spec::{ServiceApp, WorkloadSpec};
pub use traffic::{OpenLoopTraffic, ScriptedRequest, TimedRequest, Traffic};
