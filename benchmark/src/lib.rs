//! The workspace benchmark: one command that runs a seeded workload
//! through the public API of `mdbs_core`, `mdbs_sim`, `mdbs_stats` and
//! `mdbs_obs`, checks the outputs, and prints every end-to-end metric
//! (untraced run) or every per-layer metric (traced run).
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve_burst --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every run goes through the same lifecycle — derive the catalog, store
//! and load it, validate it on held-out queries, set up a server from the
//! stored bytes and replay a trace — and the workload decides the trace
//! and where the measured time goes. `README.md` next to this crate says
//! why each workload exists and which layers it should move.

#![forbid(unsafe_code)]

pub mod clock;
pub mod gen;
pub mod host;
pub mod metrics;
pub mod run;
pub mod sites;
pub mod stats;
pub mod traced;

use std::fmt;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only bursts of estimation requests, correction off.
    ServeBurst,
    /// Requests interleaved with observations and degrades, correction on.
    ServeDrift,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::ServeBurst, Workload::ServeDrift];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeBurst => "serve_burst",
            Workload::ServeDrift => "serve_drift",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every generated input is drawn from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload NAME --seed N --seconds S --trace 0|1`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(value).ok_or_else(|| {
                        format!("unknown workload `{value}` (expected serve_burst or serve_drift)")
                    })?)
                }
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("bad --seed `{value}`"))?,
                    )
                }
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad --seconds `{value}`"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be > 0, got `{value}`"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                    })
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = Args::parse(&argv(
            "--workload serve_drift --seed 7 --seconds 35 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::ServeDrift,
                seed: 7,
                seconds: 35.0,
                trace: true,
            }
        );
    }

    #[test]
    fn rejects_bad_or_missing_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve_burst --seed 1 --seconds 0 --trace 0",
            "--workload serve_burst --seed 1 --seconds 1 --trace 2",
            "--workload serve_burst --seed 1 --seconds 1",
            "--workload serve_burst --seed",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}
