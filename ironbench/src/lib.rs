//! The repository benchmark.
//!
//! Four seeded, closed-loop workloads — `table6`, `fingerprint`, `crash`
//! and `serve` — each measured end to end from an untraced run, and split
//! layer by layer by a traced run whose probes wrap the public interfaces
//! of the stack (see [`probe`]). `README.md` in this directory documents
//! the workloads, every metric, and how to run it.

#![forbid(unsafe_code)]

pub mod crash;
pub mod fingerprint;
pub mod kernels;
pub mod metrics;
pub mod mix;
pub mod probe;
pub mod serve;
pub mod table6;

use std::sync::Arc;

use probe::{Recorder, Tally};

/// Worker threads for every parallel workload (the benchmark host's
/// `nproc`).
pub const THREADS: usize = 2;

/// splitmix64: derives every generator seed from the benchmark seed.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile `p` (0–100) of `xs` (0 for an empty slice).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The process's peak resident set size in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One closed-loop round of a workload.
#[derive(Clone, Debug, Default)]
pub struct RoundOut {
    /// Operations attempted (VFS calls, campaign cells, crash states or
    /// serve requests).
    pub ops: u64,
    /// Operations that failed, plus one per output check that failed.
    pub failed: u64,
    /// Host seconds of the timed region (output checks excluded).
    pub timed_s: f64,
    /// Everything the round produced that must be identical in every
    /// round, traced or not: simulated ns, campaign reports, responses.
    pub identity: String,
}

/// A benchmark workload.
pub trait Workload {
    /// Build the inputs and the initial state; called several times, and
    /// only the state of the last call is kept.
    fn setup(&mut self);

    /// Run one round, probed when `rec` is given.
    fn round(&mut self, rec: Option<&Arc<Recorder>>) -> RoundOut;

    /// Per-layer metrics from the traced rounds' merged tally; `rounds`
    /// is the number of traced rounds and `wall_s` their summed timed
    /// seconds. The tally's `exec.busy_s` is the summed span of every
    /// thread that touched a probe (see [`Recorder::touch`]).
    fn layers(&self, tally: &Tally, rounds: usize, wall_s: f64) -> Vec<(String, f64)>;

    /// The Table 6 results of the last round, for the workload that runs
    /// the kernels.
    fn sims(&self) -> Option<table6::Round> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 99.0), 5.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }
}
