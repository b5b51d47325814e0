//! The `table6` workload: the PostMark and TPC-B kernels on stock ext3 and
//! the six headline ixt3 variants, and Web on stock ext3 and full ixt3 —
//! 16 kernel runs per round on the timed `ata_7200rpm` disk.

use std::sync::Arc;

use iron_core::BLOCK_SIZE;
use iron_ext3::IronConfig;

use crate::kernels::{self, Kernel, KernelRun};
use crate::probe::{Recorder, Tally};
use crate::{median, percentile, RoundOut, Workload};

/// A Table 6 variant: its metric label and its configuration.
pub type Variant = (&'static str, IronConfig);

/// Stock ext3 with the journaling bugs fixed — Table 6's row 0.
pub fn stock() -> IronConfig {
    IronConfig {
        fix_bugs: true,
        ..IronConfig::off()
    }
}

/// The variants run: row 0, each single mechanism, and all five.
pub fn variants() -> Vec<Variant> {
    let base = stock();
    vec![
        ("stock", base),
        (
            "mc",
            IronConfig {
                meta_checksum: true,
                ..base
            },
        ),
        (
            "mr",
            IronConfig {
                meta_replication: true,
                ..base
            },
        ),
        (
            "dc",
            IronConfig {
                data_checksum: true,
                ..base
            },
        ),
        (
            "dp",
            IronConfig {
                data_parity: true,
                ..base
            },
        ),
        (
            "tc",
            IronConfig {
                txn_checksum: true,
                ..base
            },
        ),
        ("full", IronConfig::full()),
    ]
}

/// The (kernel, variant) cells of one round, stock first per kernel.
pub fn cells() -> Vec<(Kernel, Variant)> {
    let mut out = Vec::new();
    for k in [Kernel::PostMark, Kernel::TpcB] {
        for v in variants() {
            out.push((k, v));
        }
    }
    for v in variants() {
        if v.0 == "stock" || v.0 == "full" {
            out.push((Kernel::Web, v));
        }
    }
    out
}

/// The paper's Table 6 ratios for the cells this workload runs, from
/// the paper column of EXPERIMENTS.md: rows Mc, Mr, Dc, Dp, Tc and all
/// for PostMark and TPC-B, and Web = 1.00 for full ixt3.
pub const PAPER: [(Kernel, &str, f64); 13] = [
    (Kernel::PostMark, "mc", 1.01),
    (Kernel::PostMark, "mr", 1.18),
    (Kernel::PostMark, "dc", 1.13),
    (Kernel::PostMark, "dp", 1.07),
    (Kernel::PostMark, "tc", 1.06),
    (Kernel::PostMark, "full", 1.32),
    (Kernel::TpcB, "mc", 1.00),
    (Kernel::TpcB, "mr", 1.19),
    (Kernel::TpcB, "dc", 1.19),
    (Kernel::TpcB, "dp", 1.03),
    (Kernel::TpcB, "tc", 0.80),
    (Kernel::TpcB, "full", 1.21),
    (Kernel::Web, "full", 1.00),
];

/// Mean |simulated ratio − paper ratio| over the paper cells present in
/// `ratios` (keyed by kernel and variant label). `None` when no paper
/// cell was run.
pub fn table6_err(ratios: &[(Kernel, &str, f64)], paper: &[(Kernel, &str, f64)]) -> Option<f64> {
    let diffs: Vec<f64> = paper
        .iter()
        .filter_map(|(k, v, want)| {
            ratios
                .iter()
                .find(|(rk, rv, _)| rk == k && rv == v)
                .map(|(_, _, got)| (got - want).abs())
        })
        .collect();
    (!diffs.is_empty()).then(|| diffs.iter().sum::<f64>() / diffs.len() as f64)
}

/// Extra inputs the stock PostMark and TPC-B kernels run on per round.
/// One input's simulated time moves by several percent from seed to seed
/// (journal commits land on whole disk revolutions), so the stock times
/// reported are means over `1 + STOCK_INPUTS` inputs.
pub const STOCK_INPUTS: u64 = 7;

/// One round: every cell once on input 0, plus the stock PostMark and
/// TPC-B kernels on inputs `1..=STOCK_INPUTS`.
#[derive(Clone, Debug)]
pub struct Round {
    /// `(kernel, variant, run)` in [`cells`] order, then the extra stock
    /// runs.
    pub runs: Vec<(Kernel, &'static str, KernelRun)>,
}

impl Round {
    /// Simulated ns of every run, in order (must not vary across rounds).
    pub fn sim_ns(&self) -> Vec<u64> {
        self.runs.iter().map(|(_, _, r)| r.sim_ns).collect()
    }

    /// Mean simulated seconds of `kernel` on stock ext3 over every input.
    pub fn stock_sim_s(&self, kernel: Kernel) -> f64 {
        let sims: Vec<f64> = self
            .runs
            .iter()
            .filter(|(k, v, _)| *k == kernel && *v == "stock")
            .map(|(_, _, r)| r.sim_ns as f64 / 1e9)
            .collect();
        sims.iter().sum::<f64>() / sims.len() as f64
    }

    fn run(&self, kernel: Kernel, variant: &str) -> &KernelRun {
        &self
            .runs
            .iter()
            .find(|(k, v, _)| *k == kernel && *v == variant)
            .expect("cell ran")
            .2
    }

    /// The cells on input 0.
    pub fn cells(&self) -> &[(Kernel, &'static str, KernelRun)] {
        &self.runs[..cells().len()]
    }

    /// Every non-stock cell's simulated time over its kernel's stock run
    /// on the same input.
    pub fn ratios(&self) -> Vec<(Kernel, &'static str, f64)> {
        self.cells()
            .iter()
            .filter(|(_, v, _)| *v != "stock")
            .map(|(k, v, r)| {
                (
                    *k,
                    *v,
                    r.sim_ns as f64 / self.run(*k, "stock").sim_ns as f64,
                )
            })
            .collect()
    }

    /// [`table6_err`] against the embedded paper cells.
    pub fn err(&self) -> f64 {
        table6_err(&self.ratios(), &PAPER).expect("paper cells ran")
    }

    /// VFS calls issued.
    pub fn calls(&self) -> u64 {
        self.runs.iter().map(|(_, _, r)| r.calls).sum()
    }

    /// Failed kernel runs.
    pub fn failed(&self) -> u64 {
        self.runs.iter().map(|(_, _, r)| r.failed).sum()
    }

    /// Host seconds over the kernels (mkfs and mount excluded).
    pub fn host_s(&self) -> f64 {
        self.runs.iter().map(|(_, _, r)| r.host_s).sum()
    }
}

/// Run one round at benchmark seed `seed`.
pub fn round(seed: u64, rec: Option<&Arc<Recorder>>) -> Round {
    let mut runs: Vec<_> = cells()
        .into_iter()
        .map(|(k, (label, iron))| (k, label, kernels::run(k, iron, k.seed_for(seed, 0), rec)))
        .collect();
    for input in 1..=STOCK_INPUTS {
        for k in [Kernel::PostMark, Kernel::TpcB] {
            let run = kernels::run(k, stock(), k.seed_for(seed, input), rec);
            runs.push((k, "stock", run));
        }
    }
    Round { runs }
}

/// The `table6` workload at one benchmark seed.
pub struct Table6 {
    seed: u64,
    last: Option<Round>,
    traced: Vec<Round>,
}

impl Table6 {
    /// The workload at benchmark seed `seed`.
    pub fn new(seed: u64) -> Self {
        Table6 {
            seed,
            last: None,
            traced: Vec::new(),
        }
    }
}

impl Workload for Table6 {
    /// Format and mount each variant's file system once — the part of
    /// every kernel run that the throughput excludes.
    fn setup(&mut self) {
        for (_, iron) in variants() {
            kernels::format_and_mount(iron);
        }
    }

    fn round(&mut self, rec: Option<&Arc<Recorder>>) -> RoundOut {
        let r = round(self.seed, rec);
        let out = RoundOut {
            ops: r.calls(),
            failed: r.failed(),
            timed_s: r.host_s(),
            identity: format!("{:?}", r.sim_ns()),
        };
        if rec.is_some() {
            self.traced.push(r.clone());
        }
        self.last = Some(r);
        out
    }

    fn sims(&self) -> Option<Round> {
        self.last.clone()
    }

    fn layers(&self, t: &Tally, rounds: usize, _wall_s: f64) -> Vec<(String, f64)> {
        let n = rounds.max(1) as f64;
        let per = |k: &str| t.sum(k) / n;
        let vfs_us = t.samples("vfs.host_us");
        let fsync_ms = t.samples("vfs.fsync.sim_ms");
        let mut out: Vec<(String, f64)> = vec![
            ("vfs.calls".into(), vfs_us.len() as f64 / n),
            ("vfs.host_us_p50".into(), percentile(vfs_us, 50.0)),
            ("vfs.host_us_p99".into(), percentile(vfs_us, 99.0)),
            (
                "vfs.self_host_s".into(),
                per("vfs.host_s") - per("fs.host_s"),
            ),
            ("vfs.fsync.sim_ms_p50".into(), percentile(fsync_ms, 50.0)),
            ("vfs.fsync.sim_ms_p99".into(), percentile(fsync_ms, 99.0)),
            ("ext3.self_host_s".into(), per("ext3.self_host_s")),
            ("ext3.sim_cpu_s".into(), per("ext3.sim_cpu_s")),
            (
                "memdisk.write_amp".into(),
                t.sum("memdisk.writes") * BLOCK_SIZE as f64 / t.sum("fs.write_bytes").max(1.0),
            ),
        ];
        for k in [
            "memdisk.reads",
            "memdisk.writes",
            "memdisk.barriers",
            "memdisk.flushes",
            "memdisk.seeks",
            "memdisk.busy_sim_s",
            "memdisk.host_s",
            "memdisk.writes.journal",
            "memdisk.writes.meta",
            "memdisk.writes.data",
            "memdisk.writes.iron",
        ] {
            out.push((k.into(), per(k)));
        }
        if let Some(r) = self.traced.last() {
            for (k, v, ratio) in r.ratios() {
                out.push((format!("table6.{}.{v}.ratio", k.label()), ratio));
            }
        }
        for (i, (k, v, _)) in self
            .traced
            .first()
            .iter()
            .flat_map(|r| r.cells())
            .enumerate()
        {
            let host: Vec<f64> = self.traced.iter().map(|r| r.runs[i].2.host_s).collect();
            out.push((format!("table6.{}.{v}.host_s", k.label()), median(&host)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_the_mean_absolute_gap_over_paper_cells_run() {
        let paper = [
            (Kernel::PostMark, "mc", 1.00),
            (Kernel::TpcB, "tc", 0.80),
            (Kernel::Web, "full", 1.00),
        ];
        // Web was not run: only the two cells present count.
        let ratios = [
            (Kernel::PostMark, "mc", 1.10),
            (Kernel::TpcB, "tc", 0.50),
            (Kernel::PostMark, "dc", 9.00),
        ];
        let err = table6_err(&ratios, &paper).unwrap();
        assert!((err - 0.20).abs() < 1e-12, "{err}");
        assert_eq!(table6_err(&[], &paper), None);
        let exact = [(Kernel::Web, "full", 1.00)];
        assert_eq!(table6_err(&exact, &paper), Some(0.0));
    }

    #[test]
    fn every_paper_cell_is_a_cell_of_the_round() {
        let cells = cells();
        assert_eq!(cells.len(), 16);
        for (k, v, _) in PAPER {
            assert!(cells.iter().any(|(ck, (cv, _))| *ck == k && *cv == v));
        }
    }
}
