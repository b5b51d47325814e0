//! The `fingerprint` workload: the full ext3 (Figure 2) and ixt3
//! (Figure 3) fault campaigns, every (mode × block type × workload) cell,
//! on [`THREADS`] workers.
//!
//! The campaign is fixed by the paper; the seed permutes the order of the
//! workload columns, which changes how cells pair up across the workers
//! but not the policy each cell infers.

use std::sync::Arc;
use std::time::Instant;

use iron_fingerprint::render::render_matrix;
use iron_fingerprint::{fingerprint_fs, CampaignOptions, Ext3Adapter, FsUnderTest, Workload};

use crate::probe::{ProbeAdapter, Recorder, Tally};
use crate::{splitmix, RoundOut, Workload as BenchWorkload, THREADS};

/// Campaign state: the options (column order from the seed) and the
/// cell counts of the last round.
pub struct Fingerprint {
    seed: u64,
    opts: CampaignOptions,
    cells: u64,
    relevant: u64,
}

impl Fingerprint {
    /// The workload at benchmark seed `seed`.
    pub fn new(seed: u64) -> Self {
        Fingerprint {
            seed,
            opts: CampaignOptions::default().with_threads(THREADS),
            cells: 0,
            relevant: 0,
        }
    }
}

/// The seed's permutation of the campaign's workload columns.
fn columns(seed: u64) -> Vec<Workload> {
    let mut cols = Workload::COLUMNS.to_vec();
    let mut s = seed;
    for i in (1..cols.len()).rev() {
        s = splitmix(s);
        cols.swap(i, (s % (i as u64 + 1)) as usize);
    }
    cols
}

fn adapters() -> [Ext3Adapter; 2] {
    [Ext3Adapter::stock(), Ext3Adapter::ixt3()]
}

impl BenchWorkload for Fingerprint {
    /// Fix the column order and build both file systems' golden images
    /// (clean and dirty journal). Set-up runs nothing on snapshots: whether
    /// the allocator keeps a freed snapshot's memory or returns it to the
    /// kernel differs from process to process, and the page faults that
    /// follow would make set-up time bimodal.
    fn setup(&mut self) {
        self.opts.workloads = columns(self.seed);
        for a in adapters() {
            drop((a.golden(false), a.golden(true)));
        }
    }

    fn round(&mut self, rec: Option<&Arc<Recorder>>) -> RoundOut {
        let t0 = Instant::now();
        let matrices: Vec<_> = adapters()
            .iter()
            .map(|a| match rec {
                None => fingerprint_fs(a, &self.opts),
                Some(rec) => fingerprint_fs(&ProbeAdapter::new(a, rec.clone()), &self.opts),
            })
            .collect();
        let timed_s = t0.elapsed().as_secs_f64();
        self.cells = matrices.iter().map(|m| m.cells.len() as u64).sum();
        self.relevant = matrices.iter().map(|m| m.relevant as u64).sum();
        RoundOut {
            ops: self.cells,
            failed: 0,
            timed_s,
            identity: matrices.iter().map(render_matrix).collect(),
        }
    }

    fn layers(&self, t: &Tally, rounds: usize, wall_s: f64) -> Vec<(String, f64)> {
        let n = rounds.max(1) as f64;
        let (golden, mount, fs_ops) = (
            t.sum("fsut.golden_s"),
            t.sum("fsut.mount_s"),
            t.sum("fs.host_s"),
        );
        // Golden images are built on the main thread; everything else a
        // campaign does runs on its workers.
        let busy = t.sum("exec.busy_s") + golden;
        vec![
            ("fingerprint.cells".into(), self.cells as f64),
            ("fingerprint.relevant".into(), self.relevant as f64),
            (
                "fingerprint.fired_ratio".into(),
                self.relevant as f64 / self.cells.max(1) as f64,
            ),
            ("fingerprint.golden_s".into(), golden / n),
            ("fingerprint.mounts".into(), t.sum("fsut.mounts") / n),
            ("fingerprint.mount_s".into(), mount / n),
            ("fingerprint.fs_ops_s".into(), fs_ops / n),
            (
                "fingerprint.engine_s".into(),
                (busy - golden - mount - fs_ops).max(0.0) / n,
            ),
            ("exec.busy_frac".into(), busy / (THREADS as f64 * wall_s)),
            ("memdisk.reads".into(), t.sum("memdisk.reads") / n),
            ("memdisk.writes".into(), t.sum("memdisk.writes") / n),
        ]
    }
}
