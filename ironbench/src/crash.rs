//! The `crash` workload: `standard_workloads()` on ext3 and ixt3 — record
//! each workload's write stream, enumerate its bounded crash images, and
//! recover and oracle-check every image on [`THREADS`] workers.
//!
//! The seed is the enumeration seed (which in-epoch write subsets are
//! sampled). The untraced round runs the program's own
//! `run_crash_campaign`. The traced round runs the same phases from the
//! crate's public pieces so each phase gets its own span, and must
//! produce the identical reports.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use iron_blockdev::{CrashRecorder, WriteLog};
use iron_core::exec::WorkerPool;
use iron_crash::{
    check_image, enumerate_images, materialize, run_crash_campaign, run_workload,
    standard_workloads, walk_tree, CrashCampaignOptions, CrashReport, CrashWorkload, EnumOptions,
};
use iron_fingerprint::{Ext3Adapter, FsUnderTest};
use iron_vfs::{FsEnv, Vfs};

use crate::probe::{ProbeAdapter, Recorder, Tally};
use crate::{splitmix, RoundOut, Workload, THREADS};

/// Crash-campaign state.
pub struct Crash {
    opts: CrashCampaignOptions,
    workloads: Vec<CrashWorkload>,
    images: u64,
    violations: u64,
}

impl Crash {
    /// The workload at benchmark seed `seed`.
    pub fn new(seed: u64) -> Self {
        Crash {
            opts: CrashCampaignOptions {
                enumeration: EnumOptions {
                    seed: splitmix(seed),
                    ..EnumOptions::default()
                },
                threads: THREADS,
            },
            workloads: Vec::new(),
            images: 0,
            violations: 0,
        }
    }
}

fn adapters() -> [Ext3Adapter; 2] {
    [Ext3Adapter::stock(), Ext3Adapter::ixt3()]
}

fn add(rec: &Recorder, key: &'static str, t0: Instant) {
    rec.add(key, t0.elapsed().as_secs_f64());
}

/// Every how many images the traced round times an extra materialisation.
const MATERIALIZE_SAMPLE: usize = 8;

/// `run_crash_campaign`, phase by phase, with the images checked through
/// a probed adapter.
fn traced_campaign(
    fs: &dyn FsUnderTest,
    w: &CrashWorkload,
    opts: &CrashCampaignOptions,
    rec: &Arc<Recorder>,
) -> CrashReport {
    let probe = ProbeAdapter::new(fs, rec.clone());
    let base = probe.golden(false);

    let t0 = Instant::now();
    let golden_tree = {
        let mounted = fs
            .mount_crash(CrashRecorder::new(base.snapshot()), FsEnv::new())
            .expect("golden image mounts");
        walk_tree(&mut Vfs::new(mounted)).expect("golden image walks")
    };
    let log = WriteLog::new();
    let shadow = {
        let mounted = fs
            .mount_crash(
                CrashRecorder::with_log(base.snapshot(), log.clone()),
                FsEnv::new(),
            )
            .expect("workload mount on healthy disk");
        run_workload(&mut Vfs::new(mounted), w, &log).expect("workload runs on healthy disk")
    };
    let snap = log.snapshot();
    add(rec, "crash.record_s", t0);

    let t0 = Instant::now();
    let images = enumerate_images(&snap, &opts.enumeration);
    add(rec, "crash.enumerate_s", t0);

    // `check_image` materialises every image twice inside its span; time
    // one extra materialisation of every `MATERIALIZE_SAMPLE`-th image and
    // scale it to the whole set.
    let t0 = Instant::now();
    let sampled = images.iter().step_by(MATERIALIZE_SAMPLE);
    let n = sampled.clone().count();
    for spec in sampled {
        drop(materialize(&base, &snap, spec));
    }
    let per_image = t0.elapsed().as_secs_f64() / n.max(1) as f64;
    rec.add("crash.materialize_s", 2.0 * per_image * images.len() as f64);

    let check_s = Mutex::new(0.0);
    let mut found: Vec<(usize, Vec<_>)> = WorkerPool::new(opts.threads).shard(
        &images,
        |acc: &mut Vec<(usize, Vec<_>)>, spec| {
            let t0 = Instant::now();
            let vs = check_image(&probe, &w.name, &base, &snap, &shadow, &golden_tree, spec);
            *check_s.lock().expect("a check worker panicked") += t0.elapsed().as_secs_f64();
            if !vs.is_empty() {
                acc.push((spec.index, vs));
            }
        },
        |a, b| a.extend(b),
    );
    rec.add(
        "crash.check_s",
        check_s.into_inner().expect("a check worker panicked"),
    );
    found.sort_by_key(|(index, _)| *index);

    CrashReport {
        fs: fs.name().to_string(),
        workload: w.name.to_string(),
        epochs: snap.epoch_count(),
        writes_recorded: snap.records.len(),
        flushes: snap.flush_marks.len(),
        images_checked: images.len(),
        violations: found.into_iter().flat_map(|(_, vs)| vs).collect(),
    }
}

impl Workload for Crash {
    /// Build the workload scripts and both file systems' golden images,
    /// walk each golden tree, and record every workload's write stream
    /// once (each must run on a healthy disk).
    fn setup(&mut self) {
        self.workloads = standard_workloads();
        for a in adapters() {
            let base = a.golden(false);
            let mounted = a
                .mount_crash(CrashRecorder::new(base.snapshot()), FsEnv::new())
                .expect("golden image mounts");
            walk_tree(&mut Vfs::new(mounted)).expect("golden image walks");
            for w in &self.workloads {
                let log = WriteLog::new();
                let mounted = a
                    .mount_crash(
                        CrashRecorder::with_log(base.snapshot(), log.clone()),
                        FsEnv::new(),
                    )
                    .expect("workload mount on healthy disk");
                run_workload(&mut Vfs::new(mounted), w, &log)
                    .expect("workload runs on healthy disk");
            }
        }
    }

    fn round(&mut self, rec: Option<&Arc<Recorder>>) -> RoundOut {
        let t0 = Instant::now();
        let mut reports: Vec<CrashReport> = Vec::new();
        for a in &adapters() {
            for w in &self.workloads {
                reports.push(match rec {
                    None => run_crash_campaign(a, w, &self.opts),
                    Some(rec) => traced_campaign(a, w, &self.opts, rec),
                });
            }
        }
        let timed_s = t0.elapsed().as_secs_f64();
        self.images = reports.iter().map(|r| r.images_checked as u64).sum();
        self.violations = reports.iter().map(|r| r.violations.len() as u64).sum();
        // ixt3 must recover every crash image; ext3's violations are the
        // paper's finding, not a failure of the run.
        let ixt3_violations = reports
            .iter()
            .filter(|r| r.fs == Ext3Adapter::ixt3().name())
            .map(|r| r.violations.len() as u64)
            .sum();
        RoundOut {
            ops: self.images,
            failed: ixt3_violations,
            timed_s,
            identity: format!("{reports:?}"),
        }
    }

    fn layers(&self, t: &Tally, rounds: usize, wall_s: f64) -> Vec<(String, f64)> {
        let n = rounds.max(1) as f64;
        let recover = t.sum("fsut.mount_s");
        let walk = t.sum("fs.host_s");
        let fsck = t.sum("fsut.fsck_s");
        let materialize = t.sum("crash.materialize_s");
        let oracle = t.sum("crash.check_s") - recover - walk - fsck - materialize;
        vec![
            ("crash.images".into(), self.images as f64),
            ("crash.violations".into(), self.violations as f64),
            ("crash.record_s".into(), t.sum("crash.record_s") / n),
            ("crash.enumerate_s".into(), t.sum("crash.enumerate_s") / n),
            ("crash.materialize_s".into(), materialize / n),
            ("crash.recover_s".into(), recover / n),
            ("crash.walk_s".into(), walk / n),
            ("crash.fsck_s".into(), fsck / n),
            ("crash.oracle_s".into(), oracle.max(0.0) / n),
            (
                "exec.busy_frac".into(),
                t.sum("crash.check_s") / (THREADS as f64 * wall_s),
            ),
            ("memdisk.reads".into(), t.sum("memdisk.reads") / n),
            ("memdisk.writes".into(), t.sum("memdisk.writes") / n),
        ]
    }
}
