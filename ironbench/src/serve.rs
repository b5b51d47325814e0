//! The `serve` workload: the seeded request mix of [`crate::mix`] from
//! [`SESSIONS`] clients, drained by `iron_serve::serve` on [`THREADS`]
//! workers, over ext3 on a write-back `BufferCache` over a MemDisk.
//!
//! Every batch is checked outside the timed region: its commit log must
//! pass `validate_commit_log`, and replaying it serially on a twin file
//! system (kept in lockstep, batch after batch) must reproduce every
//! response. Every errno reply is a failed operation: the mix is built so
//! that none is expected.

use std::sync::Arc;
use std::time::Instant;

use iron_blockdev::{BlockDevice, BufferCache, CachePolicy, CacheStats, MemDisk, RawAccess};
use iron_ext3::{Ext3Fs, Ext3Options, Ext3Params};
use iron_serve::{replay_serial, serve, validate_commit_log, CommitRecord, ServeOptions, Session};
use iron_vfs::{FsEnv, SpecificFs, Vfs};

use crate::mix::{self, Mix};
use crate::probe::{ProbeDev, ProbeFs, Recorder, Tally};
use crate::{percentile, RoundOut, Workload, THREADS};

/// Client sessions per batch.
pub const SESSIONS: usize = 16;
/// Requests per session per batch.
const REQUESTS_PER_SESSION: usize = 1024;
/// The medium: 64 MiB.
const DISK_BLOCKS: u64 = 16 * 1024;

/// The file-system geometry: four 16 MiB groups.
fn params() -> Ext3Params {
    Ext3Params {
        total_blocks: DISK_BLOCKS,
        blocks_per_group: 4096,
        inodes_per_group: 1024,
        journal_blocks: 1024,
        mirror_metadata: false,
    }
}

fn formatted() -> MemDisk {
    let mut md = MemDisk::for_tests(DISK_BLOCKS);
    Ext3Fs::<MemDisk>::mkfs(&mut md, params()).expect("mkfs");
    md
}

/// Mount ext3 over `dev` and apply the mix's fixture.
fn mount_prepared<D: BlockDevice + RawAccess>(dev: D, seed: u64) -> Vfs<Ext3Fs<D>> {
    let fs = Ext3Fs::mount(dev, FsEnv::new(), Ext3Options::default()).expect("mount");
    let mut v = Vfs::new(fs);
    prepare(&mut v, seed);
    v
}

/// Apply the fixture serially; panics if any request fails (the fixture
/// would be broken, not the engine).
fn prepare<F: SpecificFs>(v: &mut Vfs<F>, seed: u64) {
    let setup = [Session {
        id: 0,
        requests: mix::setup_requests(SESSIONS, seed),
    }];
    let log: Vec<CommitRecord> = (0..setup[0].requests.len())
        .map(|index| CommitRecord { session: 0, index })
        .collect();
    for (i, r) in replay_serial(v, &setup, &log)[0].iter().enumerate() {
        assert!(r.is_ok(), "fixture request {i} failed: {r:?}");
    }
}

/// The served stack without probes.
pub type Plain = Vfs<Ext3Fs<BufferCache<MemDisk>>>;
type Probed = Vfs<ProbeFs<Ext3Fs<ProbeDev<BufferCache<ProbeDev<MemDisk>>>>>>;

fn cache() -> CachePolicy {
    CachePolicy::write_back(1024)
}

/// A served file system, its serial-replay twin, and the request stream
/// both follow.
struct Pair<V> {
    served: V,
    twin: Plain,
    mix: Mix,
}

/// A formatted, mounted and populated [`Plain`] stack for seed `seed`.
pub fn plain(seed: u64) -> Plain {
    mount_prepared(BufferCache::new(formatted(), cache()), seed)
}

fn pair<V>(seed: u64, served: V) -> Pair<V> {
    Pair {
        served,
        twin: plain(seed),
        mix: Mix::new(seed, SESSIONS, REQUESTS_PER_SESSION),
    }
}

/// Serve one batch on `p.served` and check it against the twin.
fn serve_batch<F: SpecificFs + Send>(p: &mut Pair<Vfs<F>>) -> (RoundOut, f64) {
    let batch = p.mix.batch();
    let opts = ServeOptions::default().with_threads(THREADS);
    let t0 = Instant::now();
    let report = serve(&mut p.served, &batch, &opts);
    let timed_s = t0.elapsed().as_secs_f64();
    let errno = report
        .responses
        .iter()
        .flatten()
        .filter(|r| r.is_err())
        .count() as u64;
    let mut failed = errno;
    // `replay_serial` panics on an invalid log, so validate it first.
    if validate_commit_log(&batch, &report.commit_log).is_err()
        || replay_serial(&mut p.twin, &batch, &report.commit_log) != report.responses
    {
        failed += 1;
    }
    let out = RoundOut {
        ops: report.total_ops() as u64,
        failed,
        timed_s,
        identity: String::new(),
    };
    (out, errno as f64)
}

/// Serve state: the plain pair (untraced rounds) and, once a traced round
/// asks for it, the probed pair.
pub struct Serve {
    seed: u64,
    plain: Option<Pair<Plain>>,
    probed: Option<Pair<Probed>>,
    cache: CacheStats,
    seeks: u64,
    requests: f64,
    errno: f64,
}

impl Serve {
    /// The workload at benchmark seed `seed`.
    pub fn new(seed: u64) -> Self {
        Serve {
            seed,
            plain: None,
            probed: None,
            cache: CacheStats::default(),
            seeks: 0,
            requests: 0.0,
            errno: 0.0,
        }
    }
}

/// The served stack with probes: `Vfs` over a [`ProbeFs`] over ext3 over
/// a boundary [`ProbeDev`] over the cache over a disk [`ProbeDev`].
fn probed_stack(seed: u64, rec: &Arc<Recorder>) -> Probed {
    let disk = ProbeDev::new(formatted(), rec.clone(), None, true, false);
    let top = ProbeDev::new(
        BufferCache::new(disk, cache()),
        rec.clone(),
        None,
        false,
        true,
    );
    let mut fs = mount_prepared(top, seed).into_fs();
    // The fixture is set-up work, not part of any traced round.
    fs.device_mut().discard();
    fs.device_mut().inner_mut().inner_mut().discard();
    Vfs::new(ProbeFs::new(fs, rec.clone(), None))
}

impl Workload for Serve {
    /// Format, mount and populate the served file system and its twin.
    fn setup(&mut self) {
        self.plain = None;
        self.plain = Some(pair(self.seed, plain(self.seed)));
    }

    fn round(&mut self, rec: Option<&Arc<Recorder>>) -> RoundOut {
        let Some(rec) = rec else {
            return serve_batch(self.plain.as_mut().expect("set up")).0;
        };
        let seed = self.seed;
        let p = self
            .probed
            .get_or_insert_with(|| pair(seed, probed_stack(seed, rec)));
        let dev = |p: &Pair<Probed>| p.served.fs().inner().device().inner().stats();
        let seeks = |p: &Pair<Probed>| {
            p.served
                .fs()
                .inner()
                .device()
                .inner()
                .inner()
                .inner()
                .stats()
                .seeks
        };
        let (c0, s0) = (dev(p), seeks(p));
        let (out, errno) = serve_batch(p);
        let (c1, s1) = (dev(p), seeks(p));
        let fs = p.served.fs_mut();
        fs.publish();
        fs.inner_mut().device_mut().publish();
        fs.inner_mut()
            .device_mut()
            .inner_mut()
            .inner_mut()
            .publish();
        self.cache = add_stats(self.cache, c0, c1);
        self.seeks += s1 - s0;
        self.requests += out.ops as f64;
        self.errno += errno;
        out
    }

    fn layers(&self, t: &Tally, rounds: usize, wall_s: f64) -> Vec<(String, f64)> {
        let n = rounds.max(1) as f64;
        let c = self.cache;
        let calls = t.samples("fs.call_us");
        vec![
            ("serve.requests".into(), self.requests / n),
            ("serve.errno".into(), self.errno / n),
            ("serve.fs_busy_frac".into(), t.sum("fs.host_s") / wall_s),
            ("serve.fs_call_us_p50".into(), percentile(calls, 50.0)),
            ("serve.fs_call_us_p99".into(), percentile(calls, 99.0)),
            ("ext3.self_host_s".into(), t.sum("ext3.self_host_s") / n),
            (
                "cache.hit_ratio".into(),
                c.hits as f64 / (c.hits + c.misses).max(1) as f64,
            ),
            ("cache.writebacks".into(), c.writebacks as f64 / n),
            ("cache.sweeps".into(), c.sweeps as f64 / n),
            ("cache.destages".into(), c.destages as f64 / n),
            ("cache.evictions".into(), c.evictions as f64 / n),
            ("memdisk.reads".into(), t.sum("memdisk.reads") / n),
            ("memdisk.writes".into(), t.sum("memdisk.writes") / n),
            ("memdisk.barriers".into(), t.sum("memdisk.barriers") / n),
            ("memdisk.flushes".into(), t.sum("memdisk.flushes") / n),
            ("memdisk.seeks".into(), self.seeks as f64 / n),
            ("memdisk.host_s".into(), t.sum("memdisk.host_s") / n),
        ]
    }
}

fn add_stats(acc: CacheStats, before: CacheStats, after: CacheStats) -> CacheStats {
    CacheStats {
        hits: acc.hits + after.hits - before.hits,
        misses: acc.misses + after.misses - before.misses,
        writes_absorbed: acc.writes_absorbed + after.writes_absorbed - before.writes_absorbed,
        writebacks: acc.writebacks + after.writebacks - before.writebacks,
        sweeps: acc.sweeps + after.sweeps - before.sweeps,
        evictions: acc.evictions + after.evictions - before.evictions,
        barriers_absorbed: acc.barriers_absorbed + after.barriers_absorbed
            - before.barriers_absorbed,
        destages: acc.destages + after.destages - before.destages,
    }
}
