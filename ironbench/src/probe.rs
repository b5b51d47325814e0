//! Benchmark-owned probes around the public interfaces of the stack.
//!
//! Nothing inside the program is instrumented. Each probe is a
//! pass-through wrapper that implements the same public trait as the
//! thing it wraps and records spans and counts at that boundary:
//!
//! * [`ProbeDev`] — a [`BlockDevice`] layer (device counts, device time,
//!   write classes by [`BlockTag`]);
//! * [`ProbeFs`] — a [`SpecificFs`] under `Vfs` (FS spans, FS self time,
//!   the simulated CPU charge made outside device calls);
//! * [`ProbeAdapter`] — an [`FsUnderTest`] around the campaign adapters
//!   (golden images, mounts, fsck, and the mounted instances).
//!
//! Probes keep their tallies locally and merge them into the shared
//! [`Recorder`] when dropped, so the hot path takes no lock.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::Instant;

use iron_blockdev::{BlockDevice, DiskResult, IoTrace, MemDisk, RawAccess};
use iron_core::{Block, BlockAddr, BlockTag, IoKind, SimClock};
use iron_fingerprint::adapters::{CampaignDevice, CrashDevice, RetryDevice};
use iron_fingerprint::FsUnderTest;
use iron_vfs::types::Ino;
use iron_vfs::{DirEntry, FsEnv, InodeAttr, SpecificFs, StatFs, VfsResult};

/// Shared sink for probe tallies: named sums and named sample sets.
pub struct Recorder {
    inner: Mutex<Tally>,
    owner: ThreadId,
    threads: Mutex<HashMap<ThreadId, (Instant, Instant)>>,
}

/// What a [`Recorder`] holds.
#[derive(Default, Clone, Debug)]
pub struct Tally {
    /// Named running sums (counts, seconds).
    pub sums: BTreeMap<&'static str, f64>,
    /// Named sample sets (for percentiles).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tally {
    /// The sum under `key` (0 when nothing was recorded).
    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// The samples under `key` (empty when nothing was recorded).
    pub fn samples(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], |v| v.as_slice())
    }

    fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_insert(0.0) += v;
    }

    fn merge(&mut self, other: Tally) {
        for (k, v) in other.sums {
            self.add(k, v);
        }
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
    }
}

impl Recorder {
    /// A fresh, empty recorder behind an `Arc` (probes share it). The
    /// calling thread is its owner, the main thread rather than a worker.
    pub fn shared() -> Arc<Recorder> {
        Arc::new(Recorder {
            inner: Mutex::default(),
            owner: thread::current().id(),
            threads: Mutex::default(),
        })
    }

    /// Add `v` to the sum under `key`.
    pub fn add(&self, key: &'static str, v: f64) {
        self.inner.lock().expect(POISONED).add(key, v);
    }

    /// Append one sample under `key`.
    pub fn sample(&self, key: &'static str, v: f64) {
        self.inner
            .lock()
            .expect(POISONED)
            .samples
            .entry(key)
            .or_default()
            .push(v);
    }

    /// Merge a locally kept tally.
    pub fn merge(&self, t: Tally) {
        self.inner.lock().expect(POISONED).merge(t);
    }

    /// Note that the calling thread is at work now: a worker thread's span
    /// runs from the first to the last moment it touched a probe. The
    /// owner thread is not a worker and is not tracked.
    pub fn touch(&self) {
        let id = thread::current().id();
        if id == self.owner {
            return;
        }
        let now = Instant::now();
        // Called from `Drop`, so it must not panic on a poisoned lock.
        let Ok(mut threads) = self.threads.lock() else {
            return;
        };
        threads
            .entry(id)
            .and_modify(|span| span.1 = now)
            .or_insert((now, now));
    }

    /// Summed span seconds of every worker thread that touched a probe.
    pub fn busy_s(&self) -> f64 {
        self.threads
            .lock()
            .expect(POISONED)
            .values()
            .map(|(a, b)| (*b - *a).as_secs_f64())
            .sum()
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> Tally {
        self.inner.lock().expect(POISONED).clone()
    }
}

const POISONED: &str = "a probe panicked while holding the recorder";

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

thread_local! {
    /// Host and simulated nanoseconds spent in the device directly under
    /// the current thread's file system. A [`ProbeFs`] span subtracts the
    /// growth of this counter to get the file system's self time.
    static BELOW_FS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The write class of a block tag: journal, metadata, data, or the IRON
/// additions (checksum table, metadata replicas, parity).
fn write_class(tag: BlockTag) -> &'static str {
    match tag.0 {
        "data" => "memdisk.writes.data",
        "cksum" | "m-replica" | "d-parity" => "memdisk.writes.iron",
        t if t.starts_with("j-") => "memdisk.writes.journal",
        _ => "memdisk.writes.meta",
    }
}

/// A pass-through [`BlockDevice`] that counts and times every request.
///
/// With `disk` set it records the `memdisk.*` counters (it sits directly
/// over the medium); with `boundary` set it is the device directly under
/// a [`ProbeFs`], and its time is subtracted from the file system's span.
/// Every method, hints included, is forwarded: a dropped `readahead`,
/// `barrier` or `flush` would change the timing model underneath.
pub struct ProbeDev<D> {
    inner: D,
    clock: Option<SimClock>,
    disk: bool,
    boundary: bool,
    sink: Sink,
}

/// A probe's local tally; merged into the shared recorder on drop (and
/// after counting the device trace the probe was handed, if any).
struct Sink {
    rec: Arc<Recorder>,
    trace: Option<(IoTrace, usize)>,
    local: Tally,
}

impl Sink {
    fn new(rec: Arc<Recorder>) -> Self {
        Sink {
            rec,
            trace: None,
            local: Tally::default(),
        }
    }

    fn publish(&mut self) {
        self.rec.merge(std::mem::take(&mut self.local));
    }
}

impl Drop for Sink {
    fn drop(&mut self) {
        if let Some((trace, mark)) = self.trace.take() {
            count_trace(&mut self.local, &trace, mark);
            self.rec.touch();
        }
        // Drop must not panic: a poisoned recorder loses this tally.
        if let Ok(mut t) = self.rec.inner.lock() {
            t.merge(std::mem::take(&mut self.local));
        }
    }
}

impl<D> ProbeDev<D> {
    /// Wrap `inner`. `clock` is the clock the medium charges, if any.
    pub fn new(
        inner: D,
        rec: Arc<Recorder>,
        clock: Option<SimClock>,
        disk: bool,
        boundary: bool,
    ) -> Self {
        ProbeDev {
            inner,
            clock,
            disk,
            boundary,
            sink: Sink::new(rec),
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The wrapped device, mutably.
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// Merge what this probe has counted so far into the recorder now
    /// (a long-lived probe would otherwise report only when dropped).
    pub fn publish(&mut self) {
        self.sink.publish();
    }

    /// Forget what this probe has counted so far (set-up traffic).
    pub fn discard(&mut self) {
        self.sink.local = Tally::default();
    }

    fn now_sim(&self) -> u64 {
        self.clock.as_ref().map_or(0, |c| c.now_ns())
    }

    fn timed<R>(&mut self, count: Option<&'static str>, f: impl FnOnce(&mut D) -> R) -> R {
        let s0 = self.now_sim();
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        let host = t0.elapsed().as_nanos() as u64;
        let sim = self.now_sim() - s0;
        if self.disk {
            let t = &mut self.sink.local;
            if let Some(k) = count {
                t.add(k, 1.0);
            }
            t.add("memdisk.host_s", secs(host));
            t.add("memdisk.busy_sim_s", secs(sim));
        }
        if self.boundary {
            BELOW_FS.with(|b| {
                let (h, s) = b.get();
                b.set((h + host, s + sim));
            });
        }
        r
    }
}

impl<D: BlockDevice> BlockDevice for ProbeDev<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_tagged(&mut self, addr: BlockAddr, tag: BlockTag) -> DiskResult<Block> {
        self.timed(Some("memdisk.reads"), |d| d.read_tagged(addr, tag))
    }

    fn write_tagged(&mut self, addr: BlockAddr, block: &Block, tag: BlockTag) -> DiskResult<()> {
        if self.disk {
            self.sink.local.add(write_class(tag), 1.0);
        }
        self.timed(Some("memdisk.writes"), |d| d.write_tagged(addr, block, tag))
    }

    fn barrier(&mut self) -> DiskResult<()> {
        self.timed(Some("memdisk.barriers"), |d| d.barrier())
    }

    fn flush(&mut self) -> DiskResult<()> {
        self.timed(Some("memdisk.flushes"), |d| d.flush())
    }

    fn readahead(&mut self, start: BlockAddr, len: u64) {
        self.timed(None, |d| d.readahead(start, len))
    }
}

impl<D: RawAccess> RawAccess for ProbeDev<D> {
    fn peek(&self, addr: BlockAddr) -> Block {
        self.inner.peek(addr)
    }

    fn poke(&mut self, addr: BlockAddr, block: &Block) {
        self.inner.poke(addr, block)
    }
}

/// A pass-through [`SpecificFs`] that times every call.
///
/// Records `fs.calls`, `fs.host_s`, `fs.call_us` samples, `fs.write_bytes`,
/// `fs.errno`, and — subtracting the device time a [`ProbeDev`] boundary
/// reported underneath — `ext3.self_host_s` and `ext3.sim_cpu_s`. When
/// built over a campaign device it also counts the medium's requests from
/// the device's I/O trace when it is dropped.
pub struct ProbeFs<F> {
    inner: F,
    clock: Option<SimClock>,
    sink: Sink,
}

impl<F> ProbeFs<F> {
    /// Wrap `inner`. `clock` is the simulated clock its device charges.
    pub fn new(inner: F, rec: Arc<Recorder>, clock: Option<SimClock>) -> Self {
        ProbeFs {
            inner,
            clock,
            sink: Sink::new(rec),
        }
    }

    /// The wrapped file system.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// The wrapped file system, mutably.
    pub fn inner_mut(&mut self) -> &mut F {
        &mut self.inner
    }

    /// Merge what this probe has counted so far into the recorder now.
    pub fn publish(&mut self) {
        self.sink.publish();
    }

    fn now_sim(&self) -> u64 {
        self.clock.as_ref().map_or(0, |c| c.now_ns())
    }

    fn span<R>(&mut self, f: impl FnOnce(&mut F) -> VfsResult<R>) -> VfsResult<R> {
        let below0 = BELOW_FS.with(|b| b.get());
        let s0 = self.now_sim();
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        let host = t0.elapsed().as_nanos() as u64;
        let sim = self.now_sim() - s0;
        let below1 = BELOW_FS.with(|b| b.get());
        let (dh, ds) = (below1.0 - below0.0, below1.1 - below0.1);
        let t = &mut self.sink.local;
        t.add("fs.calls", 1.0);
        t.add("fs.host_s", secs(host));
        t.add("ext3.self_host_s", secs(host.saturating_sub(dh)));
        t.add("ext3.sim_cpu_s", secs(sim.saturating_sub(ds)));
        t.samples
            .entry("fs.call_us")
            .or_default()
            .push(host as f64 / 1e3);
        if r.is_err() {
            t.add("fs.errno", 1.0);
        }
        r
    }
}

fn count_trace(t: &mut Tally, trace: &IoTrace, mark: usize) {
    for e in trace.since(mark) {
        match e.kind {
            IoKind::Read => t.add("memdisk.reads", 1.0),
            IoKind::Write => {
                t.add("memdisk.writes", 1.0);
                t.add(write_class(e.tag), 1.0);
            }
        }
    }
}

impl<F: SpecificFs> SpecificFs for ProbeFs<F> {
    fn env(&self) -> &FsEnv {
        self.inner.env()
    }
    fn root_ino(&self) -> Ino {
        self.inner.root_ino()
    }
    fn lookup(&mut self, dir: Ino, name: &str) -> VfsResult<Ino> {
        self.span(|f| f.lookup(dir, name))
    }
    fn getattr(&mut self, ino: Ino) -> VfsResult<InodeAttr> {
        self.span(|f| f.getattr(ino))
    }
    fn chmod(&mut self, ino: Ino, mode: u32) -> VfsResult<()> {
        self.span(|f| f.chmod(ino, mode))
    }
    fn chown(&mut self, ino: Ino, uid: u32, gid: u32) -> VfsResult<()> {
        self.span(|f| f.chown(ino, uid, gid))
    }
    fn utimes(&mut self, ino: Ino, mtime: u64) -> VfsResult<()> {
        self.span(|f| f.utimes(ino, mtime))
    }
    fn create(&mut self, dir: Ino, name: &str, mode: u32) -> VfsResult<Ino> {
        self.span(|f| f.create(dir, name, mode))
    }
    fn mkdir(&mut self, dir: Ino, name: &str, mode: u32) -> VfsResult<Ino> {
        self.span(|f| f.mkdir(dir, name, mode))
    }
    fn unlink(&mut self, dir: Ino, name: &str) -> VfsResult<()> {
        self.span(|f| f.unlink(dir, name))
    }
    fn rmdir(&mut self, dir: Ino, name: &str) -> VfsResult<()> {
        self.span(|f| f.rmdir(dir, name))
    }
    fn link(&mut self, ino: Ino, dir: Ino, name: &str) -> VfsResult<()> {
        self.span(|f| f.link(ino, dir, name))
    }
    fn symlink(&mut self, dir: Ino, name: &str, target: &str) -> VfsResult<Ino> {
        self.span(|f| f.symlink(dir, name, target))
    }
    fn readlink(&mut self, ino: Ino) -> VfsResult<String> {
        self.span(|f| f.readlink(ino))
    }
    fn rename(
        &mut self,
        src_dir: Ino,
        src_name: &str,
        dst_dir: Ino,
        dst_name: &str,
    ) -> VfsResult<()> {
        self.span(|f| f.rename(src_dir, src_name, dst_dir, dst_name))
    }
    fn read(&mut self, ino: Ino, off: u64, len: usize) -> VfsResult<Vec<u8>> {
        self.span(|f| f.read(ino, off, len))
    }
    fn write(&mut self, ino: Ino, off: u64, data: &[u8]) -> VfsResult<usize> {
        self.sink.local.add("fs.write_bytes", data.len() as f64);
        self.span(|f| f.write(ino, off, data))
    }
    fn truncate(&mut self, ino: Ino, size: u64) -> VfsResult<()> {
        self.span(|f| f.truncate(ino, size))
    }
    fn readdir(&mut self, dir: Ino) -> VfsResult<Vec<DirEntry>> {
        self.span(|f| f.readdir(dir))
    }
    fn fsync(&mut self, ino: Ino) -> VfsResult<()> {
        self.span(|f| f.fsync(ino))
    }
    fn sync(&mut self) -> VfsResult<()> {
        self.span(|f| f.sync())
    }
    fn statfs(&mut self) -> VfsResult<StatFs> {
        self.span(|f| f.statfs())
    }
    fn unmount(&mut self) -> VfsResult<()> {
        self.span(|f| f.unmount())
    }
}

/// A pass-through [`FsUnderTest`] around a campaign adapter.
///
/// Times `golden` (`fsut.golden_s`), every mount (`fsut.mounts`,
/// `fsut.mount_s`) and `fsck_issues` (`fsut.fsck_s`), and wraps every
/// mounted instance in a [`ProbeFs`] that counts the medium's requests
/// from the device trace.
pub struct ProbeAdapter<'a> {
    inner: &'a dyn FsUnderTest,
    rec: Arc<Recorder>,
}

impl<'a> ProbeAdapter<'a> {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: &'a dyn FsUnderTest, rec: Arc<Recorder>) -> Self {
        ProbeAdapter { inner, rec }
    }

    fn mounted(
        &self,
        trace: IoTrace,
        mount: impl FnOnce() -> VfsResult<Box<dyn SpecificFs>>,
    ) -> VfsResult<Box<dyn SpecificFs>> {
        let mark = trace.len();
        self.rec.touch();
        let t0 = Instant::now();
        let r = mount();
        let mut t = Tally::default();
        t.add("fsut.mounts", 1.0);
        t.add("fsut.mount_s", t0.elapsed().as_secs_f64());
        match r {
            Ok(fs) => {
                self.rec.merge(t);
                let mut probe = ProbeFs::new(fs, self.rec.clone(), None);
                probe.sink.trace = Some((trace, mark));
                Ok(Box::new(probe))
            }
            Err(e) => {
                count_trace(&mut t, &trace, mark);
                self.rec.merge(t);
                self.rec.touch();
                Err(e)
            }
        }
    }
}

impl FsUnderTest for ProbeAdapter<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn rows(&self) -> Vec<BlockTag> {
        self.inner.rows()
    }

    fn golden(&self, dirty_journal: bool) -> MemDisk {
        self.rec.touch();
        let t0 = Instant::now();
        let disk = self.inner.golden(dirty_journal);
        self.rec.add("fsut.golden_s", t0.elapsed().as_secs_f64());
        self.rec.touch();
        disk
    }

    fn mount(&self, dev: CampaignDevice, env: FsEnv) -> VfsResult<Box<dyn SpecificFs>> {
        let trace = dev.inner().trace();
        self.mounted(trace, || self.inner.mount(dev, env))
    }

    fn mount_crash(&self, dev: CrashDevice, env: FsEnv) -> VfsResult<Box<dyn SpecificFs>> {
        let trace = dev.inner().trace();
        self.mounted(trace, || self.inner.mount_crash(dev, env))
    }

    fn mount_retry(&self, dev: RetryDevice, env: FsEnv) -> VfsResult<Box<dyn SpecificFs>> {
        let trace = dev.inner().inner().trace();
        self.mounted(trace, || self.inner.mount_retry(dev, env))
    }

    fn fsck_issues(&self, dev: &MemDisk) -> Option<Vec<String>> {
        let t0 = Instant::now();
        let r = self.inner.fsck_issues(dev);
        self.rec.add("fsut.fsck_s", t0.elapsed().as_secs_f64());
        self.rec.touch();
        r
    }
}
