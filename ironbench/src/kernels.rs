//! The Table 6 kernels (Web, PostMark, TPC-B), ported from
//! `iron_workloads::bench` to run over any mounted stack and to take their
//! generator seed as an argument.
//!
//! At the original seeds ([`Kernel::paper_seed`]) every kernel issues the
//! same VFS calls in the same order as `iron_workloads::bench`, so the
//! simulated time is identical; the `kernel_equivalence` test pins that
//! with the probes on and off. Every VFS call goes through [`Calls`],
//! which counts it and, in a traced run, times it.

use std::sync::Arc;
use std::time::Instant;

use iron_blockdev::{BlockDevice, DiskGeometry, MemDisk, RawAccess};
use iron_core::{SimClock, BLOCK_SIZE};
use iron_ext3::{Ext3Fs, Ext3Options, Ext3Params, IronConfig};
use iron_vfs::{Fd, FsEnv, OpenFlags, SpecificFs, Vfs, VfsResult};

use crate::probe::{ProbeDev, ProbeFs, Recorder};

/// A Table 6 kernel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kernel {
    /// Read-intensive static web serving.
    Web,
    /// Metadata- and write-heavy mail-server emulation.
    PostMark,
    /// Synchronous debit-credit transactions.
    TpcB,
}

impl Kernel {
    /// Metric label.
    pub fn label(self) -> &'static str {
        match self {
            Kernel::Web => "web",
            Kernel::PostMark => "postmark",
            Kernel::TpcB => "tpcb",
        }
    }

    /// The generator seed `iron_workloads::bench` hard-codes.
    pub fn paper_seed(self) -> u64 {
        match self {
            Kernel::Web => 0xCAFE,
            Kernel::PostMark => 0xD00D,
            Kernel::TpcB => 0xACC7,
        }
    }

    /// The generator seed of input `input` at benchmark seed `seed` (never
    /// zero: the kernels' xorshift generator needs a non-zero state).
    pub fn seed_for(self, seed: u64, input: u64) -> u64 {
        crate::splitmix(seed ^ self.paper_seed() ^ input.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1
    }

    /// The matching `iron_workloads` benchmark.
    pub fn workloads_benchmark(self) -> iron_workloads::Benchmark {
        match self {
            Kernel::Web => iron_workloads::Benchmark::WebServer,
            Kernel::PostMark => iron_workloads::Benchmark::PostMark,
            Kernel::TpcB => iron_workloads::Benchmark::TpcB,
        }
    }
}

/// Deterministic xorshift64* generator (the kernels' own).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = Rng(seed | 1);
    (0..len).map(|_| (rng.next() & 0xFF) as u8).collect()
}

/// The outcome of one kernel run.
#[derive(Clone, Debug)]
pub struct KernelRun {
    /// Simulated nanoseconds over the workload (excluding mkfs/mount).
    pub sim_ns: u64,
    /// Host seconds over the same span.
    pub host_s: f64,
    /// VFS calls issued.
    pub calls: u64,
    /// VFS calls that returned an error (the kernel stops at the first).
    pub failed: u64,
}

/// The VFS surface the kernels use, counting every call and — when a
/// recorder is attached — timing it (`vfs.*`).
struct Calls<'a, F: SpecificFs> {
    v: &'a mut Vfs<F>,
    clock: SimClock,
    rec: Option<&'a Recorder>,
    calls: u64,
}

impl<F: SpecificFs> Calls<'_, F> {
    fn call<R>(
        &mut self,
        fsync: bool,
        f: impl FnOnce(&mut Vfs<F>) -> VfsResult<R>,
    ) -> VfsResult<R> {
        self.calls += 1;
        let Some(rec) = self.rec else {
            return f(self.v);
        };
        let s0 = self.clock.now_ns();
        let t0 = Instant::now();
        let r = f(self.v);
        let host = t0.elapsed().as_secs_f64();
        rec.add("vfs.host_s", host);
        rec.sample("vfs.host_us", host * 1e6);
        if fsync {
            rec.sample("vfs.fsync.sim_ms", (self.clock.now_ns() - s0) as f64 / 1e6);
        }
        r
    }

    fn mkdir(&mut self, p: &str) -> VfsResult<()> {
        self.call(false, |v| v.mkdir(p, 0o755))
    }
    fn write_file(&mut self, p: &str, data: &[u8]) -> VfsResult<()> {
        self.call(false, |v| v.write_file(p, data))
    }
    fn read_file(&mut self, p: &str) -> VfsResult<Vec<u8>> {
        self.call(false, |v| v.read_file(p))
    }
    fn unlink(&mut self, p: &str) -> VfsResult<()> {
        self.call(false, |v| v.unlink(p))
    }
    fn open(&mut self, p: &str, flags: OpenFlags) -> VfsResult<Fd> {
        self.call(false, |v| v.open(p, flags))
    }
    fn close(&mut self, fd: Fd) -> VfsResult<()> {
        self.call(false, |v| v.close(fd))
    }
    fn write(&mut self, fd: Fd, data: &[u8]) -> VfsResult<usize> {
        self.call(false, |v| v.write(fd, data))
    }
    fn pread(&mut self, fd: Fd, off: u64, len: usize) -> VfsResult<Vec<u8>> {
        self.call(false, |v| v.pread(fd, off, len))
    }
    fn pwrite(&mut self, fd: Fd, off: u64, data: &[u8]) -> VfsResult<usize> {
        self.call(false, |v| v.pwrite(fd, off, data))
    }
    fn fsync(&mut self, fd: Fd) -> VfsResult<()> {
        self.call(true, |v| v.fsync(fd))
    }
    fn sync(&mut self) -> VfsResult<()> {
        self.call(false, |v| v.sync())
    }
    fn umount(&mut self) -> VfsResult<()> {
        self.call(false, |v| v.umount())
    }
}

fn web_server<F: SpecificFs>(c: &mut Calls<'_, F>, seed: u64) -> VfsResult<()> {
    const REQUEST_NS: u64 = 20_000_000;
    let mut rng = Rng(seed);
    c.mkdir("/www")?;
    for p in 0..100 {
        let size = 4_096 + rng.below(60_000) as usize;
        c.write_file(&format!("/www/page{p}.html"), &payload(size, p as u64))?;
    }
    c.sync()?;
    let mut served = 0usize;
    while served < 25 * 1024 * 1024 {
        let p = if rng.below(100) < 80 {
            rng.below(10)
        } else {
            rng.below(100)
        } as usize;
        let data = c.read_file(&format!("/www/page{p}.html"))?;
        c.clock.advance_ns(REQUEST_NS);
        served += data.len();
    }
    Ok(())
}

fn postmark<F: SpecificFs>(c: &mut Calls<'_, F>, seed: u64) -> VfsResult<()> {
    let mut rng = Rng(seed);
    let mut files: Vec<String> = Vec::new();
    for d in 0..10 {
        c.mkdir(&format!("/pm{d}"))?;
    }
    let mut serial = 0u64;
    let mut create = |c: &mut Calls<'_, F>, rng: &mut Rng, files: &mut Vec<String>| {
        let d = rng.below(10);
        serial += 1;
        let path = format!("/pm{d}/file{serial}");
        let size = 4_096 + rng.below(60_000) as usize;
        c.write_file(&path, &payload(size, serial))?;
        files.push(path);
        VfsResult::Ok(())
    };
    for _ in 0..300 {
        create(c, &mut rng, &mut files)?;
    }
    for _ in 0..800 {
        match rng.below(4) {
            0 => create(c, &mut rng, &mut files)?,
            1 => {
                if files.len() > 50 {
                    let i = rng.below(files.len() as u64) as usize;
                    let path = files.swap_remove(i);
                    c.unlink(&path)?;
                }
            }
            2 => {
                let i = rng.below(files.len() as u64) as usize;
                c.read_file(&files[i])?;
            }
            _ => {
                let i = rng.below(files.len() as u64) as usize;
                let append = OpenFlags {
                    write: true,
                    append: true,
                    ..Default::default()
                };
                let fd = c.open(&files[i], append)?;
                c.write(fd, &payload(4_096, i as u64))?;
                c.close(fd)?;
            }
        }
    }
    c.sync()
}

fn tpc_b<F: SpecificFs>(c: &mut Calls<'_, F>, seed: u64) -> VfsResult<()> {
    let mut rng = Rng(seed);
    let db_pages = 1024u64;
    c.write_file("/accounts.db", &payload(db_pages as usize * BLOCK_SIZE, 1))?;
    c.write_file("/branches.db", &payload(16 * BLOCK_SIZE, 2))?;
    c.write_file("/history.log", b"")?;
    c.sync()?;
    let adb = c.open("/accounts.db", OpenFlags::rdwr())?;
    let bdb = c.open("/branches.db", OpenFlags::rdwr())?;
    let append = OpenFlags {
        write: true,
        append: true,
        ..Default::default()
    };
    let hist = c.open("/history.log", append)?;
    for txn in 0..1000u64 {
        let page = rng.below(db_pages);
        let off = page * BLOCK_SIZE as u64;
        let mut rec = c.pread(adb, off, BLOCK_SIZE)?;
        rec[..8].copy_from_slice(&txn.to_le_bytes());
        c.pwrite(adb, off, &rec)?;
        let boff = rng.below(16) * BLOCK_SIZE as u64;
        let mut brec = c.pread(bdb, boff, 64)?;
        brec[..8].copy_from_slice(&txn.to_le_bytes());
        c.pwrite(bdb, boff, &brec)?;
        c.write(hist, &payload(100, txn))?;
        c.clock.advance_ns(500_000);
        c.fsync(hist)?;
    }
    c.close(adb)?;
    c.close(bdb)?;
    c.close(hist)
}

/// Format and mount ext3 with `iron` over `dev`, exactly as
/// `iron_workloads::bench` does (32k-block cache, CPU charge on `clock`).
fn mount<D: BlockDevice + RawAccess>(dev: D, iron: IronConfig, clock: &SimClock) -> Ext3Fs<D> {
    let params = Ext3Params {
        mirror_metadata: iron.meta_replication,
        ..Ext3Params::medium()
    };
    let opts = Ext3Options {
        iron,
        cpu_clock: Some(clock.clone()),
        cache_blocks: 32 * 1024,
        ..Default::default()
    };
    Ext3Fs::format_and_mount(dev, FsEnv::new(), params, opts).expect("bench mount")
}

/// The disk every kernel runs on: 128 MiB on the timed 7200 rpm model.
fn disk(clock: &SimClock) -> MemDisk {
    MemDisk::new(32 * 1024, DiskGeometry::ata_7200rpm(), clock.clone())
}

fn drive<F: SpecificFs>(
    v: &mut Vfs<F>,
    kernel: Kernel,
    seed: u64,
    clock: &SimClock,
    rec: Option<&Recorder>,
) -> KernelRun {
    let start = clock.now_ns();
    let t0 = Instant::now();
    let mut c = Calls {
        v,
        clock: clock.clone(),
        rec,
        calls: 0,
    };
    let body = match kernel {
        Kernel::Web => web_server(&mut c, seed),
        Kernel::PostMark => postmark(&mut c, seed),
        Kernel::TpcB => tpc_b(&mut c, seed),
    };
    let ok = body.and_then(|()| c.umount()).is_ok();
    KernelRun {
        sim_ns: clock.now_ns() - start,
        host_s: t0.elapsed().as_secs_f64(),
        calls: c.calls,
        failed: u64::from(!ok),
    }
}

/// Run `kernel` with generator seed `seed` on a fresh ext3 mounted with
/// `iron`. With a recorder the stack is probed: `Vfs` over a [`ProbeFs`]
/// over ext3 over a [`ProbeDev`] over the medium.
pub fn run(kernel: Kernel, iron: IronConfig, seed: u64, rec: Option<&Arc<Recorder>>) -> KernelRun {
    let clock = SimClock::new();
    match rec {
        None => {
            let mut v = Vfs::new(mount(disk(&clock), iron, &clock));
            drive(&mut v, kernel, seed, &clock, None)
        }
        Some(rec) => {
            let dev = ProbeDev::new(disk(&clock), rec.clone(), Some(clock.clone()), true, true);
            let fs = ProbeFs::new(mount(dev, iron, &clock), rec.clone(), Some(clock.clone()));
            let mut v = Vfs::new(fs);
            let out = drive(&mut v, kernel, seed, &clock, Some(rec));
            let seeks = v.fs().inner().device().inner().stats().seeks;
            rec.add("memdisk.seeks", seeks as f64);
            out
        }
    }
}

/// Format and mount the kernels' file system once, then drop it: the
/// part of every kernel run that the throughput excludes.
pub fn format_and_mount(iron: IronConfig) {
    let clock = SimClock::new();
    drop(mount(disk(&clock), iron, &clock));
}
