//! Serving-layer throughput: ops/sec draining a fixed multi-client
//! workload through the request engine at 1/2/4/8 worker threads, over
//! ext3 on a full `StackBuilder` stack (write-back cache over MemDisk).
//!
//! Before timing each width, the differential oracle runs once — the
//! concurrent run must equal its serial replay (responses, namespace,
//! bit-identical image). The timed body then measures serving alone on a
//! long-lived mount, so the reported ops/sec is engine + file system,
//! not mkfs.

use iron_testkit::{black_box, BenchGroup};

use iron_blockdev::{BufferCache, CachePolicy, MemDisk, StackBuilder};
use iron_ext3::{Ext3Fs, Ext3Options, Ext3Params};
use iron_serve::{
    assert_serial_equivalence, generate, memdisk_image, prepare, serve, ServeOptions, WorkloadSpec,
};
use iron_vfs::{FsEnv, Vfs};

fn mount_prepared(spec: &WorkloadSpec) -> Vfs<Ext3Fs<BufferCache<MemDisk>>> {
    let mut md = MemDisk::for_tests(4096);
    Ext3Fs::<MemDisk>::mkfs(&mut md, Ext3Params::small()).unwrap();
    let dev = StackBuilder::new(md)
        .with_cache(CachePolicy::write_back(64))
        .build();
    let fs = Ext3Fs::mount(dev, FsEnv::new(), Ext3Options::default()).unwrap();
    let mut v = Vfs::new(fs);
    prepare(&mut v, spec);
    v
}

fn main() {
    let mut g = BenchGroup::from_env("serve");

    let spec = WorkloadSpec {
        sessions: 16,
        requests_per_session: 64,
        ..Default::default()
    };
    let sessions = generate(&spec);
    let total = spec.sessions * spec.requests_per_session;
    g.throughput_units(Some(total as u64));

    for threads in [1usize, 2, 4, 8] {
        // Correctness first, outside the timed body: this width must pass
        // the full differential before its throughput means anything.
        assert_serial_equivalence(
            || mount_prepared(&spec),
            |v| {
                let cache = v.into_fs().into_device();
                assert_eq!(cache.dirty_blocks(), 0, "unmount drains the cache");
                Some(memdisk_image(&cache.into_inner()))
            },
            &sessions,
            &[threads],
        );

        let opts = ServeOptions::default().with_threads(threads);
        let mut v = mount_prepared(&spec);
        let sessions = &sessions;
        g.bench(&format!("ext3_cached_t{threads}"), move || {
            let report = serve(&mut v, sessions, &opts);
            assert_eq!(report.total_ops(), total);
            black_box(report.commit_log.len())
        });
    }

    g.finish();
}
