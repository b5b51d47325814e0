//! The benchmark's serve mix is free of expected errors: served one
//! request at a time, batch after batch, no request gets an errno reply.

use iron_blockdev::{BufferCache, CachePolicy, MemDisk};
use iron_ext3::{Ext3Fs, Ext3Params};
use iron_serve::{generate, prepare, serve, ServeOptions, WorkloadSpec};
use iron_vfs::{FsEnv, Vfs};
use ironbench::mix::Mix;
use ironbench::serve::{plain, SESSIONS};

#[test]
fn serial_run_of_the_mix_returns_no_errno() {
    for seed in [1u64, 7] {
        let mut v = plain(seed);
        let mut mix = Mix::new(seed, SESSIONS, 128);
        for batch in 0..4 {
            let sessions = mix.batch();
            let report = serve(&mut v, &sessions, &ServeOptions::default().with_threads(1));
            let errors: Vec<_> = sessions
                .iter()
                .flat_map(|s| s.requests.iter().zip(&report.responses[s.id]))
                .filter(|(_, r)| r.is_err())
                .take(3)
                .collect();
            assert!(errors.is_empty(), "seed {seed} batch {batch}: {errors:?}");
        }
    }
}

/// iron-serve's own generator renames shared files onto each other, so a
/// serial run of its mix answers many requests with an errno. Prints the
/// share at 32 sessions × 2048 requests (run with `--ignored`).
#[test]
#[ignore]
fn iron_serve_generate_errno_share_at_32_by_2048() {
    let spec = WorkloadSpec {
        sessions: 32,
        requests_per_session: 2048,
        ..Default::default()
    };
    let mut md = MemDisk::for_tests(4096);
    Ext3Fs::<MemDisk>::mkfs(&mut md, Ext3Params::small()).unwrap();
    let dev = BufferCache::new(md, CachePolicy::write_back(64));
    let fs = Ext3Fs::mount(dev, FsEnv::new(), Default::default()).unwrap();
    let mut v = Vfs::new(fs);
    prepare(&mut v, &spec);
    let report = serve(
        &mut v,
        &generate(&spec),
        &ServeOptions::default().with_threads(1),
    );
    let errno = report
        .responses
        .iter()
        .flatten()
        .filter(|r| r.is_err())
        .count();
    println!(
        "iron_serve::generate 32 x 2048: {errno} of {} requests get an errno",
        report.total_ops()
    );
}
