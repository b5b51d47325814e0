//! Contention edge cases, each checked against the serial-replay oracle:
//! rename across directories, concurrent create/unlink of one name, fsync
//! racing writes, a linearizability spot-check on a single contended
//! file, and a termination test for opposed rename pairs.

use iron_serve::{
    assert_serial_equivalence, digest, payload, replay_serial, serve, Reply, Request, ServeOptions,
    Session,
};
use iron_vfs::ramfs::RamFs;
use iron_vfs::Vfs;

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Build sessions from per-session request lists (ids are slice indexes).
fn sessions_of(lists: Vec<Vec<Request>>) -> Vec<Session> {
    lists
        .into_iter()
        .enumerate()
        .map(|(id, requests)| Session { id, requests })
        .collect()
}

fn create(path: &str) -> Request {
    Request::Create {
        path: path.into(),
        mode: 0o644,
    }
}

fn write(path: &str, off: u64, len: usize, seed: u64) -> Request {
    Request::Write {
        path: path.into(),
        off,
        len,
        seed,
    }
}

/// Fresh fs with `/a` and `/b` directories and `/a/x` seeded.
fn two_dir_fixture() -> Vfs<RamFs> {
    let mut v = Vfs::new(RamFs::new());
    v.mkdir("/a", 0o755).unwrap();
    v.mkdir("/b", 0o755).unwrap();
    v.write_file("/a/x", b"payload-x").unwrap();
    v
}

fn assert_ram_equivalence<Mk: Fn() -> Vfs<RamFs>>(mk: Mk, sessions: &[Session]) {
    assert_serial_equivalence(mk, |_v| None, sessions, &WIDTHS);
}

#[test]
fn rename_across_directories_matches_serial_replay() {
    // Session 0 shuttles /a/x <-> /b/x; sessions 1 and 2 churn both
    // directories (create/unlink/readdir/stat) around each rename, which
    // touches both endpoints and both parents in one critical section.
    let ping_pong: Vec<Request> = (0..10)
        .flat_map(|_| {
            vec![
                Request::Rename {
                    from: "/a/x".into(),
                    to: "/b/x".into(),
                },
                Request::Rename {
                    from: "/b/x".into(),
                    to: "/a/x".into(),
                },
            ]
        })
        .collect();
    let churn = |dir: &str, tag: usize| -> Vec<Request> {
        (0..10)
            .flat_map(|i| {
                vec![
                    create(&format!("{dir}/t{tag}_{i}")),
                    Request::Readdir { path: dir.into() },
                    Request::Stat {
                        path: format!("{dir}/x"),
                    },
                    Request::Unlink {
                        path: format!("{dir}/t{tag}_{i}"),
                    },
                ]
            })
            .collect()
    };
    let sessions = sessions_of(vec![ping_pong, churn("/a", 1), churn("/b", 2)]);
    assert_ram_equivalence(two_dir_fixture, &sessions);
}

#[test]
fn concurrent_create_unlink_of_same_name_matches_serial_replay() {
    // Four sessions fight over the single name /a/hot: exactly which
    // create wins and which unlink finds the file is decided by the
    // commit order, and whatever it decides must replay identically.
    let fight: Vec<Request> = (0..12)
        .flat_map(|i| {
            vec![
                create("/a/hot"),
                write("/a/hot", 0, 128, 0xF00D + i),
                Request::Unlink {
                    path: "/a/hot".into(),
                },
            ]
        })
        .collect();
    let sessions = sessions_of(vec![fight.clone(), fight.clone(), fight.clone(), fight]);
    assert_ram_equivalence(two_dir_fixture, &sessions);
}

#[test]
fn fsync_racing_writes_matches_serial_replay() {
    let writer = |seed: u64| -> Vec<Request> {
        (0..16)
            .map(|i| write("/a/x", (i % 4) * 512, 700, seed.wrapping_mul(i + 1)))
            .collect()
    };
    let syncer: Vec<Request> = (0..16)
        .flat_map(|_| {
            vec![
                Request::Fsync {
                    path: "/a/x".into(),
                },
                Request::Read {
                    path: "/a/x".into(),
                    off: 0,
                    len: 2048,
                },
            ]
        })
        .collect();
    let sessions = sessions_of(vec![
        writer(0xA),
        writer(0xB),
        syncer,
        vec![Request::Sync; 8],
    ]);
    assert_ram_equivalence(two_dir_fixture, &sessions);
}

#[test]
fn linearizability_last_committed_write_wins() {
    // Every session overwrites the whole of /a/x with a session-unique
    // payload. The final content must be exactly the payload of the write
    // that committed last — no torn or merged states.
    const LEN: usize = 900;
    let sessions = sessions_of(
        (0..6u64)
            .map(|sid| {
                (0..8)
                    .map(|i| write("/a/x", 0, LEN, (sid << 8) | i))
                    .collect()
            })
            .collect(),
    );
    for &t in &WIDTHS {
        let mut v = two_dir_fixture();
        let report = serve(&mut v, &sessions, &ServeOptions::default().with_threads(t));
        let last = report
            .commit_log
            .iter()
            .rev()
            .find(|r| matches!(sessions[r.session].requests[r.index], Request::Write { .. }))
            .expect("at least one write committed");
        let Request::Write { seed, len, .. } = sessions[last.session].requests[last.index] else {
            unreachable!()
        };
        assert_eq!(
            report.responses[last.session][last.index],
            Ok(Reply::Written { n: LEN }),
            "t={t}: the winning write must have succeeded in full"
        );
        let content = v.read_file("/a/x").unwrap();
        assert_eq!(content.len(), LEN, "t={t}");
        assert_eq!(
            digest(&content),
            digest(&payload(seed, len)),
            "t={t}: final content is not the last committed write"
        );
    }
}

#[test]
fn opposed_rename_pairs_terminate_and_replay() {
    // Sessions rename in opposite directions — the classic deadlock shape
    // if each request locked its two endpoints in argument order. Each
    // request takes the one FS mutex and nothing else, so no cycle can
    // form and this terminates; the serial oracle then checks it also
    // stayed correct.
    let forward: Vec<Request> = (0..20)
        .flat_map(|_| {
            vec![
                Request::Rename {
                    from: "/a/x".into(),
                    to: "/b/y".into(),
                },
                Request::Rename {
                    from: "/b/y".into(),
                    to: "/a/x".into(),
                },
            ]
        })
        .collect();
    let backward: Vec<Request> = (0..20)
        .flat_map(|_| {
            vec![
                Request::Rename {
                    from: "/b/y".into(),
                    to: "/a/x".into(),
                },
                Request::Rename {
                    from: "/a/x".into(),
                    to: "/b/y".into(),
                },
            ]
        })
        .collect();
    let sessions = sessions_of(vec![forward.clone(), backward.clone(), forward, backward]);
    let mut v = two_dir_fixture();
    let report = serve(&mut v, &sessions, &ServeOptions::default().with_threads(8));

    let mut serial = two_dir_fixture();
    let replayed = replay_serial(&mut serial, &sessions, &report.commit_log);
    assert_eq!(report.responses, replayed);
}
