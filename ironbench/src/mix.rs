//! The seeded NFS-style request mix the `serve` workload drains.
//!
//! Every request the generator emits succeeds whatever the interleaving:
//!
//! * the shared data set (`/data/f*`) is only read, overwritten inside
//!   its extent, stat'd and fsync'd — never renamed, unlinked or grown;
//! * namespace churn (create, rename, unlink, mkdir, rmdir, readdir)
//!   stays inside each session's own directory `/c<session>`, where the
//!   generator tracks the names that exist, so it never asks for a name
//!   that is missing or already taken.
//!
//! About half of all requests are reads of the shared data set.

use iron_core::BLOCK_SIZE;
use iron_serve::{Request, Session};

use crate::splitmix;

/// Shared data files.
pub const SHARED_FILES: usize = 36;
/// Bytes per shared data file (1 MiB): the data set is 36 MiB, 9216
/// blocks — 4.5× ext3's 2048-block read cache.
pub const SHARED_BYTES: usize = 256 * BLOCK_SIZE;
/// Most private files a session keeps at once.
const MAX_PRIVATE: usize = 6;

/// Path of shared file `i`.
pub fn shared(i: usize) -> String {
    format!("/data/f{i}")
}

/// The fixture every session assumes: the shared data set (written with
/// `Write` requests whose payload seeds derive from `seed`) and one empty
/// directory per session.
pub fn setup_requests(sessions: usize, seed: u64) -> Vec<Request> {
    let mut reqs = vec![Request::Mkdir {
        path: "/data".into(),
        mode: 0o755,
    }];
    for i in 0..SHARED_FILES {
        reqs.push(Request::Create {
            path: shared(i),
            mode: 0o644,
        });
        for chunk in 0..SHARED_BYTES / (64 * BLOCK_SIZE) {
            reqs.push(Request::Write {
                path: shared(i),
                off: (chunk * 64 * BLOCK_SIZE) as u64,
                len: 64 * BLOCK_SIZE,
                seed: splitmix(seed ^ (i * 64 + chunk) as u64),
            });
        }
    }
    for s in 0..sessions {
        reqs.push(Request::Mkdir {
            path: format!("/c{s}"),
            mode: 0o755,
        });
    }
    reqs.push(Request::Sync);
    reqs
}

/// One session's view of its own directory.
#[derive(Clone, Debug, Default)]
struct Private {
    files: Vec<u64>,
    subdir: bool,
    serial: u64,
}

/// A stream of request batches: every batch has one session per client,
/// and the private namespaces carry over from batch to batch.
#[derive(Clone, Debug)]
pub struct Mix {
    rng: u64,
    requests_per_session: usize,
    private: Vec<Private>,
}

impl Mix {
    /// `sessions` clients issuing `requests_per_session` requests per
    /// batch, seeded by `seed`.
    pub fn new(seed: u64, sessions: usize, requests_per_session: usize) -> Self {
        Mix {
            rng: splitmix(seed ^ 0x5E55_1075),
            requests_per_session,
            private: vec![Private::default(); sessions],
        }
    }

    fn next(&mut self) -> u64 {
        self.rng = splitmix(self.rng);
        self.rng
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn shared_extent(&mut self, max: usize) -> (String, u64, usize) {
        let path = shared(self.below(SHARED_FILES as u64) as usize);
        let len = BLOCK_SIZE * (1 + self.below((max / BLOCK_SIZE) as u64) as usize);
        let off = self.below((SHARED_BYTES - len) as u64 + 1);
        (path, off, len)
    }

    fn request(&mut self, sid: usize) -> Request {
        let roll = self.below(100);
        if roll < 50 {
            let (path, off, len) = self.shared_extent(8 * BLOCK_SIZE);
            return Request::Read { path, off, len };
        }
        if roll < 62 {
            let (path, off, len) = self.shared_extent(4 * BLOCK_SIZE);
            let seed = self.next();
            return Request::Write {
                path,
                off,
                len,
                seed,
            };
        }
        if roll < 67 {
            let path = shared(self.below(SHARED_FILES as u64) as usize);
            return Request::Stat { path };
        }
        if roll < 70 {
            let path = shared(self.below(SHARED_FILES as u64) as usize);
            return Request::Fsync { path };
        }
        if roll < 71 {
            return Request::Sync;
        }
        self.private_request(sid, roll)
    }

    fn private_request(&mut self, sid: usize, roll: u64) -> Request {
        let dir = format!("/c{sid}");
        let pick = self.next();
        let p = &mut self.private[sid];
        let file = |n: u64| format!("{dir}/p{n}");
        let existing = (!p.files.is_empty()).then(|| (pick as usize) % p.files.len());
        match (roll, existing) {
            (71..=78, Some(i)) => Request::Write {
                path: file(p.files[i]),
                off: pick % (4 * BLOCK_SIZE as u64),
                len: 1 + (pick >> 20) as usize % (2 * BLOCK_SIZE),
                seed: pick,
            },
            (79..=83, Some(i)) => Request::Read {
                path: file(p.files[i]),
                off: 0,
                len: 2 * BLOCK_SIZE,
            },
            (84..=86, Some(i)) => {
                p.serial += 1;
                let from = file(p.files[i]);
                p.files[i] = p.serial;
                Request::Rename {
                    from,
                    to: file(p.serial),
                }
            }
            (87..=90, Some(i)) if p.files.len() > 1 => Request::Unlink {
                path: file(p.files.swap_remove(i)),
            },
            (91..=93, _) => {
                let path = format!("{dir}/sub");
                p.subdir = !p.subdir;
                if p.subdir {
                    Request::Mkdir { path, mode: 0o755 }
                } else {
                    Request::Rmdir { path }
                }
            }
            (94..=96, _) => Request::Readdir { path: dir },
            _ if p.files.len() < MAX_PRIVATE => {
                p.serial += 1;
                p.files.push(p.serial);
                Request::Create {
                    path: file(p.serial),
                    mode: 0o644,
                }
            }
            _ => Request::Stat {
                path: file(p.files[(pick as usize) % p.files.len()]),
            },
        }
    }

    /// The next batch: one session per client.
    pub fn batch(&mut self) -> Vec<Session> {
        (0..self.private.len())
            .map(|id| Session {
                id,
                requests: (0..self.requests_per_session)
                    .map(|_| self.request(id))
                    .collect(),
            })
            .collect()
    }
}
