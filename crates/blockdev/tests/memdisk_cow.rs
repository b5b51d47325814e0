//! Snapshot isolation of the copy-on-write `MemDisk` medium: under any
//! sequence of writes, pokes, snapshots, and drops over a family of
//! disks, every disk reads back exactly as if each snapshot had been an
//! independent deep copy of its parent's blocks.
//!
//! Runs on the in-tree `iron-testkit` harness: every case is generated
//! from a reported seed, so any failure reruns deterministically with
//! `IRON_TESTKIT_SEED=<seed> cargo test -q <test_name>`.

use iron_blockdev::{BlockDevice, MemDisk, RawAccess};
use iron_core::{Block, BlockAddr};
use iron_testkit::gen::{self, Gen};
use iron_testkit::prop::{check, Config};

const DISK_BLOCKS: u64 = 16;

/// One step over the family. `usize` operands select a live disk modulo
/// the family size, so every generated sequence is valid.
#[derive(Clone, Debug)]
enum Op {
    /// `BlockDevice::write` of a block filled with the byte.
    Write(usize, u64, u8),
    /// `RawAccess::poke` of a block filled with the byte.
    Poke(usize, u64, u8),
    /// Add a snapshot of the selected disk to the family.
    Snapshot(usize),
    /// Drop the selected disk (the last one is kept).
    Drop(usize),
}

fn op_gen() -> impl Gen<Value = Op> {
    let disk = || gen::usize_in(0..8);
    let write = (disk(), gen::u64_in(0..DISK_BLOCKS), gen::u8_any());
    let poke = (disk(), gen::u64_in(0..DISK_BLOCKS), gen::u8_any());
    gen::weighted(vec![
        (4, write.map(|(d, a, f)| Op::Write(d, a, f)).boxed()),
        (3, poke.map(|(d, a, f)| Op::Poke(d, a, f)).boxed()),
        (2, disk().map(Op::Snapshot).boxed()),
        (1, disk().map(Op::Drop).boxed()),
    ])
}

#[test]
fn memdisk_family_matches_independent_copies() {
    check(
        "memdisk_family_matches_independent_copies",
        Config::cases(200),
        &gen::vec_of(op_gen(), 1..80),
        |ops| {
            // Each disk is paired with its model: a plain vector of blocks
            // that a snapshot deep-copies.
            let mut family = vec![(
                MemDisk::for_tests(DISK_BLOCKS),
                vec![Block::zeroed(); DISK_BLOCKS as usize],
            )];
            for op in ops {
                let n = family.len();
                match *op {
                    Op::Write(d, a, f) => {
                        let (disk, model) = &mut family[d % n];
                        disk.write(BlockAddr(a), &Block::filled(f)).expect("write");
                        model[a as usize] = Block::filled(f);
                    }
                    Op::Poke(d, a, f) => {
                        let (disk, model) = &mut family[d % n];
                        disk.poke(BlockAddr(a), &Block::filled(f));
                        model[a as usize] = Block::filled(f);
                    }
                    Op::Snapshot(d) => {
                        let (disk, model) = &family[d % n];
                        let copy = (disk.snapshot(), model.clone());
                        family.push(copy);
                    }
                    Op::Drop(d) => {
                        if n > 1 {
                            family.remove(d % n);
                        }
                    }
                }
                for (i, (disk, model)) in family.iter_mut().enumerate() {
                    for (a, want) in model.iter().enumerate() {
                        let addr = BlockAddr(a as u64);
                        assert_eq!(&disk.peek(addr), want, "disk {i} block {a} after {op:?}");
                        assert_eq!(&disk.read(addr).expect("read"), want);
                    }
                }
            }
        },
    );
}
