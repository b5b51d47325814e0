//! A superblock that decodes but carries impossible geometry must fail
//! the mount with `EUCLEAN` and show up as an offline-check finding, on
//! stock ext3 and on ixt3 alike — never panic either path.

use iron_blockdev::{CrashRecorder, MemDisk, RawAccess};
use iron_core::{BlockAddr, Errno};
use iron_ext3::Superblock;
use iron_fingerprint::{Ext3Adapter, FsUnderTest};
use iron_vfs::FsEnv;

/// Geometry corruptions that leave the superblock decodable: a device
/// too small for one group, one larger than the device, an overflowing
/// block count, and group sizes the bitmaps cannot represent.
const CORRUPTIONS: [(&str, u64); 8] = [
    ("total_blocks", 0),
    ("total_blocks", 300),
    ("total_blocks", 8192),
    ("total_blocks", u64::MAX),
    ("blocks_per_group", 0),
    ("blocks_per_group", 3),
    ("blocks_per_group", 1 << 20),
    ("blocks_per_group", u64::MAX),
];

fn corrupted(golden: &MemDisk, field: &str, value: u64) -> MemDisk {
    let mut disk = golden.snapshot();
    let mut sb = Superblock::decode(&disk.peek(BlockAddr(0))).expect("golden superblock");
    match field {
        "total_blocks" => sb.total_blocks = value,
        "blocks_per_group" => sb.blocks_per_group = value,
        _ => unreachable!("unknown field {field}"),
    }
    disk.poke(BlockAddr(0), &sb.encode());
    disk
}

#[test]
fn corrupt_superblock_geometry_fails_mount_and_fsck_without_panicking() {
    for fs in [Ext3Adapter::stock(), Ext3Adapter::ixt3()] {
        let golden = fs.golden(false);
        assert_eq!(fs.fsck_issues(&golden), Some(vec![]), "{}", fs.name());
        for (field, value) in CORRUPTIONS {
            let disk = corrupted(&golden, field, value);
            let issues = fs.fsck_issues(&disk).expect("superblock still decodes");
            assert!(
                issues.iter().any(|i| i.starts_with("geometry: ")),
                "{} {field}={value}: fsck found {issues:?}",
                fs.name()
            );
            let env = FsEnv::new();
            let err = match fs.mount_crash(CrashRecorder::new(disk), env.clone()) {
                Ok(_) => panic!("{} {field}={value}: mount succeeded", fs.name()),
                Err(e) => e,
            };
            assert_eq!(
                err.errno(),
                Some(Errno::EUCLEAN),
                "{} {field}={value}",
                fs.name()
            );
            assert!(
                env.klog
                    .entries()
                    .iter()
                    .any(|e| e.message.contains("mount failed")),
                "{} {field}={value}: the refusal is logged",
                fs.name()
            );
        }
    }
}
