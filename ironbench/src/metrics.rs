//! The metric names the benchmark reports, with their units.

use crate::table6;

/// Every per-layer metric, in report order, with its unit. A workload
/// that does not reach a layer reports it as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("vfs.calls", "count"),
    ("vfs.host_us_p50", "us"),
    ("vfs.host_us_p99", "us"),
    ("vfs.self_host_s", "s"),
    ("vfs.fsync.sim_ms_p50", "ms"),
    ("vfs.fsync.sim_ms_p99", "ms"),
    ("ext3.self_host_s", "s"),
    ("ext3.sim_cpu_s", "s"),
    ("memdisk.reads", "count"),
    ("memdisk.writes", "count"),
    ("memdisk.barriers", "count"),
    ("memdisk.flushes", "count"),
    ("memdisk.seeks", "count"),
    ("memdisk.busy_sim_s", "s"),
    ("memdisk.host_s", "s"),
    ("memdisk.writes.journal", "count"),
    ("memdisk.writes.meta", "count"),
    ("memdisk.writes.data", "count"),
    ("memdisk.writes.iron", "count"),
    ("memdisk.write_amp", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.writebacks", "count"),
    ("cache.sweeps", "count"),
    ("cache.destages", "count"),
    ("cache.evictions", "count"),
    ("serve.fs_busy_frac", "ratio"),
    ("serve.fs_call_us_p50", "us"),
    ("serve.fs_call_us_p99", "us"),
    ("serve.requests", "count"),
    ("serve.errno", "count"),
    ("fingerprint.cells", "count"),
    ("fingerprint.relevant", "count"),
    ("fingerprint.fired_ratio", "ratio"),
    ("fingerprint.golden_s", "s"),
    ("fingerprint.mounts", "count"),
    ("fingerprint.mount_s", "s"),
    ("fingerprint.fs_ops_s", "s"),
    ("fingerprint.engine_s", "s"),
    ("crash.images", "count"),
    ("crash.violations", "count"),
    ("crash.record_s", "s"),
    ("crash.enumerate_s", "s"),
    ("crash.materialize_s", "s"),
    ("crash.recover_s", "s"),
    ("crash.walk_s", "s"),
    ("crash.fsck_s", "s"),
    ("crash.oracle_s", "s"),
    ("exec.busy_frac", "ratio"),
    ("trace_overhead", "ratio"),
];

/// Every per-layer metric: [`PER_LAYER`] plus each Table 6 cell's ratio
/// (non-stock cells) and host seconds.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &str)> = PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for (k, (v, _)) in table6::cells() {
        if v != "stock" {
            out.push((format!("table6.{}.{v}.ratio", k.label()), "ratio"));
        }
    }
    for (k, (v, _)) in table6::cells() {
        out.push((format!("table6.{}.{v}.host_s", k.label()), "s"));
    }
    out
}

/// Every end-to-end metric with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("postmark_sim_s", "s"),
    ("tpcb_sim_s", "s"),
    ("table6_err", "ratio"),
];
