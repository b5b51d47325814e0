//! The ported Table 6 kernels are the `iron_workloads` kernels: at the
//! kernels' own seeds, stock ext3 and full ixt3 take exactly the simulated
//! time `iron_workloads::bench::run_benchmark` reports — with the probes
//! off, and with every probe layer in the stack.

use ironbench::kernels::{self, Kernel};
use ironbench::probe::Recorder;
use ironbench::table6;

use iron_ext3::IronConfig;
use iron_workloads::bench::run_benchmark;

#[test]
fn ported_kernels_match_run_benchmark_with_and_without_probes() {
    for kernel in [Kernel::PostMark, Kernel::TpcB] {
        for (label, iron) in [("stock", table6::stock()), ("full", IronConfig::full())] {
            let want = run_benchmark(kernel.workloads_benchmark(), iron);
            let plain = kernels::run(kernel, iron, kernel.paper_seed(), None);
            let rec = Recorder::shared();
            let probed = kernels::run(kernel, iron, kernel.paper_seed(), Some(&rec));
            assert_eq!(plain.failed + probed.failed, 0, "{kernel:?} {label} failed");
            assert_eq!(plain.sim_ns, want, "{kernel:?} {label}: probes off");
            assert_eq!(probed.sim_ns, want, "{kernel:?} {label}: probes on");
            assert_eq!(plain.calls, probed.calls);
            let t = rec.snapshot();
            assert_eq!(t.samples("vfs.host_us").len() as u64, probed.calls);
            assert!(t.sum("memdisk.writes") > 0.0);
            if kernel == Kernel::TpcB {
                assert!(t.sum("memdisk.barriers") > 0.0 && t.sum("memdisk.flushes") > 0.0);
            }
        }
    }
}

#[test]
fn kernel_seeds_change_the_inputs() {
    let a = kernels::run(
        Kernel::PostMark,
        table6::stock(),
        Kernel::PostMark.seed_for(1, 0),
        None,
    );
    let b = kernels::run(
        Kernel::PostMark,
        table6::stock(),
        Kernel::PostMark.seed_for(2, 0),
        None,
    );
    let again = kernels::run(
        Kernel::PostMark,
        table6::stock(),
        Kernel::PostMark.seed_for(1, 0),
        None,
    );
    assert_eq!(a.sim_ns, again.sim_ns);
    assert_ne!(a.sim_ns, b.sim_ns);
}
