//! `ironbench --workload <table6|fingerprint|crash|serve> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Sets the workload up several times (the median is `setup_s`), runs
//! closed-loop rounds for about `--seconds`, checks every round's output,
//! and prints one JSON object as the last line of standard output. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` half
//! the time runs untraced and half traced, and it reports the per-layer
//! metrics and the tracing overhead. Exits non-zero on bad arguments.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use ironbench::crash::Crash;
use ironbench::fingerprint::Fingerprint;
use ironbench::kernels::Kernel;
use ironbench::metrics::{per_layer, END_TO_END};
use ironbench::probe::{Recorder, Tally};
use ironbench::serve::Serve;
use ironbench::table6::{self, Table6};
use ironbench::{median, peak_rss_mb, RoundOut, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest rounds in each measured phase, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut a = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = a.next() {
        let val = a.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(val.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(val.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Rounds until `seconds` of loop wall (checks included) have passed.
fn rounds(w: &mut dyn Workload, seconds: f64, rec: Option<&Arc<Recorder>>) -> Vec<RoundOut> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_ROUNDS || t0.elapsed().as_secs_f64() < seconds {
        out.push(w.round(rec));
    }
    out
}

fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let v = if value.is_finite() { value } else { 0.0 };
    out.push_str(&format!(
        "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
    ));
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ironbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut w: Box<dyn Workload> = match args.workload.as_str() {
        "table6" => Box::new(Table6::new(args.seed)),
        "fingerprint" => Box::new(Fingerprint::new(args.seed)),
        "crash" => Box::new(Crash::new(args.seed)),
        "serve" => Box::new(Serve::new(args.seed)),
        other => {
            eprintln!("ironbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let t0 = Instant::now();
            w.setup();
            t0.elapsed().as_secs_f64()
        })
        .collect();

    let (untraced, traced, tally) = if args.trace {
        let untraced = rounds(w.as_mut(), args.seconds / 2.0, None);
        let rec = Recorder::shared();
        let traced = rounds(w.as_mut(), args.seconds / 2.0, Some(&rec));
        let mut tally = rec.snapshot();
        tally.sums.insert("exec.busy_s", rec.busy_s());
        (untraced, traced, tally)
    } else {
        (
            rounds(w.as_mut(), args.seconds, None),
            Vec::new(),
            Tally::default(),
        )
    };
    let peak_rss = peak_rss_mb();
    let rate = |r: &RoundOut| r.ops as f64 / r.timed_s;
    eprintln!(
        "ironbench: set-ups {:?} s; {} rounds, ops/s per round: {:?}",
        setups
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        untraced.len() + traced.len(),
        untraced
            .iter()
            .chain(&traced)
            .map(|r| rate(r).round())
            .collect::<Vec<_>>()
    );

    // Output checks: every round reproduces the first round's outputs.
    let all: Vec<&RoundOut> = untraced.iter().chain(&traced).collect();
    let mismatches = all.iter().filter(|r| r.identity != all[0].identity).count() as u64;
    let attempted: u64 = all.iter().map(|r| r.ops).sum();
    let mut failed: u64 = all.iter().map(|r| r.failed).sum::<u64>() + mismatches;
    if mismatches > 0 {
        eprintln!("ironbench: {mismatches} round(s) produced different outputs");
    }

    let mut metrics = String::from("{");
    if args.trace {
        let wall: f64 = traced.iter().map(|r| r.timed_s).sum();
        let mut layers: BTreeMap<String, f64> =
            w.layers(&tally, traced.len(), wall).into_iter().collect();
        let med = |rs: &[RoundOut]| median(&rs.iter().map(|r| r.timed_s).collect::<Vec<_>>());
        layers.insert("trace_overhead".into(), med(&traced) / med(&untraced) - 1.0);
        for (name, unit) in per_layer() {
            json_metric(
                &mut metrics,
                &name,
                layers.get(&name).copied().unwrap_or(0.0),
                unit,
            );
        }
    } else {
        // The Table 6 simulated results: from the rounds on `table6`, and
        // from one untimed round after the measurement everywhere else.
        let sims = w.sims().unwrap_or_else(|| table6::round(args.seed, None));
        failed += sims.failed();
        let rates: Vec<f64> = untraced.iter().map(rate).collect();
        let values = [
            median(&setups),
            (attempted - failed.min(attempted)) as f64 / attempted.max(1) as f64,
            peak_rss,
            median(&rates),
            sims.stock_sim_s(Kernel::PostMark),
            sims.stock_sim_s(Kernel::TpcB),
            sims.err(),
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            json_metric(&mut metrics, name, v, unit);
        }
    }
    metrics.push('}');
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0
    );
    ExitCode::SUCCESS
}
