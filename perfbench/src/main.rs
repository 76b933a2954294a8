//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload, checks its outputs, prints a metric table with
//! sample counts and, as the last line of standard output, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; failed checks
//! are listed on standard error. With `--trace 1` the metrics are the
//! per-layer ones and the full span dump is written to `perfbench/out/`.

use std::process::ExitCode;

use perfbench::{run, Scale, Workload};

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload churn_1m|vm_stream|certify [--seed N] [--seconds S] [--trace 0|1]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0f64;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage(),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => seconds = s,
                _ => return usage(),
            },
            "--trace" => match value.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    // Default seeds: the pinned churn stream's, the VM fleet's, and the
    // `benign` experiment's first seed.
    let seed = seed.unwrap_or(match workload {
        Workload::Churn1m => 9,
        Workload::VmStream => 23,
        Workload::Certify => 1,
    });
    let report = run(workload, seed, seconds, traced, Scale(1));
    if traced {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-{seed}.json", workload.name()));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &report.trace_dump))
        {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    for p in &report.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    print!("{}", report.table());
    // A failed check is reported as `"correct": false` in the result line;
    // the exit code says only whether a result was produced.
    println!("{}", report.json());
    ExitCode::SUCCESS
}
