//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--expected FILE] [--tmp-dir DIR] [--out-dir DIR]
//! perfbench record --out FILE      (re-derive the expected-weights file)
//! perfbench worker --shard N       (shard worker protocol; internal)
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`
//! — end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. The lines before it give each metric with its sample
//! count, and the environment. A wrong weight or an invalid encoding makes
//! `correct` false and the exit code 1.

mod catalogue;
mod layers;
mod oracle;
mod record;
mod report;
mod rng;
mod stats;
mod trace;
mod workloads;

use jsonkit::{obj, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload certify|scale|serve-mix|sharded --seed N \
--seconds S --trace 0|1 [--expected FILE] [--tmp-dir DIR] [--out-dir DIR]";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    telemetry::log::init_from_env();

    // The sharded workload spawns this same executable as its pipe
    // workers (see `shard::default_worker_bin`); this is the worker side,
    // the library's protocol loop exactly as `fermihedral-shard worker`
    // runs it.
    if args.first().map(String::as_str) == Some("worker") {
        let shard = flag(&args, "--shard")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0usize);
        let code = shard::run_worker(shard, std::io::stdin(), std::io::stdout().lock());
        return ExitCode::from(code.clamp(0, 255) as u8);
    }
    if args.first().map(String::as_str) == Some("record") {
        let out = flag(&args, "--out").unwrap_or("perfbench/expected_weights.json");
        return match record::record(out) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("record: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        flag(&args, "--workload"),
        flag(&args, "--seed").and_then(|v| v.parse::<u64>().ok()),
        flag(&args, "--seconds").and_then(|v| v.parse::<f64>().ok()),
        flag(&args, "--trace").and_then(|v| match v {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if !workloads::NAMES.contains(&workload) {
        eprintln!("unknown workload {workload:?}\n{USAGE}");
        return ExitCode::from(2);
    }
    let expected_path = flag(&args, "--expected").unwrap_or("perfbench/expected_weights.json");
    let expected = match std::fs::read_to_string(expected_path)
        .map_err(|e| format!("{expected_path}: {e}"))
        .and_then(|t| oracle::Expected::parse(&t))
    {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let tmp_root = PathBuf::from(flag(&args, "--tmp-dir").unwrap_or(".bench_build/perfbench/tmp"));
    let tmp = tmp_root.join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("{}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    // Sharded races spawn this executable as their workers.
    if let Ok(exe) = std::env::current_exe() {
        std::env::set_var("FERMIHEDRAL_SHARD_BIN", exe);
    }

    let ctx = workloads::Ctx {
        seed,
        seconds,
        trace,
        expected,
        tmp: tmp.clone(),
        process_start,
    };
    let mut report = workloads::run(workload, &ctx).expect("workload name checked above");
    let _ = std::fs::remove_dir_all(&tmp);
    report.set("peak_rss_mb", report::peak_rss_mb(), 1);

    let build = telemetry::build_info();
    println!(
        "# perfbench workload={workload} seed={seed} seconds={seconds} trace={} \
         nproc={} git={} profile={} rustc={:?}",
        trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        build.git_hash,
        build.profile,
        build.rustc
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for wrong in &report.wrong {
        println!("# WRONG: {wrong}");
    }
    if let Some(tr) = &report.tracer {
        let out_dir =
            PathBuf::from(flag(&args, "--out-dir").unwrap_or(".bench_build/perfbench/out"));
        let path = out_dir.join(format!("spans-{workload}-seed{seed}.json"));
        let written = std::fs::create_dir_all(&out_dir)
            .and_then(|()| std::fs::write(&path, tr.to_json().to_json_compact()));
        match written {
            Ok(()) => println!(
                "# spans: {} written to {}",
                tr.spans().len(),
                path.display()
            ),
            Err(e) => println!("# spans: not written ({e})"),
        }
    }

    let declared: &[(&str, &str)] = if trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    let mut metrics = BTreeMap::new();
    for (name, unit) in declared {
        let v = report.metrics.get(name).cloned().unwrap_or_default();
        let note = if v.samples == 0 && trace {
            "no samples on this workload".to_string()
        } else {
            v.note.clone()
        };
        println!(
            "# metric {name:<24} {:>16.6} {unit:<6} samples={:<6} {note}",
            v.value, v.samples
        );
        metrics.insert(
            name.to_string(),
            obj([
                (
                    "value",
                    Value::Num(if v.value.is_finite() { v.value } else { 0.0 }),
                ),
                ("unit", Value::Str((*unit).into())),
            ]),
        );
    }
    let correct = report.wrong.is_empty() && report.attempted > 0;
    let result = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(report.attempted as f64)),
        ("failed", Value::Num(report.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", result.to_json_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
