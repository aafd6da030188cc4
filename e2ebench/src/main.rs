//! Runs one workload of the end-to-end benchmark and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload saturate-dag --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

use std::path::Path;
use std::process::ExitCode;
use tensat_e2ebench::{Call, Metric, TracedRun, UntracedRun, Workload, THREADS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}`; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The commit under test: `git rev-parse HEAD` in a git checkout,
/// otherwise a hash of the sources the benchmark builds from.
fn commit(root: &Path) -> String {
    if root.join(".git").exists() {
        let out = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(root)
            .output();
        if let Some(out) = out.ok().filter(|o| o.status.success()) {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    let mut files = vec![root.join("Cargo.lock")];
    collect_files(&root.join("crates"), &mut files);
    collect_files(&root.join("e2ebench/src"), &mut files);
    files.sort();
    // FNV-1a over each file's path and contents.
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for file in &files {
        let path = file.strip_prefix(root).unwrap_or(file).to_string_lossy();
        let contents = std::fs::read(file).unwrap_or_default();
        for &byte in path.as_bytes().iter().chain(&contents) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    format!("tree-{hash:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn print_calls<'a>(label: &str, calls: impl IntoIterator<Item = &'a Call>) {
    for c in calls {
        println!(
            "# {label} {:<13} {:>9.4} s  cost {:>8.3} -> {:>8.3}  ilp_optimal {:<5}  {}",
            c.model,
            c.time.as_secs_f64(),
            c.original_cost,
            c.optimized_cost,
            c.ilp_optimal.map_or("-".into(), |o| o.to_string()),
            c.failure.as_deref().unwrap_or("ok"),
        );
    }
}

fn json_result(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    // TENSAT_VERIFY_RULES, TENSAT_CHECK_INVARIANTS and the strategy and
    // thread overrides all change the work being measured.
    let overrides: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("TENSAT_"))
        .collect();
    if !overrides.is_empty() {
        eprintln!(
            "e2ebench: refusing to run with {} set",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    println!(
        "# workload {} seed {} trace {} nproc {} threads {THREADS} commit {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        commit(&root),
    );

    let (attempted, failed, metrics) = if args.trace {
        let run = TracedRun::run(args.workload, args.seed);
        print_calls("reference", &run.reference);
        print_calls("traced", run.traced.iter().map(|l| &l.call));
        (run.attempted(), run.failed(), run.metrics())
    } else {
        let run = UntracedRun::run(args.workload, args.seed, args.seconds);
        let mut times = run.pass_times();
        times.sort_by(f64::total_cmp);
        let at = |q: usize| times[(times.len() - 1) * q / 4];
        println!(
            "# passes {}  pass_s min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4}",
            times.len(),
            at(0),
            at(1),
            at(2),
            at(3),
            at(4)
        );
        print_calls("pass-0", &run.passes[0]);
        (run.attempted(), run.failed(), run.metrics())
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("e2ebench: metric {} is not finite", m.name);
        return ExitCode::FAILURE;
    }
    for m in &metrics {
        println!("# {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_result(attempted, failed, &metrics));
    ExitCode::SUCCESS
}
