//! The serving benchmark: trains (or reuses) the smoke bundle, starts the
//! real `lre-serve` / `lre-router` / `lre-adaptd` binaries, drives one
//! workload against them, checks every reply bit for bit and prints the
//! metrics. Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload long_direct|short_fleet|mixed_adapt --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` the per-layer
//! ones. The last line of standard output is the result as one JSON
//! object. See README.md for what each metric means.

mod drive;
mod fixture;
mod layers;
mod procs;
mod schedule;
mod stats;
mod wire;
mod workloads;

use drive::Inputs;
use procs::ScratchDir;
use workloads::{Ctx, Report, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: perfbench --workload long_direct|short_fleet|mixed_adapt \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("missing value for {flag}")));
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|s: &f64| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("bad or missing --workload")),
        seed: seed.unwrap_or_else(|| usage("bad or missing --seed")),
        seconds: seconds.unwrap_or_else(|| usage("bad or missing --seconds")),
        trace: trace.unwrap_or_else(|| usage("bad or missing --trace")),
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    let bench = root.join("perfbench");
    let bins = fixture::build_servers(&root)?;
    let cache = bench.join(".fixture");
    std::fs::create_dir_all(&cache).map_err(|e| format!("creating {}: {e}", cache.display()))?;
    let fixture = fixture::fixture(&cache, &bins.train)?;
    println!(
        "fixture_train_s {:.3} s ({}; informational, not part of setup_s)",
        fixture.train_s,
        if fixture.reused {
            "cached bundle"
        } else {
            "trained now"
        }
    );

    let bundle_bytes = std::fs::read(&fixture.bundle)
        .map_err(|e| format!("reading {}: {e}", fixture.bundle.display()))?;
    let bundle_crc = lre_artifact::crc32(&bundle_bytes);
    let system = fixture::system_from_bytes(&bundle_bytes)?;
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let exe_hash = std::fs::read(&exe)
        .map(|b| fixture::fnv64(&b))
        .map_err(|e| format!("reading {}: {e}", exe.display()))?;
    let pools = fixture::render_pools(args.workload.classes());
    let mut refs: [Vec<Vec<f32>>; 3] = Default::default();
    for &c in args.workload.classes() {
        refs[c] = fixture::references(&cache, exe_hash, bundle_crc, c, &system, &pools[c])?;
    }
    let inputs = Inputs { pools, refs };

    let run_dir = ScratchDir::create(bench.join(".runs").join(std::process::id().to_string()))?;
    let ctx = Ctx {
        workload: args.workload,
        bins: &bins,
        fixture: &fixture,
        inputs: &inputs,
        system: &system,
        bundle_bytes: &bundle_bytes,
        run_dir: run_dir.path(),
        seed: args.seed,
        seconds: args.seconds,
    };
    if args.trace {
        ctx.trace()
    } else {
        ctx.measure()
    }
}

/// A JSON number with every digit; the report never holds a non-finite
/// value.
fn json_number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v:?}"))
    } else {
        Err(format!("non-finite metric value {v}"))
    }
}

fn result_line(report: &Report) -> Result<String, String> {
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            Ok(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value)?,
                m.unit
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}

fn main() {
    let args = parse_args();
    let outcome = run(&args).and_then(|report| Ok((result_line(&report)?, report)));
    match outcome {
        Ok((line, report)) => {
            for note in &report.notes {
                println!("{note}");
            }
            for m in &report.metrics {
                println!("{} {} {}", m.name, m.value, m.unit);
            }
            println!("{line}");
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
