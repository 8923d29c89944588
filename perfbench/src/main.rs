//! The SPADE engine benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <small_select|ooc_scan|serve_mixed|scatter_gather> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One run builds its inputs from the seed,
//! sets the system up `util::SETUPS` times (the earlier ones in child
//! processes; the median is reported as `setup_s`), measures for
//! `--seconds`, then checks every answer against a brute-force oracle.
//! The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/NOTES.md` for what each workload and metric measures.

mod answer;
mod ooc_scan;
mod reads;
mod report;
mod scatter_gather;
mod serve_mixed;
mod small_select;
mod spans;
mod util;

use report::Outcome;
use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set up once, print the time, and exit (the extra set-ups of a run
    /// run this way, in child processes).
    pub setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--setup-only" => args.setup_only = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Args, &util::WorkDir, &mut Outcome) -> Vec<String> = match args.workload.as_str() {
        "small_select" => small_select::run,
        "ooc_scan" => ooc_scan::run,
        "serve_mixed" => serve_mixed::run,
        "scatter_gather" => scatter_gather::run,
        other => {
            eprintln!("perfbench: unknown workload '{other}'");
            return ExitCode::from(2);
        }
    };
    let work = util::WorkDir::create(&args.workload);
    let mut out = Outcome::default();
    let steal0 = util::steal_ticks();
    let mut config = run(&args, &work, &mut out);
    if args.trace {
        config.push("EngineConfig.tracing = true".into());
    }
    out.note(format!(
        "cpu steal over the run: {} ticks of 1/100 s",
        util::steal_ticks().saturating_sub(steal0)
    ));
    drop(work);
    if args.setup_only {
        return ExitCode::SUCCESS;
    }
    println!(
        "provenance {}",
        util::provenance(&args.workload, args.seed, args.trace, &config)
    );
    out.print(args.trace);
    ExitCode::SUCCESS
}
