//! Benchmark entry point:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics`.
//! Exits 0 only when every check passed.

use perfbench::{guard, metrics, rt_stream, sim, Outcome, Workload};
use std::path::Path;
use std::process::ExitCode;

/// Baseline the behaviour guard compares against, relative to the
/// repository root the benchmark runs from.
const GUARD_BASELINE: &str = "BENCH_10.json";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {v:?} (valid: {})", names.join("|"))
                })?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive (got {v})"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1 (got {v:?})")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        traced,
    })
}

fn run(args: &Args) -> Outcome {
    let (w, seed, secs) = (args.workload, args.seed, args.seconds);
    let mut o = match (w, args.traced) {
        (Workload::RtStreamN2, false) => rt_stream::measure(seed, secs, rt_stream::SIZE),
        (Workload::RtStreamN2, true) => rt_stream::trace_layers(seed, secs, rt_stream::SIZE),
        (_, false) => sim::measure(w, seed, secs, sim::SCALE),
        (_, true) => sim::trace_layers(w, seed, secs, sim::SCALE),
    };
    match guard::check(Path::new(GUARD_BASELINE)) {
        Ok(mismatches) => {
            for m in mismatches {
                o.fail(format!("{GUARD_BASELINE} guard: {m}"));
            }
        }
        Err(e) => o.fail(format!("{GUARD_BASELINE} guard: {e}")),
    }
    o.finish()
}

/// Prints the rows of `references.rs` for seeds `0..seeds`.
fn print_references(seeds: &str) -> ExitCode {
    let Ok(seeds) = seeds.parse::<u64>() else {
        eprintln!("perfbench: --print-references takes a seed count");
        return ExitCode::from(2);
    };
    for w in [Workload::SimLocalN8, Workload::SimHaloRackN8] {
        println!("// {}", w.name());
        for seed in 0..seeds {
            let fp = sim::fingerprint(w, seed, sim::SCALE);
            println!("    ({seed}, {:?}, {}),", fp.makespan_us, fp.sim_events);
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, seeds] = argv.as_slice() {
        if flag == "--print-references" {
            return print_references(seeds);
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    let (line, correct) = metrics::result_line(&outcome, args.traced);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
