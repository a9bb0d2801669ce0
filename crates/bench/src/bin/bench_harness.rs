//! The perf-regression harness CLI.
//!
//! ```text
//! bench-harness [--quick] [--out PATH] [--check BASELINE.json]
//!               [--telemetry PATH] [--trace PATH] [--flight PATH]
//! ```
//!
//! Runs the tier-1 performance scenarios (see `eyeriss_bench`) and
//! writes the versioned JSON measurements to `--out` —
//! `target/bench-harness.json` by default, so a bare run never
//! overwrites a committed `BENCH_*.json` baseline. `--quick` trims
//! iteration counts for CI smoke jobs. `--help` prints the usage; an
//! unknown flag or a flag missing its value exits with code 2 before
//! anything runs.
//!
//! `--check BASELINE.json` turns the harness into a regression gate: the
//! fresh measurements are compared scenario-by-scenario against the
//! committed baseline and the process exits nonzero if any scenario's
//! best (minimum) wall time regressed by more than 15%
//! (`eyeriss_bench::REGRESSION_TOLERANCE`).
//!
//! `--telemetry PATH` / `--trace PATH` additionally run one *observed*
//! (telemetry-enabled, untimed) serving burst and write the
//! schema-versioned snapshot JSON and the Chrome `chrome://tracing`
//! trace-event JSON.
//!
//! `--flight PATH` runs one observed burst against a deliberately
//! breached SLO and writes the latched flight-recorder dump (wire JSON)
//! plus its trace-filtered Chrome view to `PATH.trace.json` — the
//! post-mortem artifact CI uploads.

use eyeriss_wire::Value;
use std::io::Write;
use std::path::Path;

const USAGE: &str = "\
usage: bench-harness [--quick] [--out PATH] [--check BASELINE.json]
                     [--telemetry PATH] [--trace PATH] [--flight PATH]

  --quick      trim iteration counts (CI smoke runs)
  --out        write the measurements as JSON to PATH
               (default: target/bench-harness.json)
  --check      exit 1 if a scenario's best time regressed by more than
               15% against the baseline JSON
  --telemetry  run one observed serving burst; write its telemetry snapshot
  --trace      run one observed serving burst; write its Chrome trace
  --flight     run one burst against a breached SLO; write the flight
               recorder dump to PATH and its Chrome view to PATH.trace.json
  --help       print this message";

/// Where the measurements go when `--out` is not given.
const DEFAULT_OUT: &str = "target/bench-harness.json";

/// The parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    quick: bool,
    out: Option<String>,
    check: Option<String>,
    telemetry: Option<String>,
    trace: Option<String>,
    flight: Option<String>,
}

/// Parses the arguments after the program name. `Ok(None)` means
/// `--help`; `Err` names the offending argument.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let mut parsed = Args::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--help" => return Ok(None),
            "--quick" => {
                parsed.quick = true;
                continue;
            }
            "--out" => &mut parsed.out,
            "--check" => &mut parsed.check,
            "--telemetry" => &mut parsed.telemetry,
            "--trace" => &mut parsed.trace,
            "--flight" => &mut parsed.flight,
            _ => return Err(format!("unknown argument '{arg}'")),
        };
        match args.next() {
            Some(value) if !value.starts_with("--") => *slot = Some(value),
            _ => return Err(format!("{arg} needs a value")),
        }
    }
    Ok(Some(parsed))
}

fn write_file(path: &str, contents: &str) {
    if let Some(dir) = Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    let mut file = std::fs::File::create(path).unwrap_or_else(|e| panic!("create {path}: {e}"));
    file.write_all(contents.as_bytes())
        .and_then(|()| file.write_all(b"\n"))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(msg) => {
            eprintln!("bench-harness: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Args {
        quick,
        out,
        check: check_path,
        telemetry: telemetry_path,
        trace: trace_path,
        flight: flight_path,
    } = args;
    let out_path = out.unwrap_or_else(|| DEFAULT_OUT.to_string());
    let mode = if quick { "quick" } else { "full" };

    eprintln!("running perf-regression harness ({mode} mode)...");
    let measurements = eyeriss_bench::run_harness(quick);

    println!(
        "{:<22} {:>9} {:>12} {:>16}",
        "scenario", "iters", "mean", "throughput"
    );
    for m in &measurements {
        println!(
            "{:<22} {:>9} {:>9.3} ms {:>12} {}/s",
            m.name,
            m.iters,
            m.mean.as_secs_f64() * 1e3,
            m.units_per_sec(),
            m.unit,
        );
    }

    let doc = eyeriss_bench::to_json(mode, &measurements);
    write_file(&out_path, &doc.render());

    if telemetry_path.is_some() || trace_path.is_some() {
        let snap = eyeriss_bench::observed_serving_snapshot();
        if let Some(path) = telemetry_path {
            write_file(&path, &snap.to_wire().render());
        }
        if let Some(path) = trace_path {
            write_file(&path, &snap.chrome_trace());
        }
    }

    if let Some(path) = flight_path {
        let (dump, snap) = eyeriss_bench::observed_flight_dump();
        eprintln!(
            "flight recorder: SLO '{}' breached, {} record(s) in the dump",
            dump.slo,
            dump.records.len()
        );
        write_file(&path, &dump.to_wire().render());
        write_file(&format!("{path}.trace.json"), &dump.chrome_trace(&snap));
    }

    if let Some(path) = check_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let baseline = Value::parse(text.trim()).expect("parse baseline JSON");
        let comparisons = eyeriss_bench::compare_to_baseline(
            &baseline,
            &measurements,
            eyeriss_bench::REGRESSION_TOLERANCE,
        )
        .expect("baseline schema");
        // The per-scenario delta table prints on pass as well — CI logs
        // carry the drift trajectory, not only the failures. The gate
        // stays on min (noise-resistant); the mean delta is context.
        println!(
            "\n{:<22} {:>12} {:>12} {:>9} {:>9}  vs {path}",
            "scenario", "base min", "cur min", "min Δ", "mean Δ"
        );
        let mut regressed = false;
        for c in &comparisons {
            println!(
                "{:<22} {:>9.3} ms {:>9.3} ms {:>+8.1}% {:>+8.1}%{}",
                c.name,
                c.baseline_ns as f64 / 1e6,
                c.current_ns as f64 / 1e6,
                c.min_delta_pct(),
                c.mean_delta_pct(),
                if c.regressed { "  REGRESSED" } else { "" },
            );
            regressed |= c.regressed;
        }
        if regressed {
            eprintln!(
                "FAIL: wall-time regression beyond {:.0}% against {path}",
                eyeriss_bench::REGRESSION_TOLERANCE * 100.0
            );
            std::process::exit(1);
        }
        eprintln!(
            "ok: {} scenarios within {:.0}% of {path}",
            comparisons.len(),
            eyeriss_bench::REGRESSION_TOLERANCE * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Args>, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parses_every_flag() {
        let args = parse(&["--quick", "--out", "o.json", "--check", "BENCH_7.json"])
            .unwrap()
            .unwrap();
        assert!(args.quick);
        assert_eq!(args.out.as_deref(), Some("o.json"));
        assert_eq!(args.check.as_deref(), Some("BENCH_7.json"));
        assert_eq!(parse(&[]).unwrap(), Some(Args::default()));
    }

    #[test]
    fn help_and_bad_input_never_run() {
        assert_eq!(parse(&["--quick", "--help"]), Ok(None));
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--out"]).is_err(), "missing value");
        assert!(parse(&["--out", "--quick"]).is_err(), "flag as value");
    }
}
