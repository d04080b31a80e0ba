//! `perf` — the repo's benchmark. See `README.md` in this directory.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   one workload, result as the last line
//! perf run W [--seed N] [--seconds S] [--traced] [--smoke]
//! perf all   [--seed N] [--seconds S] [--traced] [--smoke] [--repeat R] [--compare]
//! perf manifest                                        prints BENCHMARK.json
//! ```

mod harness;
mod metrics;
mod reference;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use harness::{run_workload, Opts, Report, DEFAULT_SEED};
use metrics::{Better, END_TO_END, PER_LAYER};
use workloads::{Scale, Workload};

/// How long one run measures by default; `BENCHMARK.json` records the same.
const RUN_SECONDS: u64 = 10;
/// Fewest warm iterations of a run, however long they take.
const MIN_ITERS: usize = 5;
/// The same for the traced pass, whose rounds hold two or three executions.
const MIN_TRACED_ITERS: usize = 3;

struct Cli {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    repeat: usize,
    compare: bool,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: String::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        traced: false,
        smoke: false,
        repeat: 1,
        compare: false,
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?.to_string()),
            "--seed" => {
                cli.seed = parse_u64(value("a number")?).ok_or("--seed needs a number")?;
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--trace" => {
                cli.traced = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--repeat" => {
                cli.repeat = value("a count")?
                    .parse()
                    .ok()
                    .filter(|&r| r >= 1)
                    .ok_or("--repeat needs a count of at least 1")?;
            }
            "--traced" => cli.traced = true,
            "--smoke" => cli.smoke = true,
            "--compare" => cli.compare = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            word => positional.push(word.to_string()),
        }
    }
    let mut positional = positional.into_iter();
    cli.command = match positional.next() {
        Some(command) => command,
        None if cli.workload.is_some() => "run".to_string(),
        None => return Err("nothing to do".into()),
    };
    if cli.command == "run" && cli.workload.is_none() {
        cli.workload = positional.next();
    }
    if let Some(extra) = positional.next() {
        return Err(format!("unexpected argument {extra}"));
    }
    if cli.compare && cli.repeat < 2 {
        return Err("--compare needs --repeat 2 or more".into());
    }
    Ok(cli)
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perf run <workload> | all | manifest  [--seed N] [--seconds S] [--traced] \
         [--smoke] [--repeat R --compare]\n       perf --workload <workload> --seed N \
         --seconds S --trace 0|1\nworkloads: {}",
        names.join(" ")
    )
}

/// `BENCHMARK.json`, generated from the tables so the two cannot disagree.
fn manifest() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"perf/Cargo.toml\", \"--\"],\n  \"paths\": [\"perf\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

fn run_one(cli: &Cli) -> Result<bool, String> {
    let name = cli.workload.as_deref().ok_or("run needs a workload")?;
    let workload = Workload::from_name(name).ok_or_else(|| format!("no workload {name}"))?;
    let opts = Opts {
        seed: cli.seed,
        seconds: cli.seconds,
        min_iters: match (cli.smoke, cli.traced) {
            (true, _) => 2,
            (false, true) => MIN_TRACED_ITERS,
            (false, false) => MIN_ITERS,
        },
        traced: cli.traced,
        scale: if cli.smoke { Scale::Smoke } else { Scale::Full },
    };
    let report = run_workload(workload, &opts).map_err(|e| format!("peak memory: {e}"))?;
    print!("{}", report.to_table());
    println!("{}", report.to_json());
    Ok(report.correct)
}

/// Runs every workload in a child process of its own, one after the other,
/// so that each one's peak memory is its own.
fn run_all_once(cli: &Cli) -> Result<Vec<Report>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut reports = Vec::new();
    for w in Workload::ALL {
        let mut child = Command::new(&exe);
        child
            .args(["run", w.name(), "--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()]);
        if cli.traced {
            child.arg("--traced");
        }
        if cli.smoke {
            child.arg("--smoke");
        }
        // The child's complaints go straight to this process's stderr;
        // `output` waits for the child to end.
        child.stderr(Stdio::inherit());
        let out = child.output().map_err(|e| format!("{}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let report = stdout
            .lines()
            .last()
            .and_then(|line| Report::parse_json(w, cli.traced, line))
            .ok_or_else(|| format!("{}: no result ({})", w.name(), out.status))?;
        reports.push(report);
    }
    Ok(reports)
}

fn summary(reports: &[Report]) -> String {
    let table = if reports[0].traced {
        PER_LAYER
    } else {
        END_TO_END
    };
    let mut out = format!("{:<28}", "metric");
    for r in reports {
        out.push_str(&format!(" {:>15}", r.workload.name()));
    }
    out.push('\n');
    for (i, m) in table.iter().enumerate() {
        out.push_str(&format!("{:<28}", format!("{} [{}]", m.name, m.unit)));
        for r in reports {
            let v = r.metrics.iter().nth(i).map_or(0.0, |(_, v)| v);
            out.push_str(&format!(" {v:>15.4}"));
        }
        out.push('\n');
    }
    let (attempted, failed) = reports
        .iter()
        .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
    out.push_str(&format!(
        "operations attempted {attempted}, failed {failed}\n"
    ));
    out
}

/// Two passes of the same build, side by side: by how much of its own bound
/// each end-to-end metric worsened from the first pass to the second (and
/// the other way round — either order is a false alarm on identical code).
/// Returns whether every difference stayed within its bound.
fn compare(first: &[Report], second: &[Report]) -> bool {
    let mut within = true;
    println!(
        "{:<16} {:<15} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "pass 1", "pass 2", "diff", "bound"
    );
    for (a, b) in first.iter().zip(second) {
        for ((m, x), (_, y)) in a.metrics.iter().zip(b.metrics.iter()) {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let (lo, hi) = (x.min(y), x.max(y));
            let diff = match m.better {
                Better::Lower => metrics::ratio(hi, lo) - 1.0,
                Better::Higher => 1.0 - metrics::ratio(lo, hi),
            };
            let ok = diff <= bound;
            within &= ok;
            println!(
                "{:<16} {:<15} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%{}",
                a.workload.name(),
                m.name,
                x,
                y,
                diff * 100.0,
                bound * 100.0,
                if ok { "" } else { "  ** beyond its bound **" }
            );
        }
    }
    within
}

fn run_all(cli: &Cli) -> Result<bool, String> {
    if cli.compare && cli.traced {
        return Err("--compare reads the end-to-end metrics; drop --traced".into());
    }
    let mut passes = Vec::new();
    for pass in 1..=cli.repeat {
        println!("-- pass {pass} of {}", cli.repeat);
        let reports = run_all_once(cli)?;
        print!("{}", summary(&reports));
        passes.push(reports);
    }
    let mut ok = passes.iter().flatten().all(|r| r.correct);
    if cli.compare {
        let n = passes.len();
        ok &= compare(&passes[n - 2], &passes[n - 1]);
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(&args).and_then(|cli| match cli.command.as_str() {
        "run" => run_one(&cli),
        "all" => run_all(&cli),
        "manifest" => {
            print!("{}", manifest());
            Ok(true)
        }
        other => Err(format!("unknown command {other}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perf: a check failed");
            ExitCode::FAILURE
        }
        Err(why) => {
            eprintln!("perf: {why}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_form_is_a_run() {
        let c = cli(&[
            "--workload",
            "sim_ldd",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("the driver's arguments parse");
        assert_eq!(c.command, "run");
        assert_eq!(c.workload.as_deref(), Some("sim_ldd"));
        assert_eq!((c.seed, c.seconds, c.traced), (7, 3.0, true));
        assert_eq!(
            cli(&["run", "bfs_mesh", "--seed", "0x10"]).unwrap().seed,
            16
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(cli(&[]).is_err());
        assert!(cli(&["all", "--trace", "2"]).is_err());
        assert!(cli(&["all", "--compare"]).is_err());
        assert!(cli(&["run", "bfs_mesh", "extra"]).is_err());
        assert!(cli(&["all", "--seconds", "-1"]).is_err());
        assert!(cli(&["all", "--frobnicate"]).is_err());
    }

    /// `BENCHMARK.json` at the root is what `perf manifest` prints.
    #[test]
    fn benchmark_json_is_the_manifest() {
        assert_eq!(include_str!("../../BENCHMARK.json"), manifest());
    }
}
