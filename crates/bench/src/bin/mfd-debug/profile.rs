//! `mfd-debug profile`, the interactive front-end for the `mfd-prof`
//! overlay.
//!
//! ```text
//! mfd-debug profile summary                  # phase walls and stragglers
//! mfd-debug profile rounds --out rounds.csv  # per-round phase walls as CSV
//! mfd-debug profile matrix --shards 8        # shard-to-shard traffic
//! mfd-debug profile chrome --out trace.json  # wall-clock Chrome trace
//! mfd-debug profile localize --base a.csv --cur b.csv
//! ```
//!
//! Every subcommand reads the workload flags — `--graph` (default
//! `mesh-200x200`), `--algo bfs|ldd-K` (`ldd-64`), `--shards` (16) and
//! `--threads` (0 = all cores) — and runs the workload through the same
//! verified harness the `report --section profile` rows use: the profiled
//! run is always checked bit-identical to an unprofiled twin before anything
//! is printed.
//!
//! `localize` binary-searches two per-round series of one `--phase` (default
//! `step`; `wall` for the whole round), written by `rounds`, for the first
//! round whose cost ratio exceeds a threshold — `--threshold` (default
//! 1.25), or calibrated from two same-build series with `--calibrate` — the
//! `first_divergence` of wall clocks; see `docs/PROFILING.md`. It names the
//! round by the CSV's `round` column. `--self` and
//! `--inject <round>:<factor>` are self-tests on two runs of the workload
//! instead: the first calibrates from them and expects no regression, the
//! second injects a synthetic slowdown from a round the workload runs
//! (`1..=rounds`) and expects the localizer to name that round.

use mfd_bench::profiling::{
    csv_phase_series, parse_rounds_csv, profile_sharded_algo, rounds_csv, Algo, CsvRound,
    ProfiledRun,
};
use mfd_graph::Graph;
use mfd_prof::{calibrate_threshold, chrome_profile, first_regression};
use mfd_runtime::profile::{PHASES, PHASE_NAMES};

use crate::cli::{self, Exit, Flags};

/// The profiled workload the flags describe.
struct Workload {
    g: Graph,
    algo: Algo,
    shards: usize,
    threads: usize,
    label: String,
}

impl Workload {
    fn new(flags: &Flags) -> Workload {
        let graph = flags.text("--graph").unwrap_or("mesh-200x200");
        let algo = flags.text("--algo").unwrap_or("ldd-64");
        Workload {
            g: cli::graph(graph, Exit::Usage),
            algo: Algo::parse(algo).unwrap_or_else(|| {
                Exit::Usage.fail(format!("unknown algo {algo:?} (bfs or ldd-K)"))
            }),
            shards: flags.num("--shards").unwrap_or(16),
            threads: flags.num("--threads").unwrap_or(0),
            label: format!("{graph}/{algo}"),
        }
    }

    /// Runs the workload through the verified profiling harness.
    fn run(&self) -> ProfiledRun {
        profile_sharded_algo(&self.g, self.algo, self.shards, self.threads, &self.label)
    }
}

pub(crate) fn main(args: &[String]) {
    let (sub, usage, rest) = cli::subcommand(
        "profile",
        args,
        &[
            ("summary", ""),
            ("rounds", "--out <file>"),
            ("matrix", ""),
            ("chrome", "--out <file>"),
            (
                "localize",
                "--base <csv> --cur <csv> --phase <name> --threshold <ratio> \
                 --calibrate <csv> <csv> --self --inject <round>:<factor>",
            ),
        ],
    );
    let usage = format!("--graph <spec> --algo <bfs|ldd-K> --shards <n> --threads <n> {usage}");
    let flags = Flags::parse(&format!("profile {sub}"), &usage, rest);
    let workload = Workload::new(&flags);
    if sub == "localize" {
        return localize(&flags, &workload);
    }
    let run = workload.run();
    let out = flags.text("--out");
    match sub {
        "summary" => {
            print!("{}", run.profile.summary());
            println!(
                "verified: profiled run bit-identical to unprofiled twin \
                 (digest head {:016x}, {} rounds, {} messages)",
                run.digest_head, run.rounds, run.messages
            );
        }
        "rounds" => emit(out, &rounds_csv(&run.profile)),
        "matrix" => matrix(&run),
        _ => emit(
            Some(out.unwrap_or("profile_trace.json")),
            &chrome_profile(&run.profile),
        ),
    }
}

/// Resolves `--phase` into a column index of the rounds CSV: a phase name,
/// or `wall` for the whole-round wall clock.
fn phase_column(name: &str) -> usize {
    match PHASE_NAMES.iter().position(|&p| p == name) {
        Some(column) => column,
        None if name == "wall" => PHASES,
        None => Exit::Usage.fail(format!(
            "unknown phase {name:?} (one of {}, wall)",
            PHASE_NAMES.join(", ")
        )),
    }
}

fn load_rows(path: &str) -> Vec<CsvRound> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| Exit::Data.fail(format!("cannot read {path}: {e}")));
    parse_rounds_csv(&text).unwrap_or_else(|e| Exit::Data.fail(format!("{path}: {e}")))
}

fn emit(out: Option<&str>, text: &str) {
    match out {
        Some(path) => {
            std::fs::write(path, text)
                .unwrap_or_else(|e| Exit::Data.fail(format!("cannot write {path:?}: {e}")));
            println!("wrote {path}");
        }
        None => print!("{text}"),
    }
}

fn localize(flags: &Flags, workload: &Workload) {
    let phase_name = flags.text("--phase").unwrap_or("step");
    let phase = phase_column(phase_name);
    let threshold = flags.num("--threshold").unwrap_or(1.25);
    let inject: Option<(u64, u64)> = flags.pair("--inject", "<round>:<factor>");
    let self_test = flags.has("--self");
    if self_test && inject.is_some() {
        Exit::Usage.fail("--self and --inject are two different self-tests; give one");
    }
    if inject.is_some_and(|(onset, _)| onset == 0) {
        Exit::Usage.fail("--inject round 0 is the initial configuration: rounds start at 1");
    }

    let series = |rows: &[CsvRound]| csv_phase_series(rows, phase);
    let (base, cur, threshold) = if self_test || inject.is_some() {
        let run = || parse_rounds_csv(&rounds_csv(&workload.run().profile)).expect("own CSV");
        let a = run();
        if let Some((onset, _)) = inject.filter(|&(onset, _)| onset > a.len() as u64) {
            Exit::Usage.fail(format!(
                "--inject round {onset} is past the workload's {} rounds",
                a.len()
            ));
        }
        // Two runs of the same build calibrate the noise threshold.
        let b = run();
        let threshold = calibrate_threshold(&series(&a), &series(&b));
        match inject {
            // `--self`: the threshold must classify the two runs as noise.
            None => (a, b, threshold),
            // A synthetic persistent slowdown — factor x plus 1 ms, so it
            // clears the noise floor even on short rounds — whose onset the
            // localizer must name. On a noisy machine the calibrated
            // threshold can exceed the asked factor, which would make the
            // slowdown jitter by definition; the factor is raised to twice
            // the threshold so the self-test stays meaningful.
            Some((onset, factor)) => {
                let factor = factor.max((threshold * 2.0).ceil() as u64);
                let mut cur = a.clone();
                for (_, walls) in cur.iter_mut().filter(|(round, _)| *round >= onset) {
                    let v = walls[phase].max(1);
                    walls[phase] = v.saturating_mul(factor).saturating_add(1_000_000);
                }
                (a, cur, threshold)
            }
        }
    } else {
        let (Some(base), Some(cur)) = (flags.text("--base"), flags.text("--cur")) else {
            Exit::Usage.fail("profile localize needs --base and --cur, --self, or --inject")
        };
        let threshold = match flags.values("--calibrate") {
            Some([a, b]) => calibrate_threshold(&series(&load_rows(a)), &series(&load_rows(b))),
            _ => threshold,
        };
        (load_rows(base), load_rows(cur), threshold)
    };

    // The localizer returns a row index, which the longer CSV always has
    // (the shorter one's end included); the round is that row's.
    let longer = if base.len() >= cur.len() { &base } else { &cur };
    let found = first_regression(&series(&base), &series(&cur), threshold).map(|i| longer[i].0);
    let injected = inject.map_or(String::new(), |(onset, _)| format!("injected at {onset}, "));
    match found {
        Some(round) => println!(
            "localize: phase {phase_name} regression at round {round} \
             ({injected}threshold {threshold:.3})"
        ),
        None => println!(
            "localize: no regression in phase {phase_name} (threshold {threshold:.3}, {} rounds)",
            base.len().min(cur.len())
        ),
    }
    match (inject, found) {
        (None, Some(_)) if self_test => Exit::Data.fail("same-build runs must not regress"),
        (Some((onset, _)), found) if found != Some(onset) => Exit::Data.fail(format!(
            "the regression injected at round {onset} was not localized there"
        )),
        _ => {}
    }
}

fn matrix(run: &ProfiledRun) {
    let p = &run.profile;
    let m = p.traffic_totals();
    let k = p.shards;
    println!("traffic matrix ({k} shards, rows = sender, columns = receiver):");
    print!("{:>6}", "");
    for dst in 0..k {
        print!("{dst:>10}");
    }
    println!("{:>12}", "sent");
    let sent = p.sent_totals();
    for src in 0..k {
        print!("{src:>6}");
        for dst in 0..k {
            print!("{:>10}", m[src * k + dst]);
        }
        println!("{:>12}", sent[src]);
    }
    print!("{:>6}", "recv");
    for recv in p.delivered_totals().iter().take(k) {
        print!("{recv:>10}");
    }
    println!("{:>12}", run.messages);
}
