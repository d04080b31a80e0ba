//! Interactive front-end for the `mfd-prof` overlay.
//!
//! ```text
//! cargo run --release -p mfd-bench --bin profile -- summary
//! cargo run --release -p mfd-bench --bin profile -- rounds --out rounds.csv
//! cargo run --release -p mfd-bench --bin profile -- matrix --shards 8
//! cargo run --release -p mfd-bench --bin profile -- chrome --out trace.json
//! cargo run --release -p mfd-bench --bin profile -- localize --base a.csv --cur b.csv
//! ```
//!
//! Every subcommand runs a profiled workload (default: `mesh-200x200` under
//! `ldd-64`, 16 shards, all cores) through the same verified harness the
//! `report --section profile` rows use — the profiled run is always checked
//! bit-identical to an unprofiled twin before anything is printed.
//!
//! `localize` binary-searches two per-round CSV series (written by
//! `rounds`) for the first round whose phase cost ratio exceeds a
//! noise-calibrated threshold — `first_divergence` for wall clocks; see
//! `docs/PROFILING.md`. `--self` and `--inject <round>:<factor>` are
//! self-tests: the first calibrates from two same-build runs and expects no
//! regression, the second injects a synthetic slowdown and expects the
//! localizer to name its onset round.

use mfd_bench::profiling::{
    csv_phase_series, parse_csr_graph, parse_rounds_csv, profile_sharded_algo, rounds_csv, Algo,
    ProfiledRun,
};
use mfd_prof::{calibrate_threshold, chrome_profile, first_regression};
use mfd_runtime::profile::{PHASES, PHASE_NAMES};

fn usage() -> ! {
    eprintln!(
        "usage: profile <summary|rounds|matrix|chrome|localize> [options]\n\
         \n\
         workload options (summary/rounds/matrix/chrome, and localize --self/--inject):\n\
         --graph <mesh-RxC|rmat-S-efE|power-law-2^K|tri-grid-RxC>  (default mesh-200x200)\n\
         --algo <bfs|ldd-K>                                        (default ldd-64)\n\
         --shards <N>   shard count                                (default 16)\n\
         --threads <N>  worker threads, 0 = all cores              (default 0)\n\
         --out <file>   write output to a file (rounds/chrome)\n\
         \n\
         localize options:\n\
         --base <csv> --cur <csv>   series written by `profile rounds`\n\
         --phase <name|wall>        column to search                (default step)\n\
         --threshold <ratio>        explicit regression threshold\n\
         --calibrate <csv> <csv>    derive the threshold from two same-build runs\n\
         --self                     run the workload twice, expect no regression\n\
         --inject <round>:<factor>  synthetic slowdown, expect localization there"
    );
    std::process::exit(2);
}

struct Opts {
    graph: String,
    algo: String,
    shards: usize,
    threads: usize,
    out: Option<String>,
    base: Option<String>,
    cur: Option<String>,
    phase: String,
    threshold: Option<f64>,
    calibrate: Option<(String, String)>,
    self_test: bool,
    inject: Option<(usize, u64)>,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        graph: "mesh-200x200".to_string(),
        algo: "ldd-64".to_string(),
        shards: 16,
        threads: 0,
        out: None,
        base: None,
        cur: None,
        phase: "step".to_string(),
        threshold: None,
        calibrate: None,
        self_test: false,
        inject: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("error: {arg} requires a value");
                    std::process::exit(2);
                })
                .clone()
        };
        match arg.as_str() {
            "--graph" => o.graph = value(),
            "--algo" => o.algo = value(),
            "--shards" => o.shards = value().parse().expect("--shards takes a number"),
            "--threads" => o.threads = value().parse().expect("--threads takes a number"),
            "--out" => o.out = Some(value()),
            "--base" => o.base = Some(value()),
            "--cur" => o.cur = Some(value()),
            "--phase" => o.phase = value(),
            "--threshold" => {
                o.threshold = Some(value().parse().expect("--threshold takes a ratio"))
            }
            "--calibrate" => {
                let a = value();
                let b = value();
                o.calibrate = Some((a, b));
            }
            "--self" => o.self_test = true,
            "--inject" => {
                let spec = value();
                let (round, factor) = spec.split_once(':').unwrap_or_else(|| usage());
                o.inject = Some((
                    round.parse().expect("--inject round"),
                    factor.parse().expect("--inject factor"),
                ));
            }
            _ => usage(),
        }
    }
    o
}

/// Runs the configured workload through the verified profiling harness.
fn run_workload(o: &Opts) -> ProfiledRun {
    let algo = Algo::parse(&o.algo).unwrap_or_else(|| {
        eprintln!("error: unknown algo {:?} (bfs or ldd-K)", o.algo);
        std::process::exit(2);
    });
    let label = format!("{}/{}", o.graph, o.algo);
    let Some(csr) = parse_csr_graph(&o.graph) else {
        eprintln!("error: unknown graph spec {:?}", o.graph);
        std::process::exit(2);
    };
    profile_sharded_algo(&csr, algo, o.shards, o.threads, &label)
}

/// Resolves `--phase` into a column index of the rounds CSV: a phase name,
/// or `wall` for the whole-round wall clock.
fn phase_column(name: &str) -> usize {
    if name == "wall" {
        return PHASES;
    }
    PHASE_NAMES
        .iter()
        .position(|&p| p == name)
        .unwrap_or_else(|| {
            eprintln!(
                "error: unknown phase {:?} (one of {}, wall)",
                name,
                PHASE_NAMES.join(", ")
            );
            std::process::exit(2);
        })
}

fn load_series(path: &str, phase: usize) -> Vec<u64> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let rows = parse_rounds_csv(&text).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(2);
    });
    csv_phase_series(&rows, phase)
}

fn emit(out: &Option<String>, text: &str) {
    match out {
        Some(path) => {
            std::fs::write(path, text).expect("write output file");
            println!("wrote {path}");
        }
        None => print!("{text}"),
    }
}

fn localize(o: &Opts) {
    let phase = phase_column(&o.phase);
    let workload_series = |run: &ProfiledRun| -> Vec<u64> {
        let rows = parse_rounds_csv(&rounds_csv(&run.profile)).expect("own CSV parses");
        csv_phase_series(&rows, phase)
    };

    if o.self_test {
        // Two runs of the same build: calibrate from them, then check the
        // calibrated threshold indeed classifies them as noise.
        let a = workload_series(&run_workload(o));
        let b = workload_series(&run_workload(o));
        let threshold = calibrate_threshold(&a, &b);
        match first_regression(&a, &b, threshold) {
            None => println!(
                "localize: no regression in phase {} (threshold {threshold:.3}, {} rounds)",
                o.phase,
                a.len()
            ),
            Some(round) => {
                println!(
                    "localize: UNEXPECTED regression in phase {} at round {round} \
                     (threshold {threshold:.3})",
                    o.phase
                );
                std::process::exit(1);
            }
        }
        return;
    }

    if let Some((onset, factor)) = o.inject {
        // Calibrate from two real runs, then inject a synthetic persistent
        // slowdown — factor x plus 1 ms, so it clears the noise floor even
        // on short rounds — and require the localizer to name its onset.
        // On a noisy machine the calibrated threshold can exceed the asked
        // factor, which would make the slowdown jitter by definition; the
        // factor is raised to twice the threshold so the self-test stays
        // meaningful.
        let a = workload_series(&run_workload(o));
        let b = workload_series(&run_workload(o));
        let threshold = calibrate_threshold(&a, &b);
        let factor = factor.max((threshold * 2.0).ceil() as u64);
        let cur: Vec<u64> = a
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if i >= onset {
                    v.max(1) * factor + 1_000_000
                } else {
                    v
                }
            })
            .collect();
        match first_regression(&a, &cur, threshold) {
            Some(round) if round == onset => println!(
                "localize: phase {} regression at round {round} \
                 (injected at {onset}, threshold {threshold:.3})",
                o.phase
            ),
            got => {
                println!(
                    "localize: MISSED injected regression at round {onset}: got {got:?} \
                     (threshold {threshold:.3})"
                );
                std::process::exit(1);
            }
        }
        return;
    }

    let (Some(base), Some(cur)) = (&o.base, &o.cur) else {
        usage();
    };
    let base = load_series(base, phase);
    let cur = load_series(cur, phase);
    let threshold = match (&o.calibrate, o.threshold) {
        (Some((a, b)), _) => calibrate_threshold(&load_series(a, phase), &load_series(b, phase)),
        (None, Some(t)) => t,
        (None, None) => 1.25,
    };
    match first_regression(&base, &cur, threshold) {
        Some(round) => println!(
            "localize: phase {} regression at round {round} (threshold {threshold:.3})",
            o.phase
        ),
        None => println!(
            "localize: no regression in phase {} (threshold {threshold:.3}, {} rounds)",
            o.phase,
            base.len().min(cur.len())
        ),
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
    };
    let o = parse_opts(rest);
    match cmd.as_str() {
        "summary" => {
            let run = run_workload(&o);
            print!("{}", run.profile.summary());
            println!(
                "verified: profiled run bit-identical to unprofiled twin \
                 (digest head {:016x}, {} rounds, {} messages)",
                run.digest_head, run.rounds, run.messages
            );
        }
        "rounds" => {
            let run = run_workload(&o);
            emit(&o.out, &rounds_csv(&run.profile));
        }
        "matrix" => {
            let run = run_workload(&o);
            matrix(&run);
        }
        "chrome" => {
            let run = run_workload(&o);
            let doc = chrome_profile(&run.profile);
            match &o.out {
                Some(_) => emit(&o.out, &doc),
                None => emit(&Some("profile_trace.json".to_string()), &doc),
            }
        }
        "localize" => localize(&o),
        _ => usage(),
    }
}
