//! `mfd-debug`'s `replay`, `divergence` and `profile` commands fail closed on
//! input from outside the program: a truncated journal, a label they did not
//! write, an unknown or degenerate graph spec, a flag the subcommand does not
//! read, a missing value, a malformed number, a `--rounds` past the round
//! budget, an `--inject` outside the run or an output file that cannot be
//! written is one `error: …` line and a non-zero exit (2 for usage, 1 for
//! data), never a panic.
//!
//! The success paths of `replay` and `divergence` run here too: the
//! determinism and injection hunts, journals recorded twice byte for byte,
//! resumes on every engine, time travel, online comparison against a
//! journal, and the journal bytes `mfd-debug replay record` writes, pinned.

use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use mfd_bench::replay::journal;
use mfd_bench::trace::DivergenceProbe;
use mfd_faults::{Frame, ReliableState};
use mfd_graph::generators;
use mfd_replay::Journal;
use mfd_runtime::ExecutorConfig;
use mfd_sim::SimCheckpoint;
use mfd_trace::Fnv1a;

/// Runs `mfd-debug <cmd> <args>`.
fn run(cmd: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mfd-debug"))
        .arg(cmd)
        .args(args)
        .output()
        .expect("the bin starts")
}

/// Asserts `args` exit 0 and returns stdout.
fn succeeds(cmd: &str, args: &[&str]) -> String {
    let out = run(cmd, args);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "{args:?}: {out:?}");
    stdout
}

/// `replay record --out <dir>/<name>.mfdj <args>`; returns the journal's path.
fn record(dir: &Path, name: &str, args: &[&str]) -> String {
    let path = dir.join(format!("{name}.mfdj"));
    let path = path.to_str().unwrap().to_string();
    let args: Vec<&str> = ["record", "--out", &path]
        .iter()
        .chain(args)
        .copied()
        .collect();
    succeeds("replay", &args);
    path
}

/// The acceptance configuration of a faulted journal: short, and well
/// inside its round budget at this loss.
const FAULTED: &[&str] = &[
    "--engine", "faulted", "--graph", "wheel-64", "--rounds", "12", "--every", "5", "--loss", "0.2",
];

/// Asserts `args` exit with `code`, saying `error:` and never `panicked`.
fn fails(cmd: &str, args: &[&str], code: i32) -> String {
    let out = run(cmd, args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    stderr
}

/// A fresh directory under the target's scratch space.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every subcommand that reads `journal`, and `divergence --against` it.
fn all_readers_fail(journal: &Path, code: i32) {
    let j = journal.to_str().unwrap();
    let replay = "replay";
    fails(replay, &["verify", "--journal", j], code);
    fails(replay, &["resume", "--journal", j], code);
    fails(replay, &["dump", "--journal", j, "--round", "6"], code);
    fails(
        replay,
        &["diff", "--journal", j, "--round", "6", "--round-b", "7"],
        code,
    );
    fails("divergence", &["--against", j], code);
}

#[test]
fn truncated_journals_are_errors_not_panics() {
    let dir = scratch("truncated");
    let whole = dir.join("run.mfdj");
    let out = run(
        "replay",
        &["record", "--out", whole.to_str().unwrap(), "--every", "4"],
    );
    assert!(out.status.success(), "{out:?}");
    let bytes = std::fs::read(&whole).unwrap();
    for cut in [0, 12, bytes.len() / 2, bytes.len() - 1] {
        let cut_path = dir.join(format!("cut-{cut}.mfdj"));
        std::fs::write(&cut_path, &bytes[..cut]).unwrap();
        all_readers_fail(&cut_path, 1);
    }
    all_readers_fail(&dir.join("missing.mfdj"), 1);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn a_label_the_bins_did_not_write_is_bad_data() {
    let dir = scratch("label");
    let g = generators::triangulated_grid(8, 8);
    let exec = mfd_bench::sync_executor(&ExecutorConfig::default());
    let run = journal(&exec, &g, &DivergenceProbe::clean(8), 4, "?").unwrap();
    let path = dir.join("label.mfdj");
    std::fs::write(&path, run.journal.to_bytes()).unwrap();
    let replay = "replay";
    let p = path.to_str().unwrap();
    for sub in ["verify", "resume"] {
        assert!(fails(replay, &[sub, "--journal", p], 1).contains("label"));
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn an_unknown_family_is_a_usage_error_naming_the_valid_ones() {
    for (cmd, args) in [
        (
            "replay",
            &["record", "--out", "never.mfdj", "--graph", "k5"][..],
        ),
        (
            "replay",
            &["resume", "--journal", "never.mfdj", "--graph", "k5"],
        ),
        ("divergence", &["--graph", "k5"]),
        ("profile", &["summary", "--graph", "k5"]),
    ] {
        let stderr = fails(cmd, args, 2);
        assert!(stderr.contains("\"k5\""), "{stderr}");
        for form in [
            "tri-grid-<r>x<c>",
            "mesh-<r>x<c>",
            "wheel-<n>",
            "hypercube-<d>",
            "rmat-<scale>-ef<ef>",
            "power-law-2^<k>",
        ] {
            assert!(stderr.contains(form), "{form}: {stderr}");
        }
    }
}

/// Every subcommand: its command prefix, a flag it reads that takes a value,
/// and one that takes a number. The prefix carries what the subcommand
/// requires, so the number is the first thing found wrong.
const SUBCOMMANDS: &[(&str, &[&str], &str, &str)] = &[
    ("replay", &["record"], "--out", "--rounds"),
    ("replay", &["verify"], "--journal", "--journal"),
    (
        "replay",
        &["resume", "--journal", "never.mfdj"],
        "--graph",
        "--at",
    ),
    (
        "replay",
        &["dump", "--journal", "never.mfdj"],
        "--journal",
        "--round",
    ),
    (
        "replay",
        &["diff", "--journal", "never.mfdj", "--round", "6"],
        "--journal-b",
        "--round-b",
    ),
    ("divergence", &[], "--graph", "--rounds"),
    ("profile", &["summary"], "--graph", "--shards"),
    ("profile", &["rounds"], "--out", "--threads"),
    ("profile", &["matrix"], "--algo", "--shards"),
    ("profile", &["chrome"], "--out", "--threads"),
    ("profile", &["localize"], "--base", "--threshold"),
];

/// One `error:` line, exit 2 and no panic for a flag the subcommand does not
/// read, a flag without its value, and a non-number where a number goes
/// (`replay verify` reads no number).
#[test]
fn every_subcommand_rejects_a_malformed_command_line_in_one_line() {
    for &(cmd, prefix, valued, numeric) in SUBCOMMANDS {
        let mut cases = vec![
            ([prefix, &["--no-such-flag"]].concat(), "--no-such-flag"),
            ([prefix, &[valued]].concat(), valued),
        ];
        if numeric != valued {
            cases.push(([prefix, &[numeric, "many"]].concat(), numeric));
        }
        for (args, named) in cases {
            let stderr = fails(cmd, &args, 2);
            assert_eq!(stderr.lines().count(), 1, "{cmd} {args:?}: {stderr}");
            assert!(stderr.contains(named), "{cmd} {args:?}: {stderr}");
        }
    }
    for (cmd, args) in [
        ("replay", &[][..]),
        ("profile", &[]),
        ("replay", &["undo"]),
        ("profile", &["flame"]),
    ] {
        assert_eq!(fails(cmd, args, 2).lines().count(), 1, "{cmd} {args:?}");
    }
}

/// Graph specs with no vertices, or whose size overflows, are usage errors:
/// they used to panic (`center out of range`) or run a wrapped 1-vertex graph.
#[test]
fn degenerate_graph_specs_are_usage_errors() {
    for spec in ["mesh-0x0", "tri-grid-0x3", "power-law-2^64", "wheel-3"] {
        let stderr = fails("profile", &["summary", "--graph", spec], 2);
        assert!(stderr.contains(&format!("{spec:?}")), "{stderr}");
    }
    assert!(fails("divergence", &["--graph", "mesh-0x0"], 2).contains("no vertices"));
}

/// `--rounds` past the engines' round budget is a usage error naming the
/// budget — not a wrapped budget hint's panic, nor a clean recording
/// reported as a wedged faulted one.
#[test]
fn rounds_past_the_budget_are_usage_errors() {
    for (cmd, args) in [
        ("divergence", &["--rounds", "18446744073709551615"][..]),
        (
            "replay",
            &["record", "--out", "never.mfdj", "--rounds", "2000000"],
        ),
    ] {
        let stderr = fails(cmd, args, 2);
        assert!(stderr.contains("round budget of 1000000"), "{stderr}");
    }
}

/// An `--inject` outside the run, or one a mode would ignore, is a usage
/// error in every mode rather than a missed injection.
#[test]
fn injections_outside_the_run_are_usage_errors() {
    let dir = scratch("inject");
    let exec = record(&dir, "exec", &["--every", "4"]);
    for args in [
        &["--against", &exec, "--inject", "99:999"][..],
        &["--against", &exec, "--inject", "5:64"],
        &["--inject", "17:3"],
        &["--inject", "0:3"],
        &["--self", "--inject", "3:2"],
        &["--self", "--against", &exec],
    ] {
        let stderr = fails("divergence", args, 2);
        assert!(stderr.contains("--"), "{args:?}: {stderr}");
    }
    let workload = ["--graph", "mesh-8x8", "--algo", "bfs", "--shards", "2"];
    for inject in [&["--inject", "500:4"][..], &["--self", "--inject", "1:4"]] {
        let args = [&["localize"][..], &workload, inject].concat();
        assert!(fails("profile", &args, 2).contains("--inject"), "{args:?}");
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn profile_rejects_malformed_numbers_as_usage_errors() {
    let profile = "profile";
    for args in [
        &["summary", "--shards", "many"][..],
        &["summary", "--threads", "-1"],
        &["localize", "--threshold", "steep"],
        &["localize", "--inject", "5"],
        &["localize", "--inject", "five:4"],
        &["localize", "--inject", "5:x"],
    ] {
        let stderr = fails(profile, args, 2);
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(args[1]), "{args:?}: {stderr}");
    }
}

#[test]
fn profile_reports_an_unwritable_output_as_bad_data() {
    let dir = scratch("profile-out");
    let out = dir.join("no-such-dir").join("rounds.csv");
    let args = [
        "rounds",
        "--graph",
        "mesh-8x8",
        "--algo",
        "bfs",
        "--shards",
        "2",
        "--out",
        out.to_str().unwrap(),
    ];
    let stderr = fails("profile", &args, 1);
    assert!(stderr.contains("cannot write"), "{stderr}");
    std::fs::remove_dir_all(dir).unwrap();
}

/// `localize` names a regression by the round column of the CSVs, not by
/// its row index: a copy of a run's rounds slowed from round 7 on localizes
/// at round 7.
#[test]
fn localize_reports_the_csv_round_of_a_crafted_regression() {
    let dir = scratch("localize");
    let base = dir.join("base.csv");
    let base = base.to_str().unwrap();
    let workload = [
        "--graph",
        "mesh-20x20",
        "--algo",
        "bfs",
        "--shards",
        "2",
        "--threads",
        "1",
    ];
    succeeds(
        "profile",
        &[&["rounds", "--out", base][..], &workload].concat(),
    );
    // The header, then rounds 1..=20: every column of rounds >= 7 slowed
    // tenfold plus 1 ms.
    let text = std::fs::read_to_string(base).unwrap();
    assert!(text.lines().nth(20).unwrap().starts_with("20,"), "{text}");
    let mut slowed = String::new();
    for line in text.lines() {
        let cells: Vec<&str> = line.split(',').collect();
        match cells[0].parse::<u64>() {
            Ok(round) if round >= 7 => {
                let walls = cells[1..].iter().map(|c| c.parse::<u64>().unwrap());
                let walls: Vec<String> = walls.map(|w| (w * 10 + 1_000_000).to_string()).collect();
                slowed.push_str(&format!("{round},{}\n", walls.join(",")));
            }
            _ => slowed.push_str(&format!("{line}\n")),
        }
    }
    let cur = dir.join("cur.csv");
    std::fs::write(&cur, slowed).unwrap();
    let args = [
        "localize",
        "--base",
        base,
        "--cur",
        cur.to_str().unwrap(),
        "--phase",
        "wall",
        "--threshold",
        "2",
    ];
    let stdout = succeeds("profile", &[&args[..], &workload].concat());
    assert!(stdout.contains("regression at round 7 "), "{stdout}");
    std::fs::remove_dir_all(dir).unwrap();
}

/// `--inject` takes a round the workload runs, and rounds start at 1.
#[test]
fn localize_refuses_an_injection_at_round_zero() {
    let args = [
        "localize", "--inject", "0:3", "--graph", "mesh-8x8", "--algo", "bfs", "--shards", "2",
    ];
    let stderr = fails("profile", &args, 2);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("--inject"), "{stderr}");
}

/// The wall-clock Chrome trace, whose per-shard args derive from the
/// recorded traffic, is one well-formed JSON document with events in it.
#[test]
fn profile_chrome_writes_a_parsable_trace() {
    let dir = scratch("chrome");
    let out = dir.join("trace.json");
    let args = [
        "chrome",
        "--graph",
        "mesh-16x16",
        "--algo",
        "ldd-4",
        "--shards",
        "4",
        "--out",
        out.to_str().unwrap(),
    ];
    succeeds("profile", &args);
    let doc = mfd_bench::json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    match doc.get("traceEvents") {
        Some(mfd_bench::json::Value::Arr(events)) => assert!(!events.is_empty()),
        other => panic!("traceEvents is {other:?}"),
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn divergence_hunts_agree_on_clean_runs_and_pinpoint_an_injection() {
    let divergence = "divergence";
    for args in [&["--self"][..], &[]] {
        assert!(
            succeeds(divergence, args).contains("no divergence"),
            "{args:?}"
        );
    }
    let injected = succeeds(divergence, &["--inject", "5:3"]);
    assert!(injected.contains("DIVERGENCE at round 5"), "{injected}");
}

#[test]
fn journals_record_reproducibly_and_resume_bit_identically() {
    let dir = scratch("resume");
    let replay = "replay";
    let exec = record(&dir, "exec", &["--engine", "executor", "--every", "4"]);
    let sim = record(&dir, "sim", &["--engine", "sim", "--every", "4"]);
    let again = record(&dir, "sim-again", &["--engine", "sim", "--every", "4"]);
    assert_eq!(std::fs::read(&sim).unwrap(), std::fs::read(&again).unwrap());
    let faulted = record(&dir, "faulted", FAULTED);

    succeeds(replay, &["verify", "--journal", &exec]);
    for args in [
        &["resume", "--journal", &exec, "--at", "7"][..],
        &["resume", "--journal", &sim],
        &["resume", "--journal", &faulted, "--at", "20"],
    ] {
        assert!(succeeds(replay, args).contains("resume OK"), "{args:?}");
    }
    // A checkpoint restored onto a graph it does not fit is refused. The
    // executor needs mail in flight at the restored round to notice.
    let refused = |args: &[&str]| {
        let args = [args, &["--graph", "wheel-64"]].concat();
        assert!(fails(replay, &args, 1).contains("checkpoint does not match"));
    };
    refused(&["resume", "--journal", &exec, "--at", "7"]);
    refused(&["resume", "--journal", &sim]);
    let args = ["resume", "--journal", &faulted, "--graph", "tri-grid-8x8"];
    assert!(fails(replay, &args, 1).contains("checkpoint does not match"));

    // A faulted checkpoint whose vertex state does not fit its vertex — the
    // hub's send windows one short of its degree — is refused before the
    // adapter's first step would index past them.
    let (forged, round) = hub_tx_truncated(&faulted);
    let stderr = fails(replay, &["resume", "--journal", &forged, "--at", &round], 1);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("program state"), "{stderr}");
    std::fs::remove_dir_all(dir).unwrap();
}

/// Decodes the first checkpoint of the faulted journal at `path`, drops one
/// of vertex 0's send windows, and writes the re-encoded journal next to it;
/// returns the forged journal's path and the checkpoint's round.
fn hub_tx_truncated(path: &str) -> (String, String) {
    type Faulted = SimCheckpoint<ReliableState<u64, u64>, Frame<u64>>;
    let mut journal = Journal::from_bytes(&std::fs::read(path).unwrap()).unwrap();
    let first = &mut journal.checkpoints[0];
    let mut checkpoint: Faulted = mfd_replay::from_bytes(&first.payload).unwrap();
    checkpoint.states[0].tx.pop();
    first.payload = mfd_replay::to_bytes(&checkpoint);
    let round = first.round.to_string();
    let forged = path.replace(".mfdj", "-forged.mfdj");
    std::fs::write(&forged, journal.to_bytes()).unwrap();
    (forged, round)
}

#[test]
fn time_travel_and_online_comparison_reach_every_round() {
    let dir = scratch("travel");
    let replay = "replay";
    let divergence = "divergence";
    let exec = record(&dir, "exec", &["--engine", "executor", "--every", "4"]);
    let sim = record(&dir, "sim", &["--engine", "sim", "--every", "4"]);

    assert!(succeeds(replay, &["dump", "--journal", &exec, "--round", "6"]).contains("v0"));
    let diff = ["diff", "--journal", &exec, "--round", "6", "--round-b", "7"];
    assert!(succeeds(replay, &diff).contains("vertices differ"));
    // The event engine's last round is sealed in `finish`, past its last cut.
    let last = succeeds(replay, &["dump", "--journal", &sim, "--round", "17"]);
    assert!(last.contains("vertex states at round 17"), "{last}");

    for journal in [&exec, &sim] {
        let online = succeeds(divergence, &["--against", journal]);
        assert!(online.contains("no divergence"), "{online}");
    }
    let injected = ["--against", &exec, "--inject", "5:3", "--json"];
    assert!(succeeds(divergence, &injected).contains("\"round\": 5"));
    std::fs::remove_dir_all(dir).unwrap();
}

/// `--against` runs the probe the journal's label describes — its graph and
/// round count — unless `--graph` / `--rounds` say otherwise, and refuses a
/// faulted journal, whose chain is not the plain probe's.
#[test]
fn against_runs_what_the_journal_label_describes() {
    let dir = scratch("against");
    let replay = "replay";
    let divergence = "divergence";
    let short = record(&dir, "short", &["--rounds", "12"]);
    let wheel = record(&dir, "wheel", &["--graph", "wheel-64"]);
    for journal in [&short, &wheel] {
        let online = succeeds(divergence, &["--against", journal]);
        assert!(online.contains("no divergence"), "{online}");
    }
    let longer = run(divergence, &["--against", &short, "--rounds", "16"]);
    assert_eq!(longer.status.code(), Some(1), "{longer:?}");
    assert!(String::from_utf8_lossy(&longer.stdout).contains("DIVERGENCE at round 13"));

    let faulted = record(&dir, "faulted", FAULTED);
    assert!(fails(divergence, &["--against", &faulted], 1).contains("faulted"));
    assert!(fails(replay, &["dump", "--journal", &faulted, "--round", "6"], 1).contains("faulted"));
    std::fs::remove_dir_all(dir).unwrap();
}

/// `(length, FNV-1a 64)` of the journals `replay record` writes with its
/// default rounds, cadence and loss, per engine and acceptance family. The
/// values were taken from the binary that journaled through one function per
/// engine; journal bytes are a file format and must not move.
#[test]
fn recorded_journal_bytes_are_pinned() {
    let dir = scratch("pinned");
    #[rustfmt::skip]
    let pins = [
        ("executor", "tri-grid-8x8", 23_437, 0x426e_5bc6_a4a7_89c1),
        ("executor", "wheel-64", 20_073, 0xb9d7_5e60_cb38_e70f),
        ("executor", "hypercube-6", 26_412, 0x8c29_688c_1f23_a0de),
        ("sim", "tri-grid-8x8", 112_815, 0x70a3_8235_c96c_80b9),
        ("sim", "wheel-64", 90_669, 0x49de_f6c7_4fbb_d165),
        ("sim", "hypercube-6", 132_258, 0x65f2_d469_567f_eb1a),
        ("faulted", "tri-grid-8x8", 7_626_258, 0x1859_ef6e_23b9_173a),
        ("faulted", "wheel-64", 6_092_699, 0x4e2a_071d_593e_f04e),
        ("faulted", "hypercube-6", 7_987_297, 0x31cc_be18_1169_7a3e),
    ];
    for (engine, graph, len, hash) in pins {
        let path = record(&dir, engine, &["--engine", engine, "--graph", graph]);
        let bytes = std::fs::read(path).unwrap();
        let mut fnv = Fnv1a::new();
        fnv.write(&bytes);
        assert_eq!(
            (bytes.len(), fnv.finish()),
            (len, hash),
            "{engine} on {graph}"
        );
    }
    std::fs::remove_dir_all(dir).unwrap();
}
