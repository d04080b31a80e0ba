//! The `replay`, `divergence` and `profile` bins fail closed on input from
//! outside the program: a truncated journal, a label they did not write, an
//! unknown graph family, a malformed number or an output file that cannot be
//! written is one `error: …` line and a non-zero exit (2 for usage, 1 for
//! data), never a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use mfd_bench::replay::executor_journal;
use mfd_bench::trace::DivergenceProbe;
use mfd_graph::generators;
use mfd_runtime::ExecutorConfig;

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("the bin starts")
}

/// Asserts `args` exit with `code`, saying `error:` and never `panicked`.
fn fails(bin: &str, args: &[&str], code: i32) -> String {
    let out = run(bin, args);
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
    let replay = env!("CARGO_BIN_EXE_replay");
    fails(replay, &["verify", "--journal", j], code);
    fails(replay, &["resume", "--journal", j], code);
    fails(replay, &["dump", "--journal", j, "--round", "6"], code);
    fails(
        replay,
        &["diff", "--journal", j, "--round", "6", "--round-b", "7"],
        code,
    );
    fails(env!("CARGO_BIN_EXE_divergence"), &["--against", j], code);
}

#[test]
fn truncated_journals_are_errors_not_panics() {
    let dir = scratch("truncated");
    let whole = dir.join("run.mfdj");
    let out = run(
        env!("CARGO_BIN_EXE_replay"),
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
    let run = executor_journal(
        &g,
        &DivergenceProbe::clean(8),
        &ExecutorConfig::default(),
        4,
        "?",
    )
    .unwrap();
    let path = dir.join("label.mfdj");
    std::fs::write(&path, run.journal.to_bytes()).unwrap();
    let replay = env!("CARGO_BIN_EXE_replay");
    let p = path.to_str().unwrap();
    for sub in ["verify", "resume"] {
        assert!(fails(replay, &[sub, "--journal", p], 1).contains("label"));
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn an_unknown_family_is_a_usage_error_naming_the_valid_ones() {
    let replay = env!("CARGO_BIN_EXE_replay");
    let divergence = env!("CARGO_BIN_EXE_divergence");
    for (bin, args) in [
        (
            replay,
            &["record", "--out", "never.mfdj", "--graph", "k5"][..],
        ),
        (
            replay,
            &["resume", "--journal", "never.mfdj", "--graph", "k5"],
        ),
        (divergence, &["--graph", "k5"]),
    ] {
        let stderr = fails(bin, args, 2);
        assert!(
            stderr.contains("tri-grid-8x8, wheel-64, hypercube-6"),
            "{stderr}"
        );
    }
}

#[test]
fn profile_rejects_malformed_numbers_as_usage_errors() {
    let profile = env!("CARGO_BIN_EXE_profile");
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
    let stderr = fails(env!("CARGO_BIN_EXE_profile"), &args, 1);
    assert!(stderr.contains("cannot write"), "{stderr}");
    std::fs::remove_dir_all(dir).unwrap();
}
