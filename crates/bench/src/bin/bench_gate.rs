//! The CI benchmark-regression gate.
//!
//! Compares the machine-readable `BENCH_*.json` series emitted by the
//! `report` binary against the checked-in `benches/baselines.json` and fails
//! (exit code 1) if any series' rounds or messages regressed by more than
//! 10%. Determinism is checked separately in CI by running the report twice
//! and diffing the files byte-for-byte; this gate catches the *drift* —
//! a program suddenly charging or executing more than it used to.
//!
//! ```text
//! bench_gate <baselines.json> <BENCH_a.json> [<BENCH_b.json> ...]
//! bench_gate --update <baselines.json> <BENCH_a.json> [...]   # rewrite baselines
//! ```
//!
//! A series present in a bench file but missing from the baselines is
//! reported as new and passes (add it with `--update`); a baseline series
//! missing from every bench file fails, and so does a gated column its
//! baseline has and its current row lacks, so benchmarks cannot silently
//! disappear.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use mfd_bench::json::{parse, Value};
use mfd_bench::series;

/// How far a gated column may move against its baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rule {
    /// May grow by at most this factor.
    GrowBy(f64),
    /// May drop by at most this much (absolute — the metric lives in `[0, 1]`).
    DropBy(f64),
}

/// Every column this gate knows how to compare, in the order
/// `benches/baselines.json` lists them. A series file's `metrics` header
/// says which of them its rows carry; `rounds` and `messages` are required
/// of every series. Retransmission counts breathe harder under protocol
/// tuning than round counts do, so they get a little more headroom.
const RULES: [(&str, Rule); 5] = [
    ("rounds", Rule::GrowBy(1.10)),
    ("messages", Rule::GrowBy(1.10)),
    ("delivered", Rule::DropBy(0.05)),
    ("retransmits", Rule::GrowBy(1.25)),
    ("checkpoint_bytes", Rule::GrowBy(1.10)),
];

/// The gated metrics of one series, indexed like [`RULES`]; `None` where the
/// series does not report the column (absent or null means ungated).
type Metrics = [Option<f64>; RULES.len()];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (update, paths) = match args.first().map(String::as_str) {
        Some("--update") => (true, &args[1..]),
        _ => (false, &args[..]),
    };
    if paths.len() < 2 {
        eprintln!("usage: bench_gate [--update] <baselines.json> <BENCH.json> [...]");
        return ExitCode::FAILURE;
    }
    let baselines_path = &paths[0];
    let mut current: BTreeMap<String, Metrics> = BTreeMap::new();
    let mut kinds: BTreeSet<String> = BTreeSet::new();
    for path in &paths[1..] {
        if let Err(msg) = collect_series(path, &mut current, &mut kinds) {
            eprintln!("bench_gate: {path}: {msg}");
            return ExitCode::FAILURE;
        }
    }

    if update {
        // Merge per schema kind: per-section runs are the normal workflow,
        // and a faults-only refresh must not silently delete the
        // runtime/gather baselines (the per-kind disappeared-check would
        // never notice the loss).
        let mut merged = match std::fs::metadata(baselines_path) {
            Ok(_) => match load_baselines(baselines_path) {
                Ok(existing) => existing,
                Err(msg) => {
                    eprintln!("bench_gate: {baselines_path}: {msg}");
                    return ExitCode::FAILURE;
                }
            },
            Err(_) => BTreeMap::new(),
        };
        merged.retain(|key, _| {
            let kind = key.split('|').next().unwrap_or_default();
            !kinds.contains(kind)
        });
        let kept = merged.len();
        merged.extend(current.iter().map(|(k, v)| (k.clone(), *v)));
        let body = render_baselines(&merged);
        if let Err(e) = std::fs::write(baselines_path, body) {
            eprintln!("bench_gate: write {baselines_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "bench_gate: wrote {} series to {baselines_path} ({} refreshed, {} kept)",
            merged.len(),
            current.len(),
            kept
        );
        return ExitCode::SUCCESS;
    }

    let baselines = match load_baselines(baselines_path) {
        Ok(b) => b,
        Err(msg) => {
            eprintln!("bench_gate: {baselines_path}: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let mut failures = 0usize;
    for (key, base) in &baselines {
        // A baseline series is only expected in runs that regenerated its
        // schema kind: jobs gate per-section (`report --section ...`), so a
        // runtime-only run must not fail over absent faults baselines.
        let kind = key.split('|').next().unwrap_or_default();
        if !kinds.contains(kind) {
            continue;
        }
        let Some(now) = current.get(key) else {
            eprintln!("FAIL {key}: series disappeared from the bench output");
            failures += 1;
            continue;
        };
        for failure in compare(key, base, now) {
            eprintln!("{failure}");
            failures += 1;
        }
    }
    for key in current.keys() {
        if !baselines.contains_key(key) {
            println!("NEW  {key}: no baseline yet (add with --update)");
        }
    }

    if failures > 0 {
        eprintln!(
            "bench_gate: {failures} regression(s) against {} baseline series",
            baselines.len()
        );
        ExitCode::FAILURE
    } else {
        println!(
            "bench_gate: OK — {} series checked against {} baselines",
            current.len(),
            baselines.len()
        );
        ExitCode::SUCCESS
    }
}

/// The failures of one series against its baseline, one line each: a gated
/// column that moved past its [`Rule`], or one the baseline has and the
/// current row lacks (absent or null) — a metric that vanished is not a
/// metric that held.
fn compare(key: &str, base: &Metrics, now: &Metrics) -> Vec<String> {
    let mut failures = Vec::new();
    for ((metric, rule), (was, is)) in RULES.iter().zip(base.iter().zip(now)) {
        let Some(was) = *was else { continue };
        let Some(is) = *is else {
            failures.push(format!(
                "FAIL {key}: {metric} disappeared from the bench output"
            ));
            continue;
        };
        match *rule {
            Rule::GrowBy(factor) if is > was * factor => failures.push(format!(
                "FAIL {key}: {metric} regressed {was} -> {is} (> {:.0}%)",
                (factor - 1.0) * 100.0
            )),
            Rule::DropBy(slack) if is < was - slack => failures.push(format!(
                "FAIL {key}: {metric} dropped {was} -> {is} (> {slack} absolute)"
            )),
            _ => {}
        }
    }
    failures
}

/// Reads the [`RULES`] columns of one series or baseline entry. `rounds` and
/// `messages` must be numbers; the rest are gated only where reported.
fn metrics_of(what: &str, get: impl Fn(&str) -> Option<f64>) -> Result<Metrics, String> {
    let metrics = RULES.map(|(name, _)| get(name));
    for (i, (name, _)) in RULES.iter().enumerate().take(2) {
        if metrics[i].is_none() {
            return Err(format!("{what} lacks numeric '{name}'"));
        }
    }
    Ok(metrics)
}

/// Reads one `BENCH_*.json` file and folds its series into `out` under the
/// keys [`series::read`] builds from the file's own `metrics` declaration;
/// `kinds` collects the schema kinds seen, scoping the disappeared-series
/// check. Fails closed: a file without the declaration, or whose rows it
/// does not describe, and a declared-gated column this gate has no rule for
/// are each a named error rather than a silently different key or an
/// unchecked metric.
fn collect_series(
    path: &str,
    out: &mut BTreeMap<String, Metrics>,
    kinds: &mut BTreeSet<String>,
) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let file = series::read(&text)?;
    for name in &file.gated {
        if !RULES.iter().any(|(known, _)| known == name) {
            return Err(format!(
                "metrics declaration gates '{name}', which bench_gate has no rule for"
            ));
        }
    }
    for (key, columns) in file.rows {
        let metrics = metrics_of(&format!("series '{key}'"), |name| {
            columns
                .get(name)
                .filter(|_| file.gated.iter().any(|gated| gated == name))
                .and_then(Value::as_num)
        })?;
        if out.insert(key.clone(), metrics).is_some() {
            return Err(format!("duplicate series key '{key}'"));
        }
    }
    kinds.insert(file.kind);
    Ok(())
}

fn load_baselines(path: &str) -> Result<BTreeMap<String, Metrics>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = parse(&text).map_err(|e| e.to_string())?;
    let series = doc
        .get("series")
        .and_then(Value::as_obj)
        .ok_or("missing series object")?;
    series
        .iter()
        .map(|(key, value)| {
            let metrics = metrics_of(&format!("baseline '{key}'"), |name| {
                value.get(name).and_then(Value::as_num)
            })?;
            Ok((key.clone(), metrics))
        })
        .collect()
}

fn render_baselines(series: &BTreeMap<String, Metrics>) -> String {
    let mut body = String::from("{\n  \"schema\": \"mfd-bench/baselines/v1\",\n  \"series\": {\n");
    let rows: Vec<String> = series
        .iter()
        .map(|(key, metrics)| {
            let fields: Vec<String> = RULES
                .iter()
                .zip(metrics)
                .filter_map(|((name, _), value)| value.map(|x| format!("\"{name}\": {x}")))
                .collect();
            format!("    \"{key}\": {{{}}}", fields.join(", "))
        })
        .collect();
    body.push_str(&rows.join(",\n"));
    body.push_str("\n  }\n}\n");
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_bench::series::{Cell, Role::*, Series};

    /// Runs [`collect_series`] on `text` written to a scratch file.
    fn collect(name: &str, text: &str) -> Result<BTreeMap<String, Metrics>, String> {
        let path = std::env::temp_dir().join(format!("bench_gate-{}-{name}", std::process::id()));
        std::fs::write(&path, text).expect("scratch file is writable");
        let mut out = BTreeMap::new();
        let result = collect_series(path.to_str().unwrap(), &mut out, &mut BTreeSet::new());
        std::fs::remove_file(&path).ok();
        result.map(|()| out)
    }

    fn file(metrics: &str, row: &str) -> String {
        format!("{{\"schema\": \"mfd-bench/demo/v1\", {metrics} \"benchmarks\": [{row}]}}")
    }

    #[test]
    fn a_written_series_is_collected_under_its_baseline_key() {
        let mut series = Series::new("faults");
        series.row(vec![
            ("graph", "tri-grid-8x8".into(), Id),
            ("n", 64usize.into(), Id),
            ("m", 161usize.into(), Id),
            ("strategy", "tree-pipeline".into(), Id),
            ("fault", "iid-0.05".into(), Id),
            ("mode", "reliable".into(), Id),
            ("f", Cell::Float(0.1, 3), Id),
            ("rounds", 608u64.into(), Gated),
            ("messages", 147845u64.into(), Gated),
            ("delivered", Cell::Float(1.0, 6), Gated),
            ("retransmits", Some(130u64).into(), Gated),
            ("excused", Some(0u64).into(), Exact),
            ("wedged", false.into(), Id),
            ("ms", Cell::Float(3.5, 1), Wall),
        ]);
        let collected = collect("written.json", &series.to_json()).expect("collects");
        let key = "faults|f=0.1|fault=iid-0.05|graph=tri-grid-8x8|m=161|mode=reliable|n=64\
                   |strategy=tree-pipeline|wedged=false";
        let baselines = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benches/baselines.json");
        let baselines = load_baselines(baselines).expect("baselines load");
        assert_eq!(collected.keys().collect::<Vec<_>>(), [key]);
        assert_eq!(collected[key], baselines[key]);
        assert_eq!(
            collected[key],
            [Some(608.0), Some(147845.0), Some(1.0), Some(130.0), None]
        );
    }

    #[test]
    fn fails_closed_on_files_the_declaration_does_not_describe() {
        let gated =
            "\"metrics\": {\"id\": [\"graph\"], \"gated\": [\"rounds\", \"messages\"], \"exact\": []},";
        let row = "{\"graph\":\"g\",\"rounds\":7,\"messages\":9}";
        assert!(collect("ok.json", &file(gated, row)).is_ok());
        for (name, metrics, row, expected) in [
            (
                "headerless.json",
                "",
                row,
                "missing metrics declaration — regenerate with this build",
            ),
            (
                "undeclared.json",
                gated,
                "{\"graph\":\"g\",\"rounds\":7,\"messages\":9,\"elapsed_ms\":0.5}",
                "series 'demo|graph=g' carries column 'elapsed_ms', which the metrics \
                 declaration does not know",
            ),
            (
                "lacking.json",
                gated,
                "{\"graph\":\"g\",\"rounds\":7}",
                "series 'demo|graph=g' lacks the gated column 'messages'",
            ),
            (
                "ruleless.json",
                "\"metrics\": {\"id\": [\"graph\"], \"gated\": [\"rounds\", \"messages\", \"makespan\"], \"exact\": []},",
                "{\"graph\":\"g\",\"rounds\":7,\"messages\":9,\"makespan\":3}",
                "metrics declaration gates 'makespan', which bench_gate has no rule for",
            ),
            (
                "null.json",
                gated,
                "{\"graph\":\"g\",\"rounds\":null,\"messages\":9}",
                "series 'demo|graph=g' lacks numeric 'rounds'",
            ),
        ] {
            assert_eq!(
                collect(name, &file(metrics, row)).err().as_deref(),
                Some(expected)
            );
        }
    }

    #[test]
    fn a_gated_column_the_current_row_lacks_fails() {
        let base = [Some(10.0), Some(100.0), Some(1.0), None, None];
        let fail = "FAIL demo|graph=g: delivered disappeared from the bench output";
        // The header no longer lists `delivered`, or the row carries `null`:
        // either way `collect_series` reads `None`.
        let gated =
            "\"metrics\": {\"id\": [\"graph\"], \"gated\": [\"rounds\", \"messages\"], \"exact\": []},";
        let row = "{\"graph\":\"g\",\"rounds\":10,\"messages\":100}";
        let undeclared = collect("undeclared-delivered.json", &file(gated, row)).unwrap();
        let gated = "\"metrics\": {\"id\": [\"graph\"], \"gated\": [\"rounds\", \"messages\", \"delivered\"], \"exact\": []},";
        let row = "{\"graph\":\"g\",\"rounds\":10,\"messages\":100,\"delivered\":null}";
        let null = collect("null-delivered.json", &file(gated, row)).unwrap();
        for current in [undeclared, null] {
            assert_eq!(
                compare("demo|graph=g", &base, &current["demo|graph=g"]),
                [fail]
            );
        }

        let held = [Some(10.0), Some(100.0), Some(1.0), None, None];
        assert!(compare("demo|graph=g", &base, &held).is_empty());
        let dropped = [Some(10.0), Some(100.0), Some(0.5), None, None];
        assert_eq!(
            compare("demo|graph=g", &base, &dropped),
            ["FAIL demo|graph=g: delivered dropped 1 -> 0.5 (> 0.05 absolute)"]
        );
        // A column only the current row reports stays ungated.
        let extra = [Some(10.0), Some(100.0), Some(1.0), Some(3.0), None];
        assert!(compare("demo|graph=g", &base, &extra).is_empty());
    }

    #[test]
    fn baselines_render_back_byte_for_byte() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benches/baselines.json");
        let loaded = load_baselines(path).expect("baselines load");
        assert_eq!(
            render_baselines(&loaded),
            std::fs::read_to_string(path).unwrap()
        );
    }
}
