//! The `BENCH_<kind>.json` format: one writer ([`Series`]) and one reader
//! ([`read`], which also builds the series keys).
//!
//! A series file is deterministic by construction. Every cell of a row
//! declares its [`Role`]; a wall-clock cell ([`Role::Wall`]) is printed in the
//! section's markdown table and never written, so two runs of one build
//! produce byte-equal files and timings have exactly one home (`perf/`). The
//! file's `metrics` header lists its columns by role, which says which are
//! measurements of the run rather than its identity; `bench_gate` keys and
//! compares by it, so the measured-vs-identity split is declared here once,
//! where the row is built, and nowhere else.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::{parse, Value};
use crate::Table;

/// What a column is to the regression gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Part of the series key: changing it makes a *new* series, so a
    /// semantic change (a digest head, a wedge verdict, an experiment
    /// parameter) fails the gate as a disappeared series.
    Id,
    /// A measurement `bench_gate` compares against its baseline.
    Gated,
    /// A deterministic measurement that is byte-diffed but not compared.
    Exact,
    /// A measurement of the machine: printed, never written.
    Wall,
}

/// One table/JSON cell. The variant fixes both renderings.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// An absent measurement: `null` in JSON, `-` in the table.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A count.
    Int(u64),
    /// A float and the number of decimals it is written with.
    Float(f64, usize),
    /// A quoted string.
    Str(String),
    /// A digest head: a quoted `{:016x}`.
    Hex(u64),
}

impl Cell {
    fn json(&self) -> String {
        match self {
            Cell::Null => "null".to_string(),
            Cell::Bool(b) => b.to_string(),
            Cell::Int(x) => x.to_string(),
            Cell::Float(x, decimals) => format!("{x:.decimals$}"),
            Cell::Str(s) => format!("\"{s}\""),
            Cell::Hex(h) => format!("\"{h:016x}\""),
        }
    }

    fn table(&self) -> String {
        match self {
            Cell::Null => "-".to_string(),
            // Tables show at most three decimals of what the JSON records.
            Cell::Float(x, decimals) => format!("{x:.p$}", p = (*decimals).min(3)),
            Cell::Str(s) => s.clone(),
            Cell::Hex(h) => format!("{h:016x}"),
            other => other.json(),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Str(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Str(s)
    }
}

impl From<u64> for Cell {
    fn from(x: u64) -> Cell {
        Cell::Int(x)
    }
}

impl From<usize> for Cell {
    fn from(x: usize) -> Cell {
        Cell::Int(x as u64)
    }
}

impl From<bool> for Cell {
    fn from(b: bool) -> Cell {
        Cell::Bool(b)
    }
}

impl<T: Into<Cell>> From<Option<T>> for Cell {
    fn from(x: Option<T>) -> Cell {
        x.map_or(Cell::Null, Into::into)
    }
}

/// One row: its cells in column order.
pub type Row = Vec<(&'static str, Cell, Role)>;

/// The rows of one report section, destined for `BENCH_<kind>.json` and the
/// section's markdown table.
pub struct Series {
    kind: &'static str,
    rows: Vec<Row>,
}

impl Series {
    /// An empty series of schema `mfd-bench/<kind>/v1`.
    pub fn new(kind: &'static str) -> Self {
        Series {
            kind,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Prints the rows as a markdown table. Each entry of `columns` names a
    /// column, or is `"header=column"` where the table header differs.
    ///
    /// # Panics
    ///
    /// If a row lacks a requested column.
    pub fn print(&self, title: &str, columns: &[&str]) {
        println!("{}", self.table(title, columns));
    }

    fn table(&self, title: &str, columns: &[&str]) -> String {
        let (headers, names): (Vec<&str>, Vec<&str>) = columns
            .iter()
            .map(|c| c.split_once('=').unwrap_or((c, c)))
            .unzip();
        let mut table = Table::new(title, &headers);
        for row in &self.rows {
            table.row(
                names
                    .iter()
                    .map(|name| {
                        row.iter()
                            .find(|(column, ..)| column == name)
                            .unwrap_or_else(|| {
                                panic!("{}: a row has no column {name:?}", self.kind)
                            })
                            .1
                            .table()
                    })
                    .collect(),
            );
        }
        table.to_markdown()
    }

    /// Renders the file: schema, `metrics` header, one line per row holding
    /// every cell that is not [`Role::Wall`].
    ///
    /// # Panics
    ///
    /// If a column changes role between rows, or two rows share a series
    /// key — either would make the gate compare the wrong things.
    pub fn to_json(&self) -> String {
        let mut roles: Vec<(&str, Role)> = Vec::new();
        let mut lines = Vec::new();
        for row in &self.rows {
            let mut fields = Vec::new();
            for (name, cell, role) in row {
                match roles.iter().find(|(known, _)| known == name) {
                    Some((_, known)) => assert_eq!(
                        known, role,
                        "{}: column {name:?} changes role between rows",
                        self.kind
                    ),
                    None => roles.push((name, *role)),
                }
                if *role != Role::Wall {
                    fields.push(format!("\"{name}\":{}", cell.json()));
                }
            }
            lines.push(format!("{{{}}}", fields.join(",")));
        }
        let names = |wanted: Role| {
            let quoted: Vec<String> = roles
                .iter()
                .filter(|(_, role)| *role == wanted)
                .map(|(name, _)| format!("\"{name}\""))
                .collect();
            quoted.join(", ")
        };
        let json = format!(
            "{{\n  \"schema\": \"mfd-bench/{}/v1\",\n  \"metrics\": {{\"id\": [{}], \"gated\": [{}], \"exact\": [{}]}},\n  \"benchmarks\": [\n    {}\n  ]\n}}\n",
            self.kind,
            names(Role::Id),
            names(Role::Gated),
            names(Role::Exact),
            lines.join(",\n    ")
        );
        // Read the file back the way the gate will: the keys checked here
        // are the gate's keys by construction.
        let file = read(&json).unwrap_or_else(|e| panic!("{}: unreadable series: {e}", self.kind));
        let mut seen = BTreeSet::new();
        for (key, _) in &file.rows {
            assert!(seen.insert(key), "duplicate series key '{key}'");
        }
        json
    }

    /// Writes `BENCH_<kind>.json` into the working directory.
    pub fn write(&self) {
        let path = format!("BENCH_{}.json", self.kind);
        std::fs::write(&path, self.to_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path} ({} series)", self.rows.len());
    }
}

/// A parsed `BENCH_<kind>.json`.
pub struct SeriesFile {
    /// The `<kind>` of `mfd-bench/<kind>/v1`.
    pub kind: String,
    /// The columns the header declares gated.
    pub gated: Vec<String>,
    /// Every row: its series key and its columns.
    pub rows: Vec<(String, BTreeMap<String, Value>)>,
}

/// Parses a series file and keys its rows.
///
/// A row's series key is the schema kind plus every `id` column it carries,
/// as `|name=value` in name order. Numeric experiment parameters (the
/// failure budget `f`, ε) are identity, so changing one produces a new
/// series instead of a comparison against a baseline measured under the old
/// value; a null is an absent value (no latency model outside the
/// simulator), not identity.
///
/// # Errors
///
/// Malformed JSON; a missing `schema`, `metrics` or `benchmarks` field; a row
/// that carries a column the `metrics` header does not declare — it would
/// silently become part of the key — or lacks one it declares gated.
pub fn read(text: &str) -> Result<SeriesFile, String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing schema field")?;
    // "mfd-bench/<kind>/v1" -> "<kind>"
    let kind = schema.split('/').nth(1).ok_or("malformed schema name")?;
    let header = doc
        .get("metrics")
        .ok_or("missing metrics declaration — regenerate with this build")?;
    let declared = |role: &str| -> Result<Vec<String>, String> {
        header
            .get(role)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("metrics declaration lacks its '{role}' list"))?
            .iter()
            .map(|name| name.as_str().map(str::to_string))
            .collect::<Option<_>>()
            .ok_or_else(|| format!("metrics '{role}' list holds a non-string"))
    };
    let (id, gated, exact) = (declared("id")?, declared("gated")?, declared("exact")?);
    let mut rows = Vec::new();
    for row in doc
        .get("benchmarks")
        .and_then(Value::as_arr)
        .ok_or("missing benchmarks array")?
    {
        let columns = row.as_obj().ok_or("benchmark row is not an object")?;
        let mut key = kind.to_string();
        for (name, value) in columns.iter().filter(|(name, _)| id.contains(name)) {
            match value {
                Value::Str(s) => key.push_str(&format!("|{name}={s}")),
                Value::Bool(b) => key.push_str(&format!("|{name}={b}")),
                Value::Num(x) => key.push_str(&format!("|{name}={x}")),
                Value::Null | Value::Arr(_) | Value::Obj(_) => {}
            }
        }
        let known = |name: &&String| [&id, &gated, &exact].iter().any(|role| role.contains(name));
        if let Some(name) = columns.keys().find(|name| !known(name)) {
            return Err(format!(
                "series '{key}' carries column '{name}', which the metrics declaration does not know"
            ));
        }
        if let Some(name) = gated.iter().find(|name| !columns.contains_key(*name)) {
            return Err(format!("series '{key}' lacks the gated column '{name}'"));
        }
        rows.push((key, columns.clone()));
    }
    Ok(SeriesFile {
        kind: kind.to_string(),
        gated,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::Role::*;
    use super::*;

    fn demo() -> Series {
        let mut s = Series::new("demo");
        s.row(vec![
            ("graph", "g".into(), Id),
            ("rounds", 7u64.into(), Gated),
            ("makespan", Cell::Null, Exact),
            ("ms", Cell::Float(12.3456, 1), Wall),
        ]);
        s
    }

    #[test]
    fn a_wall_cell_reaches_the_table_and_never_the_json() {
        let s = demo();
        assert_eq!(
            s.to_json(),
            "{\n  \"schema\": \"mfd-bench/demo/v1\",\n  \"metrics\": {\"id\": [\"graph\"], \"gated\": [\"rounds\"], \
             \"exact\": [\"makespan\"]},\n  \"benchmarks\": [\n    \
             {\"graph\":\"g\",\"rounds\":7,\"makespan\":null}\n  ]\n}\n"
        );
        let table = s.table("t", &["graph", "rounds", "span=makespan", "ms"]);
        assert!(table.contains("| graph | rounds | span | ms |"), "{table}");
        assert!(table.contains("| g | 7 | - | 12.3 |"), "{table}");
    }

    /// One literal row per schema, copied from the files the last build with
    /// hand-written format strings produced (wall-clock fields deleted from
    /// the scale and profile rows).
    #[test]
    fn cells_render_as_the_hand_written_format_strings_did() {
        let row_line = |kind, row: Row| {
            let mut s = Series::new(kind);
            s.row(row);
            s.to_json().lines().nth(4).expect("one row").to_string()
        };
        assert_eq!(
            row_line(
                "runtime",
                vec![
                    ("engine", "sim".into(), Id),
                    ("latency", Some("fixed-1").into(), Id),
                    ("graph", "tri-grid-16x16".into(), Id),
                    ("n", 256usize.into(), Id),
                    ("m", 705usize.into(), Id),
                    ("program", "bfs".into(), Id),
                    ("rounds", 16u64.into(), Gated),
                    ("messages", 1410u64.into(), Gated),
                    ("makespan", Some(15u64).into(), Exact),
                ]
            ),
            r#"    {"engine":"sim","latency":"fixed-1","graph":"tri-grid-16x16","n":256,"m":705,"program":"bfs","rounds":16,"messages":1410,"makespan":15}"#
        );
        assert_eq!(
            row_line(
                "gather",
                vec![
                    ("graph", "tri-grid-8x8".into(), Id),
                    ("n", 64usize.into(), Id),
                    ("m", 161usize.into(), Id),
                    ("strategy", "tree-pipeline".into(), Id),
                    ("mode", "metered".into(), Id),
                    ("latency", None::<&str>.into(), Id),
                    ("f", Cell::Float(0.1, 3), Id),
                    ("rounds", 402u64.into(), Gated),
                    ("messages", 2615u64.into(), Gated),
                    ("delivered", Cell::Float(1.0, 6), Gated),
                    ("makespan", None::<u64>.into(), Exact),
                ]
            ),
            r#"    {"graph":"tri-grid-8x8","n":64,"m":161,"strategy":"tree-pipeline","mode":"metered","latency":null,"f":0.100,"rounds":402,"messages":2615,"delivered":1.000000,"makespan":null}"#
        );
        assert_eq!(
            row_line(
                "faults",
                vec![
                    ("graph", "tri-grid-8x8".into(), Id),
                    ("n", 64usize.into(), Id),
                    ("m", 161usize.into(), Id),
                    ("strategy", "tree-pipeline".into(), Id),
                    ("fault", "iid-0.05".into(), Id),
                    ("mode", "raw".into(), Id),
                    ("f", Cell::Float(0.1, 3), Id),
                    ("rounds", 1568u64.into(), Gated),
                    ("messages", 2129u64.into(), Gated),
                    ("delivered", Cell::Float(0.667702484, 6), Gated),
                    ("retransmits", None::<u64>.into(), Gated),
                    ("excused", None::<u64>.into(), Exact),
                    ("wedged", true.into(), Id),
                ]
            ),
            r#"    {"graph":"tri-grid-8x8","n":64,"m":161,"strategy":"tree-pipeline","fault":"iid-0.05","mode":"raw","f":0.100,"rounds":1568,"messages":2129,"delivered":0.667702,"retransmits":null,"excused":null,"wedged":true}"#
        );
        assert_eq!(
            row_line(
                "edt",
                vec![
                    ("graph", "tri-grid-8x8".into(), Id),
                    ("n", 64usize.into(), Id),
                    ("m", 161usize.into(), Id),
                    ("eps", Cell::Float(0.3, 3), Id),
                    ("backend", "metered".into(), Id),
                    ("phase", "routing".into(), Id),
                    ("rounds", 234u64.into(), Gated),
                    ("messages", 1983u64.into(), Gated),
                    ("delivered", Some(Cell::Float(1.0, 6)).into(), Gated),
                    ("cluster_rounds_max", Some(234u64).into(), Exact),
                    ("cluster_messages", Some(1983u64).into(), Exact),
                ]
            ),
            r#"    {"graph":"tri-grid-8x8","n":64,"m":161,"eps":0.300,"backend":"metered","phase":"routing","rounds":234,"messages":1983,"delivered":1.000000,"cluster_rounds_max":234,"cluster_messages":1983}"#
        );
        assert_eq!(
            row_line(
                "trace",
                vec![
                    ("program", "bfs".into(), Id),
                    ("graph", "tri-grid-8x8".into(), Id),
                    ("n", 64usize.into(), Id),
                    ("m", 161usize.into(), Id),
                    ("engine", "executor".into(), Id),
                    ("rounds", 8u64.into(), Gated),
                    ("messages", 322u64.into(), Gated),
                    ("events", 80u64.into(), Exact),
                    ("spans", 0usize.into(), Exact),
                    ("digest", Some(Cell::Hex(0x87ae7c2e27db8986)).into(), Id),
                ]
            ),
            r#"    {"program":"bfs","graph":"tri-grid-8x8","n":64,"m":161,"engine":"executor","rounds":8,"messages":322,"events":80,"spans":0,"digest":"87ae7c2e27db8986"}"#
        );
        assert_eq!(
            row_line(
                "replay",
                vec![
                    ("graph", "tri-grid-8x8".into(), Id),
                    ("n", 64usize.into(), Id),
                    ("engine", "executor".into(), Id),
                    ("faults", "none".into(), Id),
                    ("every", 4u64.into(), Id),
                    ("checkpoint_round", 12u64.into(), Id),
                    ("rounds", 16u64.into(), Gated),
                    ("messages", 4830u64.into(), Gated),
                    ("checkpoint_bytes", 6313usize.into(), Gated),
                    ("rounds_replayed", 4u64.into(), Exact),
                    ("head", Cell::Hex(0x64c9b5d8114f901d), Id),
                ]
            ),
            r#"    {"graph":"tri-grid-8x8","n":64,"engine":"executor","faults":"none","every":4,"checkpoint_round":12,"rounds":16,"messages":4830,"checkpoint_bytes":6313,"rounds_replayed":4,"head":"64c9b5d8114f901d"}"#
        );
        assert_eq!(
            row_line(
                "scale",
                vec![
                    ("engine", "executor".into(), Id),
                    ("graph", "tri-grid-8x8".into(), Id),
                    ("n", 64usize.into(), Id),
                    ("m", 161usize.into(), Id),
                    ("program", "bfs".into(), Id),
                    ("shards", None::<usize>.into(), Id),
                    ("threads", None::<usize>.into(), Id),
                    ("rounds", 8u64.into(), Gated),
                    ("messages", 322u64.into(), Gated),
                    (
                        "digest_head",
                        Some(Cell::Hex(0x87ae7c2e27db8986)).into(),
                        Id
                    ),
                    ("mailbox_hwm", None::<usize>.into(), Exact),
                    ("route_hwm", None::<usize>.into(), Exact),
                    ("ms", Cell::Float(1.282, 1), Wall),
                    ("Mmsg/s", Cell::Float(0.251, 3), Wall),
                ]
            ),
            r#"    {"engine":"executor","graph":"tri-grid-8x8","n":64,"m":161,"program":"bfs","shards":null,"threads":null,"rounds":8,"messages":322,"digest_head":"87ae7c2e27db8986","mailbox_hwm":null,"route_hwm":null}"#
        );
        assert_eq!(
            row_line(
                "profile",
                vec![
                    ("engine", "sharded".into(), Id),
                    ("graph", "mesh-1000x1000".into(), Id),
                    ("program", "voronoi-ldd-1024".into(), Id),
                    ("shards", 64usize.into(), Id),
                    ("threads", 8usize.into(), Id),
                    ("shard", 0usize.into(), Id),
                    ("frontier", 15625u64.into(), Id),
                    ("received", 91689u64.into(), Id),
                    ("rounds", 41u64.into(), Gated),
                    ("messages", 91689u64.into(), Gated),
                ]
            ),
            r#"    {"engine":"sharded","graph":"mesh-1000x1000","program":"voronoi-ldd-1024","shards":64,"threads":8,"shard":0,"frontier":15625,"received":91689,"rounds":41,"messages":91689}"#
        );
    }

    #[test]
    #[should_panic(expected = "duplicate series key 'demo|graph=g'")]
    fn two_rows_with_equal_identity_panic_with_the_duplicate_key() {
        let mut s = demo();
        s.row(vec![
            ("graph", "g".into(), Id),
            ("rounds", 9u64.into(), Gated),
            ("makespan", Some(3u64).into(), Exact),
        ]);
        s.to_json();
    }

    #[test]
    #[should_panic(expected = "column \"rounds\" changes role between rows")]
    fn a_column_keeps_one_role() {
        let mut s = demo();
        s.row(vec![("graph", "h".into(), Id), ("rounds", 9u64.into(), Id)]);
        s.to_json();
    }

    #[test]
    fn a_file_without_the_metrics_declaration_is_refused() {
        let old =
            "{\"schema\": \"mfd-bench/demo/v1\", \"benchmarks\": [{\"graph\":\"g\",\"rounds\":7}]}";
        assert_eq!(
            read(old).err().as_deref(),
            Some("missing metrics declaration — regenerate with this build")
        );
    }
}
