//! Structural lint for the workspace books in `docs/`.
//!
//! The Rust fences in the books are compiled and executed as doctests via
//! `mfd::docs` (`cargo test --doc -p mfd`). What doctests cannot see is
//! *structure*: an untagged code fence silently opts out of doctesting, a
//! renamed heading silently breaks every `#anchor` link pointing at it, and
//! a book can stop mentioning a crate without anything failing. This
//! harness pins those down.

const ARCHITECTURE: &str = include_str!("../docs/ARCHITECTURE.md");
const DETERMINISM: &str = include_str!("../docs/DETERMINISM.md");
const PROFILING: &str = include_str!("../docs/PROFILING.md");
const README: &str = include_str!("../README.md");

/// Every fence opener must carry a language tag: `rust` (compiled and run
/// as a doctest of `mfd::docs`) or `text` (deliberately inert). A bare
/// ``` ``` ``` would be treated as Rust by rustdoc yet is almost always a
/// diagram — force the author to choose.
fn check_fences(name: &str, body: &str) -> usize {
    let mut rust_fences = 0;
    let mut open = false;
    for (i, line) in body.lines().enumerate() {
        let trimmed = line.trim_start();
        if !trimmed.starts_with("```") {
            continue;
        }
        if open {
            assert_eq!(
                trimmed,
                "```",
                "{name}:{}: fence closer must be bare ```",
                i + 1
            );
            open = false;
        } else {
            let tag = trimmed.trim_start_matches('`');
            assert!(
                tag == "rust" || tag == "text",
                "{name}:{}: fence opener must be tagged ```rust or ```text, got {trimmed:?}",
                i + 1
            );
            if tag == "rust" {
                rust_fences += 1;
            }
            open = true;
        }
    }
    assert!(!open, "{name}: unclosed code fence");
    rust_fences
}

#[test]
fn every_fence_is_tagged_and_each_book_has_doctests() {
    assert!(check_fences("ARCHITECTURE.md", ARCHITECTURE) >= 2);
    assert!(check_fences("DETERMINISM.md", DETERMINISM) >= 2);
    assert!(check_fences("PROFILING.md", PROFILING) >= 2);
}

#[test]
fn architecture_covers_every_crate() {
    for krate in [
        "mfd-graph",
        "mfd-congest",
        "mfd-runtime",
        "mfd-sim",
        "mfd-core",
        "mfd-routing",
        "mfd-faults",
        "mfd-trace",
        "mfd-prof",
        "mfd-replay",
        "mfd-apps",
        "mfd-bench",
    ] {
        assert!(
            ARCHITECTURE.contains(&format!("\n## {krate}")),
            "ARCHITECTURE.md lost its `## {krate}` section"
        );
    }
}

/// GitHub's slug for a heading: lowercased, spaces to dashes, punctuation
/// dropped. Enough for the ASCII headings these books use.
fn slugs(body: &str) -> Vec<String> {
    body.lines()
        .filter_map(|l| l.strip_prefix('#'))
        .map(|h| {
            h.trim_start_matches('#')
                .trim()
                .chars()
                .filter_map(|c| match c {
                    ' ' => Some('-'),
                    c if c.is_ascii_alphanumeric() || c == '-' || c == '_' => {
                        Some(c.to_ascii_lowercase())
                    }
                    _ => None,
                })
                .collect()
        })
        .collect()
}

#[test]
fn cross_links_resolve() {
    // (source, link target, required anchor in the target)
    let links = [
        (
            "ARCHITECTURE.md",
            ARCHITECTURE,
            "DETERMINISM.md",
            DETERMINISM,
        ),
        (
            "DETERMINISM.md",
            DETERMINISM,
            "ARCHITECTURE.md",
            ARCHITECTURE,
        ),
        ("PROFILING.md", PROFILING, "ARCHITECTURE.md", ARCHITECTURE),
        ("PROFILING.md", PROFILING, "DETERMINISM.md", DETERMINISM),
        ("ARCHITECTURE.md", ARCHITECTURE, "PROFILING.md", PROFILING),
        ("DETERMINISM.md", DETERMINISM, "PROFILING.md", PROFILING),
    ];
    for (src_name, src, dst_name, dst) in links {
        assert!(
            src.contains(&format!("({dst_name})")) || src.contains(&format!("({dst_name}#")),
            "{src_name} no longer links to {dst_name}"
        );
        // Every `(DST.md#anchor)` reference must name a real heading there.
        let dst_slugs = slugs(dst);
        for piece in src.split(&format!("({dst_name}#")).skip(1) {
            let anchor = piece.split(')').next().unwrap();
            assert!(
                dst_slugs.iter().any(|s| s == anchor),
                "{src_name} links to {dst_name}#{anchor}, but no such heading exists \
                 (headings: {dst_slugs:?})"
            );
        }
    }
}

#[test]
fn readme_points_at_the_books() {
    for book in [
        "docs/ARCHITECTURE.md",
        "docs/DETERMINISM.md",
        "docs/PROFILING.md",
    ] {
        assert!(
            README.contains(book),
            "README.md must link to {book} so the books are discoverable"
        );
    }
}

#[test]
fn readme_lists_every_bench_section() {
    // The README's benchmark ladder must mention every BENCH_*.json the
    // report binary can emit — this is exactly the drift the docs issue
    // was opened about.
    for section in [
        "BENCH_runtime.json",
        "BENCH_gather.json",
        "BENCH_faults.json",
        "BENCH_edt.json",
        "BENCH_trace.json",
        "BENCH_replay.json",
        "BENCH_scale.json",
        "BENCH_profile.json",
    ] {
        assert!(
            README.contains(section),
            "README.md benchmark ladder is missing {section}"
        );
    }
}

/// Every `UPPER_CASE.md` a `.rs` doc comment or a book mentions must be a
/// file at the repository root or under `docs/` — six mentions of a
/// `DESIGN.md` that never existed were what this was written for.
#[test]
fn every_mentioned_book_exists() {
    use std::path::{Path, PathBuf};

    fn mentions(text: &str, doc_comments_only: bool) -> Vec<String> {
        let mut found = Vec::new();
        for line in text.lines() {
            let line = line.trim_start();
            if doc_comments_only && !(line.starts_with("//!") || line.starts_with("///")) {
                continue;
            }
            for (at, _) in line.match_indices(".md") {
                let stem: String = line[..at]
                    .chars()
                    .rev()
                    .take_while(|c| c.is_ascii_uppercase() || *c == '_')
                    .collect();
                if !stem.is_empty() {
                    found.push(stem.chars().rev().chain(".md".chars()).collect());
                }
            }
        }
        found
    }

    fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("crates/ is readable") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                rust_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources: Vec<(PathBuf, bool)> = vec![(root.join("README.md"), false)];
    for entry in std::fs::read_dir(root.join("docs")).expect("docs/ is readable") {
        sources.push((entry.expect("directory entry").path(), false));
    }
    let mut rust = Vec::new();
    rust_files(&root.join("crates"), &mut rust);
    sources.extend(rust.into_iter().map(|path| (path, true)));
    assert!(sources.len() > 50, "the scan lost the crates");

    for (path, doc_comments_only) in sources {
        let text = std::fs::read_to_string(&path).expect("source is UTF-8");
        for name in mentions(&text, doc_comments_only) {
            assert!(
                root.join(&name).is_file() || root.join("docs").join(&name).is_file(),
                "{} mentions {name}, which is neither at the repository root nor under docs/",
                path.display()
            );
        }
    }
}
