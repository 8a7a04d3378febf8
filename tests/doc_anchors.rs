//! `docs/MODEL.md` cites code as (symbol, file) pairs in its tables. This
//! test greps every pair: a renamed or moved symbol fails here instead of
//! leaving the map pointing at nothing.
//!
//! A table row is checked when its last cell names `*.rs` paths. The
//! symbols are the backticked identifiers (`name`, `Type::name`) of the
//! cell before it, plus any in the last cell itself; other backticked
//! text (flags, grammar spellings) is ignored. With one distinct path all
//! symbols belong to it; with several, the symbol cell must split on
//! ` / ` into as many groups, paired positionally.

use std::path::Path;

/// The backticked spans of a markdown cell.
fn ticked(cell: &str) -> Vec<&str> {
    cell.split('`').skip(1).step_by(2).collect()
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The `::`-separated identifiers of a symbol spelling, or `None` for
/// text that is not one.
fn symbol_parts(token: &str) -> Option<Vec<&str>> {
    let parts: Vec<&str> = token.trim_end_matches("()").split("::").collect();
    parts.iter().all(|p| is_ident(p)).then_some(parts)
}

fn contains_word(text: &str, word: &str) -> bool {
    let boundary = |c: Option<char>| !c.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
    text.match_indices(word).any(|(at, _)| {
        boundary(text[..at].chars().next_back()) && boundary(text[at + word.len()..].chars().next())
    })
}

#[test]
fn every_symbol_file_pair_in_model_md_tables_greps() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("docs/MODEL.md")).expect("docs/MODEL.md");
    assert!(
        !doc.contains(".rs:"),
        "MODEL.md cites symbols, not line numbers"
    );
    let mut failures = Vec::new();
    let mut pairs = 0usize;
    for (lineno, line) in doc.lines().enumerate() {
        let Some(row) = line.trim().strip_prefix('|') else {
            continue;
        };
        let cells: Vec<&str> = row.trim_end_matches('|').split(" | ").collect();
        let Some((last, rest)) = cells.split_last() else {
            continue;
        };
        let paths: Vec<&str> = ticked(last)
            .into_iter()
            .filter(|t| t.ends_with(".rs"))
            .collect();
        if paths.is_empty() {
            continue;
        }
        let symbol_cell = rest.last().copied().unwrap_or_default();
        let one_file = paths.iter().all(|p| *p == paths[0]);
        let groups: Vec<&str> = if one_file {
            vec![symbol_cell]
        } else {
            symbol_cell.split(" / ").collect()
        };
        if !one_file && groups.len() != paths.len() {
            failures.push(format!(
                "line {}: {} symbol groups for {} paths",
                lineno + 1,
                groups.len(),
                paths.len()
            ));
            continue;
        }
        for (i, (group, path)) in groups.iter().zip(&paths).enumerate() {
            let mut symbols: Vec<Vec<&str>> =
                ticked(group).into_iter().filter_map(symbol_parts).collect();
            if i == 0 {
                symbols.extend(ticked(last).into_iter().filter_map(symbol_parts));
            }
            if symbols.is_empty() {
                failures.push(format!("line {}: no symbol for {path}", lineno + 1));
                continue;
            }
            let Ok(text) = std::fs::read_to_string(root.join(path)) else {
                failures.push(format!("line {}: {path} does not exist", lineno + 1));
                continue;
            };
            for parts in symbols {
                pairs += 1;
                if let Some(missing) = parts.iter().find(|p| !contains_word(&text, p)) {
                    failures.push(format!(
                        "line {}: `{}` — `{missing}` is not in {path}",
                        lineno + 1,
                        parts.join("::")
                    ));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(
        pairs > 80,
        "only {pairs} pairs checked: table format changed?"
    );
}

/// The `src` directory of the workspace crate a path spelling starts
/// with (`amrproxy::…` is `crates/core`), or `None` for other text.
fn crate_src(name: &str) -> Option<&'static str> {
    Some(match name {
        "amr_mesh" => "crates/amr-mesh/src",
        "amrproxy" => "crates/core/src",
        "bench" => "crates/bench/src",
        "hydro" => "crates/hydro/src",
        "io_engine" => "crates/io-engine/src",
        "iosim" => "crates/iosim/src",
        "macsio" => "crates/macsio/src",
        "model" => "crates/model/src",
        "mpi_sim" => "crates/mpi-sim/src",
        "plotfile" => "crates/plotfile/src",
        _ => return None,
    })
}

/// Every name a crate's sources declare `pub` (not `pub(crate)`): the
/// items after `pub fn` / `pub struct` / … and the names a `pub use`
/// re-exports.
fn public_names(src: &Path) -> Vec<String> {
    let mut names = Vec::new();
    let mut dirs = vec![src.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("crate src directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                dirs.push(path);
                continue;
            }
            if path.extension().is_none_or(|e| e != "rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("source file");
            for stmt in text.split("pub ").skip(1) {
                let words: Vec<&str> = stmt
                    .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .filter(|w| !w.is_empty())
                    .collect();
                match words.as_slice() {
                    // The leaves of the use tree, not its path prefixes:
                    // `use a::{b, c as d}` re-exports `b` and `d`.
                    ["use", ..] => {
                        let end = stmt.find(';').unwrap_or(stmt.len());
                        for leaf in stmt["use".len()..end].split([',', '{', '}']) {
                            let leaf = leaf.trim();
                            let name = match leaf.rsplit_once(" as ") {
                                Some((_, alias)) => alias,
                                None => leaf.rsplit("::").next().unwrap_or(leaf),
                            };
                            if is_ident(name) {
                                names.push(name.to_string());
                            }
                        }
                    }
                    ["const" | "unsafe" | "async", "fn", name, ..] => names.push(name.to_string()),
                    [kind, name, ..]
                        if [
                            "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
                        ]
                        .contains(kind) =>
                    {
                        names.push(name.to_string())
                    }
                    _ => {}
                }
            }
        }
    }
    names
}

#[test]
fn crate_qualified_spellings_in_the_docs_name_public_items() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut failures = Vec::new();
    let mut spellings = 0usize;
    for doc in ["README.md", "docs/MODEL.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc file");
        // Prose only: fenced code blocks hold commands, not spellings.
        let prose: String = text.split("```").step_by(2).collect::<Vec<_>>().join(" ");
        for token in ticked(&prose) {
            let Some(parts) = symbol_parts(token) else {
                continue;
            };
            let Some(src) = parts.first().and_then(|c| crate_src(c)) else {
                continue;
            };
            if parts.len() < 2 {
                continue;
            }
            spellings += 1;
            let public = public_names(&root.join(src));
            for part in &parts[1..] {
                if !public.iter().any(|n| n == part) {
                    failures.push(format!("{doc}: `{token}` — `{part}` is not pub in {src}"));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(
        spellings >= 10,
        "only {spellings} crate-qualified spellings checked: doc format changed?"
    );
}
