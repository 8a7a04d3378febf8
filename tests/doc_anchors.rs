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
