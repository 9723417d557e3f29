//! EXPERIMENTS.md must agree with the files the experiment bins write.
//!
//! Every number in a table of a beyond-paper section (and of the
//! ablations) must appear as a field of a `results/` file that the
//! section names. The bins are deterministic and their tables are
//! committed, so a table number missing from its file is a stale
//! document, not noise.

use std::collections::HashSet;
use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `results/...` paths a section names in backticks.
fn named_files(section: &str) -> Vec<&str> {
    section
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|s| s.starts_with("results/"))
        .collect()
}

/// The comma- or whitespace-separated fields of a results file.
fn fields(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| c == ',' || c.is_whitespace())
        .filter(|f| !f.is_empty())
}

/// The numeric cells of every Markdown table in a section, with
/// emphasis stripped.
fn table_numbers(section: &str) -> Vec<&str> {
    section
        .lines()
        .filter_map(|l| l.trim().strip_prefix('|'))
        .flat_map(|row| row.split('|'))
        .map(|cell| cell.trim().trim_matches('*'))
        .filter(|cell| {
            cell.bytes().any(|b| b.is_ascii_digit())
                && cell
                    .bytes()
                    .all(|b| b.is_ascii_digit() || b == b'.' || b == b'-')
        })
        .collect()
}

#[test]
fn beyond_paper_tables_match_their_result_files() {
    let doc = read("EXPERIMENTS.md");
    let mut checked = Vec::new();
    for section in doc.split("\n## ").skip(1) {
        let heading = section.lines().next().unwrap_or_default();
        if !(heading.starts_with("Beyond-paper") || heading.starts_with("Ablations")) {
            continue;
        }
        let files = named_files(section);
        assert!(!files.is_empty(), "`{heading}` names no results/ file");
        let texts: Vec<String> = files.iter().map(|f| read(f)).collect();
        let known: HashSet<&str> = texts.iter().flat_map(|t| fields(t)).collect();
        let numbers = table_numbers(section);
        assert!(!numbers.is_empty(), "`{heading}` has no table");
        let missing: Vec<&str> = numbers.into_iter().filter(|n| !known.contains(n)).collect();
        assert!(
            missing.is_empty(),
            "`{heading}`: {missing:?} appear in no field of {files:?}"
        );
        checked.push(heading);
    }
    // Empirical, ablations, offline gap, resilience, arrivals, hetero.
    assert_eq!(checked.len(), 6, "checked sections: {checked:?}");
}
