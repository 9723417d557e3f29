//! EXPERIMENTS.md must agree with the files the experiment bins write.
//!
//! Every number in a table of a beyond-paper section (and of the
//! ablations) must appear as a field of a `results/` file that the
//! section names, and so must every number its prose tags by writing
//! it in bold; a decimal number in that prose that is not bold fails
//! too, so no measured value can sit there unchecked. The bins are
//! deterministic and their tables are committed, so a number missing
//! from its file is a stale document, not noise.

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

/// A cell or bold span that is a number (digits, `.` and `-` only).
fn is_number(s: &str) -> bool {
    s.bytes().any(|b| b.is_ascii_digit())
        && s.bytes()
            .all(|b| b.is_ascii_digit() || b == b'.' || b == b'-')
}

/// The numbers in the prose (every line outside a table) of a section:
/// `(tagged, untagged)`, where a tagged number is a whole bold span and
/// an untagged one is any other decimal number.
fn prose_numbers(section: &str) -> (Vec<&str>, Vec<&str>) {
    let (mut tagged, mut untagged) = (Vec::new(), Vec::new());
    for line in section.lines().filter(|l| !l.trim_start().starts_with('|')) {
        for (i, span) in line.split("**").enumerate() {
            if i % 2 == 1 && is_number(span) {
                tagged.push(span);
                continue;
            }
            untagged.extend(
                span.split(|c: char| !(c.is_ascii_digit() || c == '.'))
                    .map(|t| t.trim_matches('.'))
                    .filter(|t| t.contains('.') && t.bytes().any(|b| b.is_ascii_digit())),
            );
        }
    }
    (tagged, untagged)
}

/// Each checked section (beyond-paper and ablations) of EXPERIMENTS.md
/// with the fields of the `results/` files it names.
fn checked_sections() -> Vec<(String, String, HashSet<String>)> {
    let doc = read("EXPERIMENTS.md");
    let mut sections = Vec::new();
    for section in doc.split("\n## ").skip(1) {
        let heading = section.lines().next().unwrap_or_default();
        if !(heading.starts_with("Beyond-paper") || heading.starts_with("Ablations")) {
            continue;
        }
        let files = named_files(section);
        assert!(!files.is_empty(), "`{heading}` names no results/ file");
        let known = files
            .iter()
            .flat_map(|f| fields(&read(f)).map(str::to_string).collect::<Vec<_>>())
            .collect();
        sections.push((heading.to_string(), section.to_string(), known));
    }
    // Empirical, ablations, offline gap, resilience, arrivals, hetero.
    assert_eq!(sections.len(), 6, "checked sections: {sections:?}");
    sections
}

#[test]
fn beyond_paper_tables_match_their_result_files() {
    for (heading, section, known) in checked_sections() {
        let files = named_files(&section);
        let numbers = table_numbers(&section);
        assert!(!numbers.is_empty(), "`{heading}` has no table");
        let missing: Vec<&str> = numbers
            .into_iter()
            .filter(|n| !known.contains(*n))
            .collect();
        assert!(
            missing.is_empty(),
            "`{heading}`: {missing:?} appear in no field of {files:?}"
        );
    }
}

#[test]
fn beyond_paper_prose_numbers_are_tagged_and_match_their_result_files() {
    let mut tagged_total = 0;
    for (heading, section, known) in checked_sections() {
        let (tagged, untagged) = prose_numbers(&section);
        assert!(
            untagged.is_empty(),
            "`{heading}`: prose numbers {untagged:?} are not bold, so nothing checks them"
        );
        let missing: Vec<&str> = tagged
            .iter()
            .copied()
            .filter(|n| !known.contains(*n))
            .collect();
        assert!(
            missing.is_empty(),
            "`{heading}`: {missing:?} appear in no field of {:?}",
            named_files(&section)
        );
        tagged_total += tagged.len();
    }
    assert!(
        tagged_total >= 30,
        "only {tagged_total} tagged prose numbers"
    );
}
