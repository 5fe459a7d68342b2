//! Text goldens for the paper suite's tables.
//!
//! The digest goldens pin traces of a few experiments, which is finer than
//! the tables but cannot say which cell moved. This test pins the CSV text
//! of every deterministic table that `exp --id all` writes: all of
//! [`wrsn_bench::ALL_IDS`] except `tab1`, which reports measured wall-clock
//! time. On a mismatch it prints the rows that differ, table by table.
//! Regenerate after an *intentional* change with:
//!
//! ```text
//! WRSN_BLESS=1 cargo test --release -p wrsn-bench --test golden_tables
//! ```

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden_tables.txt");

/// Experiments whose tables depend on the wall clock.
const TIMED: &[&str] = &["tab1"];

/// Section header that precedes each CSV (`exp`'s file name for it).
const HEADER: &str = "## ";

/// The suite's tables as one text: each CSV under a `## <id>_<k>.csv` line.
fn current() -> String {
    let mut text = String::new();
    for id in wrsn_bench::ALL_IDS.iter().filter(|id| !TIMED.contains(id)) {
        let tables = wrsn_bench::run(id).unwrap_or_else(|e| panic!("{id}: {e}"));
        for (k, table) in tables.iter().enumerate() {
            text.push_str(&format!("{HEADER}{id}_{k}.csv\n"));
            text.push_str(&table.to_csv());
            if !text.ends_with('\n') {
                text.push('\n');
            }
        }
    }
    text
}

/// Splits a golden text into `(table name, rows)` sections.
fn sections(text: &str) -> Vec<(&str, Vec<&str>)> {
    let mut out: Vec<(&str, Vec<&str>)> = Vec::new();
    for line in text.lines() {
        match line.strip_prefix(HEADER) {
            Some(name) => out.push((name, Vec::new())),
            None => match out.last_mut() {
                Some((_, rows)) => rows.push(line),
                None => out.push(("(before the first table)", vec![line])),
            },
        }
    }
    out
}

/// Every row that differs between the two texts, grouped by table.
fn row_diff(golden: &str, current: &str) -> Vec<String> {
    let golden = sections(golden);
    let current = sections(current);
    let mut diff = Vec::new();
    for (name, rows) in &golden {
        let Some((_, now)) = current.iter().find(|(n, _)| n == name) else {
            diff.push(format!("{name}: table missing from the current run"));
            continue;
        };
        for i in 0..rows.len().max(now.len()) {
            let (was, is) = (rows.get(i), now.get(i));
            if was != is {
                diff.push(format!(
                    "{name} row {i}:\n  golden:  {}\n  current: {}",
                    was.copied().unwrap_or("(none)"),
                    is.copied().unwrap_or("(none)")
                ));
            }
        }
    }
    for (name, _) in &current {
        if !golden.iter().any(|(n, _)| n == name) {
            diff.push(format!("{name}: table not in the golden"));
        }
    }
    diff
}

#[test]
fn suite_tables_match_the_text_golden() {
    let current = current();
    if std::env::var_os("WRSN_BLESS").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data")).unwrap();
        std::fs::write(GOLDEN_PATH, &current).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("text golden missing; regenerate with WRSN_BLESS=1 (see module docs)");
    let diff = row_diff(&golden, &current);
    assert!(
        diff.is_empty() && golden == current,
        "suite tables drifted from the text golden ({} differing rows); if the \
         change is intentional, regenerate with WRSN_BLESS=1 (see module docs)\n{}",
        diff.len(),
        diff.join("\n")
    );
}

#[test]
fn row_diff_names_the_table_and_row_that_moved() {
    let golden = "## fig2_0.csv\na,b\n1,2\n## fig3_0.csv\nx\n";
    let moved = "## fig2_0.csv\na,b\n1,3\n## fig3_0.csv\nx\n";
    let diff = row_diff(golden, moved);
    assert_eq!(
        diff,
        vec!["fig2_0.csv row 1:\n  golden:  1,2\n  current: 1,3".to_string()]
    );
    assert!(row_diff(golden, golden).is_empty());
    let dropped = row_diff(golden, "## fig2_0.csv\na,b\n1,2\n");
    assert_eq!(
        dropped,
        vec!["fig3_0.csv: table missing from the current run".to_string()]
    );
}
