//! Text goldens for the paper suite's tables.
//!
//! The digest goldens pin traces of a few experiments, which is finer than
//! the tables but cannot say which cell moved. This test pins the CSV text
//! of every deterministic table that `exp --id all` writes: all of
//! [`wrsn_bench::ALL_IDS`] except `tab1`, which reports measured wall-clock
//! time. On a mismatch it prints the rows that differ, table by table.
//!
//! EXPERIMENTS.md quotes some of these tables. Each quote is followed by a
//! marker, ``(From `fig5_0.csv` in `…/golden_tables.txt`.)``, and the
//! Markdown tables just before a marker that names k CSVs must equal those k
//! CSVs, body row by body row and cell by cell, once `**` emphasis is
//! stripped; the header rows may word things differently.
//!
//! Regenerate after an *intentional* change with:
//!
//! ```text
//! WRSN_BLESS=1 cargo test --release -p wrsn-bench --test golden_tables
//! ```

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden_tables.txt");

const EXPERIMENTS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");

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

/// The cells of one CSV row; a quoted cell may hold commas and `""`.
fn csv_cells(row: &str) -> Vec<String> {
    let (mut cells, mut quoted, mut prev) = (vec![String::new()], false, ',');
    for c in row.chars() {
        match c {
            '"' if !quoted && prev == '"' => {
                cells.last_mut().unwrap().push('"');
                quoted = true;
            }
            '"' => quoted = !quoted,
            ',' if !quoted => cells.push(String::new()),
            c => cells.last_mut().unwrap().push(c),
        }
        prev = c;
    }
    cells
}

/// The body rows of each Markdown table in `text`, with `**` stripped.
fn markdown_tables(text: &str) -> Vec<Vec<Vec<String>>> {
    let mut tables: Vec<Vec<Vec<String>>> = vec![Vec::new()];
    for line in text.lines() {
        match line.trim().strip_prefix('|') {
            Some(row) => tables.last_mut().unwrap().push(
                (row.trim_end_matches('|').split('|'))
                    .map(|cell| cell.replace("**", "").trim().to_string())
                    .collect(),
            ),
            None if !tables.last().unwrap().is_empty() => tables.push(Vec::new()),
            None => {}
        }
    }
    // The header row and the `|---|` row are not body rows.
    tables.retain(|rows| !rows.is_empty());
    tables
        .iter_mut()
        .for_each(|rows| drop(rows.drain(..2.min(rows.len()))));
    tables
}

/// Cell `j` of `row`, or `(none)`.
fn cell(row: Option<&Vec<String>>, j: usize) -> &str {
    row.and_then(|r| r.get(j)).map_or("(none)", String::as_str)
}

/// The CSVs `doc` quotes from `golden` by marker, and every quoted cell that
/// differs from the golden's, as "table row column" lines.
fn doc_drift(doc: &str, golden: &str) -> (Vec<String>, Vec<String>) {
    let golden = sections(golden);
    let (mut checked, mut drift, mut from) = (Vec::new(), Vec::new(), 0);
    for (start, _) in doc.match_indices("(From `") {
        let marker = doc[start..].split(')').next().unwrap();
        if !marker.contains("golden_tables.txt") {
            continue;
        }
        let names: Vec<&str> = marker.split('`').filter(|n| n.ends_with(".csv")).collect();
        let tables = markdown_tables(&doc[from..start]);
        from = start + marker.len();
        for (k, name) in names.iter().enumerate() {
            checked.push(name.to_string());
            let quoted = (tables.len() + k)
                .checked_sub(names.len())
                .map_or(&[][..], |t| &tables[t]);
            let rows = golden
                .iter()
                .find(|(n, _)| n == name)
                .map_or(&[][..], |(_, r)| r);
            let rows: Vec<Vec<String>> = rows.iter().map(|r| csv_cells(r)).collect();
            for i in 1..rows.len().max(quoted.len() + 1) {
                let (want, have) = (rows.get(i), quoted.get(i - 1));
                let width = want.map_or(0, Vec::len).max(have.map_or(0, Vec::len));
                for j in 0..width {
                    if cell(want, j) != cell(have, j) {
                        drift.push(format!(
                            "{name} row {i} column {:?}: EXPERIMENTS.md {:?}, golden {:?}",
                            cell(rows.first(), j),
                            cell(have, j),
                            cell(want, j)
                        ));
                    }
                }
            }
        }
    }
    (checked, drift)
}

#[test]
fn experiments_md_quotes_the_golden_tables() {
    let doc = std::fs::read_to_string(EXPERIMENTS_PATH).expect("EXPERIMENTS.md");
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("text golden");
    let (checked, drift) = doc_drift(&doc, &golden);
    let quoted = [
        "fig5_0.csv",
        "fig6_0.csv",
        "fig10_0.csv",
        "tab3_0.csv",
        "tab3_1.csv",
    ];
    assert_eq!(checked, quoted);
    assert!(
        drift.is_empty(),
        "EXPERIMENTS.md drifted from the golden:\n{}",
        drift.join("\n")
    );
}

#[test]
fn doc_drift_names_the_table_row_and_column() {
    let golden = "## fig2_0.csv\nsize,label\n5,\"a, \"\"b\"\"\"\n6,c\n## fig3_0.csv\nx\n1\n";
    let doc = "| n | what |\n|---|---|\n| **5** | a, \"b\" |\n| 6 | c |\n\n\
               (From `fig2_0.csv` in\n`golden_tables.txt`.)\n";
    assert_eq!(
        doc_drift(doc, golden),
        (vec!["fig2_0.csv".to_string()], vec![])
    );
    let moved = doc_drift(&doc.replace("| 6 | c |", "| 7 | c |"), golden).1;
    assert_eq!(
        moved,
        [r#"fig2_0.csv row 2 column "size": EXPERIMENTS.md "7", golden "6""#]
    );
    let short = doc_drift(&doc.replace("| 6 | c |\n", ""), golden).1;
    assert_eq!(short.len(), 2, "both cells of the missing row: {short:?}");
    let two = format!(
        "| x |\n|-|\n| 1 |\n\n{}",
        doc.replace("`fig2", "`fig3_0.csv` and `fig2")
    );
    assert_eq!(doc_drift(&two, golden).1, Vec::<String>::new());
}
