//! Structured experiment output: tables, narrative blocks and reports.
//!
//! Every experiment returns a [`Report`] instead of printing ad hoc. The
//! renderer reproduces the presentation contract of the former per-binary
//! `println!` plumbing — aligned human-readable tables followed by fenced
//! machine-readable CSV blocks (`--- begin csv: <name> ---`) that existing
//! extraction tooling already understands — and adds a JSON form laid out
//! as [`Value::to_json`](crate::Value::to_json) lays out a document.
//!
//! Both forms are written straight from each table's CSV body to any
//! [`io::Write`] sink ([`Report::write_text`],
//! [`Report::write_json`]); [`Report::render`] and [`Report::to_json`]
//! collect the same bytes into a `String`.

use std::io::{self, Write};
use std::sync::OnceLock;

use crate::value::escape;

/// A named table artifact: one CSV block plus its aligned text rendering.
///
/// # Storage
///
/// The rows are held once, as CSV text: one `String` body in which each
/// row's cells are joined by `,` and each row ends in `\n`. The text and
/// JSON writers read that body directly. So a cell may hold neither
/// separator: [`Table::push_row`] and [`Table::push_csv_row`] panic,
/// naming the table, on a cell with a `,` or a newline.
///
/// [`Table::rows`] is a cell view parsed from the body on its first call
/// and kept until the next push: one `String` per cell, so a first call
/// costs a pass over the body and an allocation per cell. No rendering
/// path calls it; it serves checks and tests. Equality compares the
/// body, not the view.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: Vec<String>,
    body: String,
    csv_only: bool,
    view: OnceLock<Vec<Vec<String>>>,
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.columns == other.columns
            && self.body == other.body
            && self.csv_only == other.csv_only
    }
}

impl Table {
    /// Creates an empty table with the given CSV header columns.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty.
    #[must_use]
    pub fn new(name: impl Into<String>, columns: &[&str]) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        Self {
            name: name.into(),
            columns: columns.iter().map(ToString::to_string).collect(),
            body: String::new(),
            csv_only: false,
            view: OnceLock::new(),
        }
    }

    /// Marks the table as machine-readable only: the report renderer
    /// skips its aligned text view and emits just the fenced CSV block
    /// (for bulk artifacts like the Fig. 7 solution cloud).
    #[must_use]
    pub fn csv_only(mut self) -> Self {
        self.csv_only = true;
        self
    }

    /// Whether the aligned text view is suppressed.
    #[must_use]
    pub fn is_csv_only(&self) -> bool {
        self.csv_only
    }

    /// The artifact name (CSV fence label).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The column names.
    #[must_use]
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The rows, in insertion order, one `String` per cell (parsed from
    /// the CSV body on the first call after a push; see the type docs).
    #[must_use]
    pub fn rows(&self) -> &[Vec<String>] {
        self.view.get_or_init(|| {
            let mut rows = Vec::with_capacity(self.lines().count());
            for line in self.lines() {
                let mut cells = Vec::with_capacity(self.columns.len());
                cells.extend(line.split(',').map(str::to_string));
                rows.push(cells);
            }
            rows
        })
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count, or if a
    /// cell holds a `,` or a newline.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.assert_cell_count(cells.len());
        for cell in &cells {
            assert!(
                !cell.contains([',', '\n']),
                "table {:?} cell {cell:?} holds a CSV separator (`,` or a newline)",
                self.name
            );
        }
        self.push_csv_row(|body| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(cell);
            }
        });
    }

    /// Appends one preformatted row: `write` appends its cells to the
    /// body, joined by `,`, without the trailing newline. Bulk producers
    /// format straight into the body this way, with no per-cell strings.
    ///
    /// # Panics
    ///
    /// Panics if the written row holds a newline or its cell count
    /// differs from the column count.
    pub fn push_csv_row(&mut self, write: impl FnOnce(&mut String)) {
        let start = self.body.len();
        write(&mut self.body);
        let row = &self.body[start..];
        let (mut cells, mut newline) = (1, false);
        for &b in row.as_bytes() {
            cells += usize::from(b == b',');
            newline |= b == b'\n';
        }
        assert!(
            !newline,
            "table {:?} row {row:?} holds a newline",
            self.name
        );
        self.assert_cell_count(cells);
        self.body.push('\n');
        self.view.take();
    }

    fn assert_cell_count(&self, cells: usize) {
        assert_eq!(
            cells,
            self.columns.len(),
            "table {:?} expects {} cells per row, got {}",
            self.name,
            self.columns.len(),
            cells
        );
    }

    /// The body's rows as CSV lines, without their newlines.
    fn lines(&self) -> impl Iterator<Item = &str> {
        self.body.split_terminator('\n')
    }

    /// The CSV header line.
    #[must_use]
    pub fn csv_header(&self) -> String {
        self.columns.join(",")
    }

    /// Writes the fenced CSV block (`--- begin csv: <name> ---` …
    /// `--- end … ---`).
    fn write_fenced_csv(&self, w: &mut impl Write) -> io::Result<()> {
        writeln!(w, "--- begin csv: {} ---", self.name)?;
        writeln!(w, "{}", self.csv_header())?;
        w.write_all(self.body.as_bytes())?;
        writeln!(w, "--- end csv: {} ---", self.name)
    }

    /// Writes the aligned text view: first column left-aligned, the rest
    /// right-aligned, two spaces between columns.
    fn write_aligned(&self, w: &mut impl Write) -> io::Result<()> {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.chars().count()).collect();
        for line in self.lines() {
            for (width, cell) in widths.iter_mut().zip(line.split(',')) {
                *width = (*width).max(cell.chars().count());
            }
        }
        let mut line = String::new();
        aligned_line(&mut line, &widths, self.columns.iter().map(String::as_str));
        w.write_all(line.as_bytes())?;
        for row in self.lines() {
            aligned_line(&mut line, &widths, row.split(','));
            w.write_all(line.as_bytes())?;
        }
        Ok(())
    }

    /// Writes the `{columns, name, rows}` object as [`Report::write_json`]
    /// nests it: keys sorted, one value per line, the object itself at
    /// depth 2.
    fn write_json(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(b"{\n      \"columns\": [")?;
        for (i, column) in self.columns.iter().enumerate() {
            json_item(w, i, 8, column)?;
        }
        w.write_all(b"\n      ],\n      \"name\": ")?;
        json_str(w, &self.name)?;
        w.write_all(b",\n      \"rows\": ")?;
        if self.body.is_empty() {
            w.write_all(b"[]")?;
        } else {
            w.write_all(b"[")?;
            for (r, row) in self.lines().enumerate() {
                w.write_all(separator(r))?;
                w.write_all(b"        [")?;
                for (i, cell) in row.split(',').enumerate() {
                    json_item(w, i, 10, cell)?;
                }
                w.write_all(b"\n        ]")?;
            }
            w.write_all(b"\n      ]")?;
        }
        w.write_all(b"\n    }")
    }
}

/// Formats one aligned line into `line` (cleared first), trailing spaces
/// trimmed, newline included.
fn aligned_line<'a>(line: &mut String, widths: &[usize], cells: impl Iterator<Item = &'a str>) {
    line.clear();
    for (i, (cell, &width)) in cells.zip(widths).enumerate() {
        let pad = width.saturating_sub(cell.chars().count());
        if i == 0 {
            line.push_str(cell);
            if widths.len() > 1 {
                line.extend(std::iter::repeat_n(' ', pad));
            }
        } else {
            line.push_str("  ");
            line.extend(std::iter::repeat_n(' ', pad));
            line.push_str(cell);
        }
    }
    while line.ends_with(' ') {
        line.pop();
    }
    line.push('\n');
}

/// Writes a quoted, escaped JSON string.
fn json_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    w.write_all(b"\"")?;
    w.write_all(escape(s).as_bytes())?;
    w.write_all(b"\"")
}

/// What precedes array item `i` before its indent: a newline, after a
/// comma unless it is the first item.
fn separator(i: usize) -> &'static [u8] {
    if i == 0 { b"\n" } else { b",\n" }
}

/// Writes string item `i` of an array whose items sit `indent` spaces in.
fn json_item(w: &mut impl Write, i: usize, indent: usize, s: &str) -> io::Result<()> {
    const SPACES: &[u8] = b"          ";
    w.write_all(separator(i))?;
    w.write_all(&SPACES[..indent])?;
    json_str(w, s)
}

/// Runs a writer into a buffer and returns the text it wrote.
fn buffered(write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut out = Vec::new();
    write(&mut out).expect("writing into a Vec cannot fail");
    String::from_utf8(out).expect("artifact text is UTF-8")
}

/// One ordered piece of a report.
#[derive(Debug, Clone, PartialEq)]
pub enum Block {
    /// Free-form narrative (printed verbatim).
    Text(String),
    /// A table artifact (printed aligned; CSV emitted at the end).
    Table(Table),
}

/// A complete experiment outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Headline printed first.
    pub title: String,
    /// Narrative and tables, in presentation order.
    pub blocks: Vec<Block>,
}

impl Report {
    /// An empty report with a title.
    #[must_use]
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            blocks: Vec::new(),
        }
    }

    /// Appends a narrative block.
    pub fn push_text(&mut self, text: impl Into<String>) {
        self.blocks.push(Block::Text(text.into()));
    }

    /// Appends a table artifact.
    pub fn push_table(&mut self, table: Table) {
        self.blocks.push(Block::Table(table));
    }

    /// Every table, in order.
    #[must_use]
    pub fn tables(&self) -> Vec<&Table> {
        self.blocks
            .iter()
            .filter_map(|b| match b {
                Block::Table(t) => Some(t),
                Block::Text(_) => None,
            })
            .collect()
    }

    /// Renders the human-readable view followed by every fenced CSV block.
    #[must_use]
    pub fn render(&self) -> String {
        buffered(|out| self.write_text(out))
    }

    /// Writes what [`Report::render`] returns: the title, the narrative
    /// and aligned views in order, then every fenced CSV block.
    ///
    /// # Errors
    ///
    /// Returns the first error `w` reports.
    pub fn write_text(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(self.title.as_bytes())?;
        w.write_all(b"\n\n")?;
        for block in &self.blocks {
            match block {
                Block::Text(text) => writeln!(w, "{text}")?,
                Block::Table(table) if !table.is_csv_only() => {
                    table.write_aligned(w)?;
                    w.write_all(b"\n")?;
                }
                Block::Table(_) => {}
            }
        }
        for table in self.tables() {
            table.write_fenced_csv(w)?;
        }
        Ok(())
    }

    /// The JSON document `{title, tables}`, each table as
    /// `{name, columns, rows}` (narrative blocks are presentation-only),
    /// laid out as `Value::to_json` lays out a document: sorted keys,
    /// two-space indent, one cell per line, no trailing newline.
    #[must_use]
    pub fn to_json(&self) -> String {
        buffered(|out| self.write_json(out))
    }

    /// Writes what [`Report::to_json`] returns.
    ///
    /// # Errors
    ///
    /// Returns the first error `w` reports.
    pub fn write_json(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(b"{\n  \"tables\": ")?;
        let tables = self.tables();
        if tables.is_empty() {
            w.write_all(b"[]")?;
        } else {
            w.write_all(b"[")?;
            for (i, table) in tables.iter().enumerate() {
                w.write_all(separator(i))?;
                w.write_all(b"    ")?;
                table.write_json(w)?;
            }
            w.write_all(b"\n  ]")?;
        }
        w.write_all(b",\n  \"title\": ")?;
        json_str(w, &self.title)?;
        w.write_all(b"\n}")
    }
}

/// Formats a count vector the way the paper annotates Fig. 6:
/// `[ 2. 8. 6. 6. 4. 7.]`.
#[must_use]
pub fn paper_counts(counts: &[usize]) -> String {
    let inner: Vec<String> = counts.iter().map(|c| format!("{c}.")).collect();
    format!("[ {}]", inner.join(" "))
}

/// Joins counts as a CSV-safe `a|b|c` cell.
#[must_use]
pub fn counts_cell(counts: &[usize]) -> String {
    counts
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("|")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn table() -> Table {
        let mut t = Table::new("demo", &["method", "exec_kcc", "energy_fj"]);
        t.push_row(vec!["first-fit".into(), "38.00".into(), "3.51".into()]);
        t.push_row(vec!["nsga-ii".into(), "23.80".into(), "7.80".into()]);
        t
    }

    #[test]
    fn csv_block_is_fenced_and_headed() {
        let csv = buffered(|out| table().write_fenced_csv(out));
        assert!(csv.starts_with("--- begin csv: demo ---\nmethod,exec_kcc,energy_fj\n"));
        assert!(csv.contains("first-fit,38.00,3.51\n"));
        assert!(csv.ends_with("--- end csv: demo ---\n"));
    }

    #[test]
    fn text_rendering_aligns_columns() {
        let text = buffered(|out| table().write_aligned(out));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        // Right-aligned numeric columns line up on their last character.
        let col_end = lines[0].find("exec_kcc").unwrap() + "exec_kcc".len();
        assert_eq!(&lines[1][col_end - 5..col_end], "38.00");
        assert_eq!(&lines[2][col_end - 5..col_end], "23.80");
    }

    #[test]
    #[should_panic(expected = "expects 3 cells")]
    fn row_arity_is_enforced() {
        table().push_row(vec!["too-short".into()]);
    }

    #[test]
    #[should_panic(expected = "table \"demo\" cell \"1,5\" holds a CSV separator")]
    fn a_cell_holding_a_comma_is_refused() {
        table().push_row(vec!["x".into(), "1,5".into(), "2".into()]);
    }

    #[test]
    #[should_panic(expected = "table \"demo\" cell \"a\\nb\" holds a CSV separator")]
    fn a_cell_holding_a_newline_is_refused() {
        table().push_row(vec!["a\nb".into(), "1".into(), "2".into()]);
    }

    #[test]
    #[should_panic(expected = "table \"demo\" expects 3 cells per row, got 2")]
    fn a_bulk_row_with_the_wrong_cell_count_is_refused() {
        table().push_csv_row(|body| body.push_str("x,1"));
    }

    #[test]
    #[should_panic(expected = "table \"demo\" row \"x,1,2\\ny\" holds a newline")]
    fn a_bulk_row_holding_a_newline_is_refused() {
        table().push_csv_row(|body| body.push_str("x,1,2\ny"));
    }

    #[test]
    fn a_push_resets_the_cell_view() {
        let mut t = table();
        assert_eq!(t.rows().len(), 2);
        t.push_csv_row(|body| body.push_str("greedy,30.00,5.00"));
        assert_eq!(t.rows().len(), 3);
        assert_eq!(t.rows()[2], ["greedy", "30.00", "5.00"]);
        // Equality reads the body: a table with its view built equals
        // one without.
        let mut fresh = table();
        fresh.push_row(vec!["greedy".into(), "30.00".into(), "5.00".into()]);
        assert_eq!(t, fresh);
    }

    #[test]
    fn report_renders_blocks_in_order_and_csv_last() {
        let mut report = Report::new("Demo report");
        report.push_text("Narrative first.");
        report.push_table(table());
        report.push_text("Reading: numbers go up.");
        let rendered = report.render();
        let narrative = rendered.find("Narrative first.").unwrap();
        let table_pos = rendered.find("first-fit").unwrap();
        let reading = rendered.find("Reading:").unwrap();
        let csv = rendered.find("--- begin csv").unwrap();
        assert!(narrative < table_pos && table_pos < reading && reading < csv);
    }

    #[test]
    fn report_json_contains_tables() {
        let mut report = Report::new("Demo");
        report.push_table(table());
        let v = Value::parse_json(&report.to_json()).unwrap();
        assert_eq!(v.get("title").unwrap().as_str(), Some("Demo"));
        let tables = v.get("tables").unwrap().as_array().unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].get("name").unwrap().as_str(), Some("demo"));
    }

    #[test]
    fn count_formatting_matches_paper_style() {
        assert_eq!(paper_counts(&[2, 8, 6, 6, 4, 7]), "[ 2. 8. 6. 6. 4. 7.]");
        assert_eq!(counts_cell(&[1, 2, 3]), "1|2|3");
    }

    // The renderers as they were when tables held one `String` per cell,
    // kept as oracles: they read cells through `rows()`.

    fn render_text_oracle(table: &Table) -> String {
        let widths: Vec<usize> = table
            .columns()
            .iter()
            .enumerate()
            .map(|(i, c)| {
                table
                    .rows()
                    .iter()
                    .map(|r| r[i].chars().count())
                    .chain(std::iter::once(c.chars().count()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut out = String::new();
        let render_line = |out: &mut String, cells: &[String]| {
            for (i, (cell, width)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = width.saturating_sub(cell.chars().count());
                if i == 0 {
                    out.push_str(cell);
                    if cells.len() > 1 {
                        out.push_str(&" ".repeat(pad));
                    }
                } else {
                    out.push_str(&" ".repeat(pad));
                    out.push_str(cell);
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_line(&mut out, table.columns());
        for row in table.rows() {
            render_line(&mut out, row);
        }
        out
    }

    fn fenced_csv_oracle(table: &Table) -> String {
        let mut out = format!(
            "--- begin csv: {} ---\n{}\n",
            table.name(),
            table.csv_header()
        );
        for row in table.rows() {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out.push_str(&format!("--- end csv: {} ---\n", table.name()));
        out
    }

    fn render_oracle(report: &Report) -> String {
        let mut out = String::new();
        out.push_str(&report.title);
        out.push_str("\n\n");
        for block in &report.blocks {
            match block {
                Block::Text(text) => {
                    out.push_str(text);
                    out.push('\n');
                }
                Block::Table(table) => {
                    if !table.is_csv_only() {
                        out.push_str(&render_text_oracle(table));
                        out.push('\n');
                    }
                }
            }
        }
        for table in report.tables() {
            out.push_str(&fenced_csv_oracle(table));
        }
        out
    }

    fn json_oracle(report: &Report) -> String {
        let table_value = |table: &Table| {
            let mut t = Value::table();
            t.insert("name", table.name());
            t.insert(
                "columns",
                Value::Array(table.columns().iter().map(|c| c.as_str().into()).collect()),
            );
            t.insert(
                "rows",
                Value::Array(
                    table
                        .rows()
                        .iter()
                        .map(|r| Value::Array(r.iter().map(|c| c.as_str().into()).collect()))
                        .collect(),
                ),
            );
            t
        };
        let mut t = Value::table();
        t.insert("title", report.title.as_str());
        t.insert(
            "tables",
            Value::Array(report.tables().into_iter().map(table_value).collect()),
        );
        t.to_json()
    }

    /// A short string over an alphabet of escapes, separators of the
    /// aligned view and multi-byte characters; `extra` widens it (a
    /// newline for titles and narrative, never for cells).
    fn word(rng: &mut StdRng, extra: &[&'static str]) -> String {
        const ALPHABET: [&str; 12] = [
            "a", "Z", "7", ".", " ", "\"", "\\", "\t", "\r", "|", "λ", "×",
        ];
        let len = rng.random_range(0usize..6);
        (0..len)
            .map(|_| {
                let i = rng.random_range(0..ALPHABET.len() + extra.len());
                ALPHABET
                    .get(i)
                    .copied()
                    .unwrap_or_else(|| extra[i - ALPHABET.len()])
            })
            .collect()
    }

    proptest! {
        #[test]
        fn writers_match_the_oracles_on_random_reports(seed in 0u64..=u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut report = Report::new(word(&mut rng, &["\n", ","]));
            let mut pushed: Vec<Vec<Vec<String>>> = Vec::new();
            for _ in 0..rng.random_range(0usize..6) {
                if rng.random_bool(0.3) {
                    report.push_text(word(&mut rng, &["\n", ","]));
                    continue;
                }
                let columns: Vec<String> =
                    (0..rng.random_range(1usize..7)).map(|_| word(&mut rng, &[])).collect();
                let names: Vec<&str> = columns.iter().map(String::as_str).collect();
                let mut table = Table::new(word(&mut rng, &[]), &names);
                if rng.random_bool(0.5) {
                    table = table.csv_only();
                }
                let mut rows = Vec::new();
                for _ in 0..rng.random_range(0usize..41) {
                    let cells: Vec<String> = columns.iter().map(|_| word(&mut rng, &[])).collect();
                    if rng.random_bool(0.5) {
                        table.push_row(cells.clone());
                    } else {
                        table.push_csv_row(|body| body.push_str(&cells.join(",")));
                    }
                    if rng.random_bool(0.1) {
                        prop_assert_eq!(table.rows().len(), rows.len() + 1);
                    }
                    rows.push(cells);
                }
                pushed.push(rows);
                report.push_table(table);
            }
            prop_assert_eq!(report.render(), render_oracle(&report));
            prop_assert_eq!(report.to_json(), json_oracle(&report));
            for (table, rows) in report.tables().into_iter().zip(&pushed) {
                prop_assert_eq!(table.rows(), rows.as_slice());
            }
        }
    }
}
