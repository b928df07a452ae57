//! Experiment report tables.
//!
//! Every experiment in `vod-bench` prints its results as one or more
//! [`Table`]s, rendered as GitHub-flavoured markdown.

use std::fmt::Write as _;

/// A simple column-oriented results table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Table {
    /// Table title (rendered as a heading above the table).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells; each row should have `columns.len()` entries.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row length does not match the number of columns.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row has {} cells but the table has {} columns",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "### {}\n", self.title);
        }
        let _ = writeln!(out, "| {} |", self.columns.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }
}

/// Formats a probability either in fixed or scientific notation depending on
/// magnitude, so tiny first-moment bounds stay readable.
pub fn fmt_prob(p: f64) -> String {
    if p == 0.0 {
        "0".to_string()
    } else if p >= 1e-3 {
        format!("{p:.4}")
    } else {
        format!("{p:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["n", "value"]);
        t.push_row(vec!["10".into(), "0.5".into()]);
        t.push_row(vec!["20".into(), "1.0".into()]);
        t
    }

    #[test]
    fn markdown_rendering() {
        let md = sample().to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| n | value |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 20 | 1.0 |"));
    }

    #[test]
    #[should_panic(expected = "row has 1 cells")]
    fn mismatched_row_rejected() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_prob(0.0), "0");
        assert_eq!(fmt_prob(0.25), "0.2500");
        assert!(fmt_prob(3.2e-9).contains('e'));
    }

    #[test]
    fn len_and_empty() {
        assert_eq!(sample().len(), 2);
        assert!(!sample().is_empty());
        assert!(Table::new("t", &["x"]).is_empty());
    }
}
