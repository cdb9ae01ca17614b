//! Minimal table formatting for experiment output.

use bcount_json::{Json, ToJson};
use std::fmt;

/// A printable experiment result table (GitHub-markdown compatible).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Experiment title, e.g. `"E3: Theorem 2 coverage"`.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each must match `headers.len()`.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders as GitHub markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("|-{}-|\n", sep.join("-|-")));
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_markdown())
    }
}

impl ToJson for Table {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("title", self.title.to_json()),
            ("headers", self.headers.to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown() {
        let mut t = Table::new("E0: demo", &["n", "value"]);
        t.push_row(vec!["64".into(), "1.5".into()]);
        t.push_row(vec!["128".into(), "2.25".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### E0: demo"));
        assert!(md.contains("| n   | value |"));
        assert!(md.contains("| 128 | 2.25  |"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("bad", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }
}
