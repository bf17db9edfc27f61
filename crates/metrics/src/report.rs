//! Table rendering for the experiment harnesses.
//!
//! Every row of `lv_core::reproduce::CATALOGUE` returns its table as this
//! type, so the output format (aligned text for the terminal, CSV for
//! post-processing) is uniform across experiments.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A simple rectangular table with a title, column headers and string cells.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Table {
    /// Title printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells; every row should have `headers.len()` entries.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of already-formatted cells.
    ///
    /// # Panics
    /// Panics if the row length does not match the header count.
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells, table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Appends a row built from a label and numeric values formatted with
    /// `precision` decimal places.
    pub fn add_numeric_row(&mut self, label: impl Into<String>, values: &[f64], precision: usize) {
        let mut cells = vec![label.into()];
        cells.extend(values.iter().map(|v| format!("{v:.precision$}")));
        self.add_row(cells);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table as aligned plain text.
    pub fn to_aligned_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header_line.join("  "));
        let total_width: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total_width));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Renders the table as CSV (header row first).
    pub fn to_csv(&self) -> String {
        let escape = |s: &str| -> String {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(|h| escape(h)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ =
                writeln!(out, "{}", row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Speed-up vs VECTOR_SIZE", &["VECTOR_SIZE", "speedup"]);
        t.add_row(vec!["16".into(), "3.1".into()]);
        t.add_numeric_row("240", &[7.6], 1);
        t
    }

    #[test]
    fn dimensions_are_tracked() {
        let t = sample();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.headers.len(), 2);
    }

    #[test]
    #[should_panic]
    fn mismatched_row_is_rejected() {
        let mut t = sample();
        t.add_row(vec!["only one cell".into()]);
    }

    #[test]
    fn aligned_text_contains_all_cells() {
        let text = sample().to_aligned_text();
        assert!(text.contains("Speed-up vs VECTOR_SIZE"));
        assert!(text.contains("VECTOR_SIZE"));
        assert!(text.contains("7.6"));
        assert!(text.contains("---"));
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("t", &["a", "b"]);
        t.add_row(vec!["x,y".into(), "plain".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\",plain"));
        assert!(csv.starts_with("a,b\n"));
    }

    #[test]
    fn numeric_row_formats_precision() {
        let mut t = Table::new("t", &["label", "v1", "v2"]);
        t.add_numeric_row("row", &[1.23456, 2.0], 2);
        assert_eq!(t.rows[0], vec!["row".to_string(), "1.23".to_string(), "2.00".to_string()]);
    }
}
