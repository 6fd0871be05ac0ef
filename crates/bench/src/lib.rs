//! # vrr-bench: experiment binaries for every paper claim
//!
//! Each binary under `src/bin/` regenerates one figure/claim of the paper,
//! asserts it, and prints an aligned table (see `ARCHITECTURE.md` for the
//! index). This library holds what the binaries share: the [`Table`]
//! printer and the [`f2`] number format.

#![warn(missing_docs)]

use std::fmt::Write as _;

/// A minimal aligned-column table printer for experiment output.
///
/// ```
/// use vrr_bench::Table;
///
/// let mut t = Table::new(&["b", "rounds"]);
/// t.row(&["1", "2"]);
/// t.row(&["2", "3"]);
/// let rendered = t.render();
/// assert!(rendered.contains("b"));
/// assert!(rendered.contains("rounds"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Appends a row of owned strings.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate() {
                let pad = widths[c] - cell.chars().count();
                let _ = write!(out, "{}{}", cell, " ".repeat(pad));
                if c + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        render_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }

    /// Prints the table to stdout under a title banner.
    pub fn print(&self, title: &str) {
        println!("\n=== {title} ===");
        print!("{}", self.render());
    }
}

/// Formats a float with 2 decimals (experiment output convention).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["name", "n"]);
        t.row(&["abc", "1"]);
        t.row(&["a", "100"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("abc"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn f2_formats() {
        assert_eq!(f2(2.5), "2.50");
    }
}
