//! Experiment output: CSV rows and aligned ASCII tables.
//!
//! The benchmark binaries regenerate the paper's figures as data series;
//! this module renders them without pulling in a serialisation stack.

use std::fmt::Write as _;

/// Builder for a rectangular table with a header row.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append a data row.
    ///
    /// # Panics
    /// Panics when the row width differs from the header width.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, row: I) -> &mut Self {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width {} != header width {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as CSV (RFC-4180-style quoting for fields containing commas,
    /// quotes or newlines).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let write_row = |out: &mut String, row: &[String]| {
            for (i, field) in row.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if field.contains([',', '"', '\n']) {
                    out.push('"');
                    out.push_str(&field.replace('"', "\"\""));
                    out.push('"');
                } else {
                    out.push_str(field);
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Render as an aligned ASCII table.
    pub fn to_ascii(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let rule = |out: &mut String| {
            for w in &widths {
                out.push('+');
                for _ in 0..w + 2 {
                    out.push('-');
                }
            }
            out.push_str("+\n");
        };
        let line = |out: &mut String, row: &[String]| {
            for i in 0..cols {
                let _ = write!(out, "| {:width$} ", row[i], width = widths[i]);
            }
            out.push_str("|\n");
        };
        rule(&mut out);
        line(&mut out, &self.header);
        rule(&mut out);
        for row in &self.rows {
            line(&mut out, row);
        }
        rule(&mut out);
        out
    }
}

/// Format a float with `prec` decimals (helper for table cells).
pub fn fnum(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip_simple() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1", "2"]).row(["3", "4"]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n3,4\n");
    }

    #[test]
    fn csv_quotes_special_fields() {
        let mut t = Table::new(["x"]);
        t.row(["has,comma"]);
        t.row(["has\"quote"]);
        assert_eq!(t.to_csv(), "x\n\"has,comma\"\n\"has\"\"quote\"\n");
    }

    #[test]
    fn ascii_aligns_columns() {
        let mut t = Table::new(["name", "v"]);
        t.row(["long-name-here", "1"]);
        t.row(["s", "22"]);
        let s = t.to_ascii();
        let lines: Vec<&str> = s.lines().collect();
        // rule, header, rule, 2 rows, rule
        assert_eq!(lines.len(), 6);
        let widths: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "ragged table:\n{s}");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_rejected() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn numeric_formatters() {
        assert_eq!(fnum(12.3456, 2), "12.35");
    }
}
