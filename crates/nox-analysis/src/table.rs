//! Plain-text and CSV table rendering for the experiment harnesses.
//!
//! Every figure harness renders its series through this module so the
//! regenerated tables share one format and can be diffed run to run.

use std::fmt;

/// A simple column-aligned table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new<T: Into<String>>(title: T, headers: &[&str]) -> Self {
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
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as CSV (title omitted).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        if !self.title.is_empty() {
            writeln!(f, "{}", self.title)?;
        }
        let line: String = widths.iter().map(|w| "-".repeat(w + 2)).collect();
        let render = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, " {cell:>w$} ", w = w)?;
            }
            writeln!(f)
        };
        render(f, &self.headers)?;
        writeln!(f, "{line}")?;
        for row in &self.rows {
            render(f, row)?;
        }
        Ok(())
    }
}

/// Formats a float with a fixed number of decimals (helper for harnesses).
pub fn num(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("T", &["arch", "latency"]);
        t.row(["NoX", "5.64"]).row(["Non-Speculative", "6.82"]);
        let s = t.to_string();
        assert!(s.contains("T\n"));
        assert!(s.contains("NoX"));
        let lines: Vec<&str> = s.lines().collect();
        // Header, separator, and two rows under the title.
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("", &["a", "b"]);
        t.row(["x,y", "say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new("", &["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn num_formats_decimals() {
        assert_eq!(num(1.23456, 2), "1.23");
        assert_eq!(num(2.0, 0), "2");
    }

    #[test]
    fn empty_table_is_well_formed() {
        let t = Table::new("empty", &["x"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.to_csv().starts_with("x\n"));
    }
}
