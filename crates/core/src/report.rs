//! Report formatting: markdown tables and CSV emission for the figure
//! harnesses.

use std::fmt::Write as _;
use std::path::Path;

/// A simple rectangular table that renders to markdown or CSV.
///
/// # Example
///
/// ```
/// use venice_ssd::report::Table;
/// let mut t = Table::new(vec!["workload".into(), "speedup".into()]);
/// t.row(vec!["hm_0".into(), "2.41".into()]);
/// let md = t.to_markdown();
/// assert!(md.contains("| hm_0 | 2.41 |"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
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

    /// Renders as a GitHub-flavored markdown table.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "| {} |", self.header.join(" | "));
        let _ = writeln!(
            s,
            "|{}|",
            self.header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
        );
        for r in &self.rows {
            let _ = writeln!(s, "| {} |", r.join(" | "));
        }
        s
    }

    /// Renders as CSV (no quoting: the harness only emits identifiers and
    /// numbers).
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.header.join(","));
        for r in &self.rows {
            let _ = writeln!(s, "{}", r.join(","));
        }
        s
    }

    /// Writes the CSV beside any existing results, creating directories as
    /// needed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or the file write.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

/// Formats a float with 2 decimal places (the figures' usual precision).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimal places.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_and_csv_agree_on_content() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["3".into(), "4".into()]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let md = t.to_markdown();
        assert!(md.starts_with("| a | b |"));
        assert!(md.contains("| 3 | 4 |"));
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n1,2\n3,4\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_rejected() {
        let mut t = Table::new(vec!["a".into()]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn csv_writes_to_disk() {
        let mut t = Table::new(vec!["x".into()]);
        t.row(vec!["7".into()]);
        let dir = std::env::temp_dir().join("venice-report-test");
        let path = dir.join("t.csv");
        t.write_csv(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "x\n7\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f2(2.649), "2.65");
        assert_eq!(f3(0.0004), "0.000");
    }
}
