//! Plain-text table rendering for the `repro` binary.

use std::fmt::Write as _;

/// A simple aligned text table.
///
/// # Example
///
/// ```
/// use tutel_bench::Table;
///
/// let mut t = Table::new("Demo", &["x", "y"]);
/// t.row(&["1".into(), "2".into()]);
/// let s = t.render();
/// assert!(s.contains("Demo"));
/// assert!(s.contains("1"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut line = String::new();
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(line, "{h:>w$}  ");
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(line, "{cell:>w$}  ");
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Formats seconds adaptively (µs/ms/s).
pub fn fmt_time(seconds: f64) -> String {
    if seconds < 1e-3 {
        format!("{:.1}us", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2}ms", seconds * 1e3)
    } else {
        format!("{seconds:.3}s")
    }
}

/// Formats a ratio as `N.NNx`.
pub fn fmt_speedup(ratio: f64) -> String {
    format!("{ratio:.2}x")
}

/// Formats a fraction as a percentage.
pub fn fmt_pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Formats bytes adaptively (KiB/MiB/GiB).
pub fn fmt_bytes(bytes: f64) -> String {
    const KIB: f64 = 1024.0;
    if bytes >= KIB * KIB * KIB {
        format!("{:.2}GiB", bytes / (KIB * KIB * KIB))
    } else if bytes >= KIB * KIB {
        format!("{:.1}MiB", bytes / (KIB * KIB))
    } else {
        format!("{:.0}KiB", bytes / KIB)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("T", &["a", "longheader"]);
        t.row(&["12345".into(), "x".into()]);
        let s = t.render();
        assert!(s.contains("12345"));
        assert!(s.contains("longheader"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        Table::new("T", &["a", "b"]).row(&["1".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_time(5e-6), "5.0us");
        assert_eq!(fmt_time(0.0123), "12.30ms");
        assert_eq!(fmt_time(2.5), "2.500s");
        assert_eq!(fmt_speedup(3.519), "3.52x");
        assert_eq!(fmt_pct(0.337), "33.7%");
        assert_eq!(fmt_bytes(1024.0 * 1024.0), "1.0MiB");
        assert_eq!(fmt_bytes(2.0 * 1024.0 * 1024.0 * 1024.0), "2.00GiB");
    }
}
