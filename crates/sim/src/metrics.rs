//! The mean of a sample set and the result table of the figure drivers.

use std::fmt;
use std::time::Duration;

/// Mean of duration samples, in seconds; 0 for no samples.
pub fn mean_secs(samples: &[Duration]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<Duration>().as_secs_f64() / samples.len() as f64
}

/// A simple result table: named columns, rows of numbers, printed in a
/// fixed-width layout so experiment output can be compared with the paper's
/// figures directly.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table title (e.g. "Figure 19: overhead of insertSucc").
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of values (one `f64` per column).
    pub rows: Vec<Vec<f64>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Panics if the arity does not match the headers.
    pub fn push_row(&mut self, row: Vec<f64>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row arity must match column count"
        );
        self.rows.push(row);
    }

    /// Looks up a column index by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Returns one column as a vector of values.
    pub fn column(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.column_index(name)?;
        Some(self.rows.iter().map(|r| r[idx]).collect())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# {}", self.title)?;
        let widths: Vec<usize> = self.columns.iter().map(|c| c.len().max(12)).collect();
        for (c, w) in self.columns.iter().zip(&widths) {
            write!(f, "{c:>w$} ", w = w)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            for (v, w) in row.iter().zip(&widths) {
                write!(f, "{v:>w$.6} ", w = w)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_empty_is_zeroed() {
        assert_eq!(mean_secs(&[]), 0.0);
    }

    #[test]
    fn stats_summarize_samples() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert!((mean_secs(&samples) - 0.0505).abs() < 1e-12);
        assert_eq!(mean_secs(&[Duration::from_millis(250)]), 0.25);
    }

    #[test]
    fn table_roundtrip_and_display() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.push_row(vec![1.0, 2.0]);
        t.push_row(vec![3.0, 4.0]);
        assert_eq!(t.column("y"), Some(vec![2.0, 4.0]));
        assert_eq!(t.column("z"), None);
        let s = t.to_string();
        assert!(s.contains("# demo"));
        assert!(s.contains("1.000000"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_wrong_arity() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.push_row(vec![1.0]);
    }
}
