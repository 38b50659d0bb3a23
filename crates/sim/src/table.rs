//! A minimal result table with a CSV emitter.
//!
//! Experiment outputs are small (tens of rows), so a `Vec<Vec<String>>`
//! with headers is all that is needed — no serde, per the workspace
//! dependency policy.

/// A named table of results.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResultTable {
    /// Table title (e.g. `"Table 1"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each must match the header count.
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        ResultTable {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the cell count differs from the header count.
    pub(crate) fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Borrow of the rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Looks up a cell by row index and column header.
    pub fn cell(&self, row: usize, header: &str) -> Option<&str> {
        let col = self.headers.iter().position(|h| h == header)?;
        self.rows.get(row).map(|r| r[col].as_str())
    }

    /// Emits RFC-4180-ish CSV (quotes cells containing commas/quotes).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&csv_line(&self.headers));
        for row in &self.rows {
            out.push_str(&csv_line(row));
        }
        out
    }

    /// Emits an aligned, human-readable text rendering.
    pub fn to_pretty(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = format!("== {} ==\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{c:>w$}  ", w = w));
            }
            line.trim_end().to_string() + "\n"
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

fn csv_line(cells: &[String]) -> String {
    let escaped: Vec<String> = cells
        .iter()
        .map(|c| {
            if c.contains(',') || c.contains('"') || c.contains('\n') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        })
        .collect();
    escaped.join(",") + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ResultTable {
        let mut t = ResultTable::new("Demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "x".into()]);
        t.push_row(vec!["2".into(), "y,z".into()]);
        t
    }

    #[test]
    fn csv_escapes_commas() {
        let csv = sample().to_csv();
        assert_eq!(csv, "a,b\n1,x\n2,\"y,z\"\n");
    }

    #[test]
    fn cell_lookup() {
        let t = sample();
        assert_eq!(t.cell(0, "a"), Some("1"));
        assert_eq!(t.cell(1, "b"), Some("y,z"));
        assert_eq!(t.cell(0, "nope"), None);
        assert_eq!(t.cell(9, "a"), None);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert!(ResultTable::new("T", &["a"]).is_empty());
    }

    #[test]
    fn pretty_contains_everything() {
        let p = sample().to_pretty();
        assert!(p.contains("Demo"));
        assert!(p.contains("y,z"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = ResultTable::new("T", &["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }
}
