//! Minimal aligned-column table printer for figure harness output.

/// A text table with a header row and aligned columns.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; panics if the arity differs from the header.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Render with space-padded columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (c, h) in self.header.iter().enumerate() {
            width[c] = h.len();
        }
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                width[c] = width[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:>w$}", w = width[c]));
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &width));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
            out.push('\n');
        }
        out
    }
}

/// Format a byte count the way the paper's x-axes do (4, 1K, 64K, 1M).
pub fn fmt_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 && bytes.is_multiple_of(1 << 20) {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 && bytes.is_multiple_of(1 << 10) {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}")
    }
}

/// Format microseconds with sensible precision.
pub fn fmt_us(us: f64) -> String {
    if us < 10.0 {
        format!("{us:.2}")
    } else if us < 1000.0 {
        format!("{us:.1}")
    } else {
        format!("{us:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(["size", "latency"]);
        t.row(["4", "1.23"]);
        t.row(["1048576", "456.7"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("size"));
        assert!(lines[3].starts_with("1048576"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(4), "4");
        assert_eq!(fmt_bytes(1024), "1K");
        assert_eq!(fmt_bytes(512 * 1024), "512K");
        assert_eq!(fmt_bytes(1 << 20), "1M");
        assert_eq!(fmt_bytes(1000), "1000");
    }

    #[test]
    fn us_formatting() {
        assert_eq!(fmt_us(1.234), "1.23");
        assert_eq!(fmt_us(123.45), "123.5");
        assert_eq!(fmt_us(12345.6), "12346");
    }
}
