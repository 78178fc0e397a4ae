//! Plain-text table rendering for experiment output.

use std::fmt;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple monospace table builder.
///
/// # Examples
///
/// ```
/// use rip_report::TextTable;
///
/// let mut t = TextTable::new(vec!["Net", "ΔMax (%)"]);
/// t.row(vec!["1".into(), "22.95".into()]);
/// t.row(vec!["2".into(), "17.39".into()]);
/// let s = t.to_string();
/// assert!(s.contains("Net"));
/// assert!(s.contains("22.95"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    aligns: Vec<Align>,
}

impl TextTable {
    /// Creates a table with the given column headers. All columns default
    /// to right alignment except the first (label) column.
    pub fn new(headers: Vec<&str>) -> Self {
        let aligns = headers
            .iter()
            .enumerate()
            .map(|(i, _)| if i == 0 { Align::Left } else { Align::Right })
            .collect();
        Self {
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
            aligns,
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "one cell per column");
        self.rows.push(cells);
    }

    /// Appends a horizontal separator row (rendered as dashes).
    pub fn separator(&mut self) {
        self.rows.push(Vec::new());
    }

    /// Number of data rows added (separators excluded).
    pub fn len(&self) -> usize {
        self.rows.iter().filter(|r| !r.is_empty()).count()
    }

    /// Returns `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut line = String::new();
            for (i, (&width, align)) in widths.iter().zip(&self.aligns).enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let pad = width.saturating_sub(cell.chars().count());
                match align {
                    Align::Left => {
                        line.push_str(cell);
                        line.push_str(&" ".repeat(pad));
                    }
                    Align::Right => {
                        line.push_str(&" ".repeat(pad));
                        line.push_str(cell);
                    }
                }
                if i + 1 < cols {
                    line.push_str("  ");
                }
            }
            writeln!(f, "{}", line.trim_end())
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            if row.is_empty() {
                writeln!(f, "{}", "-".repeat(total))?;
            } else {
                write_row(f, row)?;
            }
        }
        Ok(())
    }
}

/// Formats a float with the given number of decimals (experiment cells).
pub fn fmt_f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["Name", "Value"]);
        t.row(vec!["alpha".into(), "1.5".into()]);
        t.row(vec!["b".into(), "123.25".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("Name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Right-aligned numbers share their last column.
        let c1 = lines[2].rfind("1.5").unwrap() + 3;
        let c2 = lines[3].rfind("123.25").unwrap() + 6;
        assert_eq!(c1, c2);
    }

    #[test]
    fn separator_rows_render_as_dashes() {
        let mut t = TextTable::new(vec!["A", "B"]);
        t.row(vec!["x".into(), "1".into()]);
        t.separator();
        t.row(vec!["avg".into(), "1".into()]);
        let s = t.to_string();
        assert_eq!(s.lines().filter(|l| l.chars().all(|c| c == '-')).count(), 2);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "one cell per column")]
    fn wrong_cell_count_panics() {
        let mut t = TextTable::new(vec!["A", "B"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn fmt_f_controls_decimals() {
        assert_eq!(fmt_f(37.146, 2), "37.15");
        assert_eq!(fmt_f(10.0, 0), "10");
    }
}
