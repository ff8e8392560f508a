//! Result tables: aligned text for the terminal, CSV for the archive.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A simple column-aligned result table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New empty table with a title and column names.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_owned(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as aligned text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let render_row = |cells: &[String], out: &mut String| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = w);
            }
            out.push('\n');
        };
        render_row(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            render_row(row, &mut out);
        }
        out
    }

    /// Render as CSV (RFC-4180-style quoting for cells containing commas
    /// or quotes).
    pub fn to_csv(&self) -> String {
        let quote = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|c| quote(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Write the CSV rendering to `dir/<slug>.csv`, creating `dir`.
    pub fn write_csv(&self, dir: &Path, slug: &str) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        fs::write(dir.join(format!("{slug}.csv")), self.to_csv())
    }
}

/// Format a duration in seconds with millisecond resolution.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Column names for a per-phase time breakdown, one per
/// [`pfcim_core::Phase`] in canonical order, e.g. `mpfci_freq_dp_s` for
/// prefix `mpfci`.
pub fn phase_headers(prefix: &str) -> Vec<String> {
    pfcim_core::Phase::ALL
        .iter()
        .map(|p| format!("{prefix}_{}_s", p.name()))
        .collect()
}

/// Per-phase totals in seconds, matching [`phase_headers`] order.
pub fn phase_cells(timers: &pfcim_core::PhaseTimers) -> Vec<String> {
    pfcim_core::Phase::ALL
        .iter()
        .map(|p| secs(timers.total(*p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Fig X", &["min_sup", "time"]);
        t.push_row(vec!["0.2".into(), "1.5".into()]);
        t.push_row(vec!["0.3".into(), "0.7".into()]);
        t
    }

    #[test]
    fn text_rendering_aligns() {
        let text = sample().to_text();
        assert!(text.contains("== Fig X =="));
        assert!(text.contains("min_sup"));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    fn csv_rendering() {
        let csv = sample().to_csv();
        assert_eq!(csv.lines().next(), Some("min_sup,time"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = Table::new("q", &["a"]);
        t.push_row(vec!["x,y".into()]);
        t.push_row(vec!["he said \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    fn csv_file_round_trip() {
        let dir = std::env::temp_dir().join(format!("pfcim_report_test_{}", std::process::id()));
        sample().write_csv(&dir, "fig_x").unwrap();
        let content = std::fs::read_to_string(dir.join("fig_x.csv")).unwrap();
        assert!(content.starts_with("min_sup,time"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "width")]
    fn row_width_is_enforced() {
        let mut t = Table::new("t", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn phase_columns_align_with_timers() {
        use pfcim_core::{Phase, PhaseTimers};
        let headers = phase_headers("mpfci");
        assert_eq!(headers.len(), Phase::COUNT);
        assert_eq!(headers[0], "mpfci_freq_dp_s");
        let mut timers = PhaseTimers::default();
        timers.add(Phase::FcpSample, std::time::Duration::from_millis(1500));
        let cells = phase_cells(&timers);
        assert_eq!(cells.len(), headers.len());
        let idx = Phase::FcpSample.index();
        assert_eq!(cells[idx], "1.500");
        assert_eq!(cells[Phase::FreqDp.index()], "0.000");
    }
}
