//! Text table rendering shared by the experiment binaries.
//!
//! Plain, aligned, terminal-friendly tables plus the φ magnitude tags the
//! paper renders as colors (blue = small, yellow = medium, red = large).

use cw_stats::EffectMagnitude;

/// A simple column-aligned text table builder.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with a header row.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                line.push_str(cell);
                for _ in cell.chars().count()..widths[i] {
                    line.push(' ');
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// A titled section header, as every exhibit opens with.
pub fn header_str(title: &str) -> String {
    format!("\n=== {title} ===\n\n")
}

/// A `paper vs measured` context line following the header.
pub fn paper_note_str(note: &str) -> String {
    format!("(paper: {note})\n\n")
}

/// Render a bare φ value with a magnitude recomputed for `df_star`.
pub fn phi_value(phi: Option<f64>, df_star: usize) -> String {
    match phi {
        None => "-".to_string(),
        Some(p) => format!(
            "{:.2} {}",
            p,
            magnitude_tag(cw_stats::cramers::magnitude_for(p, df_star))
        ),
    }
}

/// The compact magnitude tag.
pub fn magnitude_tag(m: EffectMagnitude) -> &'static str {
    match m {
        EffectMagnitude::Negligible => "[-]",
        EffectMagnitude::Small => "[S]",
        EffectMagnitude::Medium => "[M]",
        EffectMagnitude::Large => "[L]",
    }
}

/// Render a percentage cell.
pub fn pct(v: Option<f64>) -> String {
    match v {
        None => "×".to_string(),
        Some(p) => format!("{p:.0}%"),
    }
}

/// Render a fold-increase cell with the paper's markers: bold (here `*`
/// suffix → KS-different, `!` prefix → MWU-significant).
pub fn fold_cell(fold: f64, mwu: bool, ks: bool) -> String {
    let mut s = format!("{fold:.1}");
    if mwu {
        s = format!("**{s}**");
    }
    if ks {
        s.push('*');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["Port", "Overlap"]);
        t.row(vec!["23".into(), "91%".into()]);
        t.row(vec!["2222".into(), "9%".into()]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Port"));
        assert!(lines[2].starts_with("23"));
        // Columns aligned: "Overlap" column starts at the same offset.
        let col = lines[0].find("Overlap").unwrap();
        assert_eq!(&lines[2][col..col + 3], "91%");
    }

    #[test]
    #[should_panic]
    fn mismatched_row_width_panics() {
        TextTable::new(&["a", "b"]).row(vec!["only-one".into()]);
    }

    #[test]
    fn cells() {
        assert_eq!(pct(None), "×");
        assert_eq!(pct(Some(91.2)), "91%");
        assert_eq!(phi_value(None, 1), "-");
        assert_eq!(phi_value(Some(0.82), 1), "0.82 [L]");
        assert_eq!(phi_value(Some(0.05), 1), "0.05 [-]");
        assert_eq!(fold_cell(7.7, true, true), "**7.7***");
        assert_eq!(fold_cell(1.5, false, false), "1.5");
    }
}
