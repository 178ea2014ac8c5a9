//! Plain-text rendering of experiment results: ASCII tables, box plots,
//! violins and scatter sketches, plus CSV export for external plotting.

use counterlab_stats::boxplot::BoxPlot;
use counterlab_stats::kde::Kde;

use crate::measure::Record;

/// Renders a table: header row plus aligned data rows.
///
/// # Examples
///
/// ```
/// let t = counterlab::report::table(
///     &["tool", "median"],
///     &[vec!["pm".into(), "726".into()], vec!["pc".into(), "163".into()]],
/// );
/// assert!(t.contains("pm"));
/// assert!(t.lines().count() >= 4);
/// ```
pub fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    // An empty header would make the separator width `2 * (cols - 1)`
    // underflow; there is nothing sensible to align against, so the
    // table is empty.
    if header.is_empty() {
        return String::new();
    }
    // Rows may carry more cells than the header names: every column that
    // appears anywhere gets its own width so no row can index past the
    // computed widths.
    let cols = header
        .len()
        .max(rows.iter().map(Vec::len).max().unwrap_or(0));
    let mut widths = vec![0usize; cols];
    for (i, h) in header.iter().enumerate() {
        widths[i] = h.len();
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<width$}", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Narrowest box plot that can still show all five markers side by side
/// (`|[ : ]|` plus a little slack); narrower requests are widened to it.
const MIN_BOXPLOT_WIDTH: usize = 8;

/// Renders one labeled box plot as a text line scaled into `[lo, hi]`:
/// whiskers `|---[ box ]---|` with the median marked `:`. Widths below
/// `MIN_BOXPLOT_WIDTH` (notably `0`, which has no cell to put any
/// marker in) are clamped up to it.
pub fn boxplot_line(label: &str, bp: &BoxPlot, lo: f64, hi: f64, width: usize) -> String {
    let width = width.max(MIN_BOXPLOT_WIDTH);
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    let pos = |v: f64| -> usize {
        (((v - lo) / span) * (width.saturating_sub(1)) as f64)
            .round()
            .clamp(0.0, (width - 1) as f64) as usize
    };
    let mut cells = vec![' '; width];
    let (wl, q1, med, q3, wh) = (
        pos(bp.lower_whisker()),
        pos(bp.q1()),
        pos(bp.median()),
        pos(bp.q3()),
        pos(bp.upper_whisker()),
    );
    for c in cells.iter_mut().take(q1).skip(wl) {
        *c = '-';
    }
    for c in cells.iter_mut().take(wh + 1).skip(q3) {
        *c = '-';
    }
    for c in cells.iter_mut().take(q3 + 1).skip(q1) {
        *c = '=';
    }
    cells[wl] = '|';
    cells[wh] = '|';
    cells[q1] = '[';
    cells[q3] = ']';
    cells[med] = ':';
    for &o in bp.outliers() {
        let p = pos(o);
        if cells[p] == ' ' {
            cells[p] = 'o';
        }
    }
    format!("{label:<28} {}", cells.into_iter().collect::<String>())
}

/// Renders a violin (KDE silhouette) as vertical ASCII art: one row per
/// trace point, bar length proportional to density.
pub fn violin_text(kde: &Kde, rows: usize, width: usize) -> String {
    let trace = kde.trace(rows).unwrap_or_default();
    let dmax = trace
        .iter()
        .map(|&(_, d)| d)
        .fold(f64::MIN_POSITIVE, f64::max);
    let mut out = String::new();
    for (x, d) in trace {
        let bars = ((d / dmax) * width as f64).round() as usize;
        out.push_str(&format!("{x:>14.1} |{}\n", "#".repeat(bars)));
    }
    out
}

/// Sketches a scatter plot: `points` are `(x, y)`; the canvas is
/// `width × height` characters with `*` marks.
pub fn scatter_text(points: &[(f64, f64)], width: usize, height: usize) -> String {
    if points.is_empty() {
        return String::from("(no data)\n");
    }
    let (mut xlo, mut xhi) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ylo, mut yhi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in points {
        xlo = xlo.min(x);
        xhi = xhi.max(x);
        ylo = ylo.min(y);
        yhi = yhi.max(y);
    }
    if xhi == xlo {
        xhi = xlo + 1.0;
    }
    if yhi == ylo {
        yhi = ylo + 1.0;
    }
    let mut canvas = vec![vec![' '; width]; height];
    for &(x, y) in points {
        let cx = (((x - xlo) / (xhi - xlo)) * (width - 1) as f64).round() as usize;
        let cy = (((y - ylo) / (yhi - ylo)) * (height - 1) as f64).round() as usize;
        canvas[height - 1 - cy][cx] = '*';
    }
    let mut out = String::new();
    out.push_str(&format!("y: {ylo:.3e} .. {yhi:.3e}\n"));
    for row in canvas {
        out.push('|');
        out.push_str(&row.into_iter().collect::<String>());
        out.push('\n');
    }
    out.push_str(&format!("x: {xlo:.3e} .. {xhi:.3e}\n"));
    out
}

/// Serializes records as CSV (one row per measurement).
pub fn records_to_csv(records: &[Record]) -> String {
    let mut out = String::from(CSV_HEADER);
    for r in records {
        out.push_str(&record_to_csv_line(r));
    }
    out
}

/// The header line shared by [`records_to_csv`] and the streaming CSV
/// path ([`crate::grid::Grid::run_csv`]).
pub const CSV_HEADER: &str =
    "processor,interface,pattern,opt_level,counters,tsc,mode,event,benchmark,iters,measured,expected,error\n";

/// One record's CSV line (newline-terminated), exactly as
/// [`records_to_csv`] serializes it.
pub fn record_to_csv_line(r: &Record) -> String {
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
        r.config.processor,
        r.config.interface,
        r.config.pattern.code(),
        r.config.opt_level.level(),
        r.config.counters,
        r.config.tsc_on,
        r.config.mode,
        r.config.event,
        r.benchmark.name(),
        r.benchmark.iterations(),
        r.measured,
        r.expected,
        r.error()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::Benchmark;
    use crate::config::MeasurementConfig;
    use crate::interface::Interface;
    use counterlab_cpu::uarch::Processor;

    #[test]
    fn table_alignment() {
        let t = table(
            &["a", "long_header"],
            &[
                vec!["x".into(), "1".into()],
                vec!["yyyy".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with('-'));
        assert!(lines[0].contains("long_header"));
    }

    #[test]
    fn table_rows_longer_than_header() {
        // Regression: rows with more cells than the header used to index
        // past the widths vector and panic.
        let t = table(
            &["a"],
            &[
                vec!["x".into(), "extra".into(), "more".into()],
                vec!["y".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].contains("extra"));
        assert!(lines[2].contains("more"));
        // The extra columns get their own widths: the separator spans them.
        assert!(lines[1].len() >= lines[2].len());
    }

    #[test]
    fn table_empty_header_is_empty() {
        // Regression: an empty header used to underflow `2 * (cols - 1)`.
        assert_eq!(table(&[], &[]), "");
        assert_eq!(table(&[], &[vec!["orphan".into()]]), "");
    }

    #[test]
    fn table_empty_rows_still_render() {
        let t = table(&["only", "header"], &[]);
        assert_eq!(t.lines().count(), 2);
        assert!(t.contains("only"));
    }

    #[test]
    fn boxplot_line_markers() {
        let bp = BoxPlot::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let line = boxplot_line("test", &bp, 0.0, 6.0, 60);
        assert!(line.contains('['));
        assert!(line.contains(']'));
        assert!(line.contains(':'));
        assert!(line.starts_with("test"));
    }

    #[test]
    fn boxplot_line_degenerate() {
        let bp = BoxPlot::from_slice(&[5.0]).unwrap();
        let line = boxplot_line("one", &bp, 0.0, 10.0, 40);
        assert!(line.contains(':') || line.contains('['));
    }

    #[test]
    fn boxplot_line_zero_width_clamped() {
        // Regression: `width == 0` used to index `cells[wl]` on an empty
        // buffer and panic.
        let bp = BoxPlot::from_slice(&[1.0, 2.0, 3.0]).unwrap();
        for width in [0, 1, MIN_BOXPLOT_WIDTH - 1] {
            let line = boxplot_line("tiny", &bp, 0.0, 4.0, width);
            assert_eq!(line.len(), 28 + 1 + MIN_BOXPLOT_WIDTH, "width = {width}");
            assert!(line.contains(':'), "width = {width}");
        }
        // At or above the minimum the request is honored exactly.
        let line = boxplot_line("wide", &bp, 0.0, 4.0, 40);
        assert_eq!(line.len(), 28 + 1 + 40);
    }

    #[test]
    fn violin_renders_rows() {
        let kde = Kde::from_slice(&[1.0, 1.1, 0.9, 5.0]).unwrap();
        let v = violin_text(&kde, 10, 30);
        assert_eq!(v.lines().count(), 10);
        assert!(v.contains('#'));
    }

    #[test]
    fn scatter_bounds() {
        let pts = vec![(0.0, 0.0), (1.0, 1.0), (0.5, 0.25)];
        let s = scatter_text(&pts, 20, 10);
        assert!(s.contains('*'));
        assert!(s.lines().count() == 12);
        assert_eq!(scatter_text(&[], 10, 5), "(no data)\n");
    }

    #[test]
    fn csv_roundtrip_fields() {
        let rec = crate::measure::Record {
            config: MeasurementConfig::new(Processor::Core2Duo, Interface::Pc),
            benchmark: Benchmark::Loop { iters: 10 },
            measured: 140,
            expected: 31,
        };
        let csv = records_to_csv(&[rec]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].split(',').count(), 13);
        assert!(lines[1].contains("CD,pc,ar"));
        assert!(lines[1].ends_with("109"));
    }
}
