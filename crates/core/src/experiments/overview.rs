//! Figure 1: violin plots of the measurement error over *all*
//! configurations — “over 170000 measurements” in the paper, scaled here
//! by a repetition parameter.

use counterlab_stats::prelude::*;

use crate::exec::RunOptions;
use crate::experiment::{Experiment, ExperimentCtx, Report};
use crate::grid::{Grid, RecordSet};
use crate::interface::CountingMode;
use crate::report;
use crate::{CoreError, Result};

/// Registry driver for Figure 1.
pub struct Fig1;

impl Experiment for Fig1 {
    fn id(&self) -> &'static str {
        "fig1"
    }

    fn title(&self) -> &'static str {
        "Figure 1: violin plots of all-configuration error"
    }

    fn run(&self, ctx: &ExperimentCtx<'_>) -> Result<Report> {
        let overview = run_with(ctx.scale.grid_reps, &ctx.opts)?;
        Ok(Report::text("fig1.txt", overview.render()))
    }
}

/// The Figure 1 data: error distributions for user and user+kernel modes.
#[derive(Debug, Clone)]
pub struct Overview {
    /// Number of measurements behind the figure.
    pub measurements: usize,
    /// User-mode error summary.
    pub user: Violin,
    /// User-mode descriptive summary.
    pub user_summary: Summary,
    /// User+kernel error summary.
    pub user_kernel: Violin,
    /// User+kernel descriptive summary.
    pub user_kernel_summary: Summary,
}

/// Runs the full null-benchmark grid with `reps` repetitions per cell and
/// summarizes the error distributions of Figure 1.
///
/// # Errors
///
/// Propagates grid failures and summary-statistics errors.
pub fn run_with(reps: usize, opts: &RunOptions<'_>) -> Result<Overview> {
    let grid = Grid::full_null(reps.max(1));
    let records = grid.run_with(opts)?;
    let user: Vec<f64> = records
        .filtered(|r| r.config.mode == CountingMode::User)
        .errors();
    let user_kernel: Vec<f64> = records
        .filtered(|r| r.config.mode == CountingMode::UserKernel)
        .errors();
    if user.is_empty() || user_kernel.is_empty() {
        return Err(CoreError::NoData("fig1 overview"));
    }
    Ok(Overview {
        measurements: records.len(),
        user: Violin::from_slice(&user)?,
        user_summary: Summary::from_slice(&user)?,
        user_kernel: Violin::from_slice(&user_kernel)?,
        user_kernel_summary: Summary::from_slice(&user_kernel)?,
    })
}

/// The min/quartile/max table of the figure.
fn summary_table(user: &Summary, user_kernel: &Summary) -> String {
    let srow = |name: &str, s: &Summary| -> Vec<String> {
        vec![
            name.to_string(),
            format!("{:.0}", s.min()),
            format!("{:.0}", s.q1()),
            format!("{:.0}", s.median()),
            format!("{:.0}", s.q3()),
            format!("{:.0}", s.max()),
            format!("{:.0}", s.iqr()),
        ]
    };
    report::table(
        &["mode", "min", "q1", "median", "q3", "max", "IQR"],
        &[srow("user", user), srow("user+OS", user_kernel)],
    )
}

impl Overview {
    /// Renders the figure as text (stats table plus violin silhouettes).
    pub fn render(&self) -> String {
        let mut out = format!(
            "Figure 1: Measurement Error in Instructions ({} measurements)\n\n",
            self.measurements
        );
        out.push_str(&summary_table(
            &self.user_summary,
            &self.user_kernel_summary,
        ));
        out.push_str("\nUser mode error density:\n");
        out.push_str(&report::violin_text(self.user.kde(), 18, 50));
        out.push_str("\nUser+OS mode error density:\n");
        out.push_str(&report::violin_text(self.user_kernel.kde(), 18, 50));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overview_shapes_match_paper() {
        let o = run_with(2, &RunOptions::default()).unwrap();
        // Thousands of measurements even at reps=2.
        assert!(o.measurements > 2_000);
        // User+kernel errors dwarf user errors (Figure 1's two x scales:
        // 2500 vs 20000).
        assert!(o.user_kernel_summary.median() > 2.0 * o.user_summary.median());
        // Minimum error close to zero but positive.
        assert!(o.user_summary.min() > 0.0);
        assert!(o.user_summary.min() < 100.0);
        // Some configurations exceed 1000 user instructions... (paper: "a
        // significant number of configurations can lead to errors of 2500
        // user-mode instructions or more" — ours reach the PAPI+slow-read
        // combinations).
        assert!(o.user_summary.max() > 300.0);
        // ... and user+kernel reaches thousands.
        assert!(o.user_kernel_summary.max() > 1_500.0);
    }

    #[test]
    fn render_contains_sections() {
        let o = run_with(1, &RunOptions::default()).unwrap();
        let text = o.render();
        assert!(text.contains("Figure 1"));
        assert!(text.contains("user+OS"));
        assert!(text.contains("IQR"));
        assert!(text.contains('#'));
    }
}
