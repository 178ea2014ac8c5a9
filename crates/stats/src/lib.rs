//! # counterlab-stats
//!
//! Statistics substrate for the `counterlab` workspace: everything the paper
//! *“Accuracy of Performance Counter Measurements”* (Zaparanuks, Jovic,
//! Hauswirth; ISPASS 2009) needs to summarize and analyze its measurement
//! data, implemented from scratch with no external dependencies.
//!
//! The paper uses:
//!
//! * **box plots** (five-number summaries with Tukey whiskers and outliers) —
//!   [`boxplot::BoxPlot`];
//! * **violin plots** (box plot + kernel density estimate) — [`kde::Kde`]
//!   and [`violin::Violin`];
//! * **medians / quartiles / minima** for tables like Table 3 —
//!   [`quantile`] and [`descriptive`];
//! * **ordinary-least-squares regression lines** through `(loop size, error)`
//!   points for Figures 7–9 — [`regression::LinearFit`];
//! * **n-way analysis of variance** (§4.3) to decide which experimental
//!   factors significantly affect the error — [`anova::Anova`], built on the
//!   F distribution in [`dist`] and the special functions in [`special`].
//!
//! # Examples
//!
//! ```
//! use counterlab_stats::prelude::*;
//!
//! let xs = [1.0, 2.0, 3.0, 4.0, 100.0];
//! let bp = BoxPlot::from_slice(&xs).unwrap();
//! assert_eq!(bp.median(), 3.0);
//! assert_eq!(bp.outliers(), &[100.0]);
//!
//! let fit = LinearFit::fit(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]).unwrap();
//! assert!((fit.slope() - 2.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anova;
pub mod bootstrap;
pub mod boxplot;
pub mod descriptive;
pub mod dist;
pub mod kde;
pub mod quantile;
pub mod regression;
pub mod special;
pub mod stream;
pub mod violin;

mod error;

pub use error::StatsError;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::anova::{Anova, AnovaTable, Factor};
    pub use crate::bootstrap::{bootstrap_ci, median_ci, ConfidenceInterval};
    pub use crate::boxplot::BoxPlot;
    pub use crate::descriptive::Summary;
    pub use crate::dist::{FDistribution, NormalDistribution};
    pub use crate::kde::Kde;
    pub use crate::quantile::{median, quantile};
    pub use crate::regression::LinearFit;
    pub use crate::stream::{P2Quantile, SummaryAccumulator, Welford};
    pub use crate::violin::Violin;
    pub use crate::StatsError;
}

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, StatsError>;
