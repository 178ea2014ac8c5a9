//! The arithmetic of the counterlab benchmark, kept apart from the
//! workloads so its own tests (`tests/arith.rs`) can pin it: percentiles
//! with their sample rule, span self time, the correctness checkers and
//! the result-line JSON.

pub mod check;
pub mod out;
pub mod stats;
pub mod trace;
