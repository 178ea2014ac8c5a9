//! Error-path coverage for the execution engine's contract: the
//! [`CoreError::CounterWentBackwards`] failure introduced at the measure
//! layer must propagate unchanged through [`Grid::run_with`], and at any
//! worker count the error that surfaces is the one with the **lowest
//! index** (cell-enumeration × repetition order) — never whichever
//! worker happened to fail first on the wall clock.
//!
//! The injection goes through the grid's `run_with_measure` seam, so the
//! real plumbing — cell enumeration, per-run seeding, the engine's stop
//! flag, drain, and min-index reduction — is what's under test; only the
//! innermost measurement call is replaced.

use counterlab::benchmark::Benchmark;
use counterlab::config::MeasurementConfig;
use counterlab::exec::RunOptions;
use counterlab::grid::Grid;
use counterlab::interface::{CountingMode, Interface};
use counterlab::measure::run_measurement;
use counterlab::pattern::Pattern;
use counterlab::CoreError;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The synthetic failure: the exact variant the measure layer raises for
/// a backwards counter, tagging the failing index into the `first`
/// reading so the assertions can see *which* failure won.
fn backwards_at(index: usize) -> CoreError {
    CoreError::CounterWentBackwards {
        pattern: "rr",
        first: index as u64,
        second: 0,
    }
}

/// A grid with several hundred runs across interfaces and patterns.
fn test_grid() -> Grid {
    let mut g = Grid::new(Benchmark::Null);
    g.interfaces = vec![Interface::Pm, Interface::Pc, Interface::PLpm];
    g.patterns = vec![Pattern::StartRead, Pattern::ReadRead];
    g.modes = vec![CountingMode::User, CountingMode::UserKernel];
    g.reps = 4;
    g
}

/// Maps a seeded per-run config back to its cell's enumeration index
/// (everything but the seed identifies the cell).
fn cell_index_of(cells: &[MeasurementConfig], cfg: &MeasurementConfig) -> usize {
    cells
        .iter()
        .position(|c| {
            c.processor == cfg.processor
                && c.interface == cfg.interface
                && c.pattern == cfg.pattern
                && c.opt_level == cfg.opt_level
                && c.counters == cfg.counters
                && c.tsc_on == cfg.tsc_on
                && c.mode == cfg.mode
        })
        .expect("config comes from this grid")
}

#[test]
fn backwards_counter_propagates_through_run_with() {
    // Every measurement reports a backwards counter: the grid must
    // surface the variant unchanged (not wrapped, not swallowed) at any
    // worker count.
    let g = test_grid();
    for jobs in [1, 2, 4, 8] {
        let err = g
            .run_with_measure(&RunOptions::with_jobs(jobs), |_, _| {
                Err(backwards_at(0))
            })
            .unwrap_err();
        assert!(
            matches!(err, CoreError::CounterWentBackwards { .. }),
            "jobs = {jobs}: {err}"
        );
    }
}

#[test]
fn lowest_run_index_wins_in_run_with_measure() {
    // Fail every run whose per-cell call order puts it at overall label
    // 23 or later. Labels within a cell are a permutation of that cell's
    // engine indices (reps of one cell may be claimed by racing workers),
    // but the *lowest* failing engine index always lies in the cell that
    // carries label 23, and that cell fails exactly once — with label 23.
    // So the winning error must carry 23 at every worker count.
    let g = test_grid();
    let cells: Vec<MeasurementConfig> = g.cells().collect();
    let reps = g.reps;
    for jobs in [1, 2, 4, 8] {
        let calls_per_cell: Vec<AtomicUsize> =
            (0..cells.len()).map(|_| AtomicUsize::new(0)).collect();
        let err = g
            .run_with_measure(&RunOptions::with_jobs(jobs), |cfg, benchmark| {
                let record = run_measurement(cfg, benchmark)?;
                let ci = cell_index_of(&cells, cfg);
                let call = calls_per_cell[ci].fetch_add(1, Ordering::Relaxed);
                let label = ci * reps + call;
                if label >= 23 {
                    return Err(backwards_at(label));
                }
                Ok(record)
            })
            .unwrap_err();
        match err {
            CoreError::CounterWentBackwards { first, .. } => {
                assert_eq!(first, 23, "jobs = {jobs}: wrong failure won");
            }
            other => panic!("jobs = {jobs}: unexpected error {other}"),
        }
    }
}

#[test]
fn cell_aborts_on_first_failing_rep() {
    // Within one cell, rep 2's failure must prevent reps 3 and 4 from
    // running (the cell is one work item; its loop stops at the error).
    let mut g = Grid::new(Benchmark::Null);
    g.reps = 5;
    let calls = AtomicUsize::new(0);
    let err = g
        .run_with_measure(&RunOptions::sequential(), |cfg, benchmark| {
            let n = calls.fetch_add(1, Ordering::Relaxed);
            if n == 2 {
                return Err(backwards_at(n));
            }
            run_measurement(cfg, benchmark)
        })
        .unwrap_err();
    assert!(matches!(err, CoreError::CounterWentBackwards { .. }));
    assert_eq!(
        calls.load(Ordering::Relaxed),
        3,
        "reps after the failure must not run"
    );
}

#[test]
fn run_csv_empty_grid_emits_header_only() {
    // A grid whose only cells are skipped (PHpm cannot read-read) is
    // empty: the streaming CSV writer must emit the header and nothing
    // else, not error out.
    let mut g = Grid::new(Benchmark::Null);
    g.interfaces = vec![Interface::PHpm];
    g.patterns = vec![Pattern::ReadRead];
    let mut lines = 0usize;
    let written = g
        .run_csv(&RunOptions::sequential(), |_| lines += 1)
        .unwrap();
    assert_eq!(written, 0);
    assert_eq!(lines, 1, "header only for an empty grid");
}
