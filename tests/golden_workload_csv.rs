//! Golden-file regression for the `workload-accuracy` experiment: the
//! raw-record CSV behind the workload-class figure is pinned
//! byte-for-byte under `tests/golden/`, across worker counts — the
//! acceptance bar for the zoo sweep is bit-identity,
//! not statistical agreement.
//!
//! Regenerate deliberately (after an *intentional* format/semantics
//! change) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_workload_csv
//! ```
//!
//! and review the diff like any other source change.

use counterlab::exec::RunOptions;
use counterlab::experiment::{ExperimentCtx, MemorySink, Scale};
use counterlab::experiments::workload::{self, WorkloadAccuracy};
use counterlab::prelude::*;
use counterlab::report;

const GOLDEN_PATH: &str = "tests/golden/workload_accuracy.csv";
const GOLDEN: &str = include_str!("golden/workload_accuracy.csv");

/// Runs the registered experiment at quick scale and returns the CSV
/// artifact's bytes.
fn csv_at(jobs: usize) -> String {
    let ctx = ExperimentCtx::new(Scale::quick()).with_opts(RunOptions::with_jobs(jobs));
    let mut sink = MemorySink::new();
    WorkloadAccuracy
        .run(&ctx)
        .expect("workload-accuracy runs")
        .emit(&mut sink)
        .expect("emits");
    sink.get(workload::CSV_ARTIFACT)
        .expect("csv artifact present")
        .content
        .clone()
}

#[test]
fn golden_workload_csv_pinned_across_engines_and_jobs() {
    let baseline = csv_at(1);
    assert_eq!(baseline, csv_at(4), "--jobs 4 diverged from --jobs 1");

    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(GOLDEN_PATH, &baseline).expect("write golden file");
        eprintln!("regenerated {GOLDEN_PATH}; review the diff");
        return;
    }
    assert_eq!(
        baseline, GOLDEN,
        "workload-accuracy CSV drifted from {GOLDEN_PATH}; if the change \
         is intentional, regenerate with GOLDEN_REGEN=1 and review the diff"
    );
}

#[test]
fn golden_file_shape_sanity() {
    let lines: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(lines[0], report::CSV_HEADER.trim_end());
    // Quick scale floors at MIN_REPS replicates of every zoo cell.
    let expected_records = workload::cells().len() * WorkloadAccuracy::MIN_REPS;
    assert_eq!(lines.len(), 1 + expected_records);
    let columns = report::CSV_HEADER.trim_end().split(',').count();
    for line in &lines[1..] {
        assert_eq!(line.split(',').count(), columns, "{line}");
    }
    // Every zoo workload and every swept event appears in the pin.
    for bench in Benchmark::zoo(1) {
        assert!(
            GOLDEN.contains(bench.name()),
            "{} missing from golden CSV",
            bench.name()
        );
    }
}
