//! Golden-file regression for every rendered report: each text artifact
//! of each registered experiment, run at [`Scale::quick`], is pinned
//! byte-for-byte under `tests/golden/reports/`, at one and four workers
//! and with every declared ablation enabled in turn. A refactor of a
//! figure's statistics path that moves a single printed digit fails here.
//!
//! File names: `<artifact>` for a plain run, `<flag>.<artifact>` (flag
//! without its leading dashes) for an ablated one.
//!
//! Regenerate deliberately (after an *intentional* change to a figure)
//! with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_reports
//! ```
//!
//! and review the diff like any other source change.

use std::path::PathBuf;

use counterlab::exec::RunOptions;
use counterlab::experiment::{
    registry, ArtifactKind, Experiment, ExperimentCtx, MemorySink, Scale,
};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/reports")
}

/// The text artifacts of one run, as `(golden file name, content)`.
fn text_artifacts(
    exp: &dyn Experiment,
    jobs: usize,
    ablation: Option<&'static str>,
) -> Vec<(String, String)> {
    let mut ctx = ExperimentCtx::new(Scale::quick()).with_opts(RunOptions::with_jobs(jobs));
    if let Some(flag) = ablation {
        ctx = ctx.with_ablation(flag);
    }
    let mut sink = MemorySink::new();
    exp.run(&ctx)
        .unwrap_or_else(|e| panic!("{} failed: {e}", exp.id()))
        .emit(&mut sink)
        .unwrap_or_else(|e| panic!("{} failed to emit: {e}", exp.id()));
    let prefix = ablation.map_or(String::new(), |flag| {
        format!("{}.", flag.trim_start_matches('-'))
    });
    sink.artifacts
        .into_iter()
        .filter(|a| a.kind == ArtifactKind::Text)
        .map(|a| (format!("{prefix}{}", a.name), a.content))
        .collect()
}

#[test]
fn every_text_report_matches_its_golden_at_1_and_4_jobs() {
    let regen = std::env::var_os("GOLDEN_REGEN").is_some();
    let dir = golden_dir();
    let mut pinned = 0usize;
    for &exp in registry() {
        let runs = std::iter::once(None).chain(exp.ablations().iter().map(|a| Some(a.flag)));
        for ablation in runs {
            let jobs1 = text_artifacts(exp, 1, ablation);
            let jobs4 = text_artifacts(exp, 4, ablation);
            assert_eq!(
                jobs1,
                jobs4,
                "{} {ablation:?}: --jobs 4 diverged from --jobs 1",
                exp.id()
            );
            for (name, content) in jobs1 {
                let path = dir.join(&name);
                if regen {
                    std::fs::create_dir_all(&dir).expect("create golden dir");
                    std::fs::write(&path, &content).expect("write golden file");
                } else {
                    let golden = std::fs::read_to_string(&path)
                        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                    assert_eq!(
                        content,
                        golden,
                        "{} drifted from {}; if the change is intentional, \
                         regenerate with GOLDEN_REGEN=1 and review the diff",
                        name,
                        path.display()
                    );
                }
                pinned += 1;
            }
        }
    }
    if regen {
        eprintln!(
            "regenerated {pinned} files under {}; review the diff",
            dir.display()
        );
    }
    // Every golden file on disk is still produced by some run: a renamed
    // or retired artifact must take its golden with it.
    let on_disk = std::fs::read_dir(&dir).expect("golden dir").count();
    assert_eq!(on_disk, pinned, "stale files under {}", dir.display());
}
