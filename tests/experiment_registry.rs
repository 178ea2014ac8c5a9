//! Registry conformance: every experiment in
//! [`counterlab::experiment::registry`] honors the API contract the CLI
//! is built on — stable unique ids and artifact names, ablations with
//! unique owners — and actually runs at smoke scale through a memory
//! sink, deterministically.

use counterlab::exec::RunOptions;
use counterlab::experiment::{
    ablation_owner, registry, ArtifactKind, ExperimentCtx, MemorySink, Scale,
};

/// The documented command list, in `repro all` emission order. A new
/// experiment must be added here deliberately (and to the README) —
/// accidental registry edits fail this test.
const DOCUMENTED_IDS: [&str; 19] = [
    "table1",
    "table2",
    "fig3",
    "fig1",
    "fig4",
    "fig5",
    "table3",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "anova",
    "ext-cache",
    "ext-multiplex",
    "workload-accuracy",
    "csv",
];

fn smoke_ctx() -> ExperimentCtx<'static> {
    ExperimentCtx::new(Scale::quick()).with_opts(RunOptions::with_jobs(2))
}

#[test]
fn ids_match_documented_command_list() {
    let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
    assert_eq!(ids, DOCUMENTED_IDS);
}

#[test]
fn ids_and_titles_are_well_formed() {
    for exp in registry() {
        let id = exp.id();
        assert!(!id.is_empty() && id.len() <= 20, "{id:?}");
        assert!(
            id.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
            "{id:?} is not a stable lowercase command id"
        );
        assert!(!id.starts_with("--"), "{id:?} collides with flag syntax");
        assert!(!exp.title().is_empty(), "{id}: empty title");
    }
}

#[test]
fn ablation_flags_have_unique_owners() {
    for exp in registry() {
        for a in exp.ablations() {
            assert!(a.flag.starts_with("--"), "{}: {:?}", exp.id(), a.flag);
            assert!(!a.effect.is_empty(), "{}: {} lacks a description", exp.id(), a.flag);
            let owner = ablation_owner(a.flag).expect("flag resolves");
            assert_eq!(
                owner.id(),
                exp.id(),
                "{} is declared by more than one experiment",
                a.flag
            );
        }
    }
}

/// Every experiment runs at smoke scale through a [`MemorySink`];
/// artifact names are unique across the whole registry and stable
/// across runs.
#[test]
fn every_experiment_runs_at_smoke_scale_in_claimed_modes() {
    let mut seen_names: Vec<&'static str> = Vec::new();
    for exp in registry() {
        let id = exp.id();

        let mut first = MemorySink::new();
        let emitted = exp
            .run(&smoke_ctx())
            .unwrap_or_else(|e| panic!("{id} failed smoke run: {e}"))
            .emit(&mut first)
            .unwrap_or_else(|e| panic!("{id} failed to emit: {e}"));
        assert!(!emitted.is_empty(), "{id}: empty report");
        for artifact in &first.artifacts {
            assert!(
                !seen_names.contains(&artifact.name),
                "{id}: artifact {} also produced by another experiment",
                artifact.name
            );
            seen_names.push(artifact.name);
            assert!(!artifact.content.is_empty(), "{id}: empty {}", artifact.name);
            match artifact.kind {
                ArtifactKind::Text => assert!(artifact.rows.is_none()),
                ArtifactKind::Rows => {
                    assert!(artifact.rows.is_some(), "{id}: rows artifact without count");
                }
            }
        }

        // A second run is byte-identical (fixed seeds).
        let mut again = MemorySink::new();
        exp.run(&smoke_ctx()).unwrap().emit(&mut again).unwrap();
        assert_eq!(
            again.artifacts, first.artifacts,
            "{id}: run not deterministic"
        );
    }
}

/// Experiments declaring an ablation produce different output when the
/// flag is enabled — an ablation that changes nothing is a wiring bug
/// of exactly the kind the old CLI had.
#[test]
fn declared_ablations_change_output() {
    for exp in registry() {
        for a in exp.ablations() {
            let mut plain = MemorySink::new();
            exp.run(&smoke_ctx()).unwrap().emit(&mut plain).unwrap();
            let mut ablated = MemorySink::new();
            exp.run(&smoke_ctx().with_ablation(a.flag))
                .unwrap()
                .emit(&mut ablated)
                .unwrap();
            assert_ne!(
                plain.artifacts,
                ablated.artifacts,
                "{}: {} changed nothing",
                exp.id(),
                a.flag
            );
        }
    }
}
