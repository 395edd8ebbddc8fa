//! The tier-1 contract over the real tree: the workspace lints clean,
//! the committed metric registry is byte-identical to what
//! `--emit-schema` regenerates, and the metric-schema rule catches a
//! seeded cross-crate rename (the drift scenario the rule exists for)
//! via an in-memory overlay — no files are touched.

use std::path::PathBuf;

use eval_lint::{analyze, facts, load_registry, RegistryState, Rule, Workspace};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn the_workspace_lints_clean() {
    let findings = eval_lint::lint_workspace(&root()).expect("workspace loads");
    assert!(
        findings.is_empty(),
        "the tree must lint clean:\n{}",
        eval_lint::report::render_text(&findings)
    );
}

#[test]
fn the_committed_registry_is_byte_stable() {
    let root = root();
    let committed = std::fs::read_to_string(root.join(facts::REGISTRY_PATH))
        .expect("results/metric_schema.json is committed");
    let ws = Workspace::load(&root).expect("workspace loads");
    let regenerated = eval_lint::emit_schema(&ws).to_json();
    assert_eq!(
        committed, regenerated,
        "registry drifted: run `eval-lint --emit-schema {}` and commit",
        facts::REGISTRY_PATH
    );
    // And the registry must round-trip through the parser.
    let parsed = eval_lint::MetricSchema::parse(&committed).expect("registry parses");
    assert_eq!(parsed.to_json(), committed);
    assert!(parsed.metrics.len() >= 25, "{}", parsed.metrics.len());
}

#[test]
fn a_seeded_metric_rename_is_caught_on_both_sides() {
    let root = root();
    let mut ws = Workspace::load(&root).expect("workspace loads");
    let registry = load_registry(&root);
    assert!(matches!(registry, RegistryState::Loaded(_)));
    assert!(analyze(&ws, &registry).is_empty(), "baseline must be clean");

    // Seed the drift: the one emitter renames campaign.chips_resumed.
    let campaign = "crates/adapt/src/campaign.rs";
    let original = ws
        .files
        .iter()
        .find(|f| f.rel == campaign)
        .expect("campaign.rs is in scope")
        .source
        .clone();
    let renamed = original.replace(
        "names::CAMPAIGN_CHIPS_RESUMED",
        "\"campaign.resumed_chips\"",
    );
    assert_ne!(original, renamed, "the emit site moved; update this test");
    ws.overlay(campaign, &renamed);

    let findings = analyze(&ws, &registry);
    let ms: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::MetricSchema)
        .collect();
    assert!(!ms.is_empty(), "the rename must not pass the lint gate");
    // The orphaned consumer: eval-obs still reads the old name.
    assert!(
        ms.iter().any(|f| f.path == "crates/obs/src/analyze.rs"
            && f.message.contains("\"campaign.chips_resumed\"")
            && f.message.contains("emitted nowhere")),
        "{findings:?}"
    );
    // The unregistered emitter: the new name is known to nobody.
    assert!(
        ms.iter().any(|f| f.path == campaign
            && f.message.contains("\"campaign.resumed_chips\"")
            && f.message.contains("not listed in")),
        "{findings:?}"
    );
    // The raw literal itself is also flagged.
    assert!(
        ms.iter()
            .any(|f| f.path == campaign && f.message.contains("raw string literal")),
        "{findings:?}"
    );
}

#[test]
fn every_live_rule_family_reports_a_code() {
    // Finding IDs embed the family code; codes are unique and stable.
    let mut codes: Vec<&str> = Rule::ALL.iter().map(|r| r.code()).collect();
    codes.sort_unstable();
    codes.dedup();
    assert_eq!(codes.len(), Rule::ALL.len());
    assert_eq!(Rule::ALL[0].code(), "EVL001");
    assert_eq!(Rule::ALL[10].code(), "EVL011");
}
