//! Fixture tests for the three cross-file rule families, each over a
//! small synthetic workspace built with [`Workspace::from_sources`].

use eval_lint::{analyze, MetricSchema, RegistryState, Rule, Workspace};

const NAMES_PATH: &str = "crates/trace/src/names.rs";

fn findings(ws: &Workspace, registry: &RegistryState) -> Vec<eval_lint::Finding> {
    analyze(ws, registry)
}

fn of_rule(fs: &[eval_lint::Finding], rule: Rule) -> Vec<&eval_lint::Finding> {
    fs.iter().filter(|f| f.rule == rule).collect()
}

// ---------------------------------------------------------------- metric-schema

#[test]
fn raw_metric_literal_is_flagged_with_the_declared_constant() {
    let ws = Workspace::from_sources([
        (NAMES_PATH, "pub const CACHE_HIT: &str = \"cache.hit\";\n"),
        (
            "crates/adapt/src/emit.rs",
            "pub fn f(t: &T) { t.count(\"cache.hit\"); }\n",
        ),
        (
            "crates/obs/src/consume.rs",
            "pub fn g(r: &R) -> u64 { r.counter(CACHE_HIT) }\n",
        ),
    ]);
    let fs = findings(&ws, &RegistryState::Ignore);
    let ms = of_rule(&fs, Rule::MetricSchema);
    assert_eq!(ms.len(), 1, "{fs:?}");
    assert_eq!(ms[0].path, "crates/adapt/src/emit.rs");
    assert!(ms[0].message.contains("names::CACHE_HIT"), "{}", ms[0].message);
    assert!(ms[0].col.is_some());
}

#[test]
fn orphaned_consumer_is_flagged_at_the_consume_site() {
    let ws = Workspace::from_sources([
        (
            NAMES_PATH,
            "pub const CACHE_HIT: &str = \"cache.hit\";\npub const CACHE_MISS: &str = \"cache.miss\";\n",
        ),
        (
            "crates/adapt/src/emit.rs",
            "pub fn f(t: &T) { t.count(CACHE_HIT); }\n",
        ),
        (
            "crates/obs/src/consume.rs",
            "pub fn g(r: &R) -> u64 { r.counter(CACHE_HIT) + r.counter(CACHE_MISS) }\n",
        ),
    ]);
    let fs = findings(&ws, &RegistryState::Ignore);
    let ms = of_rule(&fs, Rule::MetricSchema);
    assert_eq!(ms.len(), 1, "{fs:?}");
    assert_eq!(ms[0].path, "crates/obs/src/consume.rs");
    assert!(
        ms[0].message.contains("\"cache.miss\"") && ms[0].message.contains("emitted nowhere"),
        "{}",
        ms[0].message
    );
}

#[test]
fn unregistered_emitter_is_flagged_against_the_loaded_registry() {
    let registry = MetricSchema::parse(
        "{\n  \"metrics\": [\n    {\"name\":\"cache.hit\",\"const\":\"CACHE_HIT\",\"emitted\":true,\"consumed\":false}\n  ]\n}\n",
    )
    .expect("registry parses");
    let ws = Workspace::from_sources([
        (
            NAMES_PATH,
            "pub const CACHE_HIT: &str = \"cache.hit\";\npub const CACHE_MISS: &str = \"cache.miss\";\n",
        ),
        (
            "crates/adapt/src/emit.rs",
            "pub fn f(t: &T) { t.count(CACHE_HIT); t.count(CACHE_MISS); }\n",
        ),
    ]);
    let fs = findings(&ws, &RegistryState::Loaded(registry));
    let ms = of_rule(&fs, Rule::MetricSchema);
    // cache.hit is registered (export); cache.miss is not.
    assert_eq!(ms.len(), 1, "{fs:?}");
    assert!(
        ms[0].message.contains("\"cache.miss\"")
            && ms[0].message.contains("not listed in results/metric_schema.json"),
        "{}",
        ms[0].message
    );
}

#[test]
fn missing_registry_is_a_single_finding() {
    let ws = Workspace::from_sources([(
        "crates/adapt/src/emit.rs",
        "pub fn f(x: u64) -> u64 { x }\n",
    )]);
    let fs = findings(&ws, &RegistryState::Missing);
    let ms = of_rule(&fs, Rule::MetricSchema);
    assert_eq!(ms.len(), 1, "{fs:?}");
    assert_eq!(ms[0].path, "results/metric_schema.json");
    assert!(ms[0].message.contains("--emit-schema"), "{}", ms[0].message);
}

#[test]
fn stale_registry_entry_is_flagged() {
    let registry = MetricSchema::parse(
        "{\n  \"metrics\": [\n    {\"name\":\"ghost.metric\",\"const\":null,\"emitted\":true,\"consumed\":false}\n  ]\n}\n",
    )
    .expect("registry parses");
    let ws = Workspace::from_sources([(
        "crates/adapt/src/emit.rs",
        "pub fn f(x: u64) -> u64 { x }\n",
    )]);
    let fs = findings(&ws, &RegistryState::Loaded(registry));
    let ms = of_rule(&fs, Rule::MetricSchema);
    assert_eq!(ms.len(), 1, "{fs:?}");
    assert!(
        ms[0].message.contains("\"ghost.metric\"") && ms[0].message.contains("no longer"),
        "{}",
        ms[0].message
    );
}

#[test]
fn orphaned_prefix_unused_const_and_duplicate_are_flagged() {
    let ws = Workspace::from_sources([
        (
            NAMES_PATH,
            "pub const LAT_PREFIX: &str = \"lat.\";\npub const DEAD_NAME: &str = \"dead.metric\";\npub const ALSO_DEAD: &str = \"dead.metric\";\n",
        ),
        (
            "crates/obs/src/consume.rs",
            "pub fn g(r: &R) -> u64 { r.scan(LAT_PREFIX) }\n",
        ),
    ]);
    let fs = findings(&ws, &RegistryState::Ignore);
    let ms = of_rule(&fs, Rule::MetricSchema);
    let msgs: Vec<&str> = ms.iter().map(|f| f.message.as_str()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("prefix \"lat.\"")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("`DEAD_NAME`") && m.contains("referenced nowhere")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("declared by multiple constants")),
        "{msgs:?}"
    );
}

#[test]
fn metric_names_in_test_regions_and_test_trees_are_ignored() {
    let ws = Workspace::from_sources([
        (
            "crates/adapt/src/emit.rs",
            "#[cfg(test)]\nmod tests {\n    fn f(t: &T) { t.count(\"only.in_test\"); }\n}\n",
        ),
        (
            "crates/obs/tests/golden.rs",
            "fn g(r: &R) -> u64 { r.counter(\"only.in_integration_test\") }\n",
        ),
    ]);
    let fs = findings(&ws, &RegistryState::Ignore);
    assert!(of_rule(&fs, Rule::MetricSchema).is_empty(), "{fs:?}");
}

// ------------------------------------------------------ hot-path-reachability

#[test]
fn hot_path_call_to_allocating_same_crate_helper_is_flagged() {
    let ws = Workspace::from_sources([
        (
            "crates/adapt/src/hot.rs",
            "// lint:hot-path\npub fn check(x: u64) -> u64 { helper(x) }\n",
        ),
        (
            "crates/adapt/src/helper.rs",
            "pub fn helper(x: u64) -> u64 {\n    let v: Vec<u64> = Vec::new();\n    v.len() as u64 + x\n}\n",
        ),
    ]);
    let fs = findings(&ws, &RegistryState::Ignore);
    let hp = of_rule(&fs, Rule::HotPathReachability);
    assert_eq!(hp.len(), 1, "{fs:?}");
    assert_eq!(hp[0].path, "crates/adapt/src/hot.rs");
    assert!(
        hp[0].message.contains("`helper(..)`")
            && hp[0].message.contains("crates/adapt/src/helper.rs:1"),
        "{}",
        hp[0].message
    );
}

#[test]
fn hot_path_cross_crate_eval_path_is_resolved() {
    let ws = Workspace::from_sources([
        (
            "crates/adapt/src/hot.rs",
            "// lint:hot-path\npub fn check(x: u64) -> u64 { eval_power::solve_all(x) }\n",
        ),
        (
            "crates/power/src/big.rs",
            "pub fn solve_all(x: u64) -> u64 { (0..x).collect::<Vec<_>>().len() as u64 }\n",
        ),
    ]);
    let fs = findings(&ws, &RegistryState::Ignore);
    let hp = of_rule(&fs, Rule::HotPathReachability);
    assert_eq!(hp.len(), 1, "{fs:?}");
    assert!(hp[0].message.contains("solve_all"), "{}", hp[0].message);
}

#[test]
fn hot_path_turbofish_call_to_allocating_helper_is_flagged() {
    let ws = Workspace::from_sources([
        (
            "crates/fuzzy/src/kernel.rs",
            "// lint:hot-path\npub fn check(s: &str) -> usize {\n    let row = parse_row::<f64>(s, 1);\n    row.len()\n}\n",
        ),
        (
            "crates/fuzzy/src/rows.rs",
            "pub fn parse_row<T: std::str::FromStr>(s: &str, n: usize) -> Vec<T> {\n    let mut v = Vec::with_capacity(n);\n    v.extend(s.parse::<T>().ok());\n    v\n}\n",
        ),
    ]);
    let fs = findings(&ws, &RegistryState::Ignore);
    let hp = of_rule(&fs, Rule::HotPathReachability);
    assert_eq!(hp.len(), 1, "{fs:?}");
    assert_eq!(
        (hp[0].path.as_str(), hp[0].line),
        ("crates/fuzzy/src/kernel.rs", 3)
    );
    assert!(
        hp[0].message.contains("`parse_row(..)`"),
        "{}",
        hp[0].message
    );
}

#[test]
fn allocation_free_and_type_qualified_calls_stay_quiet() {
    let ws = Workspace::from_sources([
        (
            "crates/adapt/src/hot.rs",
            "// lint:hot-path\npub fn check(x: u64) -> u64 { clean(x) + Thing::make(x) }\n",
        ),
        (
            "crates/adapt/src/helper.rs",
            "pub fn clean(x: u64) -> u64 { x + 1 }\npub fn make(x: u64) -> u64 {\n    let v: Vec<u64> = Vec::new();\n    v.len() as u64 + x\n}\n",
        ),
    ]);
    let fs = findings(&ws, &RegistryState::Ignore);
    // `clean` does not allocate; `Thing::make` is type-qualified and
    // skipped even though a same-crate `make` allocates.
    assert!(of_rule(&fs, Rule::HotPathReachability).is_empty(), "{fs:?}");
}

#[test]
fn hot_path_reachability_findings_can_be_suppressed() {
    let ws = Workspace::from_sources([
        (
            "crates/adapt/src/hot.rs",
            "// lint:hot-path\n// lint:allow(hot-path-reachability): amortized, called once per chip\npub fn check(x: u64) -> u64 { helper(x) }\n",
        ),
        (
            "crates/adapt/src/helper.rs",
            "pub fn helper(x: u64) -> u64 {\n    let v: Vec<u64> = Vec::new();\n    v.len() as u64 + x\n}\n",
        ),
    ]);
    let fs = findings(&ws, &RegistryState::Ignore);
    assert!(of_rule(&fs, Rule::HotPathReachability).is_empty(), "{fs:?}");
    // ... and the marker counts as used, so no dead-suppression either.
    assert!(of_rule(&fs, Rule::DeadSuppression).is_empty(), "{fs:?}");
}

// ----------------------------------------------------------- dead-suppression

#[test]
fn unused_allow_marker_is_flagged() {
    let ws = Workspace::from_sources([(
        "crates/adapt/src/clean.rs",
        "// lint:allow(determinism): historical, the HashMap is long gone\npub fn f(x: u64) -> u64 { x }\n",
    )]);
    let fs = findings(&ws, &RegistryState::Ignore);
    let ds = of_rule(&fs, Rule::DeadSuppression);
    assert_eq!(ds.len(), 1, "{fs:?}");
    assert_eq!(ds[0].line, 1);
    assert!(
        ds[0].message.contains("suppresses no finding"),
        "{}",
        ds[0].message
    );
}

#[test]
fn used_allow_marker_is_not_flagged() {
    let ws = Workspace::from_sources([(
        "crates/adapt/src/map.rs",
        "// lint:allow(determinism): interned keys, order never observed\nuse std::collections::HashMap;\n// lint:allow(determinism): interned keys, order never observed\npub fn f() -> HashMap<u64, u64> { HashMap::new() }\n",
    )]);
    let fs = findings(&ws, &RegistryState::Ignore);
    assert!(of_rule(&fs, Rule::Determinism).is_empty(), "{fs:?}");
    assert!(of_rule(&fs, Rule::DeadSuppression).is_empty(), "{fs:?}");
}

#[test]
fn unknown_rule_and_self_suppression_are_flagged() {
    let ws = Workspace::from_sources([(
        "crates/adapt/src/typo.rs",
        "// lint:allow(determinsim): typo never suppresses\n// lint:allow(dead-suppression): nice try\npub fn f(x: u64) -> u64 { x }\n",
    )]);
    let fs = findings(&ws, &RegistryState::Ignore);
    let ds = of_rule(&fs, Rule::DeadSuppression);
    assert_eq!(ds.len(), 2, "{fs:?}");
    assert!(
        ds[0].message.contains("no known rule family"),
        "{}",
        ds[0].message
    );
    assert!(
        ds[1].message.contains("cannot be suppressed"),
        "{}",
        ds[1].message
    );
}

// ------------------------------------------------------------------ reporting

#[test]
fn json_report_carries_stable_ids_and_spans() {
    let ws = Workspace::from_sources([(
        "crates/adapt/src/emit.rs",
        "pub fn f(t: &T) { t.count(\"stray.metric\"); }\n",
    )]);
    let fs = findings(&ws, &RegistryState::Ignore);
    assert_eq!(fs.len(), 1);
    let json = eval_lint::report::render_json(&fs);
    assert!(json.contains("\"code\":\"EVL009\""), "{json}");
    assert!(json.contains("\"rule\":\"metric-schema\""), "{json}");
    assert!(json.contains(&format!("\"id\":\"{}\"", fs[0].id())), "{json}");
    // The span points at the string literal's column (1-based).
    assert!(json.contains("\"line\":1"), "{json}");
    assert!(json.contains("\"col\":27"), "{json}");
}
