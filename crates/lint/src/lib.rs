//! # eval-lint
//!
//! A std-only, two-phase static-analysis engine over the EVAL
//! workspace (its JSON comes from the std-only `eval-trace`).
//!
//! **Phase 1** ([`lexer`], [`facts`]) tokenizes each in-scope file
//! once — producing the stripped line view the shape rules match
//! against plus a token stream with spans — and reduces it to facts:
//! metric-name literals and `eval_trace::names` constant references,
//! `fn` definitions with an allocates-bit, call sites in
//! `lint:hot-path` modules, and `lint:allow` suppression markers.
//!
//! **Phase 2** ([`rules`]) runs two kinds of rule families:
//!
//! * the nine *per-file* families — eight carried over from the
//!   original single-file linter (unit-safety, determinism,
//!   panic-safety, config-invariants, no-println, no-alloc-in-check,
//!   sink-forward, atomic-artifacts) plus
//!   wall-clock-in-deterministic-path — matching shapes on one file's
//!   line view — see each family's
//!   module docs or `eval-lint --explain <rule>`;
//! * three *cross-file* families over the merged [`facts::FactBase`]:
//!   **metric-schema** (drift between metric emitters, the eval-obs
//!   consumers, and the committed registry
//!   `results/metric_schema.json`), **hot-path-reachability**
//!   (hot-path code calling allocating functions one call-graph hop
//!   away), and **dead-suppression** (`lint:allow` markers that
//!   suppress nothing).
//!
//! Findings carry stable IDs (see [`report`]) and render as text or
//! JSON. A finding can be suppressed with a `// lint:allow(<rule>)`
//! comment on the offending line or in the contiguous comment block
//! directly above it — and dead-suppression guarantees every such
//! marker still earns its keep.
//!
//! The pass stays deliberately lexical: no syn, no proc-macro
//! machinery, fast enough to run as a tier-1 gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

pub mod facts;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod schema;
pub mod workspace;

pub use schema::MetricSchema;
pub use workspace::{context_for, Workspace};

/// The twelve rule families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Raw `f64` where a unit newtype is required.
    UnitSafety,
    /// Entropy / wall-clock / hash-order sources in simulation crates.
    Determinism,
    /// `unwrap`/`expect`/panicking macros in library code.
    PanicSafety,
    /// Paper constants redefined outside `eval_units::consts`.
    ConfigInvariants,
    /// stdout/stderr macros in library code (use eval-trace sinks).
    NoPrintln,
    /// `Vec` construction in `lint:hot-path`-marked modules.
    NoAllocInCheck,
    /// `TraceSink` impls that swallow or drop `Record` variants.
    SinkForward,
    /// Torn-file-prone writes (`fs::write`/`File::create`) for artifacts.
    AtomicArtifacts,
    /// Metric-name drift between emitters, consumers, and the registry.
    MetricSchema,
    /// Hot-path code calling allocating functions in unmarked modules.
    HotPathReachability,
    /// `lint:allow` markers that suppress nothing.
    DeadSuppression,
    /// Clock reads outside the sanctioned `eval_trace::timing` module.
    WallClockInDeterministicPath,
}

impl Rule {
    /// All rule families, in report order.
    pub const ALL: [Rule; 12] = [
        Rule::UnitSafety,
        Rule::Determinism,
        Rule::PanicSafety,
        Rule::ConfigInvariants,
        Rule::NoPrintln,
        Rule::NoAllocInCheck,
        Rule::SinkForward,
        Rule::AtomicArtifacts,
        Rule::MetricSchema,
        Rule::HotPathReachability,
        Rule::DeadSuppression,
        Rule::WallClockInDeterministicPath,
    ];

    /// The kebab-case name used in diagnostics and `lint:allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnitSafety => "unit-safety",
            Rule::Determinism => "determinism",
            Rule::PanicSafety => "panic-safety",
            Rule::ConfigInvariants => "config-invariants",
            Rule::NoPrintln => "no-println",
            Rule::NoAllocInCheck => "no-alloc-in-check",
            Rule::SinkForward => "sink-forward",
            Rule::AtomicArtifacts => "atomic-artifacts",
            Rule::MetricSchema => "metric-schema",
            Rule::HotPathReachability => "hot-path-reachability",
            Rule::DeadSuppression => "dead-suppression",
            Rule::WallClockInDeterministicPath => "wall-clock-in-deterministic-path",
        }
    }

    /// The stable finding-code prefix (`EVL001`..`EVL013`; `EVL012` is
    /// retired and never reissued).
    pub fn code(self) -> &'static str {
        match self {
            Rule::UnitSafety => "EVL001",
            Rule::Determinism => "EVL002",
            Rule::PanicSafety => "EVL003",
            Rule::ConfigInvariants => "EVL004",
            Rule::NoPrintln => "EVL005",
            Rule::NoAllocInCheck => "EVL006",
            Rule::SinkForward => "EVL007",
            Rule::AtomicArtifacts => "EVL008",
            Rule::MetricSchema => "EVL009",
            Rule::HotPathReachability => "EVL010",
            Rule::DeadSuppression => "EVL011",
            Rule::WallClockInDeterministicPath => "EVL013",
        }
    }

    /// Looks a rule up by its kebab-case name.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding: a rule violated at a file/line (and optionally a
/// column, when the engine knows the exact token).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the offending token, when known.
    pub col: Option<usize>,
    /// The violated rule family.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// The stable finding ID (`EVLnnn-<16 hex>`); see [`report`] for
    /// the stability contract (line/column moves keep the ID).
    pub fn id(&self) -> String {
        format!(
            "{}-{:016x}",
            self.rule.code(),
            report::fingerprint(self.rule, &self.path, &self.message)
        )
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// What the linter needs to know about a file before scanning it.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Cargo package name the file belongs to (`eval` for the root crate).
    pub crate_name: String,
    /// Test/bench/example code: exempt from panic-safety.
    pub is_test_code: bool,
    /// A `src/bin/*` binary: counted as test code for panic-safety and
    /// printing, but its artifact writes are real and must be atomic.
    pub is_bin: bool,
}

/// Whether (and which) committed metric registry the metric-schema
/// rule checks against.
#[derive(Debug)]
pub enum RegistryState {
    /// The committed `results/metric_schema.json`, parsed.
    Loaded(MetricSchema),
    /// No registry on disk: a finding in itself.
    Missing,
    /// Skip registry-dependent checks (used while *generating* the
    /// registry, when staleness against itself is meaningless).
    Ignore,
}

/// Loads the committed registry from `root/results/metric_schema.json`.
/// An unparseable registry counts as [`RegistryState::Missing`] (the
/// finding tells the user to regenerate it).
pub fn load_registry(root: &Path) -> RegistryState {
    let path = root.join(facts::REGISTRY_PATH);
    match std::fs::read_to_string(&path) {
        Ok(text) => match MetricSchema::parse(&text) {
            Ok(schema) => RegistryState::Loaded(schema),
            Err(_) => RegistryState::Missing,
        },
        Err(_) => RegistryState::Missing,
    }
}

/// Runs the full two-phase analysis over a loaded workspace. Findings
/// are sorted by path, line, rule, message.
pub fn analyze(ws: &Workspace, registry: &RegistryState) -> Vec<Finding> {
    // Phase 1: lex everything once.
    let mut lexed: BTreeMap<String, lexer::LexedFile> = BTreeMap::new();
    for f in &ws.files {
        lexed.insert(f.rel.clone(), lexer::lex(&f.source));
    }
    // Phase 1b: facts for files in fact scope.
    let mut fact_files = Vec::new();
    for f in &ws.files {
        if !facts::facts_in_scope(&f.rel) {
            continue;
        }
        fact_files.push((
            f.rel.clone(),
            f.ctx.crate_name.clone(),
            facts::collect(&f.rel, &f.ctx, &lexed[&f.rel]),
        ));
    }
    let fb = facts::FactBase::merge(&fact_files);

    // Phase 2: per-file families, then cross-file families, then
    // dead-suppression last (it needs the full suppression credits).
    let mut sink = rules::Sink::new(&lexed);
    for f in &ws.files {
        rules::run_file_rules(&lexed[&f.rel], &f.rel, &f.ctx, &mut sink);
    }
    rules::metric_schema::run(&fb, registry, &mut sink);
    rules::hot_path_reachability::run(&fb, &mut sink);
    rules::dead_suppression::run(&lexed, &mut sink);

    let mut out = sink.out;
    out.sort_by(|a, b| {
        a.path
            .cmp(&b.path)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(&b.rule))
            .then(a.message.cmp(&b.message))
    });
    out
}

/// Generates the metric-name registry from a loaded workspace (what
/// `eval-lint --emit-schema` writes).
pub fn emit_schema(ws: &Workspace) -> MetricSchema {
    let mut fact_files = Vec::new();
    for f in &ws.files {
        if !facts::facts_in_scope(&f.rel) {
            continue;
        }
        let lexed = lexer::lex(&f.source);
        fact_files.push((
            f.rel.clone(),
            f.ctx.crate_name.clone(),
            facts::collect(&f.rel, &f.ctx, &lexed),
        ));
    }
    MetricSchema::from_facts(&facts::FactBase::merge(&fact_files))
}

/// Lints one file's source under the given context, running only the
/// nine per-file rule families (the cross-file families need a whole
/// workspace). `path` is only used to label findings.
pub fn lint_source(path: &str, source: &str, ctx: &FileContext) -> Vec<Finding> {
    let mut lexed = BTreeMap::new();
    lexed.insert(path.to_string(), lexer::lex(source));
    let mut sink = rules::Sink::new(&lexed);
    rules::run_file_rules(&lexed[path], path, ctx, &mut sink);
    sink.out
}

/// Lints every in-scope `.rs` file under the workspace root with all
/// twelve rule families, checking against the committed registry.
///
/// # Errors
///
/// Propagates file-system failures from the workspace walk.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let ws = Workspace::load(root)?;
    let registry = load_registry(root);
    Ok(analyze(&ws, &registry))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(name: &str) -> FileContext {
        FileContext {
            crate_name: name.to_string(),
            is_test_code: false,
            is_bin: false,
        }
    }

    #[test]
    fn allow_marker_suppresses_on_same_and_next_line() {
        let src = "// lint:allow(determinism): justified\nuse std::collections::HashMap;\n";
        let d = lint_source("x.rs", src, &ctx("eval-core"));
        assert!(d.iter().all(|d| d.rule != Rule::Determinism), "{d:?}");
    }

    #[test]
    fn cfg_test_region_is_exempt_from_panic_safety() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { None::<u8>.unwrap(); }\n}\n";
        let d = lint_source("x.rs", src, &ctx("eval-core"));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unit_hint_parameter_is_flagged_only_in_unit_crates() {
        let src = "pub fn set(vdd: f64) {}\n";
        assert_eq!(lint_source("x.rs", src, &ctx("eval-power")).len(), 1);
        assert!(lint_source("x.rs", src, &ctx("eval-uarch")).is_empty());
    }

    #[test]
    fn println_is_flagged_in_library_crates_and_eval_trace_only() {
        let src = "pub fn f() { println!(\"x\"); }\n";
        assert_eq!(lint_source("x.rs", src, &ctx("eval-core")).len(), 1);
        assert_eq!(lint_source("x.rs", src, &ctx("eval-trace")).len(), 1);
        assert!(lint_source("x.rs", src, &ctx("eval-bench")).is_empty());
    }

    #[test]
    fn shadowed_paper_constant_is_flagged() {
        let src = "const P_MAX: f64 = 25.0;\n";
        let d = lint_source("x.rs", src, &ctx("eval-adapt"));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::ConfigInvariants);
    }

    #[test]
    fn hot_path_marker_bans_vec_construction() {
        let src = "// lint:hot-path\npub fn f(n: usize) -> usize { let v: Vec<u8> = Vec::new(); v.len() + n }\n";
        let d = lint_source("x.rs", src, &ctx("eval-power"));
        assert!(d.iter().any(|d| d.rule == Rule::NoAllocInCheck), "{d:?}");
    }

    #[test]
    fn in_place_artifact_writes_are_flagged_even_in_bins() {
        let src = "pub fn f() { std::fs::write(\"out.json\", \"x\").ok(); }\n";
        let d = lint_source("x.rs", src, &ctx("eval-obs"));
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::AtomicArtifacts);
        let bin = FileContext {
            crate_name: "eval-bench".to_string(),
            is_test_code: true,
            is_bin: true,
        };
        let d = lint_source("x.rs", src, &bin);
        assert_eq!(d.len(), 1, "{d:?}");
        let test = FileContext {
            crate_name: "eval-bench".to_string(),
            is_test_code: true,
            is_bin: false,
        };
        assert!(lint_source("x.rs", src, &test).is_empty());
        let allowed =
            "// lint:allow(atomic-artifacts): staging write\npub fn f() { std::fs::write(\"o\", \"x\").ok(); }\n";
        assert!(lint_source("x.rs", allowed, &ctx("eval-obs")).is_empty());
    }

    #[test]
    fn rule_codes_and_names_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
            assert!(rule.code().starts_with("EVL"));
        }
        assert_eq!(Rule::from_name("not-a-rule"), None);
    }
}
