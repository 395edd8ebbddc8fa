//! Phase-1 fact extraction and the merged cross-file fact base.
//!
//! After lexing, each in-scope file is reduced to **facts**: metric-name
//! string literals, references to `eval_trace::names` constants, the
//! constant declarations themselves (in the names module), `fn`
//! definitions with an allocates-bit, call sites inside `lint:hot-path`
//! modules, and `lint:allow` suppression markers. Phase 2 merges the
//! per-file facts into a [`FactBase`] that the cross-file rules
//! (`metric-schema`, `hot-path-reachability`, `dead-suppression`)
//! evaluate.
//!
//! Facts are only collected outside `#[cfg(test)]` regions and outside
//! `tests/`, `examples/`, and `benches/` trees — but **including**
//! `src/bin` binaries, which are real metric emitters (the `hotpath`
//! bench bin writes `solver.cache.hit_rate` into the bench JSON that
//! `bench-check` gates on).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{LexedFile, Token, TokenKind};
use crate::FileContext;

/// Workspace-relative path of the single metric-name source of truth.
pub const NAMES_MODULE: &str = "crates/trace/src/names.rs";

/// Workspace-relative path of the committed metric-name registry.
pub const REGISTRY_PATH: &str = "results/metric_schema.json";

/// A `pub const NAME: &str = "value";` declaration in the names module.
#[derive(Debug, Clone)]
pub struct ConstDef {
    /// The constant's identifier (`CAMPAIGN_CHIPS_DONE`).
    pub ident: String,
    /// The metric name it declares (`campaign.chips_done`).
    pub value: String,
    /// 0-based line of the declaration.
    pub line: usize,
}

/// A site where a metric name appears (literal or via constant).
#[derive(Debug, Clone)]
pub struct NameUse {
    /// The resolved metric name.
    pub name: String,
    /// 0-based line.
    pub line: usize,
    /// 0-based column.
    pub col: usize,
}

/// A `fn` definition and whether its body constructs `Vec`s.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function name.
    pub name: String,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// Body contains an allocation token outside `#[cfg(test)]`.
    pub allocates: bool,
    /// The definition itself sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// A call site inside a `lint:hot-path` module.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called function's name (last path segment).
    pub callee: String,
    /// 0-based line.
    pub line: usize,
    /// 0-based column.
    pub col: usize,
    /// Path segment directly before `::` (e.g. `eval_power`, `Self`).
    pub qualifier: Option<String>,
    /// A `.method(...)` call.
    pub is_method: bool,
}

/// Everything phase 1 extracts from one file.
#[derive(Debug, Default)]
pub struct FileFacts {
    /// Metric-name string literals outside tests.
    pub metric_literals: Vec<NameUse>,
    /// SCREAMING_SNAKE identifier references outside tests (resolved
    /// against the names-module declarations during the merge).
    pub const_refs: Vec<(String, usize, usize)>,
    /// Names-module constant declarations (only for [`NAMES_MODULE`]).
    pub const_defs: Vec<ConstDef>,
    /// `fn` definitions (all files, test definitions marked).
    pub fn_defs: Vec<FnDef>,
    /// Call sites (only collected in `lint:hot-path` files).
    pub calls: Vec<CallSite>,
    /// `lint:allow(<rule>)` markers: (0-based line, rule name).
    pub allows: Vec<(usize, String)>,
    /// The file carries the `lint:hot-path` marker.
    pub hot_path: bool,
}

/// `Vec`-constructing tokens banned from hot-path modules (shared with
/// the `no-alloc-in-check` rule).
pub const ALLOC_TOKENS: [&str; 6] = [
    "Vec::new(",
    "Vec::with_capacity(",
    "vec![",
    ".to_vec()",
    ".collect(",
    ".collect::<",
];

/// File extensions that disqualify a dotted string from being a metric
/// name (`"ckpt.jsonl"`, `"metrics.prom"`, ... are file names).
const NON_METRIC_EXTENSIONS: [&str; 15] = [
    "rs", "json", "jsonl", "md", "txt", "toml", "prom", "tmp", "log", "ckpt", "html", "lock",
    "yml", "yaml", "gz",
];

/// True when a string literal has the shape of a metric name: lowercase
/// start, dotted, `[a-z0-9_.-]` charset, no empty segments, and not a
/// file name.
pub fn is_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    if !first.is_ascii_lowercase() {
        return false;
    }
    if !s.contains('.') {
        return false;
    }
    if !s
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || matches!(c, '.' | '_' | '-'))
    {
        return false;
    }
    if s.split('.').any(|seg| seg.is_empty()) {
        return false;
    }
    let last = s.rsplit('.').next().unwrap_or("");
    !NON_METRIC_EXTENSIONS.contains(&last)
}

/// True when `rel` belongs to the fact-collection scope: not under a
/// `tests/`, `examples/`, or `benches/` tree (but `src/bin` binaries
/// are in scope — they emit real metrics).
pub fn facts_in_scope(rel: &str) -> bool {
    !rel.split('/')
        .any(|part| matches!(part, "tests" | "examples" | "benches"))
}

/// Identifier shape of a names-module constant reference.
fn is_const_ident(s: &str) -> bool {
    s.len() >= 3
        && s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        && s.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        && s.contains('_')
}

/// Keywords and ubiquitous constructors never treated as resolvable
/// call sites by `hot-path-reachability`.
const CALL_SKIP: [&str; 18] = [
    "if", "while", "for", "match", "loop", "return", "fn", "let", "move", "Some", "None", "Ok",
    "Err", "Box", "Self", "drop", "matches", "assert",
];

/// Extracts facts from one lexed file. `collect_calls` is true for
/// `lint:hot-path` files; `collect_defs` is true for [`NAMES_MODULE`].
pub fn collect(rel: &str, _ctx: &FileContext, lexed: &LexedFile) -> FileFacts {
    let mut facts = FileFacts {
        hot_path: lexed.hot_path,
        ..FileFacts::default()
    };
    for (i, line) in lexed.lines.iter().enumerate() {
        for rule in &line.allows {
            facts.allows.push((i, rule.clone()));
        }
    }

    let toks = &lexed.tokens;
    let in_test = |line: usize| lexed.in_test(line);
    let is_names_module = rel == NAMES_MODULE;

    // Constant declarations in the names module: `const IDENT ... "v" ;`
    if is_names_module {
        let mut i = 0;
        while i + 1 < toks.len() {
            if toks[i].kind == TokenKind::Ident
                && toks[i].text == "const"
                && toks[i + 1].kind == TokenKind::Ident
                && !in_test(toks[i].line)
            {
                let ident = toks[i + 1].text.clone();
                let line = toks[i + 1].line;
                // Scan to the terminating `;` for the defining literal.
                let mut j = i + 2;
                let mut value = None;
                while j < toks.len() {
                    match toks[j].kind {
                        TokenKind::Str if value.is_none() => value = Some(toks[j].text.clone()),
                        TokenKind::Punct if toks[j].text == ";" => break,
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(value) = value {
                    facts.const_defs.push(ConstDef { ident, value, line });
                }
                i = j;
            }
            i += 1;
        }
    }

    for (i, tok) in toks.iter().enumerate() {
        if in_test(tok.line) {
            continue;
        }
        match tok.kind {
            TokenKind::Str => {
                if is_metric_name(&tok.text) && !is_names_module {
                    facts.metric_literals.push(NameUse {
                        name: tok.text.clone(),
                        line: tok.line,
                        col: tok.col,
                    });
                }
            }
            TokenKind::Ident => {
                if is_const_ident(&tok.text) && !is_names_module {
                    facts
                        .const_refs
                        .push((tok.text.clone(), tok.line, tok.col));
                }
                // `fn name` definitions.
                if tok.text == "fn" {
                    if let Some(name_tok) = toks.get(i + 1) {
                        if name_tok.kind == TokenKind::Ident {
                            if let Some(def) = fn_def_at(lexed, name_tok.line, &name_tok.text) {
                                facts.fn_defs.push(def);
                            }
                        }
                    }
                }
                // Call sites, hot-path files only: `ident (` or
                // `ident ::<..> (` not preceded by `fn`, not a macro
                // (`ident !(`).
                if lexed.hot_path
                    && opens_call(toks, i)
                    && !CALL_SKIP.contains(&tok.text.as_str())
                    && !is_const_ident(&tok.text)
                {
                    let prev = i.checked_sub(1).map(|p| &toks[p]);
                    let prev_is = |s: &str| {
                        prev.is_some_and(|t| t.kind == TokenKind::Punct && t.text == s)
                    };
                    let prev_is_ident =
                        |s: &str| prev.is_some_and(|t| t.kind == TokenKind::Ident && t.text == s);
                    if prev_is_ident("fn") {
                        // definition, not a call
                    } else {
                        let is_method = prev_is(".");
                        let qualifier = if i >= 3
                            && prev_is(":")
                            && toks[i - 2].kind == TokenKind::Punct
                            && toks[i - 2].text == ":"
                            && toks[i - 3].kind == TokenKind::Ident
                        {
                            Some(toks[i - 3].text.clone())
                        } else {
                            None
                        };
                        facts.calls.push(CallSite {
                            callee: tok.text.clone(),
                            line: tok.line,
                            col: tok.col,
                            qualifier,
                            is_method,
                        });
                    }
                }
            }
            TokenKind::Punct => {}
        }
    }
    facts
}

/// Whether the identifier at `toks[i]` is called: the next token is
/// `(`, or a turbofish (`::<..>`, nested generics included) ends right
/// before one, as in `parse_row::<f64>(..)`.
fn opens_call(toks: &[Token], i: usize) -> bool {
    let punct = |k: usize, s: &str| {
        toks.get(k)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == s)
    };
    if punct(i + 1, "(") {
        return true;
    }
    if !(punct(i + 1, ":") && punct(i + 2, ":") && punct(i + 3, "<")) {
        return false;
    }
    let mut depth = 0usize;
    for k in i + 3..toks.len() {
        if punct(k, "<") {
            depth += 1;
        } else if punct(k, ">") && !punct(k - 1, "-") {
            depth -= 1;
            if depth == 0 {
                return punct(k + 1, "(");
            }
        } else if punct(k, ";") || punct(k, "{") || punct(k, "}") {
            return false;
        }
    }
    false
}

/// Resolves the body of the `fn` whose name sits on 0-based `line` and
/// reports whether it allocates. Returns `None` for bodyless trait
/// declarations (`fn f(...);`).
fn fn_def_at(lexed: &LexedFile, line: usize, name: &str) -> Option<FnDef> {
    // Accumulate the signature until its body brace or semicolon, the
    // same walk the unit-safety rule uses.
    let n = lexed.lines.len();
    let mut j = line;
    loop {
        let code = &lexed.lines[j].code;
        if code.contains('{') {
            break;
        }
        if code.contains(';') {
            return None;
        }
        j += 1;
        if j >= n {
            return None;
        }
    }
    // Brace-track from the signature's opening line.
    let mut depth = 0i64;
    let mut opened = false;
    let mut end = j;
    let mut allocates = false;
    for (k, l) in lexed.lines.iter().enumerate().skip(j) {
        for c in l.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if opened && !l.in_test && ALLOC_TOKENS.iter().any(|t| l.code.contains(t)) {
            allocates = true;
        }
        if opened && depth <= 0 {
            end = k;
            break;
        }
        end = k;
    }
    let _ = end;
    Some(FnDef {
        name: name.to_string(),
        line,
        allocates,
        in_test: lexed.in_test(line),
    })
}

/// A file/line/column anchor for a merged fact.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Site {
    /// Workspace-relative path.
    pub path: String,
    /// 0-based line.
    pub line: usize,
    /// 0-based column.
    pub col: usize,
}

/// A `fn` definition in the merged base.
#[derive(Debug, Clone)]
pub struct FnDefSite {
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// 0-based line of the definition.
    pub line: usize,
    /// Body allocates outside `#[cfg(test)]`.
    pub allocates: bool,
    /// The defining file carries `lint:hot-path`.
    pub hot_path_file: bool,
}

/// The merged, workspace-wide fact base the cross-file rules consume.
#[derive(Debug, Default)]
pub struct FactBase {
    /// names-module declarations: ident → (def, value).
    pub defs: BTreeMap<String, ConstDef>,
    /// Reverse map: metric name → constant ident.
    pub value_to_ident: BTreeMap<String, String>,
    /// Exact metric names emitted: name → sites.
    pub emits: BTreeMap<String, Vec<Site>>,
    /// Exact metric names consumed (in `eval-obs`): name → sites.
    pub consumes: BTreeMap<String, Vec<Site>>,
    /// Prefix families consumed (constants named `*_PREFIX`).
    pub consume_prefixes: BTreeMap<String, Vec<Site>>,
    /// Raw metric-name literals outside the names module.
    pub literal_uses: Vec<(String, Site)>,
    /// Constants that are referenced anywhere.
    pub referenced_consts: BTreeSet<String>,
    /// `fn` definitions: crate → fn name → definition sites.
    pub fn_defs: BTreeMap<String, BTreeMap<String, Vec<FnDefSite>>>,
    /// Hot-path call sites: (crate, path, call).
    pub calls: Vec<(String, String, CallSite)>,
    /// All `lint:allow` markers: (path, 0-based line, rule name).
    pub allows: Vec<(String, usize, String)>,
}

/// Crates whose metric-name references are *consumptions* — the
/// observability/reporting side. Every other crate's references are
/// emissions.
fn is_consumer_crate(crate_name: &str) -> bool {
    crate_name == "eval-obs"
}

impl FactBase {
    /// Merges per-file facts into the workspace-wide base. `files`
    /// pairs each in-scope file's (path, crate, facts).
    pub fn merge(files: &[(String, String, FileFacts)]) -> FactBase {
        let mut fb = FactBase::default();
        // Pass 1: declarations (needed to resolve const refs).
        for (_, _, facts) in files {
            for def in &facts.const_defs {
                fb.value_to_ident
                    .insert(def.value.clone(), def.ident.clone());
                fb.defs.insert(def.ident.clone(), def.clone());
            }
        }
        // Pass 2: uses, defs, calls, allows.
        for (path, crate_name, facts) in files {
            let consumer = is_consumer_crate(crate_name);
            let site = |line: usize, col: usize| Site {
                path: path.clone(),
                line,
                col,
            };
            for lit in &facts.metric_literals {
                fb.literal_uses
                    .push((lit.name.clone(), site(lit.line, lit.col)));
                let bucket = if consumer {
                    &mut fb.consumes
                } else {
                    &mut fb.emits
                };
                bucket
                    .entry(lit.name.clone())
                    .or_default()
                    .push(site(lit.line, lit.col));
            }
            for (ident, line, col) in &facts.const_refs {
                let Some(def) = fb.defs.get(ident) else {
                    continue;
                };
                fb.referenced_consts.insert(ident.clone());
                if ident.ends_with("_PREFIX") {
                    fb.consume_prefixes
                        .entry(def.value.clone())
                        .or_default()
                        .push(site(*line, *col));
                } else {
                    let bucket = if consumer {
                        &mut fb.consumes
                    } else {
                        &mut fb.emits
                    };
                    bucket
                        .entry(def.value.clone())
                        .or_default()
                        .push(site(*line, *col));
                }
            }
            for def in &facts.fn_defs {
                if def.in_test {
                    continue;
                }
                fb.fn_defs
                    .entry(crate_name.clone())
                    .or_default()
                    .entry(def.name.clone())
                    .or_default()
                    .push(FnDefSite {
                        path: path.clone(),
                        line: def.line,
                        allocates: def.allocates,
                        hot_path_file: facts.hot_path,
                    });
            }
            for call in &facts.calls {
                fb.calls
                    .push((crate_name.clone(), path.clone(), call.clone()));
            }
            for (line, rule) in &facts.allows {
                fb.allows.push((path.clone(), *line, rule.clone()));
            }
        }
        fb
    }

    /// True when `name` is consumed exactly or covered by a consumed
    /// prefix family.
    pub fn is_consumed(&self, name: &str) -> bool {
        self.consumes.contains_key(name)
            || self
                .consume_prefixes
                .keys()
                .any(|p| name.starts_with(p.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx() -> FileContext {
        FileContext {
            crate_name: "eval-adapt".to_string(),
            is_test_code: false,
            is_bin: false,
        }
    }

    #[test]
    fn metric_name_shape() {
        assert!(is_metric_name("campaign.chips_done"));
        assert!(is_metric_name("decision.latency.nn-table_us"));
        assert!(!is_metric_name("ckpt.jsonl"));
        assert!(!is_metric_name("metrics.prom"));
        assert!(!is_metric_name("no_dot"));
        assert!(!is_metric_name("Has.Upper"));
        assert!(!is_metric_name("trailing."));
        assert!(!is_metric_name("0.5"));
    }

    #[test]
    fn scope_excludes_test_trees_but_keeps_bins() {
        assert!(facts_in_scope("crates/adapt/src/campaign.rs"));
        assert!(facts_in_scope("crates/bench/src/bin/hotpath.rs"));
        assert!(!facts_in_scope("crates/obs/tests/analyze_golden.rs"));
        assert!(!facts_in_scope("tests/end_to_end.rs"));
        assert!(!facts_in_scope("crates/trace/examples/summary.rs"));
    }

    #[test]
    fn literals_and_allows_are_extracted() {
        let src = "// lint:allow(metric-schema): migration pending\nfn f(t: &T) { t.count(\"campaign.chips_done\"); }\n#[cfg(test)]\nmod tests { fn g(t: &T) { t.count(\"only.in_test\"); } }\n";
        let facts = collect("crates/adapt/src/x.rs", &ctx(), &lex(src));
        assert_eq!(facts.metric_literals.len(), 1);
        assert_eq!(facts.metric_literals[0].name, "campaign.chips_done");
        assert_eq!(facts.allows, vec![(0, "metric-schema".to_string())]);
    }

    #[test]
    fn const_defs_parse_in_names_module() {
        let src = "/// doc\npub const CACHE_HIT: &str = \"cache.hit\";\npub const P: &str = \"a.b\";\n";
        let facts = collect(NAMES_MODULE, &ctx(), &lex(src));
        assert_eq!(facts.const_defs.len(), 2);
        assert_eq!(facts.const_defs[0].ident, "CACHE_HIT");
        assert_eq!(facts.const_defs[0].value, "cache.hit");
        assert_eq!(facts.const_defs[0].line, 1);
    }

    #[test]
    fn fn_defs_record_allocation() {
        let src = "fn clean(x: u64) -> u64 { x + 1 }\nfn dirty() -> Vec<u8> {\n    Vec::with_capacity(4)\n}\n";
        let facts = collect("crates/adapt/src/x.rs", &ctx(), &lex(src));
        let names: Vec<(&str, bool)> = facts
            .fn_defs
            .iter()
            .map(|d| (d.name.as_str(), d.allocates))
            .collect();
        assert_eq!(names, [("clean", false), ("dirty", true)]);
    }

    #[test]
    fn calls_collected_only_in_hot_path_files() {
        let src = "// lint:hot-path\nfn f() { helper(1); obj.method(2); eval_power::solve(3); Outcome::Error(4); }\n";
        let facts = collect("crates/adapt/src/x.rs", &ctx(), &lex(src));
        let callees: Vec<&str> = facts.calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(callees, ["helper", "method", "solve", "Error"]);
        assert_eq!(facts.calls[2].qualifier.as_deref(), Some("eval_power"));
        assert!(facts.calls[1].is_method);
        let cold = collect("crates/adapt/src/y.rs", &ctx(), &lex("fn f() { helper(1); }\n"));
        assert!(cold.calls.is_empty());
    }

    #[test]
    fn turbofish_calls_are_call_sites() {
        let src = "// lint:hot-path\nfn f() { parse_row::<f64>(a); v.iter().collect::<Vec<Option<u8>>>(); m::g::<fn() -> u8, u8>(b); let n: Vec<u8> = x; }\n";
        let facts = collect("crates/adapt/src/x.rs", &ctx(), &lex(src));
        let callees: Vec<&str> = facts.calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(callees, ["parse_row", "iter", "collect", "g"]);
        assert!(facts.calls[2].is_method);
        assert_eq!(facts.calls[3].qualifier.as_deref(), Some("m"));
    }

    #[test]
    fn merge_routes_by_crate_role() {
        let names_src =
            "pub const X_Y: &str = \"x.y\";\npub const B_PREFIX: &str = \"p.q\";\n";
        let emit_src = "fn f(t: &T) { t.count(X_Y); }\n";
        let consume_src = "fn g(r: &R) -> u64 { r.counter(X_Y) + r.scan(B_PREFIX) }\n";
        let files = vec![
            (
                NAMES_MODULE.to_string(),
                "eval-trace".to_string(),
                collect(NAMES_MODULE, &ctx(), &lex(names_src)),
            ),
            (
                "crates/adapt/src/e.rs".to_string(),
                "eval-adapt".to_string(),
                collect("crates/adapt/src/e.rs", &ctx(), &lex(emit_src)),
            ),
            (
                "crates/obs/src/c.rs".to_string(),
                "eval-obs".to_string(),
                collect("crates/obs/src/c.rs", &ctx(), &lex(consume_src)),
            ),
        ];
        let fb = FactBase::merge(&files);
        assert!(fb.emits.contains_key("x.y"));
        assert!(fb.consumes.contains_key("x.y"));
        assert!(fb.consume_prefixes.contains_key("p.q"));
        assert!(fb.is_consumed("p.q.tail"));
        assert_eq!(fb.referenced_consts.len(), 2);
    }
}
