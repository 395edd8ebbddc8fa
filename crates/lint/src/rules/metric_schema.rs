//! metric-schema (EVL009): cross-crate metric-name drift.
//!
//! The emitting side (campaign runner, adaptation layer, core tester,
//! the hotpath bench bin) and the consuming side (eval-obs analyze /
//! bench-check) agree on metric names only by string
//! equality. A rename on one side strands the other *silently*: the
//! consumer reads zeros, the dashboard goes flat, and nothing fails.
//!
//! This rule closes the loop over the merged fact base:
//!
//! * every metric-shaped string literal outside `eval_trace::names`
//!   is a drift hazard (two spellings of one name cannot be caught by
//!   `grep` once they diverge) — declare a constant;
//! * a name consumed in eval-obs but emitted nowhere is an orphaned
//!   consumer (the classic rename victim);
//! * a name emitted but never consumed and not listed in the committed
//!   registry (`results/metric_schema.json`) is an unregistered
//!   emitter — either wire up a consumer or register the export;
//! * a consumed prefix family no emitted name falls under is an
//!   orphaned prefix;
//! * a `names` constant nothing references is dead;
//! * a registry entry backed by no declaration/emit/consume is stale;
//! * two constants declaring the same name make "the" constant
//!   ambiguous.

use std::collections::BTreeMap;

use crate::facts::{FactBase, REGISTRY_PATH};
use crate::rules::Sink;
use crate::{RegistryState, Rule};

/// Runs the metric-schema checks over the merged fact base.
pub fn run(fb: &FactBase, registry: &RegistryState, sink: &mut Sink<'_>) {
    // (a) Raw metric-name literals outside the names module.
    for (name, site) in &fb.literal_uses {
        let hint = match fb.value_to_ident.get(name) {
            Some(ident) => format!("use eval_trace::names::{ident}"),
            None => "declare it as a constant in eval_trace::names and use \
                 that (then regenerate the registry with `eval-lint \
                 --emit-schema`)"
                .to_string(),
        };
        sink.push(
            &site.path,
            site.line,
            Some(site.col),
            Rule::MetricSchema,
            format!(
                "metric name \"{name}\" is a raw string literal; {hint} so \
                 emitters and consumers cannot drift apart"
            ),
        );
    }

    // (b) Consumed but emitted nowhere: the orphaned consumer.
    for (name, sites) in &fb.consumes {
        if fb.emits.contains_key(name) {
            continue;
        }
        if let Some(site) = sites.first() {
            sink.push(
                &site.path,
                site.line,
                Some(site.col),
                Rule::MetricSchema,
                format!(
                    "metric \"{name}\" is consumed here but emitted nowhere in \
                     the workspace; the emitter was renamed or removed and this \
                     consumer now reads zeros"
                ),
            );
        }
    }

    // (c) Emitted but never consumed and not registered.
    if let RegistryState::Loaded(schema) = registry {
        let registered = schema.names();
        for (name, sites) in &fb.emits {
            if fb.is_consumed(name) || registered.contains(name.as_str()) {
                continue;
            }
            if let Some(site) = sites.first() {
                sink.push(
                    &site.path,
                    site.line,
                    Some(site.col),
                    Rule::MetricSchema,
                    format!(
                        "metric \"{name}\" is emitted here but consumed nowhere \
                         and not listed in {REGISTRY_PATH}; wire up a consumer \
                         or regenerate the registry with `eval-lint \
                         --emit-schema` to register the export"
                    ),
                );
            }
        }
        // (f) Stale registry entries.
        for entry in &schema.metrics {
            let live = fb.emits.contains_key(&entry.name)
                || fb.consumes.contains_key(&entry.name)
                || fb.value_to_ident.contains_key(&entry.name);
            if !live {
                sink.force(
                    REGISTRY_PATH,
                    0,
                    None,
                    Rule::MetricSchema,
                    format!(
                        "registry entry \"{}\" is no longer declared, emitted, \
                         or consumed anywhere; regenerate the registry with \
                         `eval-lint --emit-schema`",
                        entry.name
                    ),
                );
            }
        }
    } else if matches!(registry, RegistryState::Missing) {
        sink.force(
            REGISTRY_PATH,
            0,
            None,
            Rule::MetricSchema,
            format!(
                "the committed metric-name registry {REGISTRY_PATH} is \
                 missing; generate it with `eval-lint --emit-schema` and \
                 commit the result"
            ),
        );
    }

    // (d) Consumed prefix families no emitted name falls under.
    for (prefix, sites) in &fb.consume_prefixes {
        if fb.emits.keys().any(|n| n.starts_with(prefix.as_str())) {
            continue;
        }
        if let Some(site) = sites.first() {
            sink.push(
                &site.path,
                site.line,
                Some(site.col),
                Rule::MetricSchema,
                format!(
                    "metric prefix \"{prefix}\" is consumed here but no emitted \
                     metric name starts with it"
                ),
            );
        }
    }

    // (e) Declared constants nothing references.
    for (ident, def) in &fb.defs {
        if fb.referenced_consts.contains(ident) {
            continue;
        }
        sink.push(
            crate::facts::NAMES_MODULE,
            def.line,
            None,
            Rule::MetricSchema,
            format!(
                "names constant `{ident}` (\"{}\") is referenced nowhere \
                 outside the names module; delete it or wire up the \
                 emitter/consumer that should use it",
                def.value
            ),
        );
    }

    // (g) Two constants declaring the same metric name.
    let mut by_value: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (ident, def) in &fb.defs {
        by_value.entry(def.value.as_str()).or_default().push(ident);
    }
    for (value, idents) in by_value {
        if idents.len() > 1 {
            let line = fb.defs[idents[1]].line;
            sink.push(
                crate::facts::NAMES_MODULE,
                line,
                None,
                Rule::MetricSchema,
                format!(
                    "metric name \"{value}\" is declared by multiple constants \
                     ({}); keep exactly one",
                    idents.join(", ")
                ),
            );
        }
    }
}
