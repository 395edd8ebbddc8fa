//! The metric-name registry: a committed, machine-readable inventory of
//! every metric the workspace emits or consumes.
//!
//! `eval-lint --emit-schema` regenerates `results/metric_schema.json`
//! from the merged fact base; tier-1 diffs the regenerated file against
//! the committed copy, so any metric added, renamed, or dropped shows
//! up as a one-line registry diff in review. The `metric-schema` rule
//! additionally cross-checks live facts against the committed registry
//! (stale entries, unregistered emitters).
//!
//! The JSON rendering is canonical — sorted entries, one per line,
//! fixed key order, `\n` endings — so regeneration is byte-stable.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use eval_trace::json::{push_str_literal, Json};

use crate::facts::FactBase;

/// One exact metric name in the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaEntry {
    /// The metric name (`campaign.chips_done`).
    pub name: String,
    /// The `eval_trace::names` constant declaring it, if any.
    pub const_ident: Option<String>,
    /// At least one emit site exists.
    pub emitted: bool,
    /// At least one consume site (exact or via prefix) exists.
    pub consumed: bool,
}

/// One consumed prefix family (constants named `*_PREFIX`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixEntry {
    /// The name prefix (`decision.latency.`).
    pub name: String,
    /// The declaring constant, if any.
    pub const_ident: Option<String>,
}

/// The full registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricSchema {
    /// Exact metric names, sorted.
    pub metrics: Vec<SchemaEntry>,
    /// Consumed prefix families, sorted.
    pub prefixes: Vec<PrefixEntry>,
}

/// Appends `value` as a JSON string, or `null` when absent.
fn push_opt_literal(out: &mut String, value: Option<&str>) {
    match value {
        Some(v) => push_str_literal(out, v),
        None => out.push_str("null"),
    }
}

impl MetricSchema {
    /// Builds the registry from the merged fact base: every declared,
    /// emitted, or consumed metric name becomes an entry.
    pub fn from_facts(fb: &FactBase) -> MetricSchema {
        let mut names: BTreeSet<String> = BTreeSet::new();
        names.extend(
            fb.defs
                .values()
                .filter(|d| !d.ident.ends_with("_PREFIX"))
                .map(|d| d.value.clone()),
        );
        names.extend(fb.emits.keys().cloned());
        names.extend(fb.consumes.keys().cloned());
        let metrics = names
            .into_iter()
            .map(|name| SchemaEntry {
                const_ident: fb.value_to_ident.get(&name).cloned(),
                emitted: fb.emits.contains_key(&name),
                consumed: fb.is_consumed(&name),
                name,
            })
            .collect();
        let prefixes = fb
            .defs
            .values()
            .filter(|d| d.ident.ends_with("_PREFIX"))
            .map(|d| PrefixEntry {
                name: d.value.clone(),
                const_ident: Some(d.ident.clone()),
            })
            .collect();
        MetricSchema { metrics, prefixes }
    }

    /// Renders the canonical JSON form (byte-stable for a given fact
    /// base).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"version\": 1,\n  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            out.push_str("    {\"name\":");
            push_str_literal(&mut out, &m.name);
            out.push_str(",\"const\":");
            push_opt_literal(&mut out, m.const_ident.as_deref());
            let _ = writeln!(
                out,
                ",\"emitted\":{},\"consumed\":{}}}{}",
                m.emitted,
                m.consumed,
                if i + 1 == self.metrics.len() { "" } else { "," }
            );
        }
        out.push_str("  ],\n  \"prefixes\": [\n");
        for (i, p) in self.prefixes.iter().enumerate() {
            out.push_str("    {\"name\":");
            push_str_literal(&mut out, &p.name);
            out.push_str(",\"const\":");
            push_opt_literal(&mut out, p.const_ident.as_deref());
            out.push_str(if i + 1 == self.prefixes.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses the canonical JSON form (line-oriented; tolerant of
    /// whitespace but not of reordered keys — the file is only ever
    /// produced by [`MetricSchema::to_json`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<MetricSchema, String> {
        let mut schema = MetricSchema::default();
        let mut section = "";
        let mut saw_metrics = false;
        for (no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.contains("\"metrics\"") {
                section = "metrics";
                saw_metrics = true;
                continue;
            }
            if line.contains("\"prefixes\"") {
                section = "prefixes";
                continue;
            }
            if !line.starts_with('{') || !line.contains("\"name\"") {
                continue;
            }
            let entry = Json::parse(line.strip_suffix(',').unwrap_or(line))
                .map_err(|e| format!("line {}: {e}", no + 1))?;
            let name = entry
                .str_field("name")
                .ok_or_else(|| format!("line {}: entry without a \"name\"", no + 1))?
                .to_string();
            let const_ident = entry.str_field("const").map(str::to_string);
            let flag = |key: &str| {
                entry
                    .get(key)
                    .and_then(Json::as_bool)
                    .ok_or_else(|| format!("line {}: missing \"{key}\"", no + 1))
            };
            match section {
                "metrics" => schema.metrics.push(SchemaEntry {
                    name,
                    const_ident,
                    emitted: flag("emitted")?,
                    consumed: flag("consumed")?,
                }),
                "prefixes" => schema.prefixes.push(PrefixEntry { name, const_ident }),
                _ => return Err(format!("line {}: entry outside a section", no + 1)),
            }
        }
        if !saw_metrics {
            return Err("no \"metrics\" section found".to_string());
        }
        Ok(schema)
    }

    /// The set of registered exact metric names.
    pub fn names(&self) -> BTreeSet<&str> {
        self.metrics.iter().map(|m| m.name.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricSchema {
        MetricSchema {
            metrics: vec![
                SchemaEntry {
                    name: "cache.hit".into(),
                    const_ident: Some("CACHE_HIT".into()),
                    emitted: true,
                    consumed: false,
                },
                SchemaEntry {
                    name: "campaign.chips_done".into(),
                    const_ident: Some("CAMPAIGN_CHIPS_DONE".into()),
                    emitted: true,
                    consumed: true,
                },
            ],
            prefixes: vec![PrefixEntry {
                name: "decision.latency.".into(),
                const_ident: Some("DECISION_LATENCY_PREFIX".into()),
            }],
        }
    }

    #[test]
    fn json_round_trips() {
        let s = sample();
        let text = s.to_json();
        let parsed = MetricSchema::parse(&text).expect("parse");
        assert_eq!(parsed, s);
        // Canonical: re-rendering is byte-identical.
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(MetricSchema::parse("not json").is_err());
        assert!(MetricSchema::parse("{\"metrics\": [\n{\"noname\":1}\n]}").is_ok());
        assert!(MetricSchema::parse("{\"metrics\": [\n{\"name\":\"a.b\"}\n]}").is_err());
    }

    #[test]
    fn every_escape_round_trips() {
        let mut s = sample();
        s.metrics[0].name = "a\"b\\c\nd\te\u{1}é".into();
        s.prefixes[0].const_ident = None;
        let text = s.to_json();
        assert_eq!(MetricSchema::parse(&text).expect("parse"), s, "{text}");
    }
}
