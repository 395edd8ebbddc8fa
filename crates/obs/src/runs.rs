//! The run journal: listing, inspecting, and diffing artifact
//! provenance.
//!
//! Writers stamp every final artifact with a [`Provenance`] record and,
//! when `EVAL_RUNS_JOURNAL` is set, append one `"kind":"run"` line per
//! artifact to a shared JSONL journal (see `eval_trace::provenance`).
//! This module is the read side behind `eval-obs runs`:
//!
//! * `list` — every journaled artifact, newest last;
//! * `show <sel>` — one entry in full;
//! * `diff <a> <b>` — compare two entries by provenance: bit-identical
//!   payloads share a content address, anything else is pinpointed
//!   field by field;
//! * `gc --keep N` — rewrite the journal atomically, retaining only
//!   the newest N records *per artifact kind* (so trimming a noisy
//!   bench loop can never drop the last record of a rarer artifact).
//!
//! Selectors are resolved in order: journal index (as printed by
//! `list`), content-address prefix, then path suffix (latest match
//! wins, so `diff BENCH_a.json BENCH_b.json` does what it reads as).

use std::path::Path;

use eval_trace::json::Json;
use eval_trace::provenance::Provenance;

/// One journaled artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunEntry {
    /// Position in the journal (0-based, as printed by `list`).
    pub index: usize,
    /// Unix timestamp of the journal append.
    pub unix_secs: u64,
    /// Artifact path as recorded by the writer.
    pub path: String,
    /// The artifact's provenance stamp.
    pub provenance: Provenance,
}

/// Parses journal text into entries. Tolerant by design: non-JSON
/// lines, wrong-kind records, and entries without a parsable provenance
/// object are skipped (a journal shared by many writers should never
/// make `runs list` unusable).
pub fn parse_journal(text: &str) -> Vec<RunEntry> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Ok(v) = Json::parse(line) else { continue };
        if v.str_field("kind") != Some("run") {
            continue;
        }
        let Some(path) = v.str_field("path") else {
            continue;
        };
        let Some(prov) = v.get("provenance").and_then(Provenance::from_json) else {
            continue;
        };
        out.push(RunEntry {
            index: out.len(),
            unix_secs: v.u64_field("unix_secs").unwrap_or(0),
            path: path.to_string(),
            provenance: prov,
        });
    }
    out
}

/// Loads and parses the journal at `path`.
///
/// # Errors
///
/// Any I/O error reading the file.
pub fn load_journal(path: &Path) -> std::io::Result<Vec<RunEntry>> {
    Ok(parse_journal(&std::fs::read_to_string(path)?))
}

/// Resolves a selector against the journal: numeric index first, then
/// content-address prefix, then path suffix. Later entries win ties so
/// a bare filename picks the most recent run of that artifact.
pub fn find<'a>(entries: &'a [RunEntry], selector: &str) -> Option<&'a RunEntry> {
    if let Ok(idx) = selector.parse::<usize>() {
        return entries.get(idx);
    }
    let by_addr = entries.iter().rev().find(|e| {
        e.provenance
            .content_address
            .as_deref()
            .is_some_and(|a| a.starts_with(selector))
    });
    if by_addr.is_some() {
        return by_addr;
    }
    entries.iter().rev().find(|e| e.path.ends_with(selector))
}

/// The `runs query` filter: journaled artifacts whose
/// `config_fingerprint` starts with `prefix`. Journal order and the
/// original indices are preserved, so selectors printed by `list`
/// remain valid on the filtered view; unstamped artifacts (no
/// fingerprint) never match.
pub fn query_by_fingerprint(entries: &[RunEntry], prefix: &str) -> Vec<RunEntry> {
    entries
        .iter()
        .filter(|e| {
            e.provenance
                .config_fingerprint
                .as_deref()
                .is_some_and(|f| f.starts_with(prefix))
        })
        .cloned()
        .collect()
}

/// The `runs gc` retention pass: keeps the newest `keep` entries of
/// each artifact kind (`provenance.artifact`), preserving journal order
/// and re-indexing the survivors. `keep == 0` empties the journal.
pub fn gc_entries(entries: &[RunEntry], keep: usize) -> Vec<RunEntry> {
    let mut per_kind: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for e in entries {
        *per_kind.entry(e.provenance.artifact.as_str()).or_insert(0) += 1;
    }
    let mut seen: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    let mut out: Vec<RunEntry> = Vec::new();
    for e in entries {
        let position = {
            let c = seen.entry(e.provenance.artifact.as_str()).or_insert(0);
            *c += 1;
            *c
        };
        // The newest `keep` of a kind are the last `keep` occurrences.
        if position > per_kind[e.provenance.artifact.as_str()].saturating_sub(keep) {
            let mut kept = e.clone();
            kept.index = out.len();
            out.push(kept);
        }
    }
    out
}

/// Rewrites the journal at `path` to hold exactly `entries`, one line
/// per record, through the same atomic temp-file-plus-rename protocol
/// every other artifact writer uses (a crash mid-gc leaves the old
/// journal intact). Junk lines tolerated by [`parse_journal`] are not
/// preserved.
///
/// # Errors
///
/// Any I/O error from the atomic write.
pub fn write_journal(path: &Path, entries: &[RunEntry]) -> std::io::Result<()> {
    let mut text = String::new();
    for e in entries {
        text.push_str(&eval_trace::provenance::journal_line(
            Path::new(&e.path),
            &e.provenance,
            e.unix_secs,
        ));
        text.push('\n');
    }
    eval_trace::write_atomic(path, text.as_bytes())
}

fn short(hash: Option<&str>) -> String {
    match hash {
        Some(h) => h.chars().take(12).collect(),
        None => "-".to_string(),
    }
}

/// The `runs list` table (deterministic; journal order).
pub fn render_list(entries: &[RunEntry]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>4}  {:<14} {:<13} {:<13} {:>11}  {}\n",
        "idx", "artifact", "address", "revision", "unix_secs", "path"
    ));
    for e in entries {
        out.push_str(&format!(
            "{:>4}  {:<14} {:<13} {:<13} {:>11}  {}\n",
            e.index,
            e.provenance.artifact,
            short(e.provenance.content_address.as_deref()),
            short(Some(&e.provenance.git_revision)),
            e.unix_secs,
            e.path,
        ));
    }
    out.push_str(&format!("{} run(s)\n", entries.len()));
    out
}

/// The `runs show` detail view for one entry.
pub fn render_show(entry: &RunEntry) -> String {
    let p = &entry.provenance;
    let mut out = String::new();
    out.push_str(&format!("run #{} — {}\n", entry.index, entry.path));
    out.push_str(&format!("  artifact:           {}\n", p.artifact));
    out.push_str(&format!(
        "  content_address:    {}\n",
        p.content_address.as_deref().unwrap_or("-")
    ));
    out.push_str(&format!("  git_revision:       {}\n", p.git_revision));
    out.push_str(&format!("  host:               {}\n", p.host));
    out.push_str(&format!(
        "  config_fingerprint: {}\n",
        p.config_fingerprint.as_deref().unwrap_or("-")
    ));
    out.push_str(&format!("  schema_hash:        {}\n", p.schema_hash));
    out.push_str(&format!("  unix_secs:          {}\n", entry.unix_secs));
    out
}

/// The `runs diff` report between two entries. Matching content
/// addresses mean bit-identical payloads (remaining provenance
/// differences are context, reported as such); otherwise every
/// differing provenance field is pinpointed.
pub fn render_diff(a: &RunEntry, b: &RunEntry) -> String {
    let mut out = String::new();
    out.push_str(&format!("a: run #{} — {}\n", a.index, a.path));
    out.push_str(&format!("b: run #{} — {}\n", b.index, b.path));
    let same_payload = matches!(
        (&a.provenance.content_address, &b.provenance.content_address),
        (Some(x), Some(y)) if x == y
    );
    let diffs = a.provenance.diff(&b.provenance);
    if same_payload {
        out.push_str(&format!(
            "payload: bit-identical (content address {})\n",
            a.provenance.content_address.as_deref().unwrap_or("-"),
        ));
        if diffs.is_empty() {
            out.push_str("provenance: identical\n");
        } else {
            out.push_str("provenance context differs:\n");
        }
    } else if diffs.is_empty() {
        out.push_str("provenance: identical\n");
    } else {
        out.push_str("payloads differ:\n");
    }
    for (field, va, vb) in &diffs {
        out.push_str(&format!("  {field:<18} a={va}  b={vb}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eval_trace::provenance::{hex64, journal_line};

    fn prov(artifact: &str, addr: Option<u64>, rev: &str, cfg: Option<u64>) -> Provenance {
        Provenance {
            artifact: artifact.to_string(),
            content_address: addr.map(hex64),
            git_revision: rev.to_string(),
            host: hex64(0xbeef),
            config_fingerprint: cfg.map(hex64),
            schema_hash: hex64(0xfeed),
        }
    }

    fn journal() -> String {
        let mut text = String::from("# comment line\nnot json\n");
        for (i, (path, p)) in [
            (
                "target/BENCH_a.json",
                prov("bench-json", Some(0xa111_0000_0000_1111), "rev1", None),
            ),
            (
                "target/BENCH_b.json",
                prov("bench-json", Some(0xa111_0000_0000_1111), "rev2", None),
            ),
            (
                "target/trace.jsonl",
                prov("trace-jsonl", Some(0xb222_0000_0000_2222), "rev2", Some(7)),
            ),
        ]
        .iter()
        .enumerate()
        {
            text.push_str(&journal_line(Path::new(path), p, 100 + i as u64));
            text.push('\n');
        }
        text
    }

    #[test]
    fn parse_journal_skips_junk_and_indexes_entries() {
        let entries = parse_journal(&journal());
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].index, 0);
        assert_eq!(entries[2].path, "target/trace.jsonl");
        assert_eq!(entries[2].unix_secs, 102);
        assert_eq!(entries[2].provenance.config_fingerprint, Some(hex64(7)));
    }

    #[test]
    fn find_resolves_index_address_prefix_and_path_suffix() {
        let entries = parse_journal(&journal());
        assert_eq!(find(&entries, "1").map(|e| e.index), Some(1));
        let addr_prefix = &hex64(0xb222_0000_0000_2222)[..6];
        assert_eq!(find(&entries, addr_prefix).map(|e| e.index), Some(2));
        assert_eq!(find(&entries, "BENCH_a.json").map(|e| e.index), Some(0));
        // Shared-address selector resolves to the latest entry.
        assert_eq!(
            find(&entries, &hex64(0xa111_0000_0000_1111)).map(|e| e.index),
            Some(1)
        );
        assert_eq!(find(&entries, "no-such-thing"), None);
    }

    #[test]
    fn diff_reports_bit_identical_payloads_with_context() {
        let entries = parse_journal(&journal());
        let report = render_diff(&entries[0], &entries[1]);
        assert!(report.contains("bit-identical"));
        assert!(report.contains(&hex64(0xa111_0000_0000_1111)));
        assert!(report.contains("git_revision"));
        assert!(report.contains("a=rev1"));
    }

    #[test]
    fn diff_pinpoints_differing_fields() {
        let entries = parse_journal(&journal());
        let report = render_diff(&entries[1], &entries[2]);
        assert!(report.contains("payloads differ"));
        assert!(report.contains("content_address"));
        assert!(report.contains("artifact"));
        assert!(report.contains("config_fingerprint"));
    }

    #[test]
    fn gc_keeps_newest_per_kind_and_round_trips() {
        let entries = parse_journal(&journal());
        // keep 1: the older of the two bench-json records goes, the
        // sole trace-jsonl record stays.
        let kept = gc_entries(&entries, 1);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].path, "target/BENCH_b.json");
        assert_eq!(kept[1].path, "target/trace.jsonl");
        assert_eq!(kept[0].index, 0, "survivors are re-indexed");
        assert_eq!(kept[1].index, 1);
        // keep larger than any kind's count: no-op.
        assert_eq!(gc_entries(&entries, 10).len(), 3);
        // keep 0 empties the journal.
        assert!(gc_entries(&entries, 0).is_empty());
        // The rewritten journal parses back to exactly the survivors.
        let dir = std::env::temp_dir().join("eval-obs-runs-gc-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        write_journal(&path, &kept).expect("journal rewrites");
        let reloaded = load_journal(&path).expect("journal reloads");
        assert_eq!(reloaded, kept);
        std::fs::remove_dir_all(&dir).ok();
    }

    mod gc_properties {
        use super::*;
        use proptest::prelude::*;

        const KINDS: [&str; 4] = [
            "bench-json",
            "trace-jsonl",
            "timing-jsonl",
            "postmortem-jsonl",
        ];

        fn entries_from(kinds: &[usize]) -> Vec<RunEntry> {
            kinds
                .iter()
                .enumerate()
                .map(|(i, &k)| RunEntry {
                    index: i,
                    unix_secs: 100 + i as u64,
                    path: format!("target/artifact-{i}.json"),
                    provenance: prov(KINDS[k % KINDS.len()], Some(i as u64), "rev", None),
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]
            // Pins the keep-boundary arithmetic (ISSUE 10 audit): for any
            // journal and any `keep` — including `keep == count` for a
            // kind, `keep == 0`, and `keep > count` — the survivors are
            // exactly the newest `keep` occurrences of each artifact
            // kind, in journal order, re-indexed densely.
            #[test]
            fn gc_survivors_are_exactly_the_newest_keep_per_kind(
                kinds in proptest::collection::vec(0usize..4, 0..40),
                keep in 0usize..8,
            ) {
                let entries = entries_from(&kinds);
                let kept = gc_entries(&entries, keep);

                // Expected survivor set: the last `keep` positions of
                // each kind, computed independently of gc_entries.
                let mut expected: Vec<&RunEntry> = Vec::new();
                for e in &entries {
                    let later_same_kind = entries[e.index + 1..]
                        .iter()
                        .filter(|o| o.provenance.artifact == e.provenance.artifact)
                        .count();
                    if later_same_kind < keep {
                        expected.push(e);
                    }
                }
                prop_assert_eq!(kept.len(), expected.len());
                for (got, want) in kept.iter().zip(&expected) {
                    prop_assert_eq!(&got.path, &want.path);
                    prop_assert_eq!(&got.provenance, &want.provenance);
                }
                // Survivors are re-indexed densely in journal order.
                for (i, got) in kept.iter().enumerate() {
                    prop_assert_eq!(got.index, i);
                }
                // Spot invariants at the boundaries: keep == count for a
                // kind retains every record of it; keep == 0 retains none.
                if keep == 0 {
                    prop_assert!(kept.is_empty());
                }
                for kind in KINDS {
                    let count = entries
                        .iter()
                        .filter(|e| e.provenance.artifact == kind)
                        .count();
                    let survived = kept
                        .iter()
                        .filter(|e| e.provenance.artifact == kind)
                        .count();
                    prop_assert_eq!(survived, count.min(keep));
                }
            }
        }
    }

    #[test]
    fn query_filters_by_config_fingerprint_prefix() {
        let entries = parse_journal(&journal());
        // Only the trace entry carries a fingerprint (hex64(7)).
        let full = hex64(7);
        let hits = query_by_fingerprint(&entries, &full[..4]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].path, "target/trace.jsonl");
        assert_eq!(hits[0].index, 2, "original journal index preserved");
        assert_eq!(query_by_fingerprint(&entries, &full), hits);
        // A prefix matching nothing — and the empty-journal case —
        // both come back empty rather than erroring.
        assert!(query_by_fingerprint(&entries, "ffff").is_empty());
        assert!(query_by_fingerprint(&[], "0").is_empty());
        // The unstamped bench entries never match, even on "".
        assert_eq!(query_by_fingerprint(&entries, "").len(), 1);
    }

    #[test]
    fn list_renders_every_entry() {
        let entries = parse_journal(&journal());
        let listing = render_list(&entries);
        assert!(listing.contains("3 run(s)"));
        assert!(listing.contains("target/BENCH_b.json"));
        assert!(listing.contains("bench-json"));
        let shown = render_show(&entries[2]);
        assert!(shown.contains("trace-jsonl"));
        assert!(shown.contains(&hex64(7)));
    }

    mod journal_properties {
        use super::*;
        use crate::damage;
        use proptest::prelude::*;

        /// Path characters, JSON's escapes and a non-ASCII one included.
        const PATH_CHARS: [char; 10] = ['a', '/', '.', '-', ' ', '"', '\\', '\t', '\n', 'µ'];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Every entry a writer journals parses back whole, in
            /// order. Timestamps stay below 2^53, where JSON numbers
            /// are exact.
            #[test]
            fn prop_journal_lines_round_trip(
                paths in proptest::collection::vec(
                    proptest::collection::vec(0usize..PATH_CHARS.len(), 0..12),
                    0..6,
                ),
                secs in proptest::collection::vec(0u64..1 << 53, 6),
                addrs in proptest::collection::vec(0u64..u64::MAX, 6),
                stamped in proptest::collection::vec(proptest::bool::ANY, 6),
            ) {
                let entries: Vec<RunEntry> = paths
                    .iter()
                    .enumerate()
                    .map(|(i, chars)| {
                        let addr = stamped[i].then_some(addrs[i]);
                        RunEntry {
                            index: i,
                            unix_secs: secs[i],
                            path: chars.iter().map(|&c| PATH_CHARS[c]).collect(),
                            provenance: prov("trace-jsonl", addr, "rev \"µ\"", addr.map(|a| !a)),
                        }
                    })
                    .collect();
                let text: String = entries
                    .iter()
                    .map(|e| journal_line(Path::new(&e.path), &e.provenance, e.unix_secs) + "\n")
                    .collect();
                prop_assert_eq!(parse_journal(&text), entries);
            }

            /// A damaged journal never panics its reader, which drops
            /// only the damaged lines: every entry line left whole
            /// still gives back its entry, in order, indexed densely.
            #[test]
            fn prop_damaged_journal_drops_only_the_damaged_lines(
                kind in 0usize..damage::KINDS,
                at in 0.0f64..1.0,
                ascii in 0u32..128,
            ) {
                let clean = journal();
                let lines: Vec<&str> = clean.lines().collect();
                let entries = parse_journal(&clean);
                prop_assert_eq!(entries.len(), 3);

                let damaged = damage::apply(&clean, kind, at, ascii as u8);
                let parsed = std::panic::catch_unwind(|| parse_journal(&damaged));
                prop_assert!(parsed.is_ok(), "parse_journal panicked on damage {} at {}", kind, at);
                let got = parsed.unwrap();
                for (i, entry) in got.iter().enumerate() {
                    prop_assert_eq!(entry.index, i);
                }
                let mut rest = got.iter();
                for whole in damaged.lines() {
                    // The first two lines are the junk `parse_journal` skips.
                    if let Some(k) = lines.iter().skip(2).position(|l| *l == whole) {
                        let want = &entries[k];
                        prop_assert!(
                            rest.any(|e| e.path == want.path && e.provenance == want.provenance),
                            "entry {} lost after damage {} at {}", k, kind, at
                        );
                    }
                }
            }
        }
    }
}
