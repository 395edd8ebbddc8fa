//! Content-addressed artifact provenance.
//!
//! Every final artifact the workspace writes — bench JSON, trace JSONL,
//! timing sidecars, postmortem bundles, checkpoint sidecars — can be
//! stamped with a [`Provenance`] record answering "which bytes, produced
//! by which code, under which configuration?":
//!
//! * **content address** — FNV-1a 64 over the artifact payload bytes
//!   (for artifacts that embed their own stamp, the payload is the
//!   rendering *without* the provenance field, so two bit-identical
//!   payloads share an address even when stamped by different
//!   revisions);
//! * **git revision** — read from `.git/HEAD` (no subprocess), so the
//!   stamp works in offline builds; `EVAL_GIT_REVISION` overrides;
//! * **host fingerprint** — FNV-1a 64 over hostname + OS/arch + CPU
//!   model. `bench-check` v2 pools history samples only across matching
//!   hosts, so a laptop's timing distribution never gates a CI box;
//! * **config fingerprint** — the campaign checkpoint fingerprint
//!   (shared [`fnv1a64`] machinery), when the artifact came from a
//!   configured campaign;
//! * **metric-schema hash** — FNV-1a 64 over the compiled-in
//!   [`crate::names`] registry, so consumers can detect schema drift
//!   between producer and reader.
//!
//! Writers additionally append one line per stamped artifact to a *run
//! journal* (`$EVAL_RUNS_JOURNAL`, JSONL, append-only) which
//! `eval-obs runs list|show|diff` reads to compare any two runs by
//! provenance. The journal is opt-in via the environment variable so
//! unit tests and ad-hoc runs stay side-effect free.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::json::{Json, JsonObject};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit over `bytes` — the workspace's canonical content hash,
/// shared with the campaign checkpoint fingerprint.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The canonical 16-digit lowercase hex rendering of a 64-bit hash.
pub fn hex64(hash: u64) -> String {
    format!("{hash:016x}")
}

/// The git revision producing this build's artifacts: the
/// `EVAL_GIT_REVISION` override when set, else the commit `.git/HEAD`
/// resolves to (searching upward from the working directory, following
/// one level of `ref:` indirection through loose and packed refs), else
/// `"unknown"`. No subprocess is spawned, so this works offline.
pub fn git_revision() -> String {
    if let Ok(rev) = std::env::var("EVAL_GIT_REVISION") {
        if !rev.is_empty() {
            return rev;
        }
    }
    resolve_git_head().unwrap_or_else(|| "unknown".to_string())
}

fn resolve_git_head() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            return read_head(&git);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn read_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        // Detached HEAD: the file holds the commit hash directly.
        return Some(head.to_string()).filter(|s| !s.is_empty());
    };
    let refname = refname.trim();
    if let Ok(loose) = std::fs::read_to_string(git.join(refname)) {
        let loose = loose.trim();
        if !loose.is_empty() {
            return Some(loose.to_string());
        }
    }
    // Packed refs: lines of `<hash> <refname>` (comments start with #).
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    for line in packed.lines() {
        if line.starts_with('#') {
            continue;
        }
        if let Some((hash, name)) = line.split_once(' ') {
            if name.trim() == refname {
                return Some(hash.trim().to_string());
            }
        }
    }
    None
}

/// A 16-hex fingerprint of the machine producing an artifact: FNV-1a
/// over `EVAL_HOST_ID` when set, else over hostname + `std::env::consts`
/// OS/arch + the first CPU model line of `/proc/cpuinfo` (absent files
/// contribute nothing). Timing distributions are only comparable within
/// one host fingerprint.
pub fn host_fingerprint() -> String {
    if let Ok(id) = std::env::var("EVAL_HOST_ID") {
        if !id.is_empty() {
            return hex64(fnv1a64(id.as_bytes()));
        }
    }
    let mut canon = String::new();
    if let Ok(hostname) = std::fs::read_to_string("/etc/hostname") {
        canon.push_str(hostname.trim());
    }
    canon.push(';');
    canon.push_str(std::env::consts::OS);
    canon.push(';');
    canon.push_str(std::env::consts::ARCH);
    canon.push(';');
    if let Ok(cpuinfo) = std::fs::read_to_string("/proc/cpuinfo") {
        if let Some(model) = cpuinfo.lines().find(|l| l.starts_with("model name")) {
            canon.push_str(model.trim());
        }
    }
    hex64(fnv1a64(canon.as_bytes()))
}

/// A 16-hex hash of the compiled-in metric-name registry
/// ([`crate::names::ALL_METRICS`]), stamped into every provenance record
/// so a reader can detect producer/consumer schema drift without
/// touching `results/metric_schema.json` on disk.
pub fn metric_schema_hash() -> String {
    let mut hash = FNV_OFFSET;
    for name in crate::names::ALL_METRICS {
        for &b in name.as_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        hash ^= u64::from(b'\n');
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hex64(hash)
}

/// One artifact's provenance stamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Artifact kind label (`bench-json`, `trace-jsonl`, `timing-jsonl`,
    /// `postmortem-jsonl`, `campaign-ckpt`).
    pub artifact: String,
    /// 16-hex FNV-1a of the payload bytes; `None` for append-only logs
    /// whose content is still growing when the stamp is written.
    pub content_address: Option<String>,
    /// Git commit of the producing tree (or `"unknown"`).
    pub git_revision: String,
    /// 16-hex host fingerprint (see [`host_fingerprint`]).
    pub host: String,
    /// 16-hex campaign config fingerprint, when the artifact came from
    /// a configured campaign.
    pub config_fingerprint: Option<String>,
    /// 16-hex compiled-in metric-schema hash.
    pub schema_hash: String,
}

impl Provenance {
    /// Captures the environment half of a stamp (revision, host, schema
    /// hash) for an artifact of the given kind; content address and
    /// config fingerprint start empty.
    pub fn capture(artifact: &str) -> Provenance {
        Provenance {
            artifact: artifact.to_string(),
            content_address: None,
            git_revision: git_revision(),
            host: host_fingerprint(),
            config_fingerprint: None,
            schema_hash: metric_schema_hash(),
        }
    }

    /// Sets the content address to the FNV-1a of `payload`.
    #[must_use]
    pub fn with_content_address(mut self, payload: &[u8]) -> Provenance {
        self.content_address = Some(hex64(fnv1a64(payload)));
        self
    }

    /// Sets the campaign config fingerprint.
    #[must_use]
    pub fn with_config_fingerprint(mut self, fingerprint: u64) -> Provenance {
        self.config_fingerprint = Some(hex64(fingerprint));
        self
    }

    /// The stamp as a bare JSON object (embedded under a `"provenance"`
    /// key in JSON artifacts and checkpoint headers).
    pub fn to_json(&self) -> String {
        self.render(JsonObject::new())
    }

    /// The stamp as a standalone JSONL record (`"kind":"provenance"`) —
    /// the trace footer line.
    pub fn to_record_line(&self) -> String {
        self.render(JsonObject::new().str("kind", "provenance"))
    }

    fn render(&self, o: JsonObject) -> String {
        let mut o = o.str("artifact", &self.artifact);
        o = match &self.content_address {
            Some(addr) => o.str("content_address", addr),
            None => o.raw("content_address", "null"),
        };
        o = o
            .str("git_revision", &self.git_revision)
            .str("host", &self.host);
        o = match &self.config_fingerprint {
            Some(fp) => o.str("config_fingerprint", fp),
            None => o.raw("config_fingerprint", "null"),
        };
        o.str("schema_hash", &self.schema_hash).finish()
    }

    /// Parses a stamp from a JSON value — either the bare object or a
    /// `"kind":"provenance"` record line. `None` when the `artifact`
    /// field is missing.
    pub fn from_json(v: &Json) -> Option<Provenance> {
        Some(Provenance {
            artifact: v.str_field("artifact")?.to_string(),
            content_address: v.str_field("content_address").map(str::to_string),
            git_revision: v.str_field("git_revision").unwrap_or("unknown").to_string(),
            host: v.str_field("host").unwrap_or("").to_string(),
            config_fingerprint: v.str_field("config_fingerprint").map(str::to_string),
            schema_hash: v.str_field("schema_hash").unwrap_or("").to_string(),
        })
    }

    /// Field-by-field comparison: `(field, self value, other value)` for
    /// every differing field, in a fixed order. Empty when the stamps
    /// are identical.
    pub fn diff(&self, other: &Provenance) -> Vec<(&'static str, String, String)> {
        fn opt(v: &Option<String>) -> String {
            v.clone().unwrap_or_else(|| "-".to_string())
        }
        let mut out = Vec::new();
        let fields = [
            ("artifact", self.artifact.clone(), other.artifact.clone()),
            (
                "content_address",
                opt(&self.content_address),
                opt(&other.content_address),
            ),
            (
                "git_revision",
                self.git_revision.clone(),
                other.git_revision.clone(),
            ),
            ("host", self.host.clone(), other.host.clone()),
            (
                "config_fingerprint",
                opt(&self.config_fingerprint),
                opt(&other.config_fingerprint),
            ),
            (
                "schema_hash",
                self.schema_hash.clone(),
                other.schema_hash.clone(),
            ),
        ];
        for (name, a, b) in fields {
            if a != b {
                out.push((name, a, b));
            }
        }
        out
    }
}

/// The run journal path, when journaling is enabled
/// (`EVAL_RUNS_JOURNAL` non-empty).
pub fn journal_path() -> Option<PathBuf> {
    std::env::var_os("EVAL_RUNS_JOURNAL")
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// One rendered journal line for a stamped artifact.
pub fn journal_line(artifact_path: &Path, prov: &Provenance, unix_secs: u64) -> String {
    JsonObject::new()
        .str("kind", "run")
        .u64("unix_secs", unix_secs)
        .str("path", &artifact_path.display().to_string())
        .raw("provenance", &prov.to_json())
        .finish()
}

/// Appends one journal line for `artifact_path` to the journal at
/// `journal` (created, with parents, when missing).
///
/// # Errors
///
/// Any I/O error creating or appending to the journal.
pub fn append_journal_to(
    journal: &Path,
    artifact_path: &Path,
    prov: &Provenance,
    unix_secs: u64,
) -> std::io::Result<()> {
    crate::artifact::ensure_parent_dir(journal)?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(journal)?;
    writeln!(file, "{}", journal_line(artifact_path, prov, unix_secs))
}

/// Appends a journal line for `artifact_path` to the `EVAL_RUNS_JOURNAL`
/// journal; a no-op when the variable is unset (journaling is opt-in).
///
/// # Errors
///
/// Any I/O error on the journal file.
pub fn append_journal(artifact_path: &Path, prov: &Provenance) -> std::io::Result<()> {
    let Some(journal) = journal_path() else {
        return Ok(());
    };
    append_journal_to(&journal, artifact_path, prov, crate::timing::unix_time_secs())
}

/// Stamps a finished trace file: computes the content address over the
/// bytes already on disk, appends one `"kind":"provenance"` footer line
/// (an append, preserving the crash-consistency of the stream), and
/// journals the artifact. Returns the stamp.
///
/// # Errors
///
/// Any I/O error reading or appending to the trace, or writing the
/// journal.
pub fn stamp_trace(path: &Path) -> std::io::Result<Provenance> {
    stamp_jsonl_artifact(path, "trace-jsonl", None)
}

/// [`stamp_trace`] for any append-friendly JSONL artifact: used with
/// `"timing-jsonl"` for the wall-clock sidecar and `"postmortem-jsonl"`
/// for postmortem bundles. A `config_fingerprint`, when the writer
/// has one (postmortem bundles), lands in the stamp and the journal so
/// `eval-obs runs query --config-fingerprint` can find the artifact.
///
/// # Errors
///
/// Any I/O error reading or appending to the file, or writing the
/// journal.
pub fn stamp_jsonl_artifact(
    path: &Path,
    artifact: &str,
    config_fingerprint: Option<u64>,
) -> std::io::Result<Provenance> {
    let payload = std::fs::read(path)?;
    let mut prov = Provenance::capture(artifact).with_content_address(&payload);
    if let Some(fp) = config_fingerprint {
        prov = prov.with_config_fingerprint(fp);
    }
    let mut file = std::fs::OpenOptions::new().append(true).open(path)?;
    writeln!(file, "{}", prov.to_record_line())?;
    file.sync_all()?;
    append_journal(path, &prov)?;
    Ok(prov)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        // Offset basis for the empty input, and the classic "a" vector.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hex64(fnv1a64(b"a")), "af63dc4c8601ec8c");
    }

    #[test]
    fn stamp_round_trips_through_json_and_record_line() {
        let prov = Provenance {
            artifact: "bench-json".to_string(),
            content_address: Some(hex64(fnv1a64(b"payload"))),
            git_revision: "abc123".to_string(),
            host: hex64(1),
            config_fingerprint: Some(hex64(2)),
            schema_hash: metric_schema_hash(),
        };
        let bare = Json::parse(&prov.to_json()).expect("valid JSON");
        assert_eq!(Provenance::from_json(&bare), Some(prov.clone()));
        let line = prov.to_record_line();
        let rec = Json::parse(&line).expect("valid JSON");
        assert_eq!(rec.str_field("kind"), Some("provenance"));
        assert_eq!(Provenance::from_json(&rec), Some(prov));
    }

    #[test]
    fn content_address_is_a_pure_function_of_the_payload() {
        let a = Provenance::capture("trace-jsonl").with_content_address(b"same bytes");
        let b = Provenance::capture("trace-jsonl").with_content_address(b"same bytes");
        let c = Provenance::capture("trace-jsonl").with_content_address(b"other bytes");
        assert_eq!(a.content_address, b.content_address);
        assert_ne!(a.content_address, c.content_address);
        assert!(a.diff(&b).is_empty());
        let d = a.diff(&c);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0, "content_address");
    }

    #[test]
    fn diff_pinpoints_every_differing_field() {
        let a = Provenance {
            artifact: "bench-json".to_string(),
            content_address: Some(hex64(1)),
            git_revision: "r1".to_string(),
            host: hex64(7),
            config_fingerprint: None,
            schema_hash: hex64(9),
        };
        let mut b = a.clone();
        b.git_revision = "r2".to_string();
        b.config_fingerprint = Some(hex64(3));
        let d = a.diff(&b);
        let fields: Vec<&str> = d.iter().map(|(f, _, _)| *f).collect();
        assert_eq!(fields, ["git_revision", "config_fingerprint"]);
        assert_eq!(d[1].1, "-");
    }

    #[test]
    fn schema_hash_is_stable_and_reflects_the_registry() {
        assert_eq!(metric_schema_hash(), metric_schema_hash());
        assert_eq!(metric_schema_hash().len(), 16);
        // Hand-rolled over the same list: must agree with the loop above.
        let joined: String = crate::names::ALL_METRICS
            .iter()
            .map(|n| format!("{n}\n"))
            .collect();
        assert_eq!(metric_schema_hash(), hex64(fnv1a64(joined.as_bytes())));
    }

    #[test]
    fn journal_lines_parse_back_with_path_and_stamp() {
        let prov = Provenance::capture("timing-jsonl").with_content_address(b"x");
        let line = journal_line(Path::new("target/t.timing.jsonl"), &prov, 1_700_000_000);
        let v = Json::parse(&line).expect("valid JSON");
        assert_eq!(v.str_field("kind"), Some("run"));
        assert_eq!(v.u64_field("unix_secs"), Some(1_700_000_000));
        assert_eq!(v.str_field("path"), Some("target/t.timing.jsonl"));
        let nested = v.get("provenance").expect("provenance object");
        assert_eq!(
            Provenance::from_json(nested).expect("parses").content_address,
            prov.content_address
        );
    }

    #[test]
    fn append_journal_to_creates_parents_and_appends() {
        let dir = std::env::temp_dir().join(format!(
            "eval-trace-journal-{}",
            std::process::id()
        ));
        let journal = dir.join("runs").join("journal.jsonl");
        let prov = Provenance::capture("bench-json").with_content_address(b"one");
        append_journal_to(&journal, Path::new("a.json"), &prov, 1).expect("appends");
        append_journal_to(&journal, Path::new("b.json"), &prov, 2).expect("appends");
        let text = std::fs::read_to_string(&journal).expect("readable");
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| Json::parse(l).is_ok()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stamp_trace_appends_one_footer_line_over_the_original_bytes() {
        let dir = std::env::temp_dir().join(format!(
            "eval-trace-stamp-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("trace.jsonl");
        let body = "{\"kind\":\"counter\",\"name\":\"cache.hit\",\"value\":1}\n";
        std::fs::write(&path, body).expect("writable");
        let prov = stamp_trace(&path).expect("stamps");
        assert_eq!(
            prov.content_address,
            Some(hex64(fnv1a64(body.as_bytes())))
        );
        let text = std::fs::read_to_string(&path).expect("readable");
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(body.trim_end()));
        let footer = Json::parse(lines.next().expect("footer")).expect("valid JSON");
        assert_eq!(footer.str_field("kind"), Some("provenance"));
        assert_eq!(lines.next(), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
