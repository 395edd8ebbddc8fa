//! Prometheus-style metrics exposition.
//!
//! [`prometheus`] renders a [`Registry`] snapshot in the Prometheus
//! text exposition format (version 0.0.4): counters and gauges as
//! single samples, histograms as cumulative `_bucket{le="..."}` series
//! plus `_sum`/`_count`. Metric names are sanitized to the Prometheus
//! charset and prefixed `eval_`. The registry iterates in sorted name
//! order, so the rendering is deterministic.
//!
//! [`MetricsServer`] serves a snapshot **file** over plain
//! `std::net::TcpListener` — no HTTP library, by the offline-build
//! constraint. Campaign binaries write the snapshot at end-of-run
//! (`--metrics-out <path>`); `eval-obs serve` re-reads the file on
//! every scrape, so a long campaign can be watched by pointing the
//! server at the path the next run will overwrite.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;

use eval_trace::Registry;

/// Sanitizes a metric name to the Prometheus charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`) and prefixes `eval_`.
pub fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("eval_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn push_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("NaN");
    }
}

/// Renders the registry in the Prometheus text exposition format.
pub fn prometheus(registry: &Registry) -> String {
    let mut out = String::new();
    for (name, value) in registry.counters() {
        let n = metric_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, value) in registry.gauges() {
        let n = metric_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        out.push_str(&n);
        out.push(' ');
        push_num(&mut out, value);
        out.push('\n');
    }
    for (name, h) in registry.histograms() {
        let n = metric_name(name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        // Prometheus buckets are cumulative and `le` is inclusive; our
        // digest is lower-inclusive, so a value exactly on a boundary
        // sits one bucket higher than `le` would place it. The
        // boundaries are reported verbatim — the off-by-one-observation
        // skew only affects values exactly on a bound.
        let mut cumulative: u64 = 0;
        for (bound, count) in h.bounds().iter().zip(h.counts()) {
            cumulative += count;
            out.push_str(&n);
            out.push_str("_bucket{le=\"");
            push_num(&mut out, *bound);
            let _ = writeln!(out, "\"}} {cumulative}");
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count());
        out.push_str(&n);
        out.push_str("_sum ");
        push_num(&mut out, h.sum());
        out.push('\n');
        let _ = writeln!(out, "{n}_count {}", h.count());
    }
    out
}

/// Writes the snapshot to `path` (the `--metrics-out` target),
/// atomically: a scraper (or `eval-obs serve`) re-reading the file mid
/// write sees the old complete snapshot, never a torn one.
///
/// # Errors
///
/// Propagates the I/O error when the file cannot be written.
pub fn write_prometheus(registry: &Registry, path: &Path) -> std::io::Result<()> {
    eval_trace::write_atomic(path, prometheus(registry).as_bytes())
}

/// A minimal scrape endpoint over `std::net` (no HTTP dependency).
#[derive(Debug)]
pub struct MetricsServer {
    listener: TcpListener,
}

impl MetricsServer {
    /// Binds the listener (`127.0.0.1:0` picks a free port).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates the lookup failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts connections and answers every request with the current
    /// contents of `path` (re-read per scrape). Serves forever when
    /// `max_requests` is `None`, else returns after that many
    /// responses — `Some(1)` is the `--once` testing mode.
    ///
    /// # Errors
    ///
    /// Propagates accept failures; per-connection I/O errors are
    /// ignored (the scraper retries).
    pub fn serve_path(&self, path: &Path, max_requests: Option<u64>) -> std::io::Result<u64> {
        let mut served = 0u64;
        for conn in self.listener.incoming() {
            let mut stream = conn?;
            // Drain the request line + headers (best effort; we answer
            // every request the same way).
            let mut buf = [0u8; 1024];
            let _ = stream.read(&mut buf);
            let response = match std::fs::read_to_string(path) {
                Ok(body) => format!(
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                    body.len(),
                    body
                ),
                Err(e) => {
                    let body = format!("metrics file {}: {e}\n", path.display());
                    format!(
                        "HTTP/1.0 503 Service Unavailable\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                        body.len(),
                        body
                    )
                }
            };
            let _ = stream.write_all(response.as_bytes());
            let _ = stream.flush();
            served += 1;
            if max_requests.is_some_and(|max| served >= max) {
                break;
            }
        }
        Ok(served)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eval_trace::{names, MetricUpdate};

    fn sample_registry() -> Registry {
        let mut r = Registry::new();
        r.register_histogram(names::DECISION_LATENCY_US, &[10.0, 100.0]);
        r.apply(&MetricUpdate::CounterAdd(names::SOLVER_CACHE_HITS.into(), 9));
        r.apply(&MetricUpdate::GaugeSet("campaign.phase".into(), 2.0));
        r.apply(&MetricUpdate::Observe(names::DECISION_LATENCY_US.into(), 50.0));
        r.apply(&MetricUpdate::Observe(names::DECISION_LATENCY_US.into(), 500.0));
        r
    }

    #[test]
    fn renders_counters_gauges_and_cumulative_buckets() {
        let text = prometheus(&sample_registry());
        assert!(text.contains("# TYPE eval_solver_cache_hits counter"), "{text}");
        assert!(text.contains("eval_solver_cache_hits 9"), "{text}");
        assert!(text.contains("eval_campaign_phase 2.0"), "{text}");
        assert!(text.contains("eval_decision_latency_us_bucket{le=\"10.0\"} 0"), "{text}");
        assert!(text.contains("eval_decision_latency_us_bucket{le=\"100.0\"} 1"), "{text}");
        assert!(text.contains("eval_decision_latency_us_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("eval_decision_latency_us_sum 550.0"), "{text}");
        assert!(text.contains("eval_decision_latency_us_count 2"), "{text}");
    }

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(prometheus(&sample_registry()), prometheus(&sample_registry()));
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(
            metric_name("decision.latency.nn-table_us"),
            "eval_decision_latency_nn_table_us"
        );
    }

    #[test]
    fn server_answers_a_scrape_with_the_file_contents() {
        let dir = std::env::temp_dir().join(format!("eval-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.prom");
        std::fs::write(&path, "eval_x 1\n").unwrap();

        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = std::thread::spawn(move || server.serve_path(&path, Some(1)));

        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
        assert!(response.contains("text/plain; version=0.0.4"), "{response}");
        assert!(response.ends_with("eval_x 1\n"), "{response}");
        assert_eq!(handle.join().unwrap().unwrap(), 1);
    }

    #[test]
    fn server_reports_a_missing_file_as_503() {
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("addr");
        let missing = std::path::PathBuf::from("/nonexistent/eval-obs/metrics.prom");
        let handle = std::thread::spawn(move || server.serve_path(&missing, Some(1)));
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream.write_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 503"), "{response}");
        handle.join().unwrap().unwrap();
    }
}
