//! End-to-end campaign benchmark with a per-layer ledger.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how to take a traced run.

pub mod layers;
pub mod report;
pub mod run;
pub mod spans;
pub mod workload;

/// The `q` quantile (0..=1) of `xs` by linear interpolation between
/// order statistics; NaN when `xs` is empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident memory of this process (`VmHWM`), MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0], 1.0), 2.0);
        assert!(median(&[]).is_nan());
    }
}
