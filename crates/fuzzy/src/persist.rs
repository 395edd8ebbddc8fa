//! Persistence for trained controllers.
//!
//! The paper stores the trained rule matrices in "a reserved memory area"
//! (~120 KB for the whole controller system, §5). This module provides an
//! equivalent: a small, versioned, human-readable text format for saving
//! and restoring [`FuzzyController`]s, so manufacturer-site training and
//! deployment can live in different processes.
//!
//! The format is line-oriented:
//!
//! ```text
//! fuzzy-controller v1
//! rules <n> inputs <m>
//! mu <m floats>        (n lines)
//! sigma <m floats>     (n lines)
//! y <n floats>
//! ```
//!
//! Its row helpers ([`parse_row`], [`read_row`], [`expect_header`],
//! [`read_dims`], [`dump_floats`]) serve every controller text format in the
//! workspace: this one, the [`Normalizer`](crate::Normalizer)'s, and the
//! learned families' in `eval-adapt`. A row is a line
//! `<prefix> <v1> <v2> ...`. Parsers never size a buffer from a count
//! read from the text, so a forged count fails as a short read.

use std::fmt;
use std::str::FromStr;

use crate::controller::FuzzyController;

/// Error while parsing a serialized controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The header line is missing or has the wrong version.
    BadHeader,
    /// A section is missing or truncated.
    UnexpectedEnd {
        /// What the parser was looking for.
        expected: &'static str,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// The offending token.
        token: String,
    },
    /// The declared dimensions are invalid (zero rules/inputs, or a row
    /// has the wrong arity).
    BadDimensions,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadHeader => write!(f, "missing or unsupported header"),
            PersistError::UnexpectedEnd { expected } => {
                write!(f, "unexpected end of input while reading {expected}")
            }
            PersistError::BadNumber { token } => write!(f, "invalid number {token:?}"),
            PersistError::BadDimensions => write!(f, "invalid controller dimensions"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Parses the whitespace-separated tokens of `rest` as exactly `want`
/// values.
///
/// # Errors
///
/// [`PersistError::BadNumber`] for a token that does not parse,
/// [`PersistError::BadDimensions`] for the wrong number of tokens.
pub fn parse_row<T: FromStr>(rest: &str, want: usize) -> Result<Vec<T>, PersistError> {
    let vals = rest
        .split_whitespace()
        .map(|t| {
            t.parse::<T>().map_err(|_| PersistError::BadNumber {
                token: t.to_string(),
            })
        })
        .collect::<Result<Vec<T>, _>>()?;
    if vals.len() != want {
        return Err(PersistError::BadDimensions);
    }
    Ok(vals)
}

/// Reads the next line as a `prefix` row of exactly `want` values.
///
/// # Errors
///
/// [`PersistError::UnexpectedEnd`] naming `prefix` when the input ends
/// or the line has another prefix, else as [`parse_row`].
pub fn read_row<'a, T: FromStr>(
    lines: &mut impl Iterator<Item = &'a str>,
    prefix: &'static str,
    want: usize,
) -> Result<Vec<T>, PersistError> {
    let rest = lines
        .next()
        .and_then(|l| l.strip_prefix(prefix))
        .ok_or(PersistError::UnexpectedEnd { expected: prefix })?;
    parse_row(rest, want)
}

/// Consumes the format's header line.
///
/// # Errors
///
/// [`PersistError::BadHeader`] when the input is empty or the first
/// line is not `header`.
pub fn expect_header<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    header: &str,
) -> Result<(), PersistError> {
    match lines.next() {
        Some(l) if l.trim() == header => Ok(()),
        _ => Err(PersistError::BadHeader),
    }
}

/// Reads a `<a> <n> <b> <m>` dimensions line and returns `(n, m)`.
///
/// # Errors
///
/// [`PersistError::UnexpectedEnd`] when the input ends, else
/// [`PersistError::BadDimensions`] unless the labels match and both
/// counts are positive integers.
pub fn read_dims<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    a: &str,
    b: &str,
) -> Result<(usize, usize), PersistError> {
    let dims = lines.next().ok_or(PersistError::UnexpectedEnd {
        expected: "dimensions",
    })?;
    let mut it = dims.split_whitespace();
    let count = |t: Option<&str>| t.and_then(|t| t.parse::<usize>().ok()).filter(|&c| c > 0);
    match (it.next(), count(it.next()), it.next(), count(it.next())) {
        (Some(x), Some(n), Some(y), Some(m)) if x == a && y == b => Ok((n, m)),
        _ => Err(PersistError::BadDimensions),
    }
}

/// Writes one row: `prefix`, then ` {v:e}` per value, then a newline.
/// `{:e}` prints the shortest digits that parse back to the same bits,
/// so a round trip is exact for finite values.
pub fn dump_floats(out: &mut String, prefix: &str, vals: &[f64]) {
    out.push_str(prefix);
    for v in vals {
        out.push_str(&format!(" {v:e}"));
    }
    out.push('\n');
}

impl FuzzyController {
    /// Serializes the controller to the v1 text format.
    ///
    /// Uses full-precision hex-free decimal (`{:e}`) so a round trip is
    /// bit-exact for finite values.
    pub fn to_text(&self) -> String {
        let n = self.rules();
        let m = self.inputs();
        let mut out = String::with_capacity(64 + n * m * 26);
        out.push_str("fuzzy-controller v1\n");
        out.push_str(&format!("rules {n} inputs {m}\n"));
        for row in self.mu.chunks_exact(m) {
            dump_floats(&mut out, "mu", row);
        }
        for row in self.sigma.chunks_exact(m) {
            dump_floats(&mut out, "sigma", row);
        }
        dump_floats(&mut out, "y", self.outputs());
        out
    }

    /// Parses a controller from the v1 text format.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on malformed input.
    pub fn from_text(text: &str) -> Result<FuzzyController, PersistError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        expect_header(&mut lines, "fuzzy-controller v1")?;
        let (n, m) = read_dims(&mut lines, "rules", "inputs")?;
        let mut read_matrix = |prefix: &'static str| -> Result<Vec<f64>, PersistError> {
            let mut data = Vec::new();
            for _ in 0..n {
                data.extend(read_row::<f64>(&mut lines, prefix, m)?);
            }
            Ok(data)
        };
        let mu = read_matrix("mu")?;
        let sigma = read_matrix("sigma")?;
        let y = read_row(&mut lines, "y", n)?;
        if !sigma.iter().all(|&s| s > 0.0) {
            return Err(PersistError::BadDimensions);
        }
        Ok(FuzzyController::from_parts(m, mu, sigma, y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::TrainingConfig;

    fn trained() -> FuzzyController {
        let examples: Vec<(Vec<f64>, f64)> = (0..300)
            .map(|i| {
                let a = (i % 20) as f64 / 19.0;
                let b = ((i / 20) % 15) as f64 / 14.0;
                (vec![a, b], a * 0.5 + b * b)
            })
            .collect();
        FuzzyController::train(&examples, &TrainingConfig::micro08(), 3).expect("trains")
    }

    #[test]
    fn round_trip_is_exact() {
        let fc = trained();
        let text = fc.to_text();
        let back = FuzzyController::from_text(&text).expect("parses");
        assert_eq!(fc, back);
        // And behaves identically.
        for x in [[0.1, 0.9], [0.5, 0.5], [0.99, 0.01]] {
            assert_eq!(fc.infer(&x), back.infer(&x));
        }
    }

    #[test]
    fn footprint_matches_papers_budget() {
        // The paper's whole controller system fits in ~120 KB; one of our
        // 25-rule controllers must be a small fraction of that.
        let text = trained().to_text();
        assert!(
            text.len() < 8 * 1024,
            "serialized controller is {} bytes",
            text.len()
        );
    }

    #[test]
    fn rejects_bad_header() {
        assert_eq!(
            FuzzyController::from_text("fuzzy-controller v9\n"),
            Err(PersistError::BadHeader)
        );
        assert_eq!(FuzzyController::from_text(""), Err(PersistError::BadHeader));
    }

    #[test]
    fn rejects_truncation() {
        let fc = trained();
        let text = fc.to_text();
        let cut = &text[..text.len() / 2];
        assert!(FuzzyController::from_text(cut).is_err());
    }

    #[test]
    fn rejects_garbage_numbers() {
        let fc = trained();
        let text = fc.to_text().replacen("mu ", "mu xyz ", 1);
        assert!(matches!(
            FuzzyController::from_text(&text),
            Err(PersistError::BadNumber { .. }) | Err(PersistError::BadDimensions)
        ));
    }

    #[test]
    fn rejects_nonpositive_sigma() {
        let mut text = String::from("fuzzy-controller v1\nrules 1 inputs 1\n");
        text.push_str("mu 0.5\nsigma 0\ny 1.0\n");
        assert_eq!(
            FuzzyController::from_text(&text),
            Err(PersistError::BadDimensions)
        );
    }
}
