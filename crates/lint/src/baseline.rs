//! The reviewed suppression baseline (`lint.toml`).
//!
//! Findings the team has examined and judged acceptable are recorded in
//! `lint.toml` at the repo root, one `[[allow]]` entry per suppression.
//! Every entry **must** carry a written `reason`; entries without one
//! are a parse error. The file is a ratchet, not a dumping ground:
//!
//! - `max_entries = N` at the top caps the entry count — adding a new
//!   suppression without consciously raising the cap fails the run (and
//!   raising it is a visible diff for reviewers);
//! - an entry's `max` (default 1) caps how many findings it may absorb,
//!   so a pattern-scoped entry cannot quietly swallow new sites;
//! - an entry matching **zero** findings is stale and fails the run —
//!   fixed code must shed its suppressions.
//!
//! The format is a small TOML subset (this tool is dependency-free):
//! comments, `key = value` with integer/string values, and `[[allow]]`
//! array-of-tables headers. Example:
//!
//! ```toml
//! max_entries = 8
//!
//! [[allow]]
//! rule = "R1"
//! file = "crates/engine/src/codec.rs"
//! token = "index"
//! pattern = "tables["
//! max = 20
//! reason = "CRC table index is `(x & 0xFF) as usize` into [u32; 256]; in bounds by type"
//! ```

use crate::rules::Finding;

/// One `[[allow]]` suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Rule id the entry applies to (`"R1"` … `"R5"`).
    pub rule: String,
    /// Repo-relative file the entry applies to.
    pub file: String,
    /// Optional finding-token filter (`"index"`, `"unwrap"`, …).
    pub token: Option<String>,
    /// Optional substring that must appear in the finding's trimmed
    /// source line. Anchors the suppression to specific code, so the
    /// entry dies with the code it excuses.
    pub pattern: Option<String>,
    /// How many findings this entry may absorb (default 1).
    pub max: u32,
    /// Why the finding is acceptable. Required.
    pub reason: String,
    /// 1-based line of the entry header in `lint.toml`, for messages.
    pub line: u32,
}

/// The parsed baseline file.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Hard cap on `allows.len()`, the reviewed ratchet.
    pub max_entries: u32,
    /// The suppression entries.
    pub allows: Vec<Allow>,
}

/// A problem in the baseline file itself or in its application.
#[derive(Debug, PartialEq, Eq)]
pub struct BaselineError {
    /// 1-based line in `lint.toml` (0 when file-level).
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

/// Parse `lint.toml` text.
pub fn parse(text: &str) -> Result<Baseline, BaselineError> {
    let mut baseline = Baseline::default();
    let mut current: Option<Allow> = None;
    let mut saw_max = false;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            finish_entry(&mut baseline, current.take(), lineno)?;
            current = Some(Allow {
                rule: String::new(),
                file: String::new(),
                token: None,
                pattern: None,
                max: 1,
                reason: String::new(),
                line: lineno,
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(BaselineError {
                line: lineno,
                message: format!("expected `key = value` or `[[allow]]`, got `{line}`"),
            });
        };
        let key = key.trim();
        let value = value.trim();
        match (&mut current, key) {
            (None, "max_entries") => {
                baseline.max_entries = value.parse().map_err(|_| BaselineError {
                    line: lineno,
                    message: format!("max_entries must be an integer, got `{value}`"),
                })?;
                saw_max = true;
            }
            (None, other) => {
                return Err(BaselineError {
                    line: lineno,
                    message: format!("unknown top-level key `{other}`"),
                });
            }
            (Some(a), _) => {
                let s = |v: &str| -> Result<String, BaselineError> {
                    v.strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .map(|v| v.replace("\\\"", "\"").replace("\\\\", "\\"))
                        .ok_or_else(|| BaselineError {
                            line: lineno,
                            message: format!("`{key}` must be a quoted string"),
                        })
                };
                match key {
                    "rule" => a.rule = s(value)?,
                    "file" => a.file = s(value)?,
                    "token" => a.token = Some(s(value)?),
                    "pattern" => a.pattern = Some(s(value)?),
                    "reason" => a.reason = s(value)?,
                    "max" => {
                        a.max = value.parse().map_err(|_| BaselineError {
                            line: lineno,
                            message: format!("max must be an integer, got `{value}`"),
                        })?;
                    }
                    other => {
                        return Err(BaselineError {
                            line: lineno,
                            message: format!("unknown allow key `{other}`"),
                        });
                    }
                }
            }
        }
    }
    let end = text.lines().count() as u32;
    finish_entry(&mut baseline, current.take(), end)?;
    if !saw_max {
        return Err(BaselineError {
            line: 0,
            message: "missing required `max_entries = N` (the review ratchet)".to_string(),
        });
    }
    Ok(baseline)
}

fn finish_entry(
    baseline: &mut Baseline,
    entry: Option<Allow>,
    lineno: u32,
) -> Result<(), BaselineError> {
    let Some(a) = entry else { return Ok(()) };
    for (field, ok) in [
        ("rule", !a.rule.is_empty()),
        ("file", !a.file.is_empty()),
        ("reason", !a.reason.is_empty()),
    ] {
        if !ok {
            return Err(BaselineError {
                line: a.line,
                message: format!(
                    "[[allow]] entry ending before line {lineno} is missing required `{field}`"
                ),
            });
        }
    }
    if a.max == 0 {
        return Err(BaselineError {
            line: a.line,
            message: "max = 0 suppresses nothing — delete the entry instead".to_string(),
        });
    }
    baseline.allows.push(a);
    Ok(())
}

/// Apply the baseline to raw findings.
///
/// Returns the findings that survive (unsuppressed) plus ratchet errors
/// (over-budget entries, stale entries, entry-count over `max_entries`).
/// A finding is absorbed by the **first** entry that matches it and
/// still has budget.
pub fn apply(baseline: &Baseline, findings: &[Finding]) -> (Vec<Finding>, Vec<BaselineError>) {
    let mut errors = Vec::new();
    if baseline.allows.len() as u32 > baseline.max_entries {
        errors.push(BaselineError {
            line: 0,
            message: format!(
                "{} [[allow]] entries exceed max_entries = {} — fix findings or consciously raise the ratchet",
                baseline.allows.len(),
                baseline.max_entries
            ),
        });
    }
    let mut used = vec![0u32; baseline.allows.len()];
    let mut surviving = Vec::new();
    'findings: for f in findings {
        for (i, a) in baseline.allows.iter().enumerate() {
            if entry_matches(a, f) {
                used[i] += 1;
                if used[i] > a.max {
                    errors.push(BaselineError {
                        line: a.line,
                        message: format!(
                            "entry for {} [{}] absorbed more than max = {} findings (extra: {}:{}) — new sites need their own review",
                            a.file,
                            a.rule,
                            a.max,
                            f.file,
                            f.line
                        ),
                    });
                }
                continue 'findings;
            }
        }
        surviving.push(f.clone());
    }
    for (i, a) in baseline.allows.iter().enumerate() {
        if used[i] == 0 {
            errors.push(BaselineError {
                line: a.line,
                message: format!(
                    "stale entry: no {} finding in {} matches it any more — delete it (and lower max_entries)",
                    a.rule, a.file
                ),
            });
        }
    }
    (surviving, errors)
}

fn entry_matches(a: &Allow, f: &Finding) -> bool {
    a.rule == f.rule
        && a.file == f.file
        && a.token.as_deref().is_none_or(|t| t == f.token)
        && a.pattern.as_deref().is_none_or(|p| f.excerpt.contains(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, line: u32, token: &str, excerpt: &str) -> Finding {
        Finding {
            rule,
            token: token.to_string(),
            file: file.to_string(),
            line,
            message: String::new(),
            excerpt: excerpt.to_string(),
        }
    }

    const TOML: &str = r#"
# Reviewed suppressions.
max_entries = 2

[[allow]]
rule = "R1"
file = "a.rs"
token = "index"
pattern = "TABLE["
max = 2
reason = "byte-as-usize into a [u64; 256]"

[[allow]]
rule = "R1"
file = "b.rs"
reason = "join() on a thread we spawned"
"#;

    #[test]
    fn parse_roundtrip() {
        let b = parse(TOML).unwrap();
        assert_eq!(b.max_entries, 2);
        assert_eq!(b.allows.len(), 2);
        assert_eq!(b.allows[0].max, 2);
        assert_eq!(b.allows[0].pattern.as_deref(), Some("TABLE["));
        assert_eq!(b.allows[1].max, 1);
    }

    #[test]
    fn missing_reason_is_a_parse_error() {
        let e = parse("max_entries = 1\n[[allow]]\nrule = \"R1\"\nfile = \"a.rs\"\n").unwrap_err();
        assert!(e.message.contains("reason"), "{e}");
    }

    #[test]
    fn suppression_stale_and_overflow() {
        let b = parse(TOML).unwrap();
        // Two TABLE[ findings absorbed; third overflows; b.rs entry is
        // stale; one unrelated finding survives.
        let findings = vec![
            finding("R1", "a.rs", 10, "index", "let x = TABLE[b as usize];"),
            finding("R1", "a.rs", 20, "index", "let y = TABLE[c as usize];"),
            finding("R1", "a.rs", 30, "index", "let z = TABLE[d as usize];"),
            finding("R1", "c.rs", 5, "unwrap", "v.unwrap()"),
        ];
        let (surviving, errors) = apply(&b, &findings);
        assert_eq!(surviving.len(), 1);
        assert_eq!(surviving[0].file, "c.rs");
        assert_eq!(errors.len(), 2, "{errors:#?}");
        assert!(errors.iter().any(|e| e.message.contains("more than max")));
        assert!(errors.iter().any(|e| e.message.contains("stale")));
    }

    #[test]
    fn entry_count_ratchet() {
        let mut b = parse(TOML).unwrap();
        b.max_entries = 1;
        let findings = vec![
            finding("R1", "a.rs", 10, "index", "TABLE[0]"),
            finding("R1", "b.rs", 1, "unwrap", "x.unwrap()"),
        ];
        let (_, errors) = apply(&b, &findings);
        assert!(errors.iter().any(|e| e.message.contains("max_entries")), "{errors:#?}");
    }

    #[test]
    fn missing_max_entries_fails() {
        assert!(parse("[[allow]]\nrule=\"R1\"\nfile=\"a\"\nreason=\"r\"\n").is_err());
    }
}
