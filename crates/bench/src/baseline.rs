//! The repo-root `BENCH_*.json` baseline files: their format, the metric
//! sections a binary records into them, and the gates `--check` holds
//! against them. Only the driver ([`crate::driver::Cli::finish`]) reads
//! or writes the files.
//!
//! The baselines are hand-rolled flat JSON: a top of header scalars
//! (`"schema"`, `"bench"`) followed by named object sections, one per
//! recorded series. Several binaries share one file (netbench,
//! overload_sweep and slo_sweep all record into `BENCH_net.json`), so
//! writers splice their own sections in place instead of rewriting the
//! file — otherwise a `--write` from one bench would silently discard the
//! others' stored numbers and their `--check` would lose its bound.

use std::path::Path;

/// One named object section of a baseline file: `(key, value, decimals)`
/// rows, written in order as `"key": value` with `value` rounded to
/// `decimals` places.
pub struct Section {
    pub name: String,
    pub metrics: Vec<(String, f64, usize)>,
}

impl Section {
    pub fn new<K: Into<String>>(
        name: impl Into<String>,
        metrics: impl IntoIterator<Item = (K, f64, usize)>,
    ) -> Self {
        Section {
            name: name.into(),
            metrics: metrics
                .into_iter()
                .map(|(k, v, d)| (k.into(), v, d))
                .collect(),
        }
    }

    /// The unrounded value recorded under `key`.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == key).map(|m| m.1)
    }

    /// The section's inner lines, indented four spaces.
    pub fn body(&self) -> String {
        self.metrics
            .iter()
            .map(|(k, v, d)| format!("    \"{k}\": {v:.d$}"))
            .collect::<Vec<_>>()
            .join(",\n")
    }
}

/// How far a measured value may stray from its baseline, as a fraction of
/// the baseline. The boundary itself passes.
#[derive(Clone, Copy, Debug)]
pub enum Bound {
    /// Higher is better: `measured >= baseline * f`.
    AtLeast(f64),
    /// Lower is better: `measured <= baseline * f`.
    AtMost(f64),
}

impl Bound {
    pub fn admits(self, measured: f64, baseline: f64) -> bool {
        match self {
            Bound::AtLeast(f) => measured >= baseline * f,
            Bound::AtMost(f) => measured <= baseline * f,
        }
    }
}

/// A regression gate: the metric a binary records as `section.key` is
/// held within `bound` of the committed value under the same name.
#[derive(Clone, Copy, Debug)]
pub struct Gate {
    pub section: &'static str,
    pub key: &'static str,
    pub bound: Bound,
}

impl Gate {
    pub const fn at_least(section: &'static str, key: &'static str, f: f64) -> Gate {
        Gate {
            section,
            key,
            bound: Bound::AtLeast(f),
        }
    }

    pub const fn at_most(section: &'static str, key: &'static str, f: f64) -> Gate {
        Gate {
            section,
            key,
            bound: Bound::AtMost(f),
        }
    }

    /// `(baseline, passed)`, or `None` when `json` records no baseline
    /// for this gate.
    pub fn evaluate(&self, json: &str, measured: f64) -> Option<(f64, bool)> {
        let base = extract(json, self.section, self.key)?;
        Some((base, self.bound.admits(measured, base)))
    }
}

/// A baseline file (relative to the repo root) and the gates a binary's
/// `--check` holds against it.
pub struct Baseline {
    pub file: &'static str,
    pub gates: &'static [Gate],
}

/// Byte range of the top-level object section `name`, from its opening
/// brace to its matching closing brace.
fn section_span(json: &str, name: &str) -> Option<(usize, usize)> {
    let at = json.find(&format!("\"{name}\""))?;
    let open = at + json[at..].find('{')?;
    let mut depth = 0usize;
    for (i, c) in json[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, open + i));
                }
            }
            _ => {}
        }
    }
    None
}

/// Pulls `"key": <number>` out of `section` of a baseline file.
pub fn extract(json: &str, section: &str, key: &str) -> Option<f64> {
    let (open, close) = section_span(json, section)?;
    let body = &json[open..close];
    let rest = &body[body.find(&format!("\"{key}\""))?..];
    let colon = rest.find(':')?;
    let num: String = rest[colon + 1..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

/// Replaces or appends the top-level object section `name`, leaving every
/// other section byte-identical. `body` is the section's inner lines,
/// already indented four spaces, without the surrounding braces or a
/// trailing newline. A missing or unreadable file is (re)created with a
/// schema header.
pub fn upsert_section(path: &Path, name: &str, body: &str) -> std::io::Result<()> {
    let json =
        std::fs::read_to_string(path).unwrap_or_else(|_| "{\n  \"schema\": 1\n}\n".to_string());
    let updated = splice_section(&json, name, body);
    std::fs::write(path, updated)
}

fn splice_section(json: &str, name: &str, body: &str) -> String {
    if let Some((open, close)) = section_span(json, name) {
        format!("{}{{\n{body}\n  {}", &json[..open], &json[close..])
    } else {
        // Append a new section before the file's final closing brace,
        // adding the comma the previous last entry now needs.
        let end = json.rfind('}').unwrap_or(json.len());
        let mut head = json[..end].trim_end().to_string();
        if !head.ends_with(',') && !head.ends_with('{') {
            head.push(',');
        }
        format!("{head}\n  \"{name}\": {{\n{body}\n  }}\n}}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED_FILE: &str = "{\n  \"schema\": 1,\n  \"bench\": \"netbench\",\n  \"current\": {\n    \"p99_us\": 12.5\n  }\n}\n";

    #[test]
    fn append_preserves_existing_sections() {
        let out = splice_section(SEED_FILE, "overload_ctl", "    \"goodput\": 9");
        assert!(out.contains("\"current\""));
        assert!(out.contains("\"p99_us\": 12.5"));
        assert!(out.contains("\"overload_ctl\""));
        assert_eq!(extract(&out, "overload_ctl", "goodput"), Some(9.0));
        assert_eq!(extract(&out, "current", "p99_us"), Some(12.5));
    }

    #[test]
    fn replace_touches_only_the_named_section() {
        let with = splice_section(SEED_FILE, "overload_ctl", "    \"goodput\": 9");
        let out = splice_section(&with, "current", "    \"p99_us\": 99.0");
        assert_eq!(extract(&out, "current", "p99_us"), Some(99.0));
        assert_eq!(extract(&out, "overload_ctl", "goodput"), Some(9.0));
        // Replacing must not duplicate the section.
        assert_eq!(out.matches("\"current\"").count(), 1);
    }

    #[test]
    fn empty_file_gets_a_schema_header() {
        let out = splice_section("{\n  \"schema\": 1\n}\n", "fresh", "    \"x\": 1");
        assert_eq!(extract(&out, "fresh", "x"), Some(1.0));
        assert!(out.starts_with("{\n  \"schema\": 1,\n"));
    }

    #[test]
    fn extract_stays_inside_the_named_section() {
        let with = splice_section(SEED_FILE, "later", "    \"goodput\": 9");
        assert_eq!(extract(&with, "current", "goodput"), None);
    }

    #[test]
    fn section_body_rounds_each_metric_to_its_decimals() {
        let s = Section::new("current", [("rps", 1989360.4, 0), ("p99_us", 161.84, 1)]);
        assert_eq!(s.body(), "    \"rps\": 1989360,\n    \"p99_us\": 161.8");
        assert_eq!(s.get("p99_us"), Some(161.84));
    }

    /// The gate evaluator at its tolerance boundary, in both directions,
    /// for every tolerance the bench binaries use.
    #[test]
    fn gates_pass_at_the_boundary_and_fail_just_past_it() {
        let json = "{\n  \"current\": {\n    \"rate\": 1000,\n    \"p99_us\": 1000\n  }\n}\n";
        for f in [0.7, 0.9] {
            let g = Gate::at_least("current", "rate", f);
            let edge = 1000.0 * f;
            assert_eq!(g.evaluate(json, edge), Some((1000.0, true)), "floor {f}");
            assert_eq!(g.evaluate(json, edge * 1.001), Some((1000.0, true)));
            assert_eq!(g.evaluate(json, edge * 0.999), Some((1000.0, false)));
        }
        let g = Gate::at_most("current", "p99_us", 1.3);
        let edge = 1000.0 * 1.3;
        assert_eq!(g.evaluate(json, edge), Some((1000.0, true)));
        assert_eq!(g.evaluate(json, edge * 0.999), Some((1000.0, true)));
        assert_eq!(g.evaluate(json, edge * 1.001), Some((1000.0, false)));
    }

    #[test]
    fn gate_without_a_baseline_value_is_skipped() {
        let g = Gate::at_least("missing", "rate", 0.7);
        assert_eq!(g.evaluate(SEED_FILE, 1.0), None);
        assert_eq!(g.evaluate("", 1.0), None);
    }
}
