//! Rule engine: runs every rule over a file or the whole workspace,
//! honours `// lint:allow(rule): reason` escapes, and produces the
//! [`Report`] that the `unicaim-lint` binary serializes to
//! `results/lint.json`.

use std::path::{Path, PathBuf};

use serde::Serialize;

use crate::lexer::{scan, Line};
use crate::rules::{
    check_no_panic, check_nondeterminism, check_registry_sync, check_target_feature, check_unsafe,
    test_regions, Diagnostic, ALL_RULES, RULE_ALLOW_REASON,
};

/// Directories never scanned: vendored stand-ins own their hygiene, build
/// output is generated, and the lint fixtures are violations *on purpose*.
const SKIP_DIRS: [&str; 4] = ["vendor", "target", ".git", "fixtures"];

/// One parsed `lint:allow` escape.
#[derive(Debug, Clone, Serialize)]
pub struct Allow {
    /// The rule being allowed.
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the escape comment.
    pub line: usize,
    /// The justification after the colon (empty = violation).
    pub reason: String,
}

/// The full lint run result.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Every rule the engine knows, in reporting order.
    pub rules: Vec<String>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Surviving violations (empty = clean).
    pub violations: Vec<Diagnostic>,
    /// Every `lint:allow` escape in the scanned set (all carry reasons when
    /// the run is clean — reason-less allows are violations themselves).
    pub allows: Vec<Allow>,
}

impl Report {
    /// Whether the run found no violations.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Extracts every `lint:allow(rule): reason` escape from the comment
/// channel.
///
/// An escape is recognized only when it *begins* the comment — either a
/// dedicated `// lint:allow(...)` line or a trailing comment after code.
/// Prose that merely mentions the syntax (docs, this sentence) never
/// starts a comment with it, so it is not parsed.
fn parse_allows(rel: &str, lines: &[Line]) -> Vec<Allow> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let content = line
            .comment
            .trim_start_matches(|c: char| c == '!' || c.is_whitespace());
        let Some(rest) = content.strip_prefix("lint:allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let reason = rest[close + 1..]
            .strip_prefix(':')
            .map(|r| r.trim().to_string())
            .unwrap_or_default();
        out.push(Allow {
            rule,
            path: rel.to_string(),
            line: idx + 1,
            reason,
        });
    }
    out
}

/// Lints one file's source as if it sat at workspace-relative `rel`.
///
/// Returns the surviving diagnostics plus every allow escape found.
#[must_use]
pub fn lint_source(rel: &str, src: &str) -> (Vec<Diagnostic>, Vec<Allow>) {
    let lines = scan(src);
    let in_test = test_regions(&lines);
    let mut diags = Vec::new();
    diags.extend(check_unsafe(rel, &lines));
    diags.extend(check_no_panic(rel, &lines, &in_test));
    diags.extend(check_target_feature(rel, &lines));
    diags.extend(check_nondeterminism(rel, &lines, &in_test));

    let allows = parse_allows(rel, &lines);
    // An escape must name a known rule and carry a reason; otherwise it is
    // itself a violation (and suppresses nothing).
    for allow in &allows {
        if !ALL_RULES.contains(&allow.rule.as_str()) {
            diags.push(Diagnostic {
                rule: RULE_ALLOW_REASON.to_string(),
                path: rel.to_string(),
                line: allow.line,
                message: format!(
                    "`lint:allow({})` names an unknown rule (known: {})",
                    allow.rule,
                    ALL_RULES.join(", ")
                ),
            });
        } else if allow.reason.is_empty() {
            diags.push(Diagnostic {
                rule: RULE_ALLOW_REASON.to_string(),
                path: rel.to_string(),
                line: allow.line,
                message: format!(
                    "`lint:allow({})` without a reason — escapes must justify \
                     the discharged invariant",
                    allow.rule
                ),
            });
        }
    }
    // A reasoned allow on the same line or the line above suppresses the
    // diagnostic (the escape comment conventionally sits above the code).
    diags.retain(|d| {
        d.rule == RULE_ALLOW_REASON
            || !allows.iter().any(|a| {
                a.rule == d.rule
                    && !a.reason.is_empty()
                    && (a.line == d.line || a.line + 1 == d.line)
            })
    });
    (diags, allows)
}

/// Recursively collects `.rs` files under `dir`, skipping [`SKIP_DIRS`],
/// sorted for deterministic reports.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                collect_rs_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Lints the whole workspace rooted at `root`: every non-vendored `.rs`
/// file plus the registry/baseline/whitelist sync check.
#[must_use]
pub fn lint_workspace(root: &Path) -> Report {
    let mut files = Vec::new();
    for top in ["src", "tests", "examples", "crates"] {
        collect_rs_files(&root.join(top), &mut files);
    }
    let mut violations = Vec::new();
    let mut allows = Vec::new();
    for path in &files {
        let Ok(src) = std::fs::read_to_string(path) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let (diags, file_allows) = lint_source(&rel, &src);
        violations.extend(diags);
        allows.extend(file_allows);
    }
    violations.extend(check_registry_sync(root));
    violations.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule.as_str()).cmp(&(b.path.as_str(), b.line, b.rule.as_str()))
    });
    Report {
        rules: ALL_RULES.iter().map(|r| (*r).to_string()).collect(),
        files_scanned: files.len(),
        violations,
        allows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_with_reason_suppresses_line_below() {
        let src = "// lint:allow(no-panic-in-lib): invariant holds by construction\nlet x = y.unwrap();\n";
        let (diags, allows) = lint_source("crates/kvcache/src/x.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(allows.len(), 1);
        assert!(!allows[0].reason.is_empty());
    }

    #[test]
    fn allow_without_reason_is_a_violation_and_suppresses_nothing() {
        let src = "let x = y.unwrap(); // lint:allow(no-panic-in-lib)\n";
        let (diags, _) = lint_source("crates/kvcache/src/x.rs", src);
        let rules: Vec<&str> = diags.iter().map(|d| d.rule.as_str()).collect();
        assert!(rules.contains(&"allow-needs-reason"), "{diags:?}");
        assert!(rules.contains(&"no-panic-in-lib"), "{diags:?}");
    }

    #[test]
    fn allow_of_unknown_rule_is_flagged() {
        let src = "// lint:allow(no-such-rule): because\nfn f() {}\n";
        let (diags, _) = lint_source("crates/kvcache/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "allow-needs-reason");
    }

    #[test]
    fn same_line_allow_works() {
        let src = "let x = y.unwrap(); // lint:allow(no-panic-in-lib): poisoning is unreachable\n";
        let (diags, _) = lint_source("crates/kvcache/src/x.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
