//! Lint driver: file classification, waiver application, workspace walk.
//!
//! The engine decides which [`RuleSet`] applies to each file from its
//! workspace-relative path, lints every in-scope `.rs` file, subtracts
//! waived findings, and reports stale or malformed waivers as findings
//! of their own so the waiver ledger can never rot silently.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use crate::facts;
use crate::lexer;
use crate::rules::{self, Finding, RuleSet};
use crate::scope;

/// Library crates subject to the panic-safety rules (RG001): everything
/// under `crates/` that external code links against. `xtask` dogfoods
/// the same rules; `bench` is a harness binary and exempt from RG001.
const LIB_CRATES: [&str; 16] = [
    "geo",
    "net",
    "db",
    "core",
    "trace",
    "world",
    "dns",
    "rtt",
    "cymru",
    "faultnet",
    "gazetteer",
    "pool",
    "obs",
    "xtask",
    "fuzz",
    "serve",
];

/// Files exempt from RG008 (ad-hoc instrumentation): the bench crate's
/// sanctioned timing module. `crates/obs` itself and binary entry
/// points (`/bin/`, `main.rs`) are exempted structurally in
/// [`rules_for`].
const RG008_EXEMPT_FILES: [&str; 1] = ["crates/bench/src/timing.rs"];

/// Files whose values flow through the `net::trie` / `db::rgdb2` lookup
/// paths; RG003 (checked numeric conversions) applies only here.
const RG003_FILES: [&str; 4] = [
    "crates/net/src/trie.rs",
    "crates/net/src/rangemap.rs",
    "crates/net/src/prefix.rs",
    "crates/db/src/rgdb2.rs",
];

/// Crates whose public functions must carry doc comments (RG005).
const RG005_CRATES: [&str; 2] = ["core", "db"];

/// The core analysis modules that must consume the resolve-once
/// `ResolvedView` rather than re-querying databases; RG009 (no
/// allocating `GeoDatabase::lookup`) applies only here.
const RG009_FILES: [&str; 3] = [
    "crates/core/src/coverage.rs",
    "crates/core/src/consistency.rs",
    "crates/core/src/accuracy.rs",
];

/// The reader/trie lookup paths that parse or index untrusted database
/// bytes; RG010 (no unchecked indexing) applies only here — including
/// the RGDB reader, which is pointer-arithmetic-heavy by design and
/// therefore must stay on checked `get`/`ok_or` access.
const RG010_FILES: [&str; 3] = [
    "crates/db/src/rgdb2.rs",
    "crates/net/src/trie.rs",
    "crates/net/src/prefix.rs",
];

/// Directory names never descended into during the workspace walk.
/// `vendor/` holds offline API stubs for third-party crates — external
/// code by policy, like any vendored dependency. `results/` holds
/// generated experiment artifacts, never source.
const SKIP_DIRS: [&str; 8] = [
    "target", "vendor", ".git", "tests", "benches", "examples", "fixtures", "results",
];

/// Directory names skipped by the `unsafe-audit` walk. Narrower than
/// [`SKIP_DIRS`]: test and bench sources still contain real `unsafe`
/// blocks that need `// SAFETY:` comments, so only non-source trees and
/// deliberately-bad lint fixtures are excluded.
const AUDIT_SKIP_DIRS: [&str; 5] = ["target", "vendor", ".git", "fixtures", "results"];

/// A diagnostic bound to a file, ready for display as
/// `file:line:col RULE-ID message`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule identifier.
    pub rule: String,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{} {} {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// A waiver that matched at least one finding, for `--waivers` audits.
#[derive(Debug, Clone)]
pub struct WaiverRecord {
    /// Workspace-relative path.
    pub file: String,
    /// Line of the waiver comment.
    pub line: u32,
    /// Rules it suppressed.
    pub rules: Vec<String>,
    /// The justification given in the comment.
    pub reason: String,
    /// How many findings it suppressed.
    pub suppressed: usize,
}

/// Result of linting one file or the whole workspace.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Findings that survive waiver subtraction — these fail the build.
    pub violations: Vec<Diagnostic>,
    /// Waivers that suppressed at least one finding.
    pub waivers: Vec<WaiverRecord>,
    /// Number of files actually linted.
    pub files_scanned: usize,
}

impl Outcome {
    fn absorb(&mut self, other: Outcome) {
        self.violations.extend(other.violations);
        self.waivers.extend(other.waivers);
        self.files_scanned += other.files_scanned;
    }
}

/// Decide which rules apply to the file at workspace-relative path
/// `rel` (forward slashes). `None` means the file is out of scope.
pub fn rules_for(rel: &str) -> Option<RuleSet> {
    if !rel.ends_with(".rs") {
        return None;
    }
    let first = rel.split('/').next().unwrap_or("");
    if SKIP_DIRS.contains(&first) || rel.split('/').any(|c| SKIP_DIRS.contains(&c)) {
        return None;
    }

    let mut rules = RuleSet::default();
    if let Some(rest) = rel.strip_prefix("crates/") {
        let krate = rest.split('/').next().unwrap_or("");
        if !rest[krate.len()..].starts_with("/src/") {
            return None; // crate-level build scripts, fixtures, …
        }
        rules.rg001 = LIB_CRATES.contains(&krate);
        rules.rg002 = true;
        rules.rg003 = RG003_FILES.contains(&rel);
        rules.rg004 = true;
        rules.rg005 = RG005_CRATES.contains(&krate);
        rules.rg006 = true;
        // `pool` is the one place allowed to own threads: everything
        // else goes through its deterministic sharded map-reduce.
        rules.rg007 = krate != "pool";
        // `obs` owns wall-clock reads; binaries keep `eprintln!` for
        // CLI diagnostics.
        rules.rg008 = krate != "obs" && !RG008_EXEMPT_FILES.contains(&rel) && !is_binary_entry(rel);
        rules.rg009 = RG009_FILES.contains(&rel);
        rules.rg010 = RG010_FILES.contains(&rel);
        // Holding a lock across a blocking call is a hazard everywhere.
        rules.rg011 = true;
        // Swallowed Results are a library-crate concern; the bench
        // harness may discard at will.
        rules.rg012 = LIB_CRATES.contains(&krate);
        // Placeholder macros (`todo!` / `unimplemented!`) are likewise a
        // library-crate concern — a harness may scaffold.
        rules.rg013 = LIB_CRATES.contains(&krate);
    } else if rel.starts_with("src/") {
        // Umbrella library + CLI binaries: panics are still forbidden in
        // non-test code, but startup `expect`s with reasons are allowed.
        rules.rg002 = true;
        rules.rg004 = true;
        rules.rg006 = true;
        rules.rg007 = true;
        rules.rg008 = !is_binary_entry(rel);
        rules.rg011 = true;
    } else {
        return None;
    }
    Some(rules)
}

/// Whether `rel` is a binary entry point: anything under a `/bin/`
/// directory or a crate's `main.rs`.
fn is_binary_entry(rel: &str) -> bool {
    rel.split('/').any(|c| c == "bin") || rel.ends_with("/main.rs") || rel == "main.rs"
}

/// Lint a single source text as if it lived at `rel`. Pure — fixture
/// tests drive this directly.
pub fn lint_source(rel: &str, src: &str, rules: &RuleSet) -> Outcome {
    let lexed = lexer::lex(src);
    let ctx = rules::build_context(&lexed);
    let mut findings = rules::run_rules(&lexed, &ctx, rules);
    let waivers = rules::parse_waivers(&lexed, &mut findings);

    // Keep (rule, line) of every pre-waiver finding so a stale waiver
    // can report where its target drifted to.
    let all_findings: Vec<(String, u32)> = findings
        .iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect();

    let mut used = vec![0usize; waivers.len()];
    let mut violations = Vec::new();
    for f in findings {
        let slot = waivers
            .iter()
            .position(|w| w.applies_to == f.line && w.rules.iter().any(|r| r == f.rule));
        match slot {
            Some(ix) if f.rule != "XW001" => used[ix] += 1,
            _ => violations.push(to_diag(rel, &f)),
        }
    }
    let mut records = Vec::new();
    for (w, &count) in waivers.iter().zip(&used) {
        if count == 0 {
            // Line-drift aid: point at the nearest surviving finding for
            // the same rule, so a waiver whose code moved is a one-line
            // fix rather than an archaeology session.
            let nearest = all_findings
                .iter()
                .filter(|(rule, _)| w.rules.iter().any(|r| r == rule))
                .min_by_key(|(_, line)| line.abs_diff(w.applies_to));
            let hint = match nearest {
                Some((rule, line)) => format!(
                    "nearest {rule} finding is now on line {line} — move the waiver or \
                     remove it"
                ),
                None => format!(
                    "no {} findings remain in this file; remove it",
                    w.rules.join(",")
                ),
            };
            violations.push(Diagnostic {
                file: rel.to_string(),
                line: w.line,
                col: 1,
                rule: "XW002".into(),
                message: format!(
                    "stale waiver for {} — no matching finding on line {}; {}",
                    w.rules.join(","),
                    w.applies_to,
                    hint
                ),
            });
        } else {
            records.push(WaiverRecord {
                file: rel.to_string(),
                line: w.line,
                rules: w.rules.clone(),
                reason: w.reason.clone(),
                suppressed: count,
            });
        }
    }
    violations.sort_by(|a, b| (a.line, a.col).cmp(&(b.line, b.col)));
    Outcome {
        violations,
        waivers: records,
        files_scanned: 1,
    }
}

fn to_diag(rel: &str, f: &Finding) -> Diagnostic {
    Diagnostic {
        file: rel.to_string(),
        line: f.line,
        col: f.col,
        rule: f.rule.to_string(),
        message: f.message.clone(),
    }
}

/// Lint every in-scope file under the workspace root.
pub fn lint_workspace(root: &Path) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    walk(root, root, &mut out)?;
    out.violations
        .sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    out.waivers
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Outcome) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if let Some(rules) = rules_for(&rel) {
                if rules.is_empty() {
                    continue;
                }
                let src = fs::read_to_string(&path)?;
                out.absorb(lint_source(&rel, &src, &rules));
            }
        }
    }
    Ok(())
}

/// One `unsafe` site found by the audit, bound to its file.
#[derive(Debug, Clone)]
pub struct UnsafeSiteReport {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line of the `unsafe` keyword.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// `"unsafe block"`, `"unsafe fn"`, `"unsafe impl"`, `"unsafe trait"`.
    pub kind: &'static str,
    /// Item name for fn/impl/trait sites.
    pub name: Option<String>,
    /// Whether a `// SAFETY:` comment sits on or directly above the site.
    pub has_safety_comment: bool,
    /// Whether the site is inside test-gated code.
    pub test: bool,
}

impl fmt::Display for UnsafeSiteReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{} {}", self.file, self.line, self.col, self.kind)?;
        if let Some(name) = &self.name {
            write!(f, " `{name}`")?;
        }
        if self.test {
            write!(f, " [test]")?;
        }
        if self.has_safety_comment {
            write!(f, " — SAFETY documented")
        } else {
            write!(f, " — MISSING `// SAFETY:` comment")
        }
    }
}

/// Result of the workspace unsafe audit.
#[derive(Debug, Default)]
pub struct UnsafeAudit {
    /// Every `unsafe` site, in file/line order.
    pub sites: Vec<UnsafeSiteReport>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl UnsafeAudit {
    /// Sites that fail the audit: no `// SAFETY:` comment.
    pub fn violations(&self) -> Vec<&UnsafeSiteReport> {
        self.sites
            .iter()
            .filter(|s| !s.has_safety_comment)
            .collect()
    }
}

/// Audit one source text as if it lived at `rel` — fixture tests drive
/// this directly.
pub fn audit_source(rel: &str, src: &str) -> Vec<UnsafeSiteReport> {
    let lexed = lexer::lex(src);
    let tree = scope::build(&lexed);
    facts::unsafe_sites(&lexed, &tree)
        .into_iter()
        .map(|s| UnsafeSiteReport {
            file: rel.to_string(),
            line: s.line,
            col: s.col,
            kind: s.kind,
            name: s.name,
            has_safety_comment: s.has_safety_comment,
            test: s.test,
        })
        .collect()
}

/// Inventory every `unsafe` site under the workspace root — including
/// test and bench sources, which the lint walk skips.
pub fn unsafe_audit_workspace(root: &Path) -> io::Result<UnsafeAudit> {
    let mut audit = UnsafeAudit::default();
    audit_walk(root, root, &mut audit)?;
    audit
        .sites
        .sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    Ok(audit)
}

fn audit_walk(root: &Path, dir: &Path, audit: &mut UnsafeAudit) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if AUDIT_SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            audit_walk(root, &path, audit)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let src = fs::read_to_string(&path)?;
            audit.sites.extend(audit_source(&rel, &src));
            audit.files_scanned += 1;
        }
    }
    Ok(())
}

/// Locate the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<std::path::PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        cur = dir.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_path() {
        let geo = rules_for("crates/geo/src/coord.rs").expect("in scope");
        assert!(geo.rg001 && geo.rg002 && geo.rg004 && geo.rg006 && geo.rg007);
        assert!(!geo.rg003 && !geo.rg005);

        let faultnet = rules_for("crates/faultnet/src/proxy.rs").expect("in scope");
        assert!(faultnet.rg001 && faultnet.rg006 && faultnet.rg007);

        let pool = rules_for("crates/pool/src/lib.rs").expect("in scope");
        assert!(pool.rg001 && !pool.rg007, "pool owns the threads");

        let trie = rules_for("crates/net/src/trie.rs").expect("in scope");
        assert!(trie.rg003);

        let db = rules_for("crates/db/src/rgdb2.rs").expect("in scope");
        assert!(
            db.rg003 && db.rg005,
            "the RGDB reader converts untrusted numerics and is a db API"
        );

        let core = rules_for("crates/core/src/accuracy.rs").expect("in scope");
        assert!(core.rg005 && !core.rg003);
        assert!(core.rg009, "analysis modules must use the ResolvedView");
        let consistency = rules_for("crates/core/src/consistency.rs").expect("in scope");
        assert!(consistency.rg009);
        let resolve = rules_for("crates/core/src/resolve.rs").expect("in scope");
        assert!(!resolve.rg009, "the view builder itself resolves lookups");
        let inmem = rules_for("crates/db/src/inmem.rs").expect("in scope");
        assert!(!inmem.rg009, "database impls own their lookups");

        let serve = rules_for("crates/serve/src/daemon.rs").expect("in scope");
        assert!(
            serve.rg001 && serve.rg006 && serve.rg007,
            "the daemon is a lib crate: panic-safety and thread rules apply"
        );
        let loadgen = rules_for("crates/serve/src/bin/loadgen.rs").expect("in scope");
        assert!(!loadgen.rg008, "binary entry points own their wall clock");

        let bench = rules_for("crates/bench/src/lab.rs").expect("in scope");
        assert!(!bench.rg001 && bench.rg002 && bench.rg008);

        let timing = rules_for("crates/bench/src/timing.rs").expect("in scope");
        assert!(!timing.rg008, "timing.rs owns the bench wall clock");

        let obs = rules_for("crates/obs/src/lib.rs").expect("in scope");
        assert!(obs.rg001 && !obs.rg008, "obs owns Instant reads");

        let repro = rules_for("crates/bench/src/bin/repro.rs").expect("in scope");
        assert!(!repro.rg008, "binaries keep eprintln for CLI output");

        let xtask_main = rules_for("crates/xtask/src/main.rs").expect("in scope");
        assert!(!xtask_main.rg008 && xtask_main.rg001);

        let fuzz = rules_for("crates/fuzz/src/mutate.rs").expect("in scope");
        assert!(
            fuzz.rg001 && fuzz.rg012 && fuzz.rg013,
            "the fuzz harness is a library crate and dogfoods the gates"
        );

        let root_bin = rules_for("src/bin/routergeo.rs").expect("in scope");
        assert!(!root_bin.rg001 && root_bin.rg002 && root_bin.rg006 && root_bin.rg007);
        assert!(!root_bin.rg008);

        assert!(rules_for("vendor/rand/src/lib.rs").is_none());
        assert!(rules_for("crates/geo/tests/prop_geo.rs").is_none());
        assert!(rules_for("crates/xtask/tests/fixtures/bad.rs").is_none());
        assert!(rules_for("target/debug/build/foo.rs").is_none());
        assert!(rules_for("README.md").is_none());
    }

    #[test]
    fn scope_rule_classification_by_path() {
        let rgdb2 = rules_for("crates/db/src/rgdb2.rs").expect("in scope");
        assert!(
            rgdb2.rg010 && rgdb2.rg011 && rgdb2.rg012,
            "the pointer-arithmetic RGDB reader must stay on checked access"
        );
        let trie = rules_for("crates/net/src/trie.rs").expect("in scope");
        assert!(trie.rg010);
        let prefix = rules_for("crates/net/src/prefix.rs").expect("in scope");
        assert!(prefix.rg010);

        let geo = rules_for("crates/geo/src/coord.rs").expect("in scope");
        assert!(!geo.rg010 && geo.rg011 && geo.rg012 && geo.rg013);
        let bench = rules_for("crates/bench/src/lab.rs").expect("in scope");
        assert!(
            bench.rg011 && !bench.rg012 && !bench.rg013,
            "bench harness may discard and scaffold"
        );
        let bin = rules_for("src/bin/routergeo.rs").expect("in scope");
        assert!(bin.rg011 && !bin.rg010 && !bin.rg012 && !bin.rg013);

        assert!(rules_for("results/leftover.rs").is_none());
    }

    #[test]
    fn stale_waiver_reports_nearest_current_match() {
        let src = "fn f() {\n    let a = 1; // xtask-allow: RG001 drifted\n    \
                   let x = y.unwrap();\n}\n";
        let out = lint_source("lib.rs", src, &RuleSet::all());
        let stale = out
            .violations
            .iter()
            .find(|v| v.rule == "XW002")
            .expect("stale waiver reported");
        assert!(
            stale
                .message
                .contains("nearest RG001 finding is now on line 3"),
            "{}",
            stale.message
        );
    }

    #[test]
    fn stale_waiver_with_no_matching_rule_suggests_removal() {
        let src = "fn f() {\n    let a = 1; // xtask-allow: RG009 gone\n}\n";
        let out = lint_source("lib.rs", src, &RuleSet::all());
        let stale = out
            .violations
            .iter()
            .find(|v| v.rule == "XW002")
            .expect("stale waiver reported");
        assert!(
            stale.message.contains("no RG009 findings remain"),
            "{}",
            stale.message
        );
    }

    #[test]
    fn audit_source_flags_missing_safety_comments() {
        let src = "fn f(v: &[u8]) {\n    // SAFETY: in bounds, len checked above.\n    \
                   let a = unsafe { v.get_unchecked(0) };\n    \
                   let b = unsafe { v.get_unchecked(1) };\n}\n";
        let sites = audit_source("lib.rs", src);
        assert_eq!(sites.len(), 2);
        assert!(sites[0].has_safety_comment);
        assert!(!sites[1].has_safety_comment);
        assert!(sites[1].to_string().contains("MISSING"));
    }

    #[test]
    fn waiver_suppresses_and_stale_waiver_fails() {
        let src = "fn f() {\n    let x = y.unwrap(); // xtask-allow: RG001 y seeded above\n\
                       let z = 1; // xtask-allow: RG001 nothing here\n}\n";
        let out = lint_source("lib.rs", src, &RuleSet::all());
        assert_eq!(out.waivers.len(), 1);
        assert_eq!(out.waivers[0].suppressed, 1);
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].rule, "XW002");
    }

    #[test]
    fn waiver_for_wrong_rule_does_not_suppress() {
        let src = "fn f() { let x = y.unwrap(); } // xtask-allow: RG002 wrong rule\n";
        let out = lint_source("lib.rs", src, &RuleSet::all());
        let rules: Vec<_> = out.violations.iter().map(|v| v.rule.as_str()).collect();
        assert!(rules.contains(&"RG001"), "{rules:?}");
        assert!(rules.contains(&"XW002"), "{rules:?}");
    }

    #[test]
    fn diagnostic_display_format() {
        let d = Diagnostic {
            file: "crates/geo/src/coord.rs".into(),
            line: 7,
            col: 13,
            rule: "RG004".into(),
            message: "float `==` comparison".into(),
        };
        assert_eq!(
            d.to_string(),
            "crates/geo/src/coord.rs:7:13 RG004 float `==` comparison"
        );
    }
}
