//! End-to-end fixture tests for the lint engine: exact rule IDs, line
//! numbers, and waiver behaviour — plus the acceptance gate that the
//! workspace's own tree lints clean.

use std::fs;
use std::path::{Path, PathBuf};

use xtask::deps;
use xtask::engine::{self, lint_source, rules_for};
use xtask::rules::RuleSet;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).expect("fixture file readable")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the root")
        .to_path_buf()
}

#[test]
fn bad_fixture_reports_exact_rules_and_lines() {
    let out = lint_source("bad_rules.rs", &fixture("bad_rules.rs"), &RuleSet::all());
    let got: Vec<(&str, u32)> = out
        .violations
        .iter()
        .map(|v| (v.rule.as_str(), v.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("RG005", 3),  // pub fn undocumented
            ("RG001", 4),  // .unwrap()
            ("RG001", 8),  // .expect("")
            ("RG002", 13), // panic!
            ("RG002", 15), // unreachable!
            ("RG003", 20), // x as u32
            ("RG004", 24), // a == 0.5
        ],
        "full diagnostics: {:#?}",
        out.violations
    );
    assert!(out.waivers.is_empty());
}

#[test]
fn bad_fixture_reports_exact_columns() {
    let out = lint_source("bad_rules.rs", &fixture("bad_rules.rs"), &RuleSet::all());
    let unwrap = &out.violations[1];
    assert_eq!((unwrap.line, unwrap.col), (4, 7), "col of `unwrap` token");
    let cast = &out.violations[5];
    assert_eq!((cast.line, cast.col), (20, 7), "col of `as` token");
}

#[test]
fn bad_fixture_would_fail_the_lint_gate() {
    // The acceptance criterion: reintroducing any fixture-bad snippet
    // makes the lint exit non-zero, which maps to a non-empty violation
    // list here.
    let out = lint_source("bad_rules.rs", &fixture("bad_rules.rs"), &RuleSet::all());
    assert!(!out.violations.is_empty());
}

#[test]
fn test_code_in_fixture_is_exempt() {
    let out = lint_source("bad_rules.rs", &fixture("bad_rules.rs"), &RuleSet::all());
    assert!(
        out.violations.iter().all(|v| v.line < 26),
        "nothing inside #[cfg(test)] may be flagged: {:#?}",
        out.violations
    );
}

#[test]
fn waived_fixture_is_clean_and_audited() {
    let out = lint_source(
        "good_waived.rs",
        &fixture("good_waived.rs"),
        &RuleSet::all(),
    );
    assert!(
        out.violations.is_empty(),
        "waivers must suppress everything: {:#?}",
        out.violations
    );
    let got: Vec<(u32, &str)> = out
        .waivers
        .iter()
        .map(|w| (w.line, w.rules[0].as_str()))
        .collect();
    assert_eq!(
        got,
        vec![(4, "RG001"), (7, "RG002"), (11, "RG003"), (15, "RG004")]
    );
    assert!(
        out.waivers.iter().all(|w| !w.reason.is_empty()),
        "every audited waiver carries its reason"
    );
}

#[test]
fn stale_and_malformed_waivers_fail() {
    let out = lint_source(
        "bad_waivers.rs",
        &fixture("bad_waivers.rs"),
        &RuleSet::all(),
    );
    let got: Vec<(&str, u32)> = out
        .violations
        .iter()
        .map(|v| (v.rule.as_str(), v.line))
        .collect();
    assert_eq!(
        got,
        vec![(XW_STALE, 4), (XW_MALFORMED, 7)],
        "{:#?}",
        out.violations
    );
}

const XW_STALE: &str = "XW002";
const XW_MALFORMED: &str = "XW001";

#[test]
fn rg006_fixture_reports_deadline_less_sockets_and_honours_waivers() {
    let out = lint_source("bad_rg006.rs", &fixture("bad_rg006.rs"), &RuleSet::all());
    let got: Vec<(&str, u32)> = out
        .violations
        .iter()
        .map(|v| (v.rule.as_str(), v.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("RG006", 8),  // TcpStream::connect without a deadline
            ("RG006", 16), // set_read_timeout(None)
            ("RG006", 17), // set_write_timeout(None)
        ],
        "full diagnostics: {:#?}",
        out.violations
    );
    // connect_timeout, Some(..) deadlines, and #[cfg(test)] code pass;
    // the waived self-nudge is suppressed and audited.
    assert_eq!(out.waivers.len(), 1);
    assert_eq!(out.waivers[0].rules, vec!["RG006".to_string()]);
    assert_eq!(out.waivers[0].suppressed, 1);
}

#[test]
fn rg007_fixture_reports_ad_hoc_threading_and_honours_waivers() {
    let out = lint_source("bad_rg007.rs", &fixture("bad_rg007.rs"), &RuleSet::all());
    let got: Vec<(&str, u32)> = out
        .violations
        .iter()
        .map(|v| (v.rule.as_str(), v.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("RG007", 7),  // thread::spawn fan-out
            ("RG007", 11), // thread::scope fan-out
        ],
        "full diagnostics: {:#?}",
        out.violations
    );
    // thread::sleep, scope-handle `.spawn`, and #[cfg(test)] code pass;
    // the waived watchdog is suppressed and audited.
    assert_eq!(out.waivers.len(), 1);
    assert_eq!(out.waivers[0].rules, vec!["RG007".to_string()]);
    assert_eq!(out.waivers[0].suppressed, 1);
}

#[test]
fn rg008_fixture_reports_adhoc_instrumentation_and_honours_waivers() {
    let out = lint_source("bad_rg008.rs", &fixture("bad_rg008.rs"), &RuleSet::all());
    let got: Vec<(&str, u32)> = out
        .violations
        .iter()
        .map(|v| (v.rule.as_str(), v.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("RG008", 7),  // Instant::now()
            ("RG008", 8),  // std::time::Instant::now()
            ("RG008", 14), // eprintln! progress print
        ],
        "full diagnostics: {:#?}",
        out.violations
    );
    // println! (stdout tables), injected clocks, and #[cfg(test)] code
    // pass; the waived system-clock impl is suppressed and audited.
    assert_eq!(out.waivers.len(), 1);
    assert_eq!(out.waivers[0].rules, vec!["RG008".to_string()]);
    assert_eq!(out.waivers[0].suppressed, 1);
}

#[test]
fn rg009_fixture_reports_allocating_lookups_and_honours_waivers() {
    let out = lint_source("bad_rg009.rs", &fixture("bad_rg009.rs"), &RuleSet::all());
    let got: Vec<(&str, u32)> = out
        .violations
        .iter()
        .map(|v| (v.rule.as_str(), v.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("RG009", 7),  // db.lookup(*ip) in a tally loop
            ("RG009", 15), // d.lookup(ip) in a map chain
        ],
        "full diagnostics: {:#?}",
        out.violations
    );
    // lookup_compact, view.record, path-form country::lookup, and
    // #[cfg(test)] code pass; the waived bridge is suppressed and audited.
    assert_eq!(out.waivers.len(), 1);
    assert_eq!(out.waivers[0].rules, vec!["RG009".to_string()]);
    assert_eq!(out.waivers[0].suppressed, 1);
}

#[test]
fn rg010_fixture_reports_unchecked_indexing_with_exact_positions() {
    let out = lint_source("bad_rg010.rs", &fixture("bad_rg010.rs"), &RuleSet::all());
    let got: Vec<(&str, u32, u32)> = out
        .violations
        .iter()
        .map(|v| (v.rule.as_str(), v.line, v.col))
        .collect();
    assert_eq!(
        got,
        vec![
            ("RG010", 6, 21), // image[at]
            ("RG010", 7, 24), // &image[at..at + len]
            ("RG010", 9, 32), // get_unchecked(at)
        ],
        "full diagnostics: {:#?}",
        out.violations
    );
    // image[0] (single literal), .get(at), and #[cfg(test)] code pass.
}

#[test]
fn rg011_fixture_flags_guards_held_across_blocking_calls() {
    let out = lint_source("bad_rg011.rs", &fixture("bad_rg011.rs"), &RuleSet::all());
    let got: Vec<(&str, u32, u32)> = out
        .violations
        .iter()
        .map(|v| (v.rule.as_str(), v.line, v.col))
        .collect();
    assert_eq!(
        got,
        vec![
            ("RG011", 16, 15), // decode_record under `guard`
            ("RG011", 27, 18), // thread::sleep under read guard
        ],
        "full diagnostics: {:#?}",
        out.violations
    );
    // Scoped probe, decode-after-drop, and re-lock-to-publish pass.
    let msg = &out.violations[0].message;
    assert!(
        msg.contains("`decode_record`") && msg.contains("`guard`") && msg.contains("line 9"),
        "message names the call, the guard, and the acquisition line: {msg}"
    );
}

#[test]
fn rg012_fixture_flags_swallowed_results() {
    let out = lint_source("bad_rg012.rs", &fixture("bad_rg012.rs"), &RuleSet::all());
    let got: Vec<(&str, u32, u32)> = out
        .violations
        .iter()
        .map(|v| (v.rule.as_str(), v.line, v.col))
        .collect();
    assert_eq!(
        got,
        vec![
            ("RG012", 6, 21), // statement-position .ok()
            ("RG012", 7, 5),  // let _: Result<..> typed discard
            ("RG012", 8, 5),  // let _ = in-file fallible call
        ],
        "full diagnostics: {:#?}",
        out.violations
    );
    // is_ok(), unwrap_or, propagation, and #[cfg(test)] discards pass.
}

#[test]
fn rg013_fixture_flags_placeholders_and_honours_waivers() {
    let out = lint_source("bad_rg013.rs", &fixture("bad_rg013.rs"), &RuleSet::all());
    let got: Vec<(&str, u32)> = out
        .violations
        .iter()
        .map(|v| (v.rule.as_str(), v.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("RG013", 5),  // todo! on a library path
            ("RG013", 14), // unimplemented! arm
            ("RG002", 15), // unreachable! stays RG002's, reported once
        ],
        "full diagnostics: {:#?}",
        out.violations
    );
    // The waived scaffold is suppressed and audited; #[cfg(test)]
    // placeholders pass outright.
    assert_eq!(out.waivers.len(), 1);
    assert_eq!(out.waivers[0].rules, vec!["RG013".to_string()]);
    assert_eq!(out.waivers[0].suppressed, 1);
}

#[test]
fn rg014_fixture_flags_repeated_reservations() {
    let out = lint_source("bad_rg014.rs", &fixture("bad_rg014.rs"), &RuleSet::all());
    let got: Vec<(&str, u32, u32)> = out
        .violations
        .iter()
        .map(|v| (v.rule.as_str(), v.line, v.col))
        .collect();
    assert_eq!(
        got,
        vec![
            ("RG014", 5, 5),  // the repeat form over a reserved element
            ("RG014", 9, 5),  // the outer repeat clones the reserved inner Vecs too
            ("RG014", 9, 10), // the inner repeat
        ],
        "full diagnostics: {:#?}",
        out.violations
    );
    // One-by-one construction, the list form, a reservation inside the
    // count and #[cfg(test)] code pass; the waived site is audited.
    assert_eq!(out.waivers.len(), 1);
    assert_eq!(out.waivers[0].rules, vec!["RG014".to_string()]);
    assert_eq!(out.waivers[0].suppressed, 1);
}

#[test]
fn unsafe_audit_fixture_reports_every_site_and_flags_undocumented_ones() {
    let sites = engine::audit_source("bad_unsafe.rs", &fixture("bad_unsafe.rs"));
    let got: Vec<(u32, &str, Option<&str>, bool, bool)> = sites
        .iter()
        .map(|s| {
            (
                s.line,
                s.kind,
                s.name.as_deref(),
                s.has_safety_comment,
                s.test,
            )
        })
        .collect();
    assert_eq!(
        got,
        vec![
            (6, "unsafe block", None, true, false),
            (11, "unsafe block", None, false, false),
            (15, "unsafe fn", Some("third"), false, false),
            (24, "unsafe block", None, false, true),
        ],
        "full sites: {:#?}",
        sites
    );
    let audit = engine::UnsafeAudit {
        sites,
        files_scanned: 1,
    };
    assert_eq!(audit.violations().len(), 3);
}

#[test]
fn scope_tree_of_net_lib_is_pinned_byte_exact() {
    // The scope tree of a real workspace file, rendered and compared
    // byte-for-byte. Regenerate after intentional changes with:
    //   BLESS=1 cargo test -p xtask --test lint_fixtures scope_tree
    let src = fs::read_to_string(workspace_root().join("crates/net/src/lib.rs"))
        .expect("crates/net/src/lib.rs readable");
    let lexed = xtask::lexer::lex(&src);
    let rendered = xtask::scope::build(&lexed).render();
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/net_lib_scope.txt");
    if std::env::var("BLESS").is_ok() {
        fs::write(&golden_path, &rendered).expect("golden writable");
    }
    let golden = fs::read_to_string(&golden_path).expect("golden scope render present");
    assert_eq!(
        rendered, golden,
        "scope tree of crates/net/src/lib.rs drifted from the golden render"
    );
}

#[test]
fn only_core_analysis_modules_carry_rg009() {
    let coverage = rules_for("crates/core/src/coverage.rs").expect("in scope");
    assert!(coverage.rg009);
    let resolve = rules_for("crates/core/src/resolve.rs").expect("in scope");
    assert!(!resolve.rg009, "the view builder itself resolves lookups");
    let inmem = rules_for("crates/db/src/inmem.rs").expect("in scope");
    assert!(!inmem.rg009, "database impls own their lookups");
}

#[test]
fn obs_and_timing_files_are_exempt_from_rg008() {
    let obs = rules_for("crates/obs/src/lib.rs").expect("in scope");
    assert!(!obs.rg008);
    let timing = rules_for("crates/bench/src/timing.rs").expect("in scope");
    assert!(!timing.rg008);
    let lab = rules_for("crates/bench/src/lab.rs").expect("in scope");
    assert!(lab.rg008);
}

#[test]
fn pool_crate_is_exempt_from_rg007_everyone_else_is_not() {
    let pool = rules_for("crates/pool/src/lib.rs").expect("in scope");
    assert!(!pool.rg007);
    let core = rules_for("crates/core/src/accuracy.rs").expect("in scope");
    assert!(core.rg007);
}

#[test]
fn fixtures_are_outside_workspace_lint_scope() {
    assert!(rules_for("crates/xtask/tests/fixtures/bad_rules.rs").is_none());
}

#[test]
fn workspace_tree_lints_clean() {
    let out = engine::lint_workspace(&workspace_root()).expect("workspace walk succeeds");
    assert!(out.files_scanned > 50, "walk found the workspace sources");
    assert!(
        out.violations.is_empty(),
        "the tree must stay lint-clean; fix or waive:\n{}",
        out.violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_manifests_pass_dependency_policy() {
    let violations = deps::check_workspace(&workspace_root()).expect("manifests readable");
    assert!(
        violations.is_empty(),
        "dependency policy violations:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
