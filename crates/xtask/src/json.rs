//! Machine-readable output for `cargo xtask lint --json` and
//! `cargo xtask unsafe-audit --json`.
//!
//! Hand-rolled emission (the workspace vendors no serde): every string
//! passes through one escape routine, field order is fixed, and
//! collections arrive pre-sorted from the engine, so the output is
//! byte-deterministic — CI can diff two runs directly.

use std::fmt::Write as _;

use crate::engine::{Outcome, UnsafeAudit};

/// Render a lint [`Outcome`] as one line of JSON.
pub fn lint_json(out: &Outcome) -> String {
    let mut s = String::new();
    let _ = write!(s, "{{\"files_scanned\":{}", out.files_scanned);
    s.push_str(",\"violations\":[");
    for (n, v) in out.violations.iter().enumerate() {
        if n > 0 {
            s.push(',');
        }
        s.push_str("{\"file\":");
        push_str_value(&mut s, &v.file);
        let _ = write!(s, ",\"line\":{},\"col\":{},\"rule\":", v.line, v.col);
        push_str_value(&mut s, &v.rule);
        s.push_str(",\"message\":");
        push_str_value(&mut s, &v.message);
        s.push('}');
    }
    s.push_str("],\"waivers\":[");
    for (n, w) in out.waivers.iter().enumerate() {
        if n > 0 {
            s.push(',');
        }
        s.push_str("{\"file\":");
        push_str_value(&mut s, &w.file);
        let _ = write!(s, ",\"line\":{},\"rules\":[", w.line);
        for (m, r) in w.rules.iter().enumerate() {
            if m > 0 {
                s.push(',');
            }
            push_str_value(&mut s, r);
        }
        s.push_str("],\"reason\":");
        push_str_value(&mut s, &w.reason);
        let _ = write!(s, ",\"suppressed\":{}}}", w.suppressed);
    }
    s.push_str("]}");
    s
}

/// Render an [`UnsafeAudit`] as one line of JSON.
pub fn unsafe_audit_json(audit: &UnsafeAudit) -> String {
    let mut s = String::new();
    let _ = write!(s, "{{\"files_scanned\":{}", audit.files_scanned);
    let _ = write!(s, ",\"violation_count\":{}", audit.violations().len());
    s.push_str(",\"sites\":[");
    for (n, site) in audit.sites.iter().enumerate() {
        if n > 0 {
            s.push(',');
        }
        s.push_str("{\"file\":");
        push_str_value(&mut s, &site.file);
        let _ = write!(s, ",\"line\":{},\"col\":{},\"kind\":", site.line, site.col);
        push_str_value(&mut s, site.kind);
        s.push_str(",\"name\":");
        match &site.name {
            Some(name) => push_str_value(&mut s, name),
            None => s.push_str("null"),
        }
        let _ = write!(
            s,
            ",\"safety_comment\":{},\"test\":{}}}",
            site.has_safety_comment, site.test
        );
    }
    s.push_str("]}");
    s
}

/// Append `value` as a quoted JSON string with the required escapes.
fn push_str_value(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Diagnostic, Outcome, WaiverRecord};

    #[test]
    fn lint_json_is_exact_and_escaped() {
        let out = Outcome {
            violations: vec![Diagnostic {
                file: "crates/db/src/rgdb2.rs".into(),
                line: 7,
                col: 13,
                rule: "RG010".into(),
                message: "unchecked index `image[at]` — use \"get\"".into(),
            }],
            waivers: vec![WaiverRecord {
                file: "crates/cymru/src/server.rs".into(),
                line: 217,
                rules: vec!["RG011".into()],
                reason: "handoff discipline".into(),
                suppressed: 1,
            }],
            files_scanned: 2,
        };
        assert_eq!(
            lint_json(&out),
            "{\"files_scanned\":2,\"violations\":[{\"file\":\"crates/db/src/rgdb2.rs\",\
             \"line\":7,\"col\":13,\"rule\":\"RG010\",\"message\":\"unchecked index \
             `image[at]` — use \\\"get\\\"\"}],\"waivers\":[{\"file\":\
             \"crates/cymru/src/server.rs\",\"line\":217,\"rules\":[\"RG011\"],\
             \"reason\":\"handoff discipline\",\"suppressed\":1}]}"
        );
    }

    #[test]
    fn empty_outcome_renders_empty_arrays() {
        let out = Outcome::default();
        assert_eq!(
            lint_json(&out),
            "{\"files_scanned\":0,\"violations\":[],\"waivers\":[]}"
        );
    }

    #[test]
    fn unsafe_audit_json_counts_violations() {
        let sites = crate::engine::audit_source(
            "lib.rs",
            "fn f(v: &[u8]) { let a = unsafe { v.get_unchecked(0) }; }",
        );
        let audit = UnsafeAudit {
            sites,
            files_scanned: 1,
        };
        let json = unsafe_audit_json(&audit);
        assert!(json.starts_with("{\"files_scanned\":1,\"violation_count\":1,"));
        assert!(json.contains("\"kind\":\"unsafe block\""));
        assert!(json.contains("\"name\":null"));
        assert!(json.contains("\"safety_comment\":false"));
    }

    #[test]
    fn control_characters_are_escaped() {
        let mut s = String::new();
        push_str_value(&mut s, "a\nb\t\"c\"\\d\u{1}");
        assert_eq!(s, "\"a\\nb\\t\\\"c\\\"\\\\d\\u0001\"");
    }
}
