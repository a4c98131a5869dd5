//! The tier-1 gate: the workspace itself must lint clean, and the engine's
//! discovery/exemption behaviour must match the real tree.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

#[test]
fn workspace_lints_clean() {
    let report = ppn_check::run(&workspace_root()).expect("workspace scan");
    assert!(
        report.is_clean(),
        "ppn-check found {} diagnostic(s):\n{}",
        report.diagnostics.len(),
        report.diagnostics.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
    assert!(report.files > 50, "suspiciously few files scanned: {}", report.files);
}

#[test]
fn vendored_shims_are_discovered_but_exempt() {
    let crates = ppn_check::discover(&workspace_root()).expect("discover");
    let shims: Vec<&str> =
        crates.iter().filter(|c| !c.is_first_party()).map(|c| c.name.as_str()).collect();
    for expected in
        ["rand", "serde", "serde_derive", "serde_json", "proptest", "parking_lot", "mio"]
    {
        assert!(shims.contains(&expected), "{expected} missing from {shims:?}");
    }
    let first_party: Vec<&str> =
        crates.iter().filter(|c| c.is_first_party()).map(|c| c.name.as_str()).collect();
    for expected in [
        "ppn-repro",
        "ppn-core",
        "ppn-market",
        "ppn-baselines",
        "ppn-tensor",
        "ppn-obs",
        "ppn-check",
    ] {
        assert!(first_party.contains(&expected), "{expected} missing from {first_party:?}");
    }
}

#[test]
fn report_counts_shims() {
    let report = ppn_check::run(&workspace_root()).expect("workspace scan");
    assert_eq!(
        report.shims_skipped, 7,
        "rand, serde, serde_derive, serde_json, proptest, parking_lot, mio"
    );
}

#[test]
fn every_rule_is_timed_once() {
    let report = ppn_check::run(&workspace_root()).expect("workspace scan");
    let file_rules = ppn_check::rules::registry().len();
    let ws_rules = ppn_check::workspace::registry().len();
    assert_eq!(report.timings.len(), file_rules + ws_rules);
    assert_eq!(
        report.timings.iter().filter(|t| t.kind == ppn_check::RuleKind::Workspace).count(),
        ws_rules
    );
    // Timings carry the registry ids, in registry order.
    let ids: Vec<&str> = report.timings.iter().map(|t| t.id).collect();
    assert_eq!(
        &ids[..file_rules],
        &ppn_check::rules::registry().iter().map(|r| r.id).collect::<Vec<_>>()[..]
    );
}

#[test]
fn self_lint_fits_the_runtime_budget() {
    // The gate runs on every `cargo test` and in CI ahead of the build, so
    // it must stay cheap: a full scan + all rules in under 2 seconds.
    let t0 = std::time::Instant::now();
    let report = ppn_check::run(&workspace_root()).expect("workspace scan");
    let elapsed = t0.elapsed();
    assert!(report.files > 50);
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "self-lint took {elapsed:?}, budget is 2s (per-rule timings: {:?})",
        report.timings.iter().map(|t| (t.id, t.micros)).collect::<Vec<_>>()
    );
}

#[test]
fn json_report_is_well_formed() {
    let report = ppn_check::run(&workspace_root()).expect("workspace scan");
    let json = report.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"clean\": true"), "workspace should be clean:\n{json}");
    assert!(json.contains("\"files\":"));
    assert!(json.contains("\"id\": \"lock-order\""));
    assert!(json.contains("\"kind\": \"workspace\""));
    // Balanced delimiters outside strings — a cheap structural check that
    // catches broken escaping without a JSON parser dependency.
    let (mut depth, mut in_str, mut escaped) = (0i32, false, false);
    for c in json.chars() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0);
    }
    assert_eq!(depth, 0);
    assert!(!in_str);
}
