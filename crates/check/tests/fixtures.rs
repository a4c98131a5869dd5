//! Fixture-driven rule tests: every rule has one passing and one violating
//! fixture under `crates/check/fixtures/`, scanned exactly as the engine
//! scans workspace sources (the claimed path/crate decide rule scoping).

use ppn_check::{lint_file, Role, SourceFile};
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Lints `fixtures/<name>` as if it lived at `claimed_path` inside
/// `crate_name`, returning the sorted rule ids of the diagnostics.
fn lint_fixture(name: &str, claimed_path: &str, crate_name: &str) -> Vec<&'static str> {
    let src = fixture(name);
    let file = SourceFile::scan(claimed_path, crate_name, Role::Lib, &src);
    let mut rules: Vec<&'static str> = lint_file(&file).into_iter().map(|d| d.rule).collect();
    rules.sort();
    rules
}

#[test]
fn no_panic_fixtures() {
    assert_eq!(
        lint_fixture("no_panic_fail.rs", "crates/baselines/src/x.rs", "ppn-baselines"),
        vec!["no-panic"; 4],
    );
    assert_eq!(
        lint_fixture("no_panic_pass.rs", "crates/baselines/src/x.rs", "ppn-baselines"),
        Vec::<&str>::new(),
    );
}

#[test]
fn float_eq_fixtures() {
    assert_eq!(
        lint_fixture("float_eq_fail.rs", "crates/baselines/src/x.rs", "ppn-baselines"),
        vec!["float-eq"; 2],
    );
    assert_eq!(
        lint_fixture("float_eq_pass.rs", "crates/baselines/src/x.rs", "ppn-baselines"),
        Vec::<&str>::new(),
    );
    // The shared helper module itself is whitelisted by file name.
    assert_eq!(
        lint_fixture("float_eq_fail.rs", "crates/tensor/src/approx.rs", "ppn-tensor"),
        Vec::<&str>::new(),
    );
}

#[test]
fn hash_iter_fixtures() {
    assert_eq!(
        lint_fixture("hash_iter_fail.rs", "crates/bench/src/x.rs", "ppn-bench"),
        vec!["hash-iter"],
    );
    assert_eq!(
        lint_fixture("hash_iter_pass.rs", "crates/bench/src/x.rs", "ppn-bench"),
        Vec::<&str>::new(),
    );
}

#[test]
fn lint_header_fixtures() {
    assert_eq!(
        lint_fixture("lint_header_fail.rs", "crates/fixture/src/lib.rs", "ppn-fixture"),
        vec!["lint-header"; 2],
    );
    assert_eq!(
        lint_fixture("lint_header_pass.rs", "crates/fixture/src/lib.rs", "ppn-fixture"),
        Vec::<&str>::new(),
    );
    // Non-root files don't need headers.
    assert_eq!(
        lint_fixture("lint_header_fail.rs", "crates/fixture/src/other.rs", "ppn-fixture"),
        Vec::<&str>::new(),
    );
}

#[test]
fn pub_doc_fixtures() {
    assert_eq!(
        lint_fixture("pub_doc_fail.rs", "crates/core/src/x.rs", "ppn-core"),
        vec!["pub-doc"; 3],
    );
    assert_eq!(
        lint_fixture("pub_doc_pass.rs", "crates/core/src/x.rs", "ppn-core"),
        Vec::<&str>::new(),
    );
    // Out-of-scope crates are exempt from pub-doc.
    assert_eq!(
        lint_fixture("pub_doc_fail.rs", "crates/bench/src/x.rs", "ppn-bench"),
        Vec::<&str>::new(),
    );
    // ppn-obs and ppn-trace joined the pub-doc scope with the tracing work.
    assert_eq!(
        lint_fixture("pub_doc_fail.rs", "crates/trace/src/x.rs", "ppn-trace"),
        vec!["pub-doc"; 3],
    );
}

#[test]
fn contract_fixtures() {
    assert_eq!(
        lint_fixture("contract_fail.rs", "crates/baselines/src/x.rs", "ppn-baselines"),
        vec!["contract"; 4],
    );
    assert_eq!(
        lint_fixture("contract_pass.rs", "crates/baselines/src/x.rs", "ppn-baselines"),
        Vec::<&str>::new(),
    );
}

#[test]
fn no_thread_fixtures() {
    assert_eq!(
        lint_fixture("no_thread_fail.rs", "crates/baselines/src/x.rs", "ppn-baselines"),
        vec!["no-thread"; 3],
    );
    assert_eq!(
        lint_fixture("no_thread_pass.rs", "crates/bench/src/x.rs", "ppn-bench"),
        Vec::<&str>::new(),
    );
    // The pool module itself is a sanctioned spawner.
    assert_eq!(
        lint_fixture("no_thread_fail.rs", "crates/tensor/src/par.rs", "ppn-tensor"),
        Vec::<&str>::new(),
    );
    // So is the ppn-serve listener/accept loop (other rules — pub-doc —
    // still apply there, so compare the no-thread findings only)…
    let server = lint_fixture("no_thread_fail.rs", "crates/serve/src/server.rs", "ppn-serve");
    assert!(!server.contains(&"no-thread"), "listener must be exempt: {server:?}");
    // …but no other ppn-serve module gets the exemption.
    let batcher = lint_fixture("no_thread_fail.rs", "crates/serve/src/batcher.rs", "ppn-serve");
    assert_eq!(batcher.iter().filter(|r| **r == "no-thread").count(), 3, "{batcher:?}");
}

#[test]
fn allow_syntax_fixtures() {
    // A reasonless allow and an unknown-rule allow are diagnostics, and the
    // reasonless one does NOT suppress the finding it points at.
    assert_eq!(
        lint_fixture("allow_syntax_fail.rs", "crates/baselines/src/x.rs", "ppn-baselines"),
        vec!["allow-syntax", "allow-syntax", "no-panic"],
    );
    assert_eq!(
        lint_fixture("allow_syntax_pass.rs", "crates/baselines/src/x.rs", "ppn-baselines"),
        Vec::<&str>::new(),
    );
}

#[test]
fn shim_crates_are_exempt_by_manifest_name() {
    // Shim sources freely use unwrap/panic; linting them under their real
    // (non-ppn) names must produce nothing because the engine never scans
    // crates whose manifest name falls outside the first-party prefix.
    let src = fixture("no_panic_fail.rs");
    let file = SourceFile::scan("crates/rand/src/x.rs", "rand", Role::Lib, &src);
    assert_eq!(lint_file(&file), Vec::new());
}

#[test]
fn bin_targets_are_exempt_from_no_panic() {
    let src = fixture("no_panic_fail.rs");
    let file = SourceFile::scan("crates/bench/src/bin/x.rs", "ppn-bench", Role::Bin, &src);
    assert!(lint_file(&file).iter().all(|d| d.rule != "no-panic"));
}

#[test]
fn diagnostics_render_rustc_style() {
    let src = fixture("float_eq_fail.rs");
    let file = SourceFile::scan("crates/baselines/src/x.rs", "ppn-baselines", Role::Lib, &src);
    let ds = lint_file(&file);
    let rendered = format!("{}", ds[0]);
    assert!(rendered.starts_with("crates/baselines/src/x.rs:4: error[float-eq]:"), "{rendered}");
}

#[test]
fn no_unsafe_fixtures() {
    // Outside the audited simd module the keyword itself is the
    // violation, SAFETY comment or not.
    assert_eq!(
        lint_fixture("no_unsafe_fail.rs", "crates/core/src/x.rs", "ppn-core"),
        vec!["no-unsafe"; 2],
    );
    // Inside an audited file only the SAFETY-comment-less line is flagged.
    assert_eq!(
        lint_fixture("no_unsafe_fail.rs", "crates/tensor/src/simd.rs", "ppn-tensor"),
        vec!["no-unsafe"; 1],
    );
    assert_eq!(
        lint_fixture("no_unsafe_pass.rs", "crates/tensor/src/simd.rs", "ppn-tensor"),
        Vec::<&str>::new(),
    );
}

#[test]
fn no_hot_alloc_fixtures() {
    assert_eq!(
        lint_fixture("no_hot_alloc_fail.rs", "crates/tensor/src/graph.rs", "ppn-tensor"),
        vec!["no-hot-alloc"; 3],
    );
    assert_eq!(
        lint_fixture("no_hot_alloc_pass.rs", "crates/tensor/src/graph.rs", "ppn-tensor"),
        Vec::<&str>::new(),
    );
    // The same allocating source claimed at a non-hot path produces nothing.
    assert_eq!(
        lint_fixture("no_hot_alloc_fail.rs", "crates/tensor/src/optim.rs", "ppn-tensor"),
        Vec::<&str>::new(),
    );
}
