//! The rule registry and every rule implementation.
//!
//! Each rule has a stable kebab-case id, a one-line description, and a
//! checker that maps a scanned [`SourceFile`] to diagnostics. Rules are
//! line-oriented heuristics, deliberately biased toward *no false negatives
//! on the bug classes they target* — a justified exception is annotated in
//! the source with `// ppn-check: allow(rule-id) reason` (handled by the
//! engine, not the individual rules).

use crate::scanner::{Role, SourceFile};

/// One finding: `path:line` plus the violated rule and a message.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule id.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: error[{}]: {}", self.path, self.line, self.rule, self.message)
    }
}

/// A registered rule.
pub struct Rule {
    /// Stable kebab-case identifier used in diagnostics and allow-comments.
    pub id: &'static str,
    /// One-line description for `--list`.
    pub description: &'static str,
    /// The per-file checker. Public so the engine can time each rule
    /// individually instead of only running the whole registry at once.
    pub check: fn(&SourceFile) -> Vec<Diagnostic>,
}

/// Crates whose library code must be panic-free (rule `no-panic`).
const PANIC_FREE_CRATES: [&str; 8] = [
    "ppn-core",
    "ppn-market",
    "ppn-baselines",
    "ppn-tensor",
    "ppn-serve",
    "ppn-stream",
    "ppn-obs",
    "ppn-trace",
];
/// Crates whose library code must avoid exact float equality (`float-eq`).
const FLOAT_EQ_CRATES: [&str; 8] = [
    "ppn-core",
    "ppn-market",
    "ppn-baselines",
    "ppn-tensor",
    "ppn-obs",
    "ppn-serve",
    "ppn-stream",
    "ppn-trace",
];
/// Crates whose public items must carry doc comments (`pub-doc`).
const PUB_DOC_CRATES: [&str; 6] =
    ["ppn-core", "ppn-market", "ppn-serve", "ppn-stream", "ppn-obs", "ppn-trace"];
/// Crates whose root may soften `forbid(unsafe_code)` to `deny` because they
/// contain an audited unsafe module (see [`UNSAFE_ALLOWED_FILES`]).
const DENY_UNSAFE_CRATES: [&str; 1] = ["ppn-tensor"];

/// The full rule set, in reporting order.
pub fn registry() -> Vec<Rule> {
    vec![
        Rule {
            id: "no-panic",
            description: "no unwrap()/expect()/panic!/todo!/unimplemented! in library code of \
                          core, market, baselines, tensor, serve, obs, trace",
            check: check_no_panic,
        },
        Rule {
            id: "float-eq",
            description: "no exact f64 equality (==/!= against float literals) outside the \
                          whitelisted approx helper module",
            check: check_float_eq,
        },
        Rule {
            id: "hash-iter",
            description: "no HashMap/HashSet iteration feeding output without a subsequent \
                          sort in the same function (determinism)",
            check: check_hash_iter,
        },
        Rule {
            id: "lint-header",
            description: "crate roots must declare #![forbid(unsafe_code)] and a missing_docs \
                          lint header",
            check: check_lint_header,
        },
        Rule {
            id: "pub-doc",
            description: "every public item in core, market, serve, obs, and trace carries a \
                          doc comment",
            check: check_pub_doc,
        },
        Rule {
            id: "contract",
            description: "// ppn-check: contract(simplex|finite) tags must be backed by a \
                          matching assert_simplex/assert_finite invariant call in the tagged fn",
            check: check_contract,
        },
        Rule {
            id: "no-thread",
            description: "only ppn_tensor::par, the ppn-serve event loop and the ppn-stream \
                          updater may spawn threads — all other first-party code fans out \
                          through par::par_map (determinism + PPN_THREADS control)",
            check: check_no_thread,
        },
        Rule {
            id: "no-unsafe",
            description: "unsafe_code is confined to the audited ppn-tensor simd module (the \
                          AVX2 intrinsics), where every unsafe_code line needs an adjacent \
                          SAFETY comment",
            check: check_no_unsafe,
        },
        Rule {
            id: "no-hot-alloc",
            description: "no fresh allocation (vec!/Vec::with_capacity/Tensor::zeros) inside \
                          the tensor backward sweep and kernel inner functions — use the \
                          storage arena or stack scratch",
            check: check_no_hot_alloc,
        },
    ]
}

/// Runs every rule against one scanned file (allow-comments not yet applied).
pub fn check_file(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for rule in registry() {
        out.extend((rule.check)(file));
    }
    out
}

fn diag(file: &SourceFile, line0: usize, rule: &'static str, message: String) -> Diagnostic {
    Diagnostic { path: file.path.clone(), line: line0 + 1, rule, message }
}

// ---------------------------------------------------------------- no-panic

const PANIC_PATTERNS: [(&str, &str); 5] = [
    (".unwrap()", "unwrap() can panic"),
    (".expect(", "expect() can panic"),
    ("panic!", "explicit panic!"),
    ("todo!", "todo! placeholder"),
    ("unimplemented!", "unimplemented! placeholder"),
];

fn check_no_panic(file: &SourceFile) -> Vec<Diagnostic> {
    if file.role != Role::Lib || !PANIC_FREE_CRATES.contains(&file.crate_name.as_str()) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if file.in_test(i) {
            continue;
        }
        for (pat, why) in PANIC_PATTERNS {
            if let Some(at) = line.code.find(pat) {
                // Macro patterns must sit on a word boundary so identifiers
                // like `not_todo!` or `has_panic!` never match; the method
                // patterns already anchor on their leading `.`.
                let before = pat.starts_with('.')
                    || at == 0
                    || !is_ident_char(line.code.as_bytes()[at - 1] as char);
                if before {
                    out.push(diag(
                        file,
                        i,
                        "no-panic",
                        format!("{why} in library code (`{}`)", line.code.trim()),
                    ));
                    break; // one diagnostic per line is enough
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------- float-eq

fn check_float_eq(file: &SourceFile) -> Vec<Diagnostic> {
    if file.role != Role::Lib
        || !FLOAT_EQ_CRATES.contains(&file.crate_name.as_str())
        || file.path.ends_with("approx.rs")
    {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if file.in_test(i) {
            continue;
        }
        if let Some(op) = find_float_eq(&line.code) {
            out.push(diag(
                file,
                i,
                "float-eq",
                format!(
                    "exact float equality `{op}` — use ppn_tensor::approx::{{is_zero, approx_eq}} \
                     (`{}`)",
                    line.code.trim()
                ),
            ));
        }
    }
    out
}

/// Finds an `==`/`!=` comparison whose neighbourhood contains a float
/// literal (`1.0`, `0.5e-3`, `1f64`, …). Returns the offending snippet.
fn find_float_eq(code: &str) -> Option<String> {
    // Work on bytes so arbitrary (non-ASCII) text never lands a slice inside
    // a multi-byte char: every index we slice at sits next to an ASCII byte.
    let bytes = code.as_bytes();
    for i in 0..bytes.len().saturating_sub(1) {
        let is_eq = bytes[i] == b'=' && bytes[i + 1] == b'=';
        let is_ne = bytes[i] == b'!' && bytes[i + 1] == b'=';
        if !is_eq && !is_ne {
            continue;
        }
        // Exclude <=, >=, =>, ===-like runs, pattern guards `=>`, and `!`.
        let prev = if i > 0 { bytes[i - 1] } else { b' ' };
        let next = if i + 2 < bytes.len() { bytes[i + 2] } else { b' ' };
        if is_eq && matches!(prev, b'<' | b'>' | b'!' | b'=' | b'+' | b'-' | b'*' | b'/' | b'%') {
            continue;
        }
        if next == b'=' {
            continue;
        }
        let left = operand(&code[..i], true);
        let right = operand(&code[i + 2..], false);
        if contains_float_literal(left) || contains_float_literal(right) {
            let two = if is_eq { "==" } else { "!=" };
            return Some(format!("{} {two} {}", left.trim(), right.trim()));
        }
    }
    None
}

/// The operand text adjacent to a comparison, clipped at expression
/// boundaries that cannot be part of a simple comparand.
fn operand(s: &str, leftward: bool) -> &str {
    const STOPS: [char; 8] = [',', ';', '(', ')', '{', '}', '&', '|'];
    if leftward {
        match s.rfind(STOPS) {
            Some(p) => &s[p + 1..],
            None => s,
        }
    } else {
        match s.find(STOPS) {
            Some(p) => &s[..p],
            None => s,
        }
    }
}

/// True when `s` contains a floating-point literal: `<digit>.<digit>`,
/// an exponent form, or an `f32`/`f64` suffix on a number.
fn contains_float_literal(s: &str) -> bool {
    let b = s.as_bytes();
    for i in 0..b.len() {
        if b[i] == b'.'
            && i > 0
            && b[i - 1].is_ascii_digit()
            && i + 1 < b.len()
            && b[i + 1].is_ascii_digit()
        {
            return true;
        }
        // `b[i] == b'f'` guarantees `i` is a char boundary before slicing.
        if b[i] == b'f'
            && i > 0
            && b[i - 1].is_ascii_digit()
            && (s[i..].starts_with("f64") || s[i..].starts_with("f32"))
        {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------- hash-iter

const ITER_METHODS: [&str; 5] = [".iter()", ".iter_mut()", ".keys()", ".values()", ".values_mut()"];
const SORT_MARKERS: [&str; 5] =
    [".sort()", ".sort_by", ".sort_unstable", ".sort_by_key", "BTreeMap"];
/// Order-insensitive reductions: consuming an unordered iterator through one
/// of these is deterministic regardless of iteration order.
const REDUCTIONS: [&str; 7] =
    [".max()", ".min()", ".sum::<", ".sum()", ".count()", ".len()", ".fold("];

fn check_hash_iter(file: &SourceFile) -> Vec<Diagnostic> {
    if file.role != Role::Lib || !file.crate_name.starts_with("ppn") {
        return Vec::new();
    }
    // Pass 1: collect identifiers whose declaring line mentions a hash
    // container (let/static/field/param), or that are bound from one.
    let mut hashy: Vec<String> = Vec::new();
    let mut changed = true;
    while changed {
        changed = false;
        for line in &file.lines {
            let code = &line.code;
            let mentions_hash = code.contains("HashMap") || code.contains("HashSet");
            let mentions_hashy_ident = hashy.iter().any(|n| has_word(code, n));
            if !mentions_hash && !mentions_hashy_ident {
                continue;
            }
            for name in declared_idents(code) {
                if !hashy.contains(&name) {
                    hashy.push(name);
                    changed = true;
                }
            }
        }
    }
    // Pass 2: flag iteration over hashy identifiers unless the enclosing
    // function establishes order with a sort afterwards.
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if file.in_test(i) {
            continue;
        }
        let code = &line.code;
        let iterates = hashy.iter().any(|n| {
            ITER_METHODS.iter().any(|m| code.contains(&format!("{n}{m}")))
                || code.contains(&format!("in {n}")) && code.contains("for ")
                || code.contains(&format!("in &{n}")) && code.contains("for ")
        });
        if !iterates {
            continue;
        }
        if REDUCTIONS.iter().any(|r| code.contains(r)) {
            continue; // commutative reduction — order cannot leak out
        }
        // A sort anywhere in the enclosing function establishes order,
        // whether it runs before the loop or after a collect.
        let sorted_in_fn = file.enclosing_fn(i).is_some_and(|(start, end)| {
            (start..=end).any(|j| SORT_MARKERS.iter().any(|s| file.lines[j].code.contains(s)))
        });
        if !sorted_in_fn {
            out.push(diag(
                file,
                i,
                "hash-iter",
                format!(
                    "HashMap/HashSet iteration without a subsequent sort — output order is \
                     nondeterministic (`{}`)",
                    code.trim()
                ),
            ));
        }
    }
    out
}

/// Identifier names declared on this line next to a container type:
/// `let [mut] NAME`, `static NAME:`, struct field `NAME:`, fn param `NAME:`.
pub(crate) fn declared_idents(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let t = code.trim();
    for kw in ["let mut ", "let ", "static mut ", "static "] {
        if let Some(rest) = t.strip_prefix(kw) {
            if let Some(name) = leading_ident(rest) {
                out.push(name);
            }
            return out;
        }
    }
    // Field or binding of the form `name: ...HashMap...` / `name = ...`.
    if let Some(colon) = t.find([':', '=']) {
        if let Some(name) = leading_ident(t) {
            if name.len() == t[..colon].trim_end().len() {
                out.push(name);
            }
        }
    }
    out
}

pub(crate) fn leading_ident(s: &str) -> Option<String> {
    let ident: String = s.chars().take_while(|&c| c.is_alphanumeric() || c == '_').collect();
    (!ident.is_empty() && !ident.chars().next().is_some_and(|c| c.is_ascii_digit()))
        .then_some(ident)
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

pub(crate) fn has_word(code: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(p) = code[from..].find(word) {
        let at = from + p;
        let before = at == 0
            || !code.as_bytes()[at - 1].is_ascii_alphanumeric() && code.as_bytes()[at - 1] != b'_';
        let after_idx = at + word.len();
        let after = after_idx >= code.len()
            || !code.as_bytes()[after_idx].is_ascii_alphanumeric()
                && code.as_bytes()[after_idx] != b'_';
        if before && after {
            return true;
        }
        from = at + word.len();
    }
    false
}

// ------------------------------------------------------------- lint-header

fn check_lint_header(file: &SourceFile) -> Vec<Diagnostic> {
    if !file.path.ends_with("lib.rs") || !file.crate_name.starts_with("ppn") {
        return Vec::new();
    }
    let head: String = file.lines.iter().map(|l| l.code.as_str()).collect::<Vec<_>>().join("\n");
    let mut out = Vec::new();
    // Crates with an audited unsafe module may use `deny` (module-level
    // `allow` then opts the audited files in); everyone else must `forbid`.
    let softened = DENY_UNSAFE_CRATES.contains(&file.crate_name.as_str());
    let has_forbid = head.contains("#![forbid(unsafe_code)]");
    if !softened && !has_forbid {
        out.push(diag(file, 0, "lint-header", "crate root missing #![forbid(unsafe_code)]".into()));
    }
    if softened && !has_forbid && !head.contains("#![deny(unsafe_code)]") {
        out.push(diag(
            file,
            0,
            "lint-header",
            "crate root missing #![deny(unsafe_code)] (audited-unsafe crates may deny instead \
             of forbid)"
                .into(),
        ));
    }
    if !head.contains("#![warn(missing_docs)]") && !head.contains("#![deny(missing_docs)]") {
        out.push(diag(
            file,
            0,
            "lint-header",
            "crate root missing #![warn(missing_docs)] (or deny)".into(),
        ));
    }
    out
}

// ---------------------------------------------------------------- pub-doc

const PUB_ITEM_KEYWORDS: [&str; 9] =
    ["fn", "struct", "enum", "trait", "mod", "const", "static", "type", "union"];

fn check_pub_doc(file: &SourceFile) -> Vec<Diagnostic> {
    if file.role != Role::Lib || !PUB_DOC_CRATES.contains(&file.crate_name.as_str()) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if file.in_test(i) {
            continue;
        }
        let t = line.code.trim();
        let Some(rest) = t.strip_prefix("pub ") else { continue };
        let is_item = PUB_ITEM_KEYWORDS
            .iter()
            .any(|kw| rest.starts_with(kw) && rest[kw.len()..].starts_with([' ', '<']))
            || rest.starts_with("unsafe ")
            || is_pub_field(rest);
        if !is_item {
            continue;
        }
        if !has_doc_above(file, i) {
            out.push(diag(
                file,
                i,
                "pub-doc",
                format!("public item missing doc comment (`{}`)", t),
            ));
        }
    }
    out
}

/// A struct field `name: Type,` — an identifier immediately followed by `:`
/// (but not `::`), ending in `,` or nothing.
fn is_pub_field(rest: &str) -> bool {
    let Some(name) = leading_ident(rest) else { return false };
    let after = &rest[name.len()..];
    after.starts_with(':') && !after.starts_with("::")
}

/// True when the nearest non-attribute line above `i` is a doc comment.
fn has_doc_above(file: &SourceFile, i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let code = file.lines[j].code.trim();
        let comment = file.lines[j].comment.trim_start();
        if code.starts_with("#[") || code.starts_with("#!") || code.ends_with(")]") {
            continue; // attribute (possibly multi-line tail)
        }
        if code.is_empty() {
            // Comment-only line: doc comments surface as comments starting
            // with an extra `/` (`///` → comment text "/ …").
            if comment.starts_with('/') || comment.starts_with('!') {
                return true;
            }
            if !file.lines[j].comment.is_empty() {
                continue; // plain comment, keep looking upwards
            }
            return false; // blank line
        }
        return false; // real code line
    }
    false
}

// ---------------------------------------------------------------- contract

fn check_contract(file: &SourceFile) -> Vec<Diagnostic> {
    if !file.crate_name.starts_with("ppn") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        let comment = line.comment.trim();
        let Some(rest) = comment.strip_prefix("ppn-check: contract(") else { continue };
        let Some(kind) = rest.split(')').next() else { continue };
        let needle = match kind {
            "simplex" => "assert_simplex",
            "finite" => "assert_finite",
            other => {
                out.push(diag(
                    file,
                    i,
                    "contract",
                    format!("unknown contract kind `{other}` (expected simplex|finite)"),
                ));
                continue;
            }
        };
        // The tag must sit on (or directly above) a function whose body
        // contains the matching invariant call.
        let span = (i..(i + 4).min(file.lines.len())).find_map(|j| {
            crate::scanner::brace_span(&file.lines, j)
                .filter(|&(s, _)| s == j && file.lines[j].code.contains("fn "))
        });
        let Some((_, end)) = span else {
            out.push(diag(
                file,
                i,
                "contract",
                format!("contract({kind}) tag is not attached to a function"),
            ));
            continue;
        };
        let satisfied = (i..=end).any(|j| file.lines[j].code.contains(needle));
        if !satisfied {
            out.push(diag(
                file,
                i,
                "contract",
                format!("contract({kind}) tag without a matching `{needle}` invariant call"),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------- no-thread

/// Thread-spawning constructs. `thread::sleep`, `available_parallelism` and
/// `thread_local!` are deliberately not listed — they don't create threads.
const THREAD_SPAWN_PATTERNS: [(&str, &str); 3] = [
    ("thread::spawn", "direct thread::spawn"),
    ("thread::scope", "scoped thread region"),
    ("thread::Builder", "thread::Builder spawn"),
];

/// The only modules allowed to call thread-spawning constructs: the worker
/// pool itself, the ppn-serve event-loop module (exactly two threads per
/// server — the epoll loop and the batcher, never per-connection), and the
/// ppn-stream updater service (one thread per `StreamService`, owning the
/// feed/train/publish loop).
/// The serve HTTP/queue modules and the stream divergence/promotion code
/// stay spawn-free by design; keep them off this list so a stray-thread
/// regression is caught.
const THREAD_ALLOWED_FILES: [&str; 3] =
    ["crates/tensor/src/par.rs", "crates/serve/src/server.rs", "crates/stream/src/service.rs"];

fn check_no_thread(file: &SourceFile) -> Vec<Diagnostic> {
    if !file.crate_name.starts_with("ppn")
        || THREAD_ALLOWED_FILES.iter().any(|p| file.path.ends_with(p))
    {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if file.in_test(i) {
            continue;
        }
        for (pat, why) in THREAD_SPAWN_PATTERNS {
            if line.code.contains(pat) {
                out.push(diag(
                    file,
                    i,
                    "no-thread",
                    format!(
                        "{why} outside ppn_tensor::par — use par::par_map so PPN_THREADS \
                         and the determinism guarantee apply (`{}`)",
                        line.code.trim()
                    ),
                ));
                break;
            }
        }
    }
    out
}

/// The only files allowed to contain `unsafe` code: the AVX2 kernels. The
/// module sits under a module-level `#![allow(unsafe_code)]` while the crate
/// root stays `#![deny(unsafe_code)]` (see [`DENY_UNSAFE_CRATES`]), and every
/// unsafe line inside it must carry an adjacent SAFETY comment — this rule
/// audits exactly that.
const UNSAFE_ALLOWED_FILES: [&str; 1] = ["crates/tensor/src/simd.rs"];

/// How many lines above an `unsafe` line a SAFETY comment may sit (covers a
/// multi-line justification or an interleaved attribute).
const SAFETY_COMMENT_REACH: usize = 3;

/// Blanks out string and char literals so keyword scans don't trip on code
/// that merely *mentions* a keyword in a message or pattern (e.g. the lint
/// rules themselves). Quote characters are kept; contents become spaces.
/// A string left open at end of line (`"…\` continuation) blanks the rest.
fn blank_literals(code: &str) -> String {
    let bytes = code.as_bytes();
    let mut out = String::with_capacity(code.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                out.push('"');
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    // Skip the escaped char so \" doesn't close the string.
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                    out.push(' ');
                }
                if i < bytes.len() {
                    out.push('"');
                    i += 1;
                }
            }
            // Char literals ('x', '\n', '\''); lifetimes ('a) fall through.
            b'\'' => {
                let lit_len =
                    if bytes.get(i + 1) == Some(&b'\\') && bytes.get(i + 3) == Some(&b'\'') {
                        Some(4)
                    } else if bytes.get(i + 1).is_some() && bytes.get(i + 2) == Some(&b'\'') {
                        Some(3)
                    } else {
                        None
                    };
                match lit_len {
                    Some(n) => {
                        out.push('\'');
                        out.push_str(&" ".repeat(n - 2));
                        out.push('\'');
                        i += n;
                    }
                    None => {
                        out.push('\'');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b as char);
                i += 1;
            }
        }
    }
    out
}

fn check_no_unsafe(file: &SourceFile) -> Vec<Diagnostic> {
    if !file.crate_name.starts_with("ppn") || file.role != Role::Lib {
        return Vec::new();
    }
    let audited = UNSAFE_ALLOWED_FILES.iter().any(|p| file.path.ends_with(p));
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        // `unsafe_code` (the lint name in deny/allow attributes) is not a
        // word-boundary match, so header attributes pass through here, and
        // string contents are blanked so messages naming the keyword don't
        // count as uses.
        if file.in_test(i) || !has_word(&blank_literals(&line.code), "unsafe") {
            continue;
        }
        if !audited {
            // `unsafe_code` (not the bare keyword) keeps this rule's own
            // messages from matching the word scan above.
            out.push(diag(
                file,
                i,
                "no-unsafe",
                format!(
                    "unsafe_code outside the audited ppn_tensor::simd module — use safe \
                     slices and boxes, as ppn_tensor::storage does (`{}`)",
                    line.code.trim()
                ),
            ));
            continue;
        }
        // The module-level opt-in attribute needs no per-line justification.
        if line.code.contains("allow(unsafe_code)") {
            continue;
        }
        let lo = i.saturating_sub(SAFETY_COMMENT_REACH);
        let justified = (lo..=i).any(|j| file.lines[j].comment.contains("SAFETY"))
            || (lo..=i).any(|j| file.lines[j].comment.contains("Safety"));
        if !justified {
            out.push(diag(
                file,
                i,
                "no-unsafe",
                format!(
                    "unsafe_code without an adjacent SAFETY comment (same line or within {} \
                     lines above) (`{}`)",
                    SAFETY_COMMENT_REACH,
                    line.code.trim()
                ),
            ));
        }
    }
    out
}

/// (file suffix, hot function names) pairs: the tape backward sweep, the
/// fused ops' element loops, the kernel inner loops and Adam's in-place
/// update. A fresh heap allocation in these shows up on every training
/// step and defeats the storage arena, so it must go through
/// `Storage::uninit`/`Storage::zeroed` (arena-backed) or stack scratch
/// (`shape::with_dims`) instead.
const HOT_ALLOC_FILES: [(&str, &[&str]); 5] = [
    (
        "crates/tensor/src/graph.rs",
        &[
            "backward_with",
            "propagate",
            "accumulate",
            "reduce_into",
            "route2",
            "matmul_grads",
            "conv_grads",
        ],
    ),
    (
        "crates/tensor/src/fused.rs",
        &[
            "bias_dropout_relu_in_place",
            "bias_dropout_relu_grad",
            "lstm_gates",
            "lstm_gates_grad",
            "lstm_cell",
            "lstm_cell_grad",
            "lstm_hidden",
            "lstm_hidden_grad",
        ],
    ),
    (
        "crates/tensor/src/conv.rs",
        &[
            "forward_rows",
            "forward_col",
            "tap_axpy",
            "grad_x_rows",
            "grad_x_col",
            "grad_w_rows",
            "grad_w_col",
            "dot4",
        ],
    ),
    ("crates/tensor/src/tensor.rs", &["matmul_rows"]),
    ("crates/tensor/src/optim.rs", &["adam_update"]),
];

/// Allocation constructs flagged inside the hot functions above.
const HOT_ALLOC_PATTERNS: [(&str, &str); 3] = [
    ("vec!", "vec! allocation"),
    ("Vec::with_capacity", "Vec::with_capacity allocation"),
    ("Tensor::zeros", "Tensor::zeros allocation"),
];

fn check_no_hot_alloc(file: &SourceFile) -> Vec<Diagnostic> {
    if file.role != Role::Lib {
        return Vec::new();
    }
    let Some((_, hot_fns)) = HOT_ALLOC_FILES.iter().find(|(p, _)| file.path.ends_with(p)) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if file.in_test(i) {
            continue;
        }
        let Some((_, why)) = HOT_ALLOC_PATTERNS.iter().find(|(pat, _)| line.code.contains(pat))
        else {
            continue;
        };
        // Attribute the line to its innermost enclosing fn and check whether
        // that fn is one of the audited hot paths.
        let in_hot_fn = file.enclosing_fn(i).is_some_and(|(start, _)| {
            let header = &file.lines[start].code;
            hot_fns.iter().any(|name| {
                header.contains(&format!("fn {name}(")) || header.contains(&format!("fn {name}<"))
            })
        });
        if in_hot_fn {
            out.push(diag(
                file,
                i,
                "no-hot-alloc",
                format!(
                    "{why} inside a hot kernel/backward function — use the storage arena \
                     (Storage::uninit/zeroed) or stack scratch (shape::with_dims) (`{}`)",
                    line.code.trim()
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::{Role, SourceFile};

    fn lib(src: &str) -> SourceFile {
        SourceFile::scan("crates/core/src/x.rs", "ppn-core", Role::Lib, src)
    }

    #[test]
    fn float_literal_detection() {
        assert!(contains_float_literal("x == 0.0"));
        assert!(contains_float_literal("1.5e-3"));
        assert!(contains_float_literal("2f64"));
        assert!(!contains_float_literal("x.len()"));
        assert!(!contains_float_literal("v[0]"));
        assert!(!contains_float_literal("schema == 1"));
    }

    #[test]
    fn float_eq_finds_only_float_comparisons() {
        assert!(find_float_eq("if psi == 0.0 {").is_some());
        assert!(find_float_eq("if 0.0 != dd {").is_some());
        assert!(find_float_eq("if n == 3 {").is_none());
        assert!(find_float_eq("if a <= 0.5 {").is_none());
        assert!(find_float_eq("x >= 1.0 && y < 2.0").is_none());
    }

    #[test]
    fn no_panic_skips_unwrap_or_variants() {
        let f = lib("pub fn a() { x.unwrap_or_default(); }\npub fn b() { x.unwrap(); }");
        let d = check_no_panic(&f);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn pub_doc_requires_comment() {
        let f = lib("/// Documented.\npub fn a() {}\n\npub fn b() {}");
        let d = check_pub_doc(&f);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn contract_tag_needs_matching_invariant() {
        let good = lib(
            "// ppn-check: contract(simplex)\npub fn p(w: &[f64]) -> Vec<f64> {\n    contracts::assert_simplex(w, \"p\");\n    w.to_vec()\n}",
        );
        assert!(check_contract(&good).is_empty());
        let bad = lib("// ppn-check: contract(finite)\npub fn q(w: &[f64]) -> f64 {\n    w[0]\n}");
        assert_eq!(check_contract(&bad).len(), 1);
    }

    #[test]
    fn no_thread_flags_spawns_outside_par() {
        let src = "pub fn f() {\n    std::thread::spawn(|| {});\n    std::thread::scope(|s| {});\n    thread::Builder::new();\n    std::thread::sleep(d);\n    let n = std::thread::available_parallelism();\n}";
        let f = lib(src);
        assert_eq!(check_no_thread(&f).len(), 3, "sleep/available_parallelism are not spawns");
        // The allowlisted spawners: the pool, the serve event-loop module,
        // and the stream updater service.
        let par = SourceFile::scan("crates/tensor/src/par.rs", "ppn-tensor", Role::Lib, src);
        assert!(check_no_thread(&par).is_empty());
        let srv = SourceFile::scan("crates/serve/src/server.rs", "ppn-serve", Role::Lib, src);
        assert!(check_no_thread(&srv).is_empty());
        let stream = SourceFile::scan("crates/stream/src/service.rs", "ppn-stream", Role::Lib, src);
        assert!(check_no_thread(&stream).is_empty());
        // Other ppn-serve modules stay under the rule — the event-driven
        // design means no per-connection threads, so a spawn appearing in
        // the HTTP state machine or the queue is a regression, not a need
        // for a wider allowlist.
        let other = SourceFile::scan("crates/serve/src/queue.rs", "ppn-serve", Role::Lib, src);
        assert_eq!(check_no_thread(&other).len(), 3);
        let conn = SourceFile::scan("crates/serve/src/http.rs", "ppn-serve", Role::Lib, src);
        assert_eq!(check_no_thread(&conn).len(), 3, "http.rs must never spawn");
        let bat = SourceFile::scan("crates/serve/src/batcher.rs", "ppn-serve", Role::Lib, src);
        assert_eq!(check_no_thread(&bat).len(), 3, "batcher.rs computes, server.rs spawns");
        // Third-party shims are out of scope.
        let shim = SourceFile::scan("crates/rand/src/x.rs", "rand", Role::Lib, src);
        assert!(check_no_thread(&shim).is_empty());
    }

    #[test]
    fn blank_literals_masks_strings_and_char_literals() {
        assert_eq!(blank_literals(r#"let s = "unsafe";"#), r#"let s = "      ";"#);
        assert_eq!(blank_literals("let c = '\"'; x(\"unsafe\")"), "let c = ' '; x(\"      \")");
        assert_eq!(blank_literals("fn f<'a>(x: &'a str) {}"), "fn f<'a>(x: &'a str) {}");
        // An open string (line continuation) blanks through end of line.
        assert_eq!(blank_literals(r#"m("unsafe and \"#), format!("m(\"{}", " ".repeat(12)));
        assert!(!has_word(&blank_literals(r#"id: "no-unsafe","#), "unsafe"));
        assert!(has_word(&blank_literals("unsafe { go() }"), "unsafe"));
    }

    #[test]
    fn no_unsafe_flags_keyword_outside_audited_files() {
        let src = "pub fn f(p: *mut f64) {\n    unsafe { *p = 1.0 };\n}";
        let d = check_no_unsafe(&lib(src));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
        // The deny/allow attribute spelling is not the keyword.
        let attr = lib("#![deny(unsafe_code)]\npub fn f() {}");
        assert!(check_no_unsafe(&attr).is_empty());
        // Shims are out of scope.
        let shim = SourceFile::scan("crates/rand/src/x.rs", "rand", Role::Lib, src);
        assert!(check_no_unsafe(&shim).is_empty());
    }

    #[test]
    fn no_unsafe_audited_files_require_safety_comments() {
        let bare = "pub fn f(p: *mut f64) {\n    unsafe { *p = 1.0 };\n}";
        let simd =
            |src| SourceFile::scan("crates/tensor/src/simd.rs", "ppn-tensor", Role::Lib, src);
        let d = check_no_unsafe(&simd(bare));
        assert_eq!(d.len(), 1, "audited file still needs a SAFETY comment");
        // Same line, directly above, and within-3-lines comments all count.
        let same = "pub fn f(p: *mut f64) {\n    unsafe { *p = 1.0 }; // SAFETY: p is valid\n}";
        assert!(check_no_unsafe(&simd(same)).is_empty());
        let above = "pub fn f(p: *mut f64) {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p = 1.0 };\n}";
        assert!(check_no_unsafe(&simd(above)).is_empty());
        let doc = "/// # Safety\n/// Caller must pass a valid pointer.\n#[inline]\npub unsafe fn f(p: *mut f64) {}";
        assert!(check_no_unsafe(&simd(doc)).is_empty());
        // The module-level opt-in attribute needs no justification.
        let optin = "#![allow(unsafe_code)]\npub fn f() {}";
        assert!(check_no_unsafe(&simd(optin)).is_empty());
        // A comment more than SAFETY_COMMENT_REACH lines away does not count.
        let far = "pub fn f(p: *mut f64) {\n    // SAFETY: far away\n    let a = 1;\n    let b = 2;\n    let c = 3;\n    unsafe { *p = a as f64 + b as f64 + c as f64 };\n}";
        assert_eq!(check_no_unsafe(&simd(far)).len(), 1);
    }

    #[test]
    fn no_hot_alloc_flags_allocations_only_in_hot_fns() {
        let graph =
            |src| SourceFile::scan("crates/tensor/src/graph.rs", "ppn-tensor", Role::Lib, src);
        let hot = "impl Graph {\n    fn propagate(&mut self, i: usize) {\n        let tmp = vec![0.0; 8];\n        let mut buf = Vec::with_capacity(8);\n        let t = Tensor::zeros(&[2, 2]);\n    }\n}";
        let d = check_no_hot_alloc(&graph(hot));
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].line, 3);
        // The same allocations in a non-hot function pass.
        let cold = "impl Graph {\n    fn build(&mut self) {\n        let tmp = vec![0.0; 8];\n        let t = Tensor::zeros(&[2, 2]);\n    }\n}";
        assert!(check_no_hot_alloc(&graph(cold)).is_empty());
        // Files outside the hot list are out of scope entirely.
        let other = lib(hot);
        assert!(check_no_hot_alloc(&other).is_empty());
        // Arena-backed constructors are the sanctioned path.
        let arena = "impl Graph {\n    fn propagate(&mut self, i: usize) {\n        let s = Storage::zeroed(8);\n        let u = Storage::uninit(8);\n    }\n}";
        assert!(check_no_hot_alloc(&graph(arena)).is_empty());
    }

    #[test]
    fn lint_header_accepts_deny_for_audited_crates() {
        let tensor_root =
            |src| SourceFile::scan("crates/tensor/src/lib.rs", "ppn-tensor", Role::Lib, src);
        assert!(check_lint_header(&tensor_root("#![deny(unsafe_code)]\n#![warn(missing_docs)]"))
            .is_empty());
        assert!(check_lint_header(&tensor_root("#![forbid(unsafe_code)]\n#![warn(missing_docs)]"))
            .is_empty());
        let missing = check_lint_header(&tensor_root("#![warn(missing_docs)]"));
        assert!(missing.iter().any(|d| d.message.contains("deny(unsafe_code)")));
        // Non-audited crates must still forbid — deny is not enough.
        let core_root = SourceFile::scan(
            "crates/core/src/lib.rs",
            "ppn-core",
            Role::Lib,
            "#![deny(unsafe_code)]\n#![warn(missing_docs)]",
        );
        assert!(check_lint_header(&core_root)
            .iter()
            .any(|d| d.message.contains("forbid(unsafe_code)")));
    }

    #[test]
    fn hash_iter_flags_unsorted_iteration() {
        let src = "use std::collections::HashMap;\npub fn f() {\n    let map: HashMap<String, u64> = HashMap::new();\n    for (k, v) in map.iter() {\n        emit(k, v);\n    }\n}";
        let f = lib(src);
        assert_eq!(check_hash_iter(&f).len(), 1);
        let sorted = "use std::collections::HashMap;\npub fn f() {\n    let map: HashMap<String, u64> = HashMap::new();\n    let mut rows: Vec<_> = map.iter().collect();\n    rows.sort_by(|a, b| a.0.cmp(b.0));\n}";
        assert!(check_hash_iter(&lib(sorted)).is_empty());
    }
}
