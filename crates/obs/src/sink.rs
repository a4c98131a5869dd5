//! Log/event sinks: human-readable stderr and machine-readable JSONL.
//!
//! Every emission goes through [`emit_log`] (freeform message) or
//! [`emit_event`] (structured fields). The JSONL sink writes one JSON
//! object per line to `results/telemetry/<process>-<pid>.jsonl` (or the
//! `jsonl=PATH` override), created lazily on first write.

use crate::clock::unix_ms;
use crate::Level;
use parking_lot::Mutex;
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

/// A typed structured-event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Floating-point field.
    F64(f64),
    /// Signed integer field.
    I64(i64),
    /// Unsigned integer field.
    U64(u64),
    /// Boolean field.
    Bool(bool),
    /// String field.
    Str(String),
}

macro_rules! from_field {
    ($($t:ty => $variant:ident as $cast:ty),* $(,)?) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::$variant(v as $cast)
            }
        }
    )*};
}
from_field! {
    f64 => F64 as f64,
    f32 => F64 as f64,
    i64 => I64 as i64,
    i32 => I64 as i64,
    u64 => U64 as u64,
    u32 => U64 as u64,
    usize => U64 as u64,
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl FieldValue {
    fn write_json(&self, s: &mut serde::Ser) {
        match self {
            FieldValue::F64(v) => s.write_f64(*v),
            FieldValue::I64(v) => s.write_i64(*v),
            FieldValue::U64(v) => s.write_u64(*v),
            FieldValue::Bool(v) => s.write_bool(*v),
            FieldValue::Str(v) => s.write_str(v),
        }
    }
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::F64(v) => write!(f, "{v:.6}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

static PROCESS_START: OnceLock<Instant> = OnceLock::new();
static JSONL: Mutex<Option<fs::File>> = Mutex::new(None);
static JSONL_PATH: OnceLock<Option<PathBuf>> = OnceLock::new();

fn uptime_secs() -> f64 {
    PROCESS_START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Nanoseconds between the process-start reference instant and `t` (0 for
/// instants captured before the reference was initialised). Trace events
/// use this as their `start_ns` timebase so spans from one process share a
/// common clock.
pub fn instant_offset_ns(t: Instant) -> u64 {
    let start = *PROCESS_START.get_or_init(Instant::now);
    t.checked_duration_since(start).map(|d| d.as_nanos() as u64).unwrap_or(0)
}

/// Short name of the running executable.
pub fn process_name() -> String {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "ppn".to_string())
}

/// The JSONL sink path, if the sink is enabled (resolving the default).
pub fn jsonl_path() -> Option<PathBuf> {
    JSONL_PATH
        .get_or_init(|| {
            let cfg = crate::config();
            cfg.jsonl_level?;
            Some(match &cfg.jsonl_path {
                Some(p) => PathBuf::from(p),
                None => PathBuf::from("results/telemetry").join(format!(
                    "{}-{}.jsonl",
                    process_name(),
                    std::process::id()
                )),
            })
        })
        .clone()
}

fn write_jsonl_line(line: &str) {
    let Some(path) = jsonl_path() else { return };
    let mut guard = JSONL.lock();
    if guard.is_none() {
        if let Some(dir) = path.parent() {
            let _ = fs::create_dir_all(dir);
        }
        match fs::OpenOptions::new().create(true).append(true).open(&path) {
            Ok(f) => *guard = Some(f),
            Err(e) => {
                eprintln!("[ppn-obs] cannot open JSONL sink {}: {e}", path.display());
                return;
            }
        }
    }
    if let Some(f) = guard.as_mut() {
        let _ = f.write_all(line.as_bytes());
        let _ = f.write_all(b"\n");
    }
}

fn stderr_wants(level: Level) -> bool {
    crate::config().stderr_level.is_some_and(|max| level <= max)
}

fn jsonl_wants(level: Level) -> bool {
    crate::config().jsonl_level.is_some_and(|max| level <= max)
}

/// Emits a freeform log message to the active sinks.
pub fn emit_log(level: Level, msg: &str) {
    if stderr_wants(level) {
        eprintln!("[{:>9.3}s {:>5}] {msg}", uptime_secs(), level.name().to_uppercase());
    }
    if jsonl_wants(level) {
        let mut s = serde::Ser::new();
        s.begin_obj();
        s.key("ts_ms");
        s.write_u64(unix_ms());
        s.key("level");
        s.write_str(level.name());
        s.key("event");
        s.write_str("log");
        s.key("msg");
        s.write_str(msg);
        s.end_obj();
        write_jsonl_line(&s.finish());
    }
}

/// Emits a structured event (named, with typed fields) to the active sinks.
pub fn emit_event(level: Level, name: &str, fields: &[(&str, FieldValue)]) {
    if stderr_wants(level) {
        let mut line =
            format!("[{:>9.3}s {:>5}] {name}", uptime_secs(), level.name().to_uppercase());
        for (k, v) in fields {
            line.push_str(&format!(" {k}={v}"));
        }
        eprintln!("{line}");
    }
    if jsonl_wants(level) {
        let mut s = serde::Ser::new();
        s.begin_obj();
        s.key("ts_ms");
        s.write_u64(unix_ms());
        s.key("level");
        s.write_str(level.name());
        s.key("event");
        s.write_str(name);
        for (k, v) in fields {
            s.key(k);
            v.write_json(&mut s);
        }
        s.end_obj();
        write_jsonl_line(&s.finish());
    }
}

/// Flushes the JSONL sink (files are written line-at-a-time, so this only
/// matters for callers that read the file back within the same process).
pub fn jsonl_flush() {
    if let Some(f) = JSONL.lock().as_mut() {
        let _ = f.flush();
    }
}
