//! Run manifests: provenance capture for experiment binaries.
//!
//! A manifest records everything needed to reproduce an experiment's
//! output: the binary and its arguments, the seed and dataset preset, the
//! serialized experiment config, `git describe` of the working tree, and
//! wall-clock timing. Experiment runners write it next to their results
//! (`results/telemetry/<name>.manifest.json`).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Serializable provenance record for one experiment run.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RunManifest {
    /// Manifest schema version (bump on breaking field changes).
    pub schema: u64,
    /// Unique id: `<name>-<started_unix_ms>-<pid>`.
    pub run_id: String,
    /// Experiment name (usually the binary name).
    pub name: String,
    /// Full command-line arguments.
    pub args: Vec<String>,
    /// Dataset preset, when the experiment pins one.
    pub preset: Option<String>,
    /// RNG seed, when the experiment pins one.
    pub seed: Option<u64>,
    /// JSON-serialized experiment configuration, when available.
    pub config_json: Option<String>,
    /// `git describe --always --dirty` of the source tree.
    pub git_describe: Option<String>,
    /// `PPN_OBS` value the run was started with.
    pub ppn_obs: Option<String>,
    /// Milliseconds since the Unix epoch at start.
    pub started_unix_ms: u64,
    /// Total wall-clock duration (filled by [`RunManifest::finish`]).
    pub duration_secs: f64,
    /// Span self-time report captured at finish (one line per span).
    pub span_report: Vec<String>,
}

/// Live manifest being recorded; call [`ManifestGuard::finish`] (or drop)
/// to stamp the duration and write it out.
pub struct ManifestGuard {
    manifest: RunManifest,
    started: Instant,
    out_dir: PathBuf,
    written: bool,
}

fn git_describe() -> Option<String> {
    let out = Command::new("git").args(["describe", "--always", "--dirty"]).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

impl RunManifest {
    /// Captures process-level provenance for an experiment called `name`.
    pub fn capture(name: &str) -> RunManifest {
        let started_unix_ms = crate::clock::unix_ms();
        RunManifest {
            schema: 1,
            run_id: format!("{name}-{started_unix_ms}-{}", std::process::id()),
            name: name.to_string(),
            args: std::env::args().collect(),
            preset: None,
            seed: None,
            config_json: None,
            git_describe: git_describe(),
            ppn_obs: std::env::var("PPN_OBS").ok(),
            started_unix_ms,
            duration_secs: 0.0,
            span_report: Vec::new(),
        }
    }

    /// Starts a guarded run writing into `out_dir` on finish/drop.
    pub fn start(name: &str, out_dir: impl AsRef<Path>) -> ManifestGuard {
        ManifestGuard {
            manifest: RunManifest::capture(name),
            started: Instant::now(),
            out_dir: out_dir.as_ref().to_path_buf(),
            written: false,
        }
    }

    /// Writes the manifest as pretty JSON to `dir/<name>.manifest.json`.
    pub fn write(&self, dir: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.manifest.json", self.name));
        let json = serde_json::to_vec_pretty(self).map_err(std::io::Error::other)?;
        std::fs::write(&path, json)?;
        Ok(path)
    }
}

impl ManifestGuard {
    /// Attaches the dataset preset.
    pub fn preset(&mut self, preset: &str) -> &mut Self {
        self.manifest.preset = Some(preset.to_string());
        self
    }

    /// Attaches the RNG seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.manifest.seed = Some(seed);
        self
    }

    /// Attaches a JSON-serialized experiment configuration.
    pub fn config_json(&mut self, json: impl Into<String>) -> &mut Self {
        self.manifest.config_json = Some(json.into());
        self
    }

    /// Read access for tests and callers that log the id.
    pub fn manifest(&self) -> &RunManifest {
        &self.manifest
    }

    /// `PPN_OBS=off` means no artifacts at all, manifest included.
    fn active() -> bool {
        let c = crate::config();
        c.stderr_level.is_some() || c.jsonl_level.is_some() || c.spans || c.metrics
    }

    /// Stamps duration + span report and writes the manifest file.
    /// Returns the would-be path without writing when telemetry is fully
    /// disabled.
    pub fn finish(mut self) -> std::io::Result<PathBuf> {
        self.written = true;
        self.manifest.duration_secs = self.started.elapsed().as_secs_f64();
        self.manifest.span_report = crate::span_report().lines().map(str::to_string).collect();
        if !Self::active() {
            return Ok(self.out_dir.join(format!("{}.manifest.json", self.manifest.name)));
        }
        let path = self.manifest.write(&self.out_dir)?;
        crate::event!(
            crate::Level::Info,
            "run.finish",
            run_id = self.manifest.run_id.clone(),
            duration_secs = self.manifest.duration_secs,
            manifest = path.display().to_string(),
        );
        crate::sink::jsonl_flush();
        Ok(path)
    }
}

impl Drop for ManifestGuard {
    fn drop(&mut self) {
        if self.written || !Self::active() {
            return;
        }
        // Best-effort write when the caller forgot (or panicked past)
        // `finish()`.
        self.manifest.duration_secs = self.started.elapsed().as_secs_f64();
        self.manifest.span_report = crate::span_report().lines().map(str::to_string).collect();
        let _ = self.manifest.write(&self.out_dir);
    }
}
