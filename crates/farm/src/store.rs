//! The farm's on-disk [`ResultStore`] backend.
//!
//! Results are keyed by [`frostlab_core::JobSpec::key`] — the FNV-1a
//! hash of the job's canonical JSON — so two submissions of the same
//! (scenario, seed) pair share one entry, and a resumed farm serves
//! completed jobs from disk instead of re-simulating them.
//!
//! Each entry is one `<key>.json` file holding a [`JobResult`] — the
//! summary and, for an observed job, its alert view. Writes are
//! crash-atomic: the payload lands in a temp file whose name is unique
//! to the write and is `rename(2)`d into place, so a reader (or a replay
//! after a kill) sees either the whole result or nothing, and two
//! workers writing the same key never share a temp file. The supervisor
//! writes the store entry **before** appending the WAL `complete`
//! record; a crash between the two leaves an orphaned store entry, which
//! the next run turns into a cache hit rather than a re-simulation.
//! Older `<key>.alerts.json` sidecars are ignored and can be deleted.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use frostlab_ensemble::{JobResult, ResultStore};

use crate::error::FarmError;

/// A directory of `<key>.json` [`JobResult`] entries.
#[derive(Debug, Clone)]
pub struct DirStore {
    root: PathBuf,
}

impl DirStore {
    /// Open (creating if needed) the store rooted at `root`.
    pub fn open(root: &Path) -> Result<DirStore, FarmError> {
        fs::create_dir_all(root)?;
        Ok(DirStore {
            root: root.to_path_buf(),
        })
    }

    /// Path of the entry for `key`.
    pub fn path(&self, key: &str) -> PathBuf {
        self.root.join(format!("{key}.json"))
    }
}

impl ResultStore for DirStore {
    type Error = FarmError;

    /// A half-written, unparsable or older-format entry reads as absent —
    /// the job just gets re-run, which is always safe.
    fn get(&self, key: &str) -> Option<JobResult> {
        let text = fs::read_to_string(self.path(key)).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// Temp file + rename; the temp name carries the process id and a
    /// process-wide write counter.
    fn put(&self, key: &str, result: &JobResult) -> Result<(), FarmError> {
        static WRITES: AtomicU64 = AtomicU64::new(0);
        let json = serde_json::to_string(result)?;
        let n = WRITES.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .root
            .join(format!(".tmp-{}-{n}-{key}", std::process::id()));
        fs::write(&tmp, json.as_bytes())?;
        fs::rename(&tmp, self.path(key))?;
        Ok(())
    }
}
