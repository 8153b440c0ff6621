//! Journal directories as the benchmark sees them: bytes on disk, a byte-for-byte copy
//! of a crashed run's files, and the records a finished journal holds.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use cdas_engine::journal::{Journal, JournalRecord};

use crate::Result;

/// Bytes of every journal segment under `dir`, subdirectories included.
pub fn segment_bytes(dir: &Path) -> Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            total += segment_bytes(&entry.path())?;
        } else if entry.path().extension().is_some_and(|e| e == "wal") {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Every file of a journal directory, by relative path, kept in memory.
#[derive(Debug)]
pub struct Wreckage(Vec<(PathBuf, Vec<u8>)>);

impl Wreckage {
    pub fn take(dir: &Path) -> Result<Wreckage> {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            files.push((
                PathBuf::from(entry.file_name()),
                std::fs::read(entry.path())?,
            ));
        }
        files.sort();
        Ok(Wreckage(files))
    }

    /// Replace `dir` with the kept files, byte for byte.
    pub fn restore(&self, dir: &Path) -> Result<()> {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        std::fs::create_dir_all(dir)?;
        for (name, bytes) in &self.0 {
            std::fs::write(dir.join(name), bytes)?;
        }
        Ok(())
    }

    pub fn bytes(&self) -> usize {
        self.0.iter().map(|(_, b)| b.len()).sum()
    }
}

/// Record counts of one or more finished journals, and each HIT's waiting time.
#[derive(Debug, Default)]
pub struct JournalFacts {
    pub commits: usize,
    pub dispatches: usize,
    pub charges: usize,
    pub events: usize,
    pub segments: usize,
    /// Per HIT, simulated minutes from its dispatch to its batch commit.
    pub verdict_minutes: Vec<f64>,
}

impl JournalFacts {
    /// Fold in the journal in `dir`.
    pub fn add(&mut self, dir: &Path) -> Result<()> {
        let contents = Journal::read(dir)?;
        self.segments += contents.segments;
        let mut dispatched: BTreeMap<u64, f64> = BTreeMap::new();
        for record in &contents.records {
            match record {
                JournalRecord::Dispatch(dispatch) => {
                    self.dispatches += 1;
                    dispatched.insert(dispatch.hit.0, dispatch.at);
                }
                JournalRecord::Commit(commit) => {
                    self.commits += 1;
                    let at = dispatched
                        .get(&commit.hit.0)
                        .ok_or_else(|| format!("commit of hit {} has no dispatch", commit.hit.0))?;
                    self.verdict_minutes.push(commit.completed_at - at);
                }
                JournalRecord::Charge { .. } => self.charges += 1,
                JournalRecord::Event(_) => self.events += 1,
                _ => {}
            }
        }
        Ok(())
    }

    pub fn read(dir: &Path) -> Result<JournalFacts> {
        let mut facts = JournalFacts::default();
        facts.add(dir)?;
        Ok(facts)
    }
}
