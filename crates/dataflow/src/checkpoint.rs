//! Task-level checkpointing.
//!
//! Mirrors the COMPSs checkpointing mechanism (Vergés et al. 2023): as
//! tasks complete, their identifying key and encoded outputs are appended
//! to a log. Re-running the same workflow against an existing log skips the
//! execution of every logged task and restores its outputs, so a failed
//! multi-day run resumes from the last completed task instead of from
//! scratch.
//!
//! The log is append-only and crash-tolerant: a torn final record (from a
//! crash mid-append) is detected and dropped at load time.

use crate::error::{Error, Result};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"DFCP";

/// Append-only checkpoint log.
pub struct CheckpointLog {
    file: File,
    /// Keys already present (loaded + appended this run).
    restored: HashMap<String, Vec<Vec<u8>>>,
}

impl CheckpointLog {
    /// Opens (creating if needed) the log at `path` and loads every intact
    /// record.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let path = path.as_ref();
        let restored = if path.exists() {
            Self::load(path)?
        } else {
            let mut f = File::create(path).map_err(|e| Error::Checkpoint(e.to_string()))?;
            f.write_all(MAGIC).map_err(|e| Error::Checkpoint(e.to_string()))?;
            HashMap::new()
        };
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| Error::Checkpoint(e.to_string()))?;
        Ok(CheckpointLog { file, restored })
    }

    fn load(path: &Path) -> Result<HashMap<String, Vec<Vec<u8>>>> {
        let mut r = BufReader::new(File::open(path).map_err(|e| Error::Checkpoint(e.to_string()))?);
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic).map_err(|e| Error::Checkpoint(e.to_string()))?;
        if &magic != MAGIC {
            return Err(Error::Checkpoint("not a checkpoint log".into()));
        }
        let mut out = HashMap::new();
        loop {
            match Self::read_record(&mut r) {
                Ok(Some((key, outputs))) => {
                    out.insert(key, outputs);
                }
                Ok(None) => break,
                // Torn tail from a crash mid-append: keep what we have.
                Err(_) => break,
            }
        }
        Ok(out)
    }

    fn read_record<R: Read>(r: &mut R) -> std::io::Result<Option<(String, Vec<Vec<u8>>)>> {
        let mut len4 = [0u8; 4];
        match r.read_exact(&mut len4) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        let keylen = u32::from_le_bytes(len4) as usize;
        if keylen > 1 << 16 {
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "key too long"));
        }
        let mut key = vec![0u8; keylen];
        r.read_exact(&mut key)?;
        let key = String::from_utf8(key)
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad key"))?;
        let mut n4 = [0u8; 4];
        r.read_exact(&mut n4)?;
        let n = u32::from_le_bytes(n4) as usize;
        if n > 1 << 16 {
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "too many outputs"));
        }
        let mut outputs = Vec::with_capacity(n);
        for _ in 0..n {
            let mut len8 = [0u8; 8];
            r.read_exact(&mut len8)?;
            let len = u64::from_le_bytes(len8) as usize;
            let mut buf = vec![0u8; len];
            r.read_exact(&mut buf)?;
            outputs.push(buf);
        }
        Ok(Some((key, outputs)))
    }

    /// Returns the restored outputs for `key` when the task already
    /// completed in a previous run.
    pub fn lookup(&self, key: &str) -> Option<&Vec<Vec<u8>>> {
        self.restored.get(key)
    }

    /// Appends a completed task's outputs and flushes to disk.
    pub fn append(&mut self, key: &str, outputs: &[Vec<u8>]) -> Result<()> {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
        buf.extend_from_slice(key.as_bytes());
        buf.extend_from_slice(&(outputs.len() as u32).to_le_bytes());
        for o in outputs {
            buf.extend_from_slice(&(o.len() as u64).to_le_bytes());
            buf.extend_from_slice(o);
        }
        self.file
            .write_all(&buf)
            .and_then(|_| self.file.flush())
            .map_err(|e| Error::Checkpoint(e.to_string()))?;
        self.restored.insert(key.to_string(), outputs.to_vec());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dataflow-ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        std::fs::remove_file(&p).ok();
        p
    }

    #[test]
    fn append_then_reload() {
        let path = tmp("basic.log");
        {
            let mut log = CheckpointLog::open(&path).unwrap();
            assert!(log.restored.is_empty());
            log.append("task-a", &[vec![1, 2], vec![]]).unwrap();
            log.append("task-b", &[vec![9]]).unwrap();
        }
        let log = CheckpointLog::open(&path).unwrap();
        assert_eq!(log.restored.len(), 2);
        assert_eq!(log.lookup("task-a").unwrap(), &vec![vec![1, 2], vec![]]);
        assert_eq!(log.lookup("task-b").unwrap(), &vec![vec![9u8]]);
        assert!(log.lookup("task-c").is_none());
    }

    #[test]
    fn duplicate_key_keeps_latest() {
        let path = tmp("dup.log");
        {
            let mut log = CheckpointLog::open(&path).unwrap();
            log.append("k", &[vec![1]]).unwrap();
            log.append("k", &[vec![2]]).unwrap();
        }
        let log = CheckpointLog::open(&path).unwrap();
        assert_eq!(log.lookup("k").unwrap(), &vec![vec![2u8]]);
    }

    #[test]
    fn torn_tail_is_dropped() {
        let path = tmp("torn.log");
        {
            let mut log = CheckpointLog::open(&path).unwrap();
            log.append("good", &[vec![7; 10]]).unwrap();
        }
        // Simulate a crash mid-append: write half a record.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&(100u32).to_le_bytes()).unwrap();
            f.write_all(b"partial").unwrap();
        }
        let log = CheckpointLog::open(&path).unwrap();
        assert_eq!(log.restored.len(), 1);
        assert!(log.lookup("good").is_some());
    }

    #[test]
    fn non_log_file_rejected() {
        let path = tmp("junk.log");
        std::fs::write(&path, b"definitely not a log").unwrap();
        assert!(CheckpointLog::open(&path).is_err());
    }

    #[test]
    fn appends_after_reload_accumulate() {
        let path = tmp("accum.log");
        {
            let mut log = CheckpointLog::open(&path).unwrap();
            log.append("a", &[vec![1]]).unwrap();
        }
        {
            let mut log = CheckpointLog::open(&path).unwrap();
            log.append("b", &[vec![2]]).unwrap();
        }
        let log = CheckpointLog::open(&path).unwrap();
        assert_eq!(log.restored.len(), 2);
    }
}
