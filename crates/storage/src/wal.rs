//! Write-ahead log: the durability anchor of the disk backend.
//!
//! Every `ingest_batch` on a durable window appends exactly one record to the
//! WAL — the encoded batch — and `fsync`s it *before* any in-memory or
//! segment-file state changes.  A crash at any instant therefore leaves the
//! durable state describable as "the last checkpoint plus a prefix of the
//! WAL", and recovery only has to find where that prefix ends.
//!
//! # Record format
//!
//! ```text
//! ┌─────────────┬─────────────┬─────────────┬───────────────────┐
//! │ len: u32 LE │ crc: u32 LE │ seq: u64 LE │ payload (len − 8) │
//! └─────────────┴─────────────┴─────────────┴───────────────────┘
//! ```
//!
//! `len` counts the sequence number plus the payload; `crc` is the CRC-32 of
//! exactly those `len` bytes.  Sequence numbers start at 1 and increase by 1
//! per record, so replay can verify it is not reading a pruned or gapped log.
//!
//! # Torn tails
//!
//! A crash mid-append leaves a torn final record: a short header, a short
//! body, or a complete-looking body whose checksum fails.  [`Wal::open`]
//! scans the log from the start and truncates the file at the first bad
//! record — everything before it was fsynced by construction, everything
//! after it never committed.
//!
//! # Pruning
//!
//! Once a checkpoint covers a prefix of the log, [`Wal::prune_through`]
//! rewrites the surviving suffix to a temp file and atomically renames it
//! over the log, so the WAL's size stays proportional to the checkpoint
//! interval rather than the stream length.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use fsm_types::codec::{put_u32, put_u64, Reader};
use fsm_types::{FsmError, Result};

use crate::checksum::crc32;
use crate::paged::{annotate, artifact_name};

/// Size of the fixed record header (`len` + `crc`).
const HEADER_BYTES: usize = 8;
/// Bytes of the sequence number inside the checksummed body.
const SEQ_BYTES: usize = 8;

/// One committed WAL record, as handed back for replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Commit sequence number (1-based, contiguous).
    pub seq: u64,
    /// The caller's payload (an encoded batch, for the DSMatrix).
    pub payload: Vec<u8>,
}

/// What [`Wal::open`] found (and did) about the tail of the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset the log was truncated back to.
    pub truncated_at: u64,
    /// Why the first bad record was rejected.
    pub reason: String,
}

/// Cumulative durability counters of a [`Wal`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Bytes appended to the log (headers + bodies).
    pub bytes_written: u64,
    /// `fsync` system calls issued by appends and prunes.
    pub fsyncs: u64,
}

/// An append-only, checksummed, fsync-on-commit log file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Byte length of the committed log (== file length).
    len: u64,
    /// Sequence number of the last committed record (0 if none).
    last_seq: u64,
    stats: WalStats,
}

impl Wal {
    /// Creates a fresh, empty log at `path`, truncating any existing file.
    ///
    /// This is the non-recovery path: a brand-new durable window starts with
    /// an empty history.  Recovery must use [`Wal::open`] instead.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|err| annotate(err, "create WAL", &path))?;
        Ok(Self {
            file,
            path,
            len: 0,
            last_seq: 0,
            stats: WalStats::default(),
        })
    }

    /// Opens an existing log (creating an empty one if absent), scanning all
    /// records and truncating a torn tail.
    ///
    /// Returns the WAL positioned for appending, every committed record in
    /// order, and a [`TornTail`] report if the scan had to truncate.
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, Vec<WalRecord>, Option<TornTail>)> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|err| annotate(err, "open WAL", &path))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut records = Vec::new();
        let mut good = 0usize;
        let mut torn: Option<TornTail> = None;
        while good < bytes.len() {
            match decode_record(&bytes[good..]) {
                Ok((record, consumed)) => {
                    records.push(record);
                    good += consumed;
                }
                Err(reason) => {
                    torn = Some(TornTail {
                        truncated_at: good as u64,
                        reason: format!(
                            "record #{} of {}: {reason}",
                            records.len() + 1,
                            artifact_name(&path)
                        ),
                    });
                    break;
                }
            }
        }
        if torn.is_some() {
            file.set_len(good as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(good as u64))?;
        let last_seq = records.last().map_or(0, |r| r.seq);
        let mut wal = Self {
            file,
            path,
            len: good as u64,
            last_seq,
            stats: WalStats::default(),
        };
        if torn.is_some() {
            wal.stats.fsyncs += 1;
        }
        Ok((wal, records, torn))
    }

    /// Appends one record and forces it to stable storage before returning.
    ///
    /// `seq` must continue the log (`last sequence + 1`): the contiguity that
    /// replay later relies on is enforced at write time.
    pub fn append(&mut self, seq: u64, payload: &[u8]) -> Result<()> {
        if seq != self.last_seq + 1 {
            return Err(FsmError::corrupt(format!(
                "WAL append out of order: got seq {seq}, expected {}",
                self.last_seq + 1
            )));
        }
        let record = frame(seq, payload);
        self.file.write_all(&record)?;
        self.file.sync_all()?;
        self.stats.fsyncs += 1;
        self.stats.bytes_written += record.len() as u64;
        self.len += record.len() as u64;
        self.last_seq = seq;
        Ok(())
    }

    /// Drops every record with `seq <= through`, rewriting the survivors to a
    /// temporary file and atomically renaming it over the log.
    ///
    /// Called after a checkpoint commits: the pruned prefix is exactly the
    /// history the checkpoint already captures.
    pub fn prune_through(&mut self, through: u64) -> Result<()> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut bytes = Vec::new();
        self.file.read_to_end(&mut bytes)?;
        let mut keep = Vec::new();
        let mut offset = 0usize;
        while offset < bytes.len() {
            let (record, consumed) = decode_record(&bytes[offset..]).map_err(|reason| {
                FsmError::corrupt_artifact(
                    artifact_name(&self.path),
                    format!("while pruning: {reason}"),
                )
            })?;
            if record.seq > through {
                keep.extend_from_slice(&bytes[offset..offset + consumed]);
            }
            offset += consumed;
        }

        let tmp = self.path.with_extension("log.tmp");
        let mut tmp_file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)
            .map_err(|err| annotate(err, "create WAL prune temp", &tmp))?;
        tmp_file.write_all(&keep)?;
        tmp_file.sync_all()?;
        self.stats.fsyncs += 1;
        drop(tmp_file);
        std::fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .map_err(|err| annotate(err, "reopen pruned WAL", &self.path))?;
        self.file.seek(SeekFrom::Start(keep.len() as u64))?;
        self.len = keep.len() as u64;
        Ok(())
    }

    /// Tells a reopened log that a checkpoint covers its history through
    /// `covered`: the next append continues at `max(last_seq, covered) + 1`.
    ///
    /// [`Wal::open`] derives the last sequence number from the records it
    /// finds, and a log that [`Wal::prune_through`] emptied holds none —
    /// though its history did not restart at 1.  Recovery calls this with
    /// the sequence number of the checkpoint it restored; nothing else may,
    /// since anywhere else a jump in sequence numbers is a lost record.
    pub fn resume_after(&mut self, covered: u64) {
        self.last_seq = self.last_seq.max(covered);
    }

    /// Byte length of the committed log.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Sequence number of the last committed record (0 if the log is empty).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The cumulative durability counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }
}

/// Frames `payload` as one wire-format record (exposed so crash-point tests
/// can compute byte-exact record boundaries without reaching into the file).
pub fn frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(SEQ_BYTES + payload.len());
    put_u64(&mut body, seq);
    body.extend_from_slice(payload);
    let mut record = Vec::with_capacity(HEADER_BYTES + body.len());
    put_u32(&mut record, body.len() as u32);
    put_u32(&mut record, crc32(&body));
    record.extend_from_slice(&body);
    record
}

/// Decodes the record at the start of `bytes`, returning it and the bytes
/// consumed, or a human-readable reason why the bytes are not a committed
/// record (short header, short body, checksum mismatch).
fn decode_record(bytes: &[u8]) -> std::result::Result<(WalRecord, usize), String> {
    let mut reader = Reader::new(bytes);
    let (Ok(body_len), Ok(stored_crc)) = (reader.take_u32(), reader.take_u32()) else {
        return Err(format!(
            "torn header ({} of {HEADER_BYTES} bytes)",
            bytes.len()
        ));
    };
    let body_len = body_len as usize;
    if body_len < SEQ_BYTES {
        return Err(format!(
            "body length {body_len} is shorter than the sequence number"
        ));
    }
    let Ok(body) = reader.take(body_len) else {
        return Err(format!(
            "torn body ({} of {body_len} bytes)",
            reader.remaining()
        ));
    };
    let actual_crc = crc32(body);
    if actual_crc != stored_crc {
        return Err(format!(
            "checksum mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
        ));
    }
    let mut body = Reader::new(body);
    let seq = body.take_u64().map_err(|err| err.to_string())?;
    Ok((
        WalRecord {
            seq,
            payload: body.rest().to_vec(),
        },
        HEADER_BYTES + body_len,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp::TempDir;

    fn reopen(path: &Path) -> (Wal, Vec<WalRecord>, Option<TornTail>) {
        Wal::open(path).unwrap()
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.file("wal.log");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1, b"alpha").unwrap();
        wal.append(2, b"").unwrap();
        wal.append(3, b"gamma-gamma").unwrap();
        assert_eq!(wal.last_seq(), 3);
        assert_eq!(wal.stats().fsyncs, 3, "one fsync per commit");
        let expected_len = (16 + 5) + 16 + (16 + 11);
        assert_eq!(wal.stats().bytes_written, expected_len);
        assert_eq!(wal.len_bytes(), expected_len);
        drop(wal);

        let (wal, records, torn) = reopen(&path);
        assert!(torn.is_none());
        assert_eq!(wal.last_seq(), 3);
        assert_eq!(
            records,
            vec![
                WalRecord {
                    seq: 1,
                    payload: b"alpha".to_vec()
                },
                WalRecord {
                    seq: 2,
                    payload: Vec::new()
                },
                WalRecord {
                    seq: 3,
                    payload: b"gamma-gamma".to_vec()
                },
            ]
        );
    }

    #[test]
    fn out_of_order_append_is_rejected() {
        let dir = TempDir::new("wal").unwrap();
        let mut wal = Wal::create(dir.file("wal.log")).unwrap();
        wal.append(1, b"x").unwrap();
        assert!(wal.append(3, b"y").is_err());
        assert!(wal.append(1, b"y").is_err());
        wal.append(2, b"y").unwrap();
    }

    #[test]
    fn every_torn_tail_prefix_truncates_to_the_committed_records() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.file("wal.log");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1, b"first").unwrap();
        let committed = wal.len_bytes();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        let record2 = frame(2, b"second record payload");

        for cut in 0..record2.len() {
            let mut torn_bytes = full.clone();
            torn_bytes.extend_from_slice(&record2[..cut]);
            std::fs::write(&path, &torn_bytes).unwrap();

            let (wal, records, torn) = reopen(&path);
            assert_eq!(records.len(), 1, "cut at {cut} must keep only record 1");
            assert_eq!(wal.last_seq(), 1);
            if cut == 0 {
                assert!(torn.is_none(), "an exact record boundary is not torn");
            } else {
                let torn = torn.expect("partial record must be reported");
                assert_eq!(torn.truncated_at, committed);
                assert!(torn.reason.contains("record #2"), "{}", torn.reason);
            }
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                committed,
                "file must be truncated back to the committed prefix"
            );
        }

        // The full second record is, of course, not torn.
        let mut whole = full.clone();
        whole.extend_from_slice(&record2);
        std::fs::write(&path, &whole).unwrap();
        let (_, records, torn) = reopen(&path);
        assert_eq!(records.len(), 2);
        assert!(torn.is_none());
    }

    #[test]
    fn bit_flip_in_a_record_truncates_there_and_reports_it() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.file("wal.log");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1, b"first").unwrap();
        let first_len = wal.len_bytes() as usize;
        wal.append(2, b"second").unwrap();
        wal.append(3, b"third").unwrap();
        drop(wal);

        // Flip one payload bit inside record 2.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[first_len + HEADER_BYTES + SEQ_BYTES] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();

        let (wal, records, torn) = reopen(&path);
        assert_eq!(records.len(), 1, "records after the bad one are dropped");
        assert_eq!(wal.last_seq(), 1);
        let torn = torn.expect("corruption must be reported");
        assert!(
            torn.reason.contains("record #2") && torn.reason.contains("checksum mismatch"),
            "report must name the artifact: {}",
            torn.reason
        );
    }

    #[test]
    fn prune_keeps_only_newer_records_and_appends_continue() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.file("wal.log");
        let mut wal = Wal::create(&path).unwrap();
        for seq in 1..=5u64 {
            wal.append(seq, format!("payload-{seq}").as_bytes())
                .unwrap();
        }
        wal.prune_through(3).unwrap();
        assert_eq!(wal.last_seq(), 5);
        wal.append(6, b"post-prune").unwrap();
        drop(wal);

        let (_, records, torn) = reopen(&path);
        assert!(torn.is_none());
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![4, 5, 6]);
        assert_eq!(records[0].payload, b"payload-4");
    }

    #[test]
    fn prune_everything_leaves_an_appendable_empty_log() {
        let dir = TempDir::new("wal").unwrap();
        let mut wal = Wal::create(dir.file("wal.log")).unwrap();
        wal.append(1, b"x").unwrap();
        wal.append(2, b"y").unwrap();
        wal.prune_through(2).unwrap();
        assert_eq!(wal.len_bytes(), 0);
        wal.append(3, b"z").unwrap();
        let (_, records, _) = reopen(wal.path());
        drop(wal);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].seq, 3);
    }

    #[test]
    fn a_fully_pruned_log_reopens_at_the_checkpoint_it_resumes_after() {
        let dir = TempDir::new("wal").unwrap();
        let path = dir.file("wal.log");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(1, b"x").unwrap();
        wal.append(2, b"y").unwrap();
        wal.prune_through(2).unwrap();
        drop(wal);

        // The empty file cannot say where its history stopped ...
        let (mut wal, records, _) = reopen(&path);
        assert!(records.is_empty());
        assert_eq!(wal.last_seq(), 0);
        assert!(wal.append(3, b"z").is_err());
        // ... the checkpoint that justified the prune can.
        wal.resume_after(2);
        assert_eq!(wal.last_seq(), 2);
        assert!(wal.append(1, b"z").is_err());
        wal.append(3, b"z").unwrap();
        // A log that is already further along is not moved back.
        wal.resume_after(1);
        wal.append(4, b"w").unwrap();
        drop(wal);

        let (wal, records, torn) = reopen(&path);
        assert!(torn.is_none());
        assert_eq!(wal.last_seq(), 4);
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn open_on_missing_path_creates_an_empty_log() {
        let dir = TempDir::new("wal").unwrap();
        let (wal, records, torn) = Wal::open(dir.file("fresh.log")).unwrap();
        assert_eq!(wal.last_seq(), 0);
        assert!(records.is_empty());
        assert!(torn.is_none());
    }
}
