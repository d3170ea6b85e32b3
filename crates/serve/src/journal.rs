//! Crash-safe job journal.
//!
//! An append-only file of CRC32C-framed JSON records — one per admit,
//! start, and finish — so a killed daemon can reconstruct exactly which
//! jobs were admitted but never finished and re-queue them on startup.
//!
//! Record framing is the shared `[4-byte LE payload length][4-byte LE
//! CRC32C][JSON payload]` codec (see [`crate::frame`]). A process killed
//! mid-append leaves a torn tail; the reader treats everything up to the
//! tear as authoritative and [`Journal::open`] truncates the tear away
//! before appending. A frame whose bytes all landed but whose CRC does
//! not match (silent bit corruption) is *skipped*, not treated as a
//! wall: its length header still delimits it, so replay resynchronizes
//! at the next frame boundary and keeps every record behind it, counting
//! the loss in [`Replay::corrupt_frames`].
//!
//! The journal never rewrites history in place. When a size budget
//! forces **compaction** ([`Journal::compact`]), the surviving records
//! are written to a sibling temp file, fsync'd, and atomically renamed
//! over the journal — at every byte offset of that protocol either the
//! old complete journal or the new complete journal is on disk. The
//! compacted segment opens with a [`Record::Compact`] marker carrying
//! the id-allocator floor and the count of dropped finished jobs, so
//! exactly-once accounting audits still balance after records are gone.

use crate::frame::{encode_frame, scan_frames, MAX_FRAME};
use crate::job::{JobOutcome, JobSpec};
use dpml_faults::{StorageFaults, WriteFault};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Largest accepted journal record payload.
pub const MAX_RECORD: usize = MAX_FRAME;

/// One journal record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Record {
    /// A job passed admission and entered the queue.
    Admit {
        /// Server-assigned id.
        id: u64,
        /// Content digest of the scenario set.
        digest: String,
        /// The full spec, so replay can re-queue without the client.
        spec: JobSpec,
    },
    /// A worker began (re-)executing the job.
    Start {
        /// Job id.
        id: u64,
        /// 0-based attempt number.
        attempt: u32,
    },
    /// The job reached a terminal outcome.
    Finish {
        /// Job id.
        id: u64,
        /// Result or structured error (also warms the cache on replay).
        outcome: JobOutcome,
    },
    /// First record of a compacted segment: accounting for what the
    /// compactor dropped, so replay invariants survive the rewrite.
    Compact {
        /// Highest job id ever journaled at compaction time — the id
        /// allocator resumes above it even though the records that
        /// carried it may be gone.
        max_id: u64,
        /// Finished jobs whose Admit/Start/Finish records were dropped
        /// by this compaction (cumulative across compactions: each new
        /// segment's marker folds in the previous marker's count).
        dropped_jobs: u64,
    },
}

impl Record {
    /// The job id this record is about; for [`Record::Compact`] the
    /// id-allocator floor it preserves.
    pub fn id(&self) -> u64 {
        match self {
            Record::Admit { id, .. } | Record::Start { id, .. } | Record::Finish { id, .. } => *id,
            Record::Compact { max_id, .. } => *max_id,
        }
    }
}

/// Everything a replay learned from the journal file.
#[derive(Debug, Default)]
pub struct Replay {
    /// All valid records, in append order.
    pub records: Vec<Record>,
    /// Byte offset just past the last structurally complete record.
    pub valid_len: u64,
    /// True when a torn/corrupt tail was dropped.
    pub torn_tail: bool,
    /// Structurally complete frames skipped for CRC mismatch or
    /// unparseable payload (silent corruption, healed by resync).
    pub corrupt_frames: u32,
}

impl Replay {
    /// Jobs admitted but never finished — the re-queue set, in admission
    /// order, each exactly once.
    pub fn pending(&self) -> Vec<(u64, String, JobSpec)> {
        let mut admitted: Vec<(u64, String, JobSpec)> = Vec::new();
        for r in &self.records {
            if let Record::Admit { id, digest, spec } = r {
                admitted.push((*id, digest.clone(), spec.clone()));
            }
        }
        let finished: std::collections::HashSet<u64> = self
            .records
            .iter()
            .filter_map(|r| match r {
                Record::Finish { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        admitted.retain(|(id, _, _)| !finished.contains(id));
        admitted
    }

    /// Successful outcomes, for warming the content-addressed cache.
    pub fn finished(&self) -> Vec<(u64, JobOutcome)> {
        self.records
            .iter()
            .filter_map(|r| match r {
                Record::Finish { id, outcome } => Some((*id, outcome.clone())),
                _ => None,
            })
            .collect()
    }

    /// Highest id seen (0 when empty) — the id allocator resumes above
    /// it. Compact markers participate, so the floor survives even when
    /// the records that carried it were dropped.
    pub fn max_id(&self) -> u64 {
        self.records.iter().map(Record::id).max().unwrap_or(0)
    }

    /// Finished jobs dropped by compaction, as recorded by the newest
    /// [`Record::Compact`] marker (markers are cumulative). Adding this
    /// to the finishes still present reconstructs the all-time total.
    pub fn dropped_jobs(&self) -> u64 {
        self.records
            .iter()
            .rev()
            .find_map(|r| match r {
                Record::Compact { dropped_jobs, .. } => Some(*dropped_jobs),
                _ => None,
            })
            .unwrap_or(0)
    }
}

/// Parse journal bytes: skip silently-corrupt frames (resync), stop
/// cleanly at a torn tail.
pub fn replay_bytes(bytes: &[u8]) -> Replay {
    let scan = scan_frames(bytes);
    let mut out = Replay {
        records: Vec::with_capacity(scan.frames.len()),
        valid_len: scan.valid_len,
        torn_tail: scan.torn_tail,
        corrupt_frames: scan.corrupt_frames,
    };
    for frame in scan.frames {
        match std::str::from_utf8(&frame.payload)
            .ok()
            .and_then(|text| serde_json::from_str::<Record>(text).ok())
        {
            Some(record) => out.records.push(record),
            // CRC-valid but unparseable: a record written by a different
            // schema or corrupted before the CRC was computed. Skipping
            // it is the resync path, same as a CRC mismatch.
            None => out.corrupt_frames += 1,
        }
    }
    out
}

/// Read and parse a journal file. A missing file is an empty replay.
pub fn replay_file(path: &Path) -> std::io::Result<Replay> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    Ok(replay_bytes(&bytes))
}

/// What one compaction accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Journal bytes before the rewrite.
    pub before_bytes: u64,
    /// Journal bytes after the rewrite.
    pub after_bytes: u64,
    /// Records before the rewrite.
    pub records_before: usize,
    /// Records after the rewrite (including the Compact marker).
    pub records_after: usize,
}

#[derive(Debug)]
struct Inner {
    file: File,
    /// Append position — the length of the valid prefix. Tracked here
    /// so short-write healing can truncate back to it without trusting
    /// file metadata mid-fault.
    pos: u64,
    /// Set when a torn write left unhealed garbage at the tail (the
    /// simulated writer "died" mid-write). Every later append fails:
    /// appending past garbage would wall the new records off from
    /// replay, which is worse than refusing. Reopening heals.
    poisoned: bool,
}

/// The live, append-only journal writer.
#[derive(Debug)]
pub struct Journal {
    inner: Mutex<Inner>,
    path: PathBuf,
    faults: Option<Arc<StorageFaults>>,
}

impl Journal {
    /// Replay `path`, truncate any torn tail, and open for appending.
    /// Returns the writer and what the replay learned.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<(Journal, Replay)> {
        Journal::open_with(path, None)
    }

    /// [`Journal::open`] with seeded storage-fault injection on the
    /// write path (chaos campaigns only; `None` in production).
    pub fn open_with(
        path: impl AsRef<Path>,
        faults: Option<Arc<StorageFaults>>,
    ) -> std::io::Result<(Journal, Replay)> {
        let path = path.as_ref().to_path_buf();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let replay = replay_file(&path)?;
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)?;
        // Drop the torn tail so future appends extend the valid prefix.
        file.set_len(replay.valid_len)?;
        file.seek(SeekFrom::End(0))?;
        Ok((
            Journal {
                inner: Mutex::new(Inner {
                    file,
                    pos: replay.valid_len,
                    poisoned: false,
                }),
                path,
                faults,
            },
            replay,
        ))
    }

    /// Append one record and flush it to the OS.
    ///
    /// Under fault injection a write may fail with ENOSPC (nothing
    /// landed), land short (healed here by truncating back to the
    /// pre-write offset), land torn (the handle is poisoned — only a
    /// reopen heals), or succeed with a silently flipped bit (caught at
    /// replay by the CRC and resynced past).
    pub fn append(&self, record: &Record) -> std::io::Result<()> {
        let json = serde_json::to_string(record)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let mut frame = encode_frame(json.as_bytes());
        let mut g = self.inner.lock().expect("journal lock poisoned");
        if g.poisoned {
            return Err(std::io::Error::other(
                "journal poisoned by a torn write; reopen to heal",
            ));
        }
        match self.faults.as_ref().map(|f| f.next(frame.len())) {
            Some(WriteFault::Enospc) => {
                return Err(std::io::Error::other("storage fault: no space left"));
            }
            Some(WriteFault::Torn { keep }) => {
                // The writer "dies" mid-write: the prefix lands, nobody
                // heals, and this handle refuses further appends.
                let _ = g.file.write_all(&frame[..keep]);
                let _ = g.file.flush();
                g.poisoned = true;
                return Err(std::io::Error::other("storage fault: torn write"));
            }
            Some(WriteFault::Short { keep }) => {
                // The write comes up short but the writer survives to
                // observe it: heal by truncating back to the pre-write
                // offset so the next append extends a clean prefix.
                let _ = g.file.write_all(&frame[..keep]);
                let pos = g.pos;
                g.file.set_len(pos)?;
                g.file.seek(SeekFrom::Start(pos))?;
                return Err(std::io::Error::other("storage fault: short write"));
            }
            Some(WriteFault::BitFlip { offset, mask }) => {
                if offset < frame.len() {
                    frame[offset] ^= mask;
                }
            }
            Some(WriteFault::None) | None => {}
        }
        // One write per record keeps a torn append confined to the tail.
        g.file.write_all(&frame)?;
        g.file.flush()?;
        g.pos += frame.len() as u64;
        Ok(())
    }

    /// Durably sync the journal (used at drain).
    pub fn sync(&self) -> std::io::Result<()> {
        self.inner
            .lock()
            .expect("journal lock poisoned")
            .file
            .sync_all()
    }

    /// Current byte length of the journal — the append position. A
    /// post-mortem bundle records this so its trace tail can be lined up
    /// against "everything journaled up to the failure".
    pub fn position(&self) -> std::io::Result<u64> {
        Ok(self.inner.lock().expect("journal lock poisoned").pos)
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rewrite the journal to just the records `rewrite` keeps, crash-
    /// safe at every byte offset.
    ///
    /// Protocol: replay the current file, let `rewrite` choose the
    /// surviving records (it receives them in append order and must
    /// return them in a replay-consistent order), write the survivors to
    /// `<path>.compact`, fsync, atomically rename over the journal, and
    /// re-point the append handle at the new segment. The old segment
    /// stays on disk until the rename commits, so a crash at any byte
    /// of the protocol leaves either the old or the new journal intact —
    /// never a hybrid. The caller is responsible for prepending a
    /// [`Record::Compact`] marker via `rewrite` (see
    /// `ServerState::compaction_keep`).
    pub fn compact(
        &self,
        rewrite: impl FnOnce(&[Record]) -> Vec<Record>,
    ) -> std::io::Result<CompactionStats> {
        let mut g = self.inner.lock().expect("journal lock poisoned");
        if g.poisoned {
            return Err(std::io::Error::other(
                "journal poisoned by a torn write; reopen to heal",
            ));
        }
        g.file.flush()?;
        let replay = replay_file(&self.path)?;
        let kept = rewrite(&replay.records);
        let mut buf = Vec::new();
        for record in &kept {
            let json = serde_json::to_string(record)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            buf.extend_from_slice(&encode_frame(json.as_bytes()));
        }
        // Fault injection covers the compaction write too: an aborted
        // compaction must leave the old journal untouched.
        if let Some(f) = &self.faults {
            match f.next(buf.len()) {
                WriteFault::Enospc => {
                    return Err(std::io::Error::other(
                        "storage fault: no space left for compaction segment",
                    ));
                }
                WriteFault::Torn { .. } | WriteFault::Short { .. } => {
                    // A partial temp segment is abandoned, never renamed:
                    // equivalent to a crash before the swap.
                    return Err(std::io::Error::other(
                        "storage fault: compaction segment write failed",
                    ));
                }
                WriteFault::BitFlip { offset, mask } => {
                    if offset < buf.len() {
                        buf[offset] ^= mask;
                    }
                }
                WriteFault::None => {}
            }
        }
        let tmp = self.path.with_file_name(format!(
            "{}.compact",
            self.path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "journal".into())
        ));
        {
            let mut t = File::create(&tmp)?;
            t.write_all(&buf)?;
            // The segment must be durable *before* the rename makes it
            // the journal; rename-before-fsync could commit an empty
            // file on power loss.
            t.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // Best-effort directory sync so the rename itself is durable.
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                if let Ok(d) = File::open(dir) {
                    let _ = d.sync_all();
                }
            }
        }
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        let before = g.pos;
        g.file = file;
        g.pos = buf.len() as u64;
        Ok(CompactionStats {
            before_bytes: before,
            after_bytes: buf.len() as u64,
            records_before: replay.records.len(),
            records_after: kept.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobError, JobKind};
    use dpml_faults::StorageFaultPlan;

    fn spec() -> JobSpec {
        JobSpec {
            kind: JobKind::Simulate,
            preset: "b".into(),
            nodes: 2,
            ppn: 2,
            algorithms: vec!["ring".into()],
            sizes: vec![1024],
            deadline_ms: 0,
            panic_attempts: 0,
        }
    }

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dpml-journal-{}-{name}", std::process::id()))
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = temp("roundtrip");
        std::fs::remove_file(&path).ok();
        let (j, r) = Journal::open(&path).unwrap();
        assert!(r.records.is_empty());
        j.append(&Record::Admit {
            id: 1,
            digest: spec().digest(),
            spec: spec(),
        })
        .unwrap();
        j.append(&Record::Start { id: 1, attempt: 0 }).unwrap();
        j.append(&Record::Finish {
            id: 1,
            outcome: JobOutcome::Error(JobError::Canceled),
        })
        .unwrap();
        drop(j);
        let r = replay_file(&path).unwrap();
        assert_eq!(r.records.len(), 3);
        assert!(!r.torn_tail);
        assert_eq!(r.corrupt_frames, 0);
        assert!(r.pending().is_empty());
        assert_eq!(r.max_id(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pending_jobs_are_admits_without_finish_exactly_once() {
        let path = temp("pending");
        std::fs::remove_file(&path).ok();
        let (j, _) = Journal::open(&path).unwrap();
        for id in 1..=3u64 {
            j.append(&Record::Admit {
                id,
                digest: spec().digest(),
                spec: spec(),
            })
            .unwrap();
        }
        // Job 2 started twice (a retry) but never finished; job 1 done.
        j.append(&Record::Start { id: 2, attempt: 0 }).unwrap();
        j.append(&Record::Start { id: 2, attempt: 1 }).unwrap();
        j.append(&Record::Finish {
            id: 1,
            outcome: JobOutcome::Error(JobError::Canceled),
        })
        .unwrap();
        drop(j);
        let r = replay_file(&path).unwrap();
        let pending = r.pending();
        let ids: Vec<u64> = pending.iter().map(|(id, _, _)| *id).collect();
        assert_eq!(ids, vec![2, 3]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated_on_reopen() {
        let path = temp("torn");
        std::fs::remove_file(&path).ok();
        let (j, _) = Journal::open(&path).unwrap();
        j.append(&Record::Start { id: 1, attempt: 0 }).unwrap();
        j.append(&Record::Start { id: 2, attempt: 0 }).unwrap();
        drop(j);
        let full = std::fs::read(&path).unwrap();
        // Tear the second record: keep its header, lose payload bytes.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let r = replay_file(&path).unwrap();
        assert_eq!(r.records.len(), 1);
        assert!(r.torn_tail);

        // Re-open: the torn bytes must be truncated, and a fresh append
        // must land right after record 1.
        let (j, r) = Journal::open(&path).unwrap();
        assert_eq!(r.records.len(), 1);
        j.append(&Record::Start { id: 3, attempt: 0 }).unwrap();
        drop(j);
        let r = replay_file(&path).unwrap();
        assert!(!r.torn_tail);
        assert_eq!(
            r.records,
            vec![
                Record::Start { id: 1, attempt: 0 },
                Record::Start { id: 3, attempt: 0 }
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tail_cut_inside_crc_trailer_heals_like_any_other_tear() {
        // The second frame's header is [len:4][crc:4]; cut points landing
        // *inside* the CRC32C field (frame offsets 5..8) leave a header
        // that is neither complete nor absent. Every such tear must drop
        // exactly the torn frame, keep the first record, and heal on
        // reopen so a fresh append lands right after record 1.
        let path = temp("crc-trailer-cut");
        std::fs::remove_file(&path).ok();
        let (j, _) = Journal::open(&path).unwrap();
        j.append(&Record::Start { id: 1, attempt: 0 }).unwrap();
        let frame1_len = std::fs::metadata(&path).unwrap().len() as usize;
        j.append(&Record::Start { id: 2, attempt: 0 }).unwrap();
        drop(j);
        let full = std::fs::read(&path).unwrap();

        // Frame offsets 1..8 cover cuts inside the length field (1..4)
        // and inside the CRC field (5..8); offset 8 is "header complete,
        // payload missing" and 0 is "frame absent entirely" (clean tail).
        for cut in 0..8usize {
            std::fs::write(&path, &full[..frame1_len + cut]).unwrap();
            let r = replay_file(&path).unwrap();
            assert_eq!(r.records.len(), 1, "cut at header offset {cut}");
            assert_eq!(r.valid_len, frame1_len as u64);
            assert_eq!(r.torn_tail, cut != 0, "cut at header offset {cut}");

            let (j, r) = Journal::open(&path).unwrap();
            assert_eq!(r.records.len(), 1);
            j.append(&Record::Start { id: 3, attempt: 0 }).unwrap();
            drop(j);
            let r = replay_file(&path).unwrap();
            assert!(!r.torn_tail, "reopen must have truncated the tear");
            assert_eq!(
                r.records,
                vec![
                    Record::Start { id: 1, attempt: 0 },
                    Record::Start { id: 3, attempt: 0 }
                ],
                "cut at header offset {cut}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tail_cut_mid_payload_after_valid_crc_heals() {
        // Torn payload with a fully intact header (len + CRC both
        // present): the declared length overruns the file, so the frame
        // is torn even though its CRC field is valid.
        let path = temp("payload-after-crc");
        std::fs::remove_file(&path).ok();
        let (j, _) = Journal::open(&path).unwrap();
        j.append(&Record::Start { id: 1, attempt: 0 }).unwrap();
        let frame1_len = std::fs::metadata(&path).unwrap().len() as usize;
        j.append(&Record::Start { id: 2, attempt: 0 }).unwrap();
        drop(j);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..frame1_len + 8 + 1]).unwrap();
        let r = replay_file(&path).unwrap();
        assert_eq!(r.records.len(), 1);
        assert!(r.torn_tail);
        assert_eq!(r.valid_len, frame1_len as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_frame_is_skipped_and_later_records_survive() {
        let path = temp("crc");
        std::fs::remove_file(&path).ok();
        let (j, _) = Journal::open(&path).unwrap();
        j.append(&Record::Start { id: 1, attempt: 0 }).unwrap();
        j.append(&Record::Start { id: 2, attempt: 0 }).unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte of the first record: its length header
        // still delimits it, so replay skips exactly that frame and
        // resynchronizes — record 2 survives.
        bytes[10] ^= 0x40;
        let r = replay_bytes(&bytes);
        assert_eq!(r.records, vec![Record::Start { id: 2, attempt: 0 }]);
        assert_eq!(r.corrupt_frames, 1);
        assert!(!r.torn_tail);
        assert_eq!(r.valid_len, bytes.len() as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_empty_replay() {
        let r = replay_file(Path::new("/nonexistent/definitely/missing.journal"));
        assert!(r.is_err() || r.unwrap().records.is_empty());
    }

    #[test]
    fn compaction_is_atomic_and_preserves_accounting() {
        let path = temp("compact");
        std::fs::remove_file(&path).ok();
        let (j, _) = Journal::open(&path).unwrap();
        for id in 1..=4u64 {
            j.append(&Record::Admit {
                id,
                digest: spec().digest(),
                spec: spec(),
            })
            .unwrap();
            j.append(&Record::Start { id, attempt: 0 }).unwrap();
        }
        // Jobs 1-3 finished; job 4 in flight.
        for id in 1..=3u64 {
            j.append(&Record::Finish {
                id,
                outcome: JobOutcome::Error(JobError::Canceled),
            })
            .unwrap();
        }
        let before = j.position().unwrap();
        let stats = j
            .compact(|records| {
                // Keep only live-job records, drop the 3 finished jobs.
                let mut kept = vec![Record::Compact {
                    max_id: 4,
                    dropped_jobs: 3,
                }];
                kept.extend(
                    records
                        .iter()
                        .filter(|r| r.id() == 4 && !matches!(r, Record::Compact { .. }))
                        .cloned(),
                );
                kept
            })
            .unwrap();
        assert_eq!(stats.before_bytes, before);
        assert!(stats.after_bytes < stats.before_bytes);
        assert_eq!(stats.records_before, 11);
        assert_eq!(stats.records_after, 3);

        // The handle must keep appending into the *new* segment.
        j.append(&Record::Finish {
            id: 4,
            outcome: JobOutcome::Error(JobError::Canceled),
        })
        .unwrap();
        drop(j);
        let r = replay_file(&path).unwrap();
        assert!(!r.torn_tail);
        assert_eq!(r.max_id(), 4);
        assert_eq!(r.dropped_jobs(), 3);
        assert!(r.pending().is_empty(), "job 4 finished after compaction");
        assert!(matches!(r.records[0], Record::Compact { .. }));
        // No leftover temp segment.
        assert!(!path
            .with_file_name(format!(
                "{}.compact",
                path.file_name().unwrap().to_string_lossy()
            ))
            .exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_compacted_prefix_is_old_or_new_journal() {
        // Simulate a crash at every byte of the compaction protocol by
        // reconstructing the visible states: the temp file is never the
        // journal, so the only observable states are (old journal) and
        // (new journal); both must replay cleanly.
        let path = temp("compact-crash");
        std::fs::remove_file(&path).ok();
        let (j, _) = Journal::open(&path).unwrap();
        for id in 1..=3u64 {
            j.append(&Record::Admit {
                id,
                digest: spec().digest(),
                spec: spec(),
            })
            .unwrap();
        }
        let old = std::fs::read(&path).unwrap();
        j.compact(|_| {
            vec![
                Record::Compact {
                    max_id: 3,
                    dropped_jobs: 0,
                },
                Record::Admit {
                    id: 3,
                    digest: spec().digest(),
                    spec: spec(),
                },
            ]
        })
        .unwrap();
        let new = std::fs::read(&path).unwrap();
        drop(j);
        for state in [&old, &new] {
            let r = replay_bytes(state);
            assert!(!r.torn_tail);
            assert_eq!(r.corrupt_frames, 0);
            assert_eq!(r.max_id(), 3);
        }
        // And every *torn* prefix of either state heals like any tear.
        for state in [&old, &new] {
            for cut in 0..state.len() {
                let r = replay_bytes(&state[..cut]);
                assert!(r.valid_len <= cut as u64);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn short_write_heals_and_torn_write_poisons() {
        let plan = StorageFaultPlan {
            seed: 11,
            enospc_rate: 0.0,
            torn_write_rate: 0.0,
            short_write_rate: 1.0,
            bit_flip_rate: 0.0,
        };
        let path = temp("short");
        std::fs::remove_file(&path).ok();
        let (j, _) = Journal::open_with(&path, Some(Arc::new(StorageFaults::new(plan)))).unwrap();
        let err = j.append(&Record::Start { id: 1, attempt: 0 }).unwrap_err();
        assert!(err.to_string().contains("short write"));
        drop(j);
        // The heal truncated the partial frame: the file is clean.
        let r = replay_file(&path).unwrap();
        assert!(r.records.is_empty());
        assert!(!r.torn_tail);

        let plan = StorageFaultPlan {
            seed: 11,
            enospc_rate: 0.0,
            torn_write_rate: 1.0,
            short_write_rate: 0.0,
            bit_flip_rate: 0.0,
        };
        let (j, _) = Journal::open_with(&path, Some(Arc::new(StorageFaults::new(plan)))).unwrap();
        let err = j.append(&Record::Start { id: 1, attempt: 0 }).unwrap_err();
        assert!(err.to_string().contains("torn write"));
        // Poisoned: subsequent appends fail without touching the file.
        let err = j.append(&Record::Start { id: 2, attempt: 0 }).unwrap_err();
        assert!(err.to_string().contains("poisoned"));
        drop(j);
        // Reopen heals the torn garbage.
        let (j, r) = Journal::open(&path).unwrap();
        assert!(r.records.is_empty());
        j.append(&Record::Start { id: 3, attempt: 0 }).unwrap();
        drop(j);
        let r = replay_file(&path).unwrap();
        assert_eq!(r.records, vec![Record::Start { id: 3, attempt: 0 }]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_is_caught_at_replay_by_resync() {
        let plan = StorageFaultPlan {
            seed: 5,
            enospc_rate: 0.0,
            torn_write_rate: 0.0,
            short_write_rate: 0.0,
            bit_flip_rate: 1.0,
        };
        let path = temp("bitflip");
        std::fs::remove_file(&path).ok();
        let faults = Arc::new(StorageFaults::new(plan));
        let (j, _) = Journal::open_with(&path, Some(faults.clone())).unwrap();
        // Every append succeeds but lands with one bit flipped.
        j.append(&Record::Start { id: 1, attempt: 0 }).unwrap();
        j.append(&Record::Start { id: 2, attempt: 0 }).unwrap();
        drop(j);
        assert_eq!(faults.counts().bit_flips, 2);
        let r = replay_file(&path).unwrap();
        // Flips may land in the CRC field or the payload; either way
        // each frame is skipped-or-kept cleanly, never a wall.
        assert!(!r.torn_tail);
        assert_eq!(r.records.len() as u32 + r.corrupt_frames, 2);
        assert!(r.corrupt_frames >= 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn enospc_leaves_no_trace() {
        let plan = StorageFaultPlan {
            seed: 3,
            enospc_rate: 1.0,
            torn_write_rate: 0.0,
            short_write_rate: 0.0,
            bit_flip_rate: 0.0,
        };
        let path = temp("enospc");
        std::fs::remove_file(&path).ok();
        let (j, _) = Journal::open_with(&path, Some(Arc::new(StorageFaults::new(plan)))).unwrap();
        let err = j.append(&Record::Start { id: 1, attempt: 0 }).unwrap_err();
        assert!(err.to_string().contains("no space"));
        assert_eq!(j.position().unwrap(), 0);
        drop(j);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        std::fs::remove_file(&path).ok();
    }
}
