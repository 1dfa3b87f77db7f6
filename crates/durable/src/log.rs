//! Append-only segment files for the write-ahead log.
//!
//! The log is a directory of segments named `wal-<seq>.log` (20-digit
//! zero-padded, so lexicographic name order is numeric seq order).  A
//! segment's name is the smallest sequence number any record inside it may
//! carry: segments are created when the previous one reaches its size
//! threshold, and are named `appended_seq + 1` at that moment.  Because
//! records are appended in strictly increasing seq order, this gives two
//! recovery invariants for free:
//!
//! 1. replaying segments in name order replays records in seq order, and
//! 2. a snapshot at seq `S` makes *every* record in *every* current
//!    segment redundant (all have seq <= `S`), so truncation after a
//!    snapshot deletes whole segments — never a byte range.
//!
//! Every segment opens with the 8-byte artefact header (tag `PBWAL`,
//! see [`crate::record`]) recording the value width its records carry.
//! A file too short for the header, or with a damaged one, replays as
//! torn at offset zero; a well-formed header for another value width (or
//! a retired dialect) is refused with `InvalidData`.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use batchapi::KeyCodec;

use crate::record::{self, check_header, DecodeOutcome, Record, HEADER};

/// The header tag of a WAL segment.
const SEGMENT_TAG: &[u8; 5] = b"PBWAL";

/// The active segment an open durable tier appends to.
#[derive(Debug)]
pub(crate) struct SegmentLog {
    dir: PathBuf,
    file: File,
    /// The value width this log stamps on every segment it creates;
    /// rotation preserves it.
    value_width: usize,
    /// Bytes written to the active segment (including the header).
    bytes: u64,
    /// Rotation threshold; the active segment rotates once `bytes`
    /// exceeds it.  A single record never splits across segments.
    segment_bytes: u64,
}

impl SegmentLog {
    /// Creates (truncating) the active segment `wal-<name_seq>.log` for
    /// records carrying `value_width`-byte values, and makes its
    /// directory entry durable.
    pub(crate) fn create(
        dir: &Path,
        name_seq: u64,
        segment_bytes: u64,
        value_width: usize,
    ) -> io::Result<SegmentLog> {
        let path = segment_path(dir, name_seq);
        let mut file = File::create(&path)?;
        file.write_all(&record::header(SEGMENT_TAG, value_width))?;
        file.sync_all()?;
        sync_dir(dir)?;
        Ok(SegmentLog {
            dir: dir.to_path_buf(),
            file,
            value_width,
            bytes: HEADER as u64,
            segment_bytes,
        })
    }

    /// Appends raw encoded record bytes (no fsync).
    pub(crate) fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)?;
        self.bytes += bytes.len() as u64;
        Ok(())
    }

    /// Forces everything appended so far onto disk.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Whether the active segment has reached its rotation threshold.
    pub(crate) fn wants_rotation(&self) -> bool {
        self.bytes >= self.segment_bytes
    }

    /// Rotates to a fresh segment named `name_seq`.  The caller must have
    /// synced the old segment first (rotation seals it; nothing ever
    /// appends to it again).
    pub(crate) fn rotate(&mut self, name_seq: u64) -> io::Result<()> {
        let next = SegmentLog::create(&self.dir, name_seq, self.segment_bytes, self.value_width)?;
        *self = next;
        Ok(())
    }

    /// Bytes written to the active segment so far.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Path of the segment named `seq` inside `dir`.
pub(crate) fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:020}.log"))
}

/// All segment files in `dir`, sorted by their name's sequence number.
/// Files that do not match the `wal-<digits>.log` pattern are ignored
/// (the manifest and snapshots share the directory).
pub(crate) fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".log"))
        else {
            continue;
        };
        let Ok(seq) = stem.parse::<u64>() else {
            continue;
        };
        segments.push((seq, entry.path()));
    }
    segments.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(segments)
}

/// How one segment's replay ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SegmentEnd {
    /// Every byte decoded as a record; the segment is intact.
    Clean,
    /// The valid prefix ends at this byte offset (torn final write, bit
    /// rot, or a foreign/empty file).  Recovery truncates here.
    Torn(u64),
}

/// Refuses the segment at `path` when its header is foreign to
/// `value_width` (`InvalidData`); a damaged header passes, since replay
/// reads it as a tear.  Recovery checks every segment this way before it
/// heals anything.
pub(crate) fn check_segment(path: &Path, value_width: usize) -> io::Result<()> {
    let mut head = Vec::with_capacity(HEADER);
    File::open(path)?
        .take(HEADER as u64)
        .read_to_end(&mut head)?;
    check_header(&head, SEGMENT_TAG, value_width, path)?;
    Ok(())
}

/// Replays one segment, feeding each valid record to `apply` in order.
/// `apply` returns `false` to reject a record (recovery uses this to
/// treat a non-increasing sequence number as damage); the rejected
/// record's offset is reported as the tear.
pub(crate) fn replay<K, V, F>(path: &Path, mut apply: F) -> io::Result<SegmentEnd>
where
    K: KeyCodec,
    V: KeyCodec,
    F: FnMut(Record<'_, K, V>) -> bool,
{
    let buf = fs::read(path)?;
    if !check_header(&buf, SEGMENT_TAG, V::WIDTH, path)? {
        return Ok(SegmentEnd::Torn(0));
    }
    let mut at = HEADER;
    loop {
        match record::decode::<K, V>(&buf, at) {
            DecodeOutcome::Clean => return Ok(SegmentEnd::Clean),
            DecodeOutcome::Torn => return Ok(SegmentEnd::Torn(at as u64)),
            DecodeOutcome::Record { record, consumed } => {
                if !apply(record) {
                    return Ok(SegmentEnd::Torn(at as u64));
                }
                at += consumed;
            }
        }
    }
}

/// Truncates the file at `path` to `len` bytes and syncs it — recovery's
/// cleanup of a torn tail, so the next open sees a clean log.
pub(crate) fn truncate_segment(path: &Path, len: u64) -> io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_all()
}

/// Makes `dir`'s entries durable.  File creation, deletion and rename are
/// directory mutations: without this an fsynced *file* can survive a crash
/// while its *name* does not.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        // Windows has no directory handle sync with std; rely on the
        // file-level syncs (tests and CI for this workspace run on unix).
        let _ = dir;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "durable-log-test-{}-{tag}-{id}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn one_record(seq: u64, key: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        record::encode(seq, [(&key, Some(&()))], &mut buf);
        buf
    }

    #[test]
    fn append_replay_round_trips_across_rotation() {
        let dir = scratch_dir("rotate");
        // Tiny threshold: every record trips rotation.
        let mut log = SegmentLog::create(&dir, 1, 16, 0).unwrap();
        for seq in 1..=5u64 {
            if log.wants_rotation() {
                log.sync().unwrap();
                log.rotate(seq).unwrap();
            }
            log.append(&one_record(seq, seq * 10)).unwrap();
        }
        log.sync().unwrap();

        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 1, "rotation should have split the log");
        assert!(segments.windows(2).all(|w| w[0].0 < w[1].0));

        let mut seen = Vec::new();
        for (_, path) in &segments {
            let end = replay::<u64, (), _>(path, |r| {
                seen.push((r.seq, r.ops().collect::<Vec<_>>()));
                true
            })
            .unwrap();
            assert_eq!(end, SegmentEnd::Clean);
        }
        assert_eq!(
            seen,
            (1..=5u64)
                .map(|s| (s, vec![(s * 10, Some(()))]))
                .collect::<Vec<_>>()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_reports_the_valid_prefix_and_truncation_heals_it() {
        let dir = scratch_dir("torn");
        let mut log = SegmentLog::create(&dir, 1, u64::MAX, 0).unwrap();
        log.append(&one_record(1, 7)).unwrap();
        let valid_end = log.bytes();
        let mut partial = one_record(2, 8);
        partial.truncate(partial.len() - 3);
        log.append(&partial).unwrap();
        log.sync().unwrap();

        let path = segment_path(&dir, 1);
        let mut count = 0;
        let end = replay::<u64, (), _>(&path, |_| {
            count += 1;
            true
        })
        .unwrap();
        assert_eq!(count, 1);
        assert_eq!(end, SegmentEnd::Torn(valid_end));

        truncate_segment(&path, valid_end).unwrap();
        let end = replay::<u64, (), _>(&path, |_| true).unwrap();
        assert_eq!(end, SegmentEnd::Clean);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_or_headerless_file_is_torn_at_zero() {
        // Not a segment at all (no well-formed header): damage, not a
        // refusal.
        let dir = scratch_dir("header");
        let path = segment_path(&dir, 3);
        fs::write(&path, b"not a wal segment").unwrap();
        let end = replay::<u64, (), _>(&path, |_| panic!("no records")).unwrap();
        assert_eq!(end, SegmentEnd::Torn(0));
        fs::write(&path, b"xy").unwrap();
        let end = replay::<u64, (), _>(&path, |_| panic!("no records")).unwrap();
        assert_eq!(end, SegmentEnd::Torn(0));
        check_segment(&path, 0).expect("damage is not foreign");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn another_value_width_is_refused_not_torn() {
        let dir = scratch_dir("width");
        let mut log = SegmentLog::create(&dir, 1, u64::MAX, 0).unwrap();
        log.append(&one_record(1, 7)).unwrap();
        log.sync().unwrap();
        let path = segment_path(&dir, 1);
        let before = fs::read(&path).unwrap();
        let refused = replay::<u64, u64, _>(&path, |_| panic!("no records")).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            check_segment(&path, 8).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        check_segment(&path, 0).expect("its own width passes");
        assert_eq!(fs::read(&path).unwrap(), before, "refusal touches nothing");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn listing_ignores_non_segment_files() {
        let dir = scratch_dir("list");
        SegmentLog::create(&dir, 2, 64, 0).unwrap();
        fs::write(dir.join("MANIFEST"), b"m").unwrap();
        fs::write(dir.join("snap-00000000000000000001.snap"), b"s").unwrap();
        fs::write(dir.join("wal-junk.log"), b"j").unwrap();
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].0, 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
