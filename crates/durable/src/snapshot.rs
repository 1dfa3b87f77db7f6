//! Snapshot files and the manifest that commits them.
//!
//! A snapshot is the tier's full contents — `(key, value)` entries, with
//! `V = ()` for a set — at one linearisation point, paired with that
//! point's sequence number `S`: loading the snapshot and
//! replaying WAL records with seq > `S` reconstructs the exact state.
//! The snapshot file itself (`snap-<seq>.snap`) is written and fsynced
//! first; it only *becomes* the recovery root when the single-file
//! `MANIFEST` is atomically renamed into place pointing at it.  Crash
//! anywhere before the rename and the old manifest (or none) still rules;
//! crash after and the new snapshot rules — there is no in-between state.
//!
//! A snapshot opens with the artefact header (tag `PBSNP`, see
//! [`crate::record`]) recording its value width; the manifest opens with
//! its own magic.  Both carry an FNV-1a 64 checksum and explicit lengths.
//! A *missing* manifest means a fresh (or pre-snapshot) directory and is
//! normal; a *corrupt* manifest or snapshot is an error — silently falling
//! back to "no snapshot" would present data loss as a clean recovery,
//! because the snapshot that manifest pointed at was what authorised
//! deleting older log segments.  So is a snapshot of another value width:
//! a set's snapshot never loads into a map, nor a map's into a set.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use batchapi::KeyCodec;

use crate::log::sync_dir;
use crate::record::{self, check_header, fnv1a, HEADER};

/// The header tag of a snapshot file.
const SNAPSHOT_TAG: &[u8; 5] = b"PBSNP";

/// Identifies the manifest (version 1).
const MANIFEST_MAGIC: &[u8; 8] = b"PBMANI\x00\x01";

/// The manifest's file name inside the durable directory.
const MANIFEST_NAME: &str = "MANIFEST";

/// Path of the snapshot taken at `seq` inside `dir`.
pub(crate) fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(snapshot_name(seq))
}

fn snapshot_name(seq: u64) -> String {
    format!("snap-{seq:020}.snap")
}

fn corrupt(what: &str, path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{what} at {} is corrupt", path.display()),
    )
}

/// Writes and fsyncs the snapshot of `entries` (keys strictly ascending)
/// taken at `seq`; returns its file name.  The snapshot is inert until
/// [`commit_manifest`] points the manifest at it.
pub(crate) fn write<'a, K, V>(
    dir: &Path,
    seq: u64,
    entries: impl ExactSizeIterator<Item = (&'a K, &'a V)>,
) -> io::Result<String>
where
    K: KeyCodec + 'a,
    V: KeyCodec + 'a,
{
    let entry = K::WIDTH + V::WIDTH;
    let mut buf = Vec::with_capacity(HEADER + 8 + 8 + entries.len() * entry + 8);
    buf.extend_from_slice(&record::header(SNAPSHOT_TAG, V::WIDTH));
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (key, val) in entries {
        let at = buf.len();
        buf.resize(at + entry, 0);
        let (key_bytes, val_bytes) = buf[at..].split_at_mut(K::WIDTH);
        key.encode(key_bytes);
        val.encode(val_bytes);
    }
    let checksum = fnv1a(&buf[HEADER..]);
    buf.extend_from_slice(&checksum.to_le_bytes());

    let path = snapshot_path(dir, seq);
    let mut file = File::create(&path)?;
    file.write_all(&buf)?;
    file.sync_all()?;
    sync_dir(dir)?;
    Ok(snapshot_name(seq))
}

/// Loads and verifies the snapshot at `path`, returning `(seq, entries)`
/// with strictly ascending keys.
pub(crate) fn load<K: KeyCodec + Ord, V: KeyCodec>(path: &Path) -> io::Result<(u64, Vec<(K, V)>)> {
    let buf = fs::read(path)?;
    if buf.len() < HEADER + 8 + 8 + 8 || !check_header(&buf, SNAPSHOT_TAG, V::WIDTH, path)? {
        return Err(corrupt("snapshot", path));
    }
    let body = &buf[HEADER..buf.len() - 8];
    let stored = u64::from_le_bytes(buf[buf.len() - 8..].try_into().unwrap());
    if fnv1a(body) != stored {
        return Err(corrupt("snapshot", path));
    }
    let seq = u64::from_le_bytes(body[0..8].try_into().unwrap());
    let count = u64::from_le_bytes(body[8..16].try_into().unwrap()) as usize;
    let entry = K::WIDTH + V::WIDTH;
    let entry_bytes = &body[16..];
    if count.checked_mul(entry) != Some(entry_bytes.len()) {
        return Err(corrupt("snapshot", path));
    }
    let mut entries: Vec<(K, V)> = Vec::with_capacity(count);
    for chunk in entry_bytes.chunks_exact(entry) {
        let (key, val) = chunk.split_at(K::WIDTH);
        let key = K::decode(key);
        if entries.last().is_some_and(|(last, _)| *last >= key) {
            return Err(corrupt("snapshot (keys not strictly ascending)", path));
        }
        entries.push((key, V::decode(val)));
    }
    Ok((seq, entries))
}

/// Atomically commits `snap_name` (taken at `seq`) as the recovery root:
/// write `MANIFEST.tmp`, fsync it, rename over `MANIFEST`, fsync the
/// directory.  The rename is the commit point.
pub(crate) fn commit_manifest(dir: &Path, seq: u64, snap_name: &str) -> io::Result<()> {
    let mut buf = Vec::with_capacity(8 + 8 + 4 + snap_name.len() + 8);
    buf.extend_from_slice(MANIFEST_MAGIC);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&(snap_name.len() as u32).to_le_bytes());
    buf.extend_from_slice(snap_name.as_bytes());
    let checksum = fnv1a(&buf[MANIFEST_MAGIC.len()..]);
    buf.extend_from_slice(&checksum.to_le_bytes());

    let tmp = dir.join("MANIFEST.tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(&buf)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, dir.join(MANIFEST_NAME))?;
    sync_dir(dir)
}

/// Reads the manifest: `Ok(None)` when it does not exist (a fresh or
/// never-snapshotted directory), `Ok(Some((seq, snapshot_path)))` when
/// valid, `Err` when present but damaged (see the module docs for why
/// damage must not degrade to `None`).
pub(crate) fn read_manifest(dir: &Path) -> io::Result<Option<(u64, PathBuf)>> {
    let path = dir.join(MANIFEST_NAME);
    let mut buf = Vec::new();
    match File::open(&path) {
        Ok(mut f) => f.read_to_end(&mut buf)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let header = MANIFEST_MAGIC.len() + 8 + 4;
    if buf.len() < header + 8 || &buf[..MANIFEST_MAGIC.len()] != MANIFEST_MAGIC {
        return Err(corrupt("manifest", &path));
    }
    let body = &buf[MANIFEST_MAGIC.len()..buf.len() - 8];
    let stored = u64::from_le_bytes(buf[buf.len() - 8..].try_into().unwrap());
    if fnv1a(body) != stored {
        return Err(corrupt("manifest", &path));
    }
    let seq = u64::from_le_bytes(body[0..8].try_into().unwrap());
    let name_len = u32::from_le_bytes(body[8..12].try_into().unwrap()) as usize;
    if body.len() != 12 + name_len {
        return Err(corrupt("manifest", &path));
    }
    let Ok(name) = std::str::from_utf8(&body[12..]) else {
        return Err(corrupt("manifest", &path));
    };
    // The name is a bare file name we wrote ourselves; refuse anything
    // that could escape the directory.
    if name.contains('/') || name.contains('\\') || name.is_empty() {
        return Err(corrupt("manifest", &path));
    }
    Ok(Some((seq, dir.join(name))))
}

/// Deletes every `snap-*.snap` in `dir` except `keep`; returns how many
/// were removed.  Run after a manifest commit to reap the superseded
/// snapshot (and any orphans a crash left behind).
pub(crate) fn remove_stale_snapshots(dir: &Path, keep: &Path) -> io::Result<usize> {
    let mut removed = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with("snap-") && name.ends_with(".snap") && path != keep {
            fs::remove_file(&path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "durable-snap-test-{}-{tag}-{id}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn keys(keys: &[u64]) -> impl ExactSizeIterator<Item = (&u64, &())> {
        keys.iter().map(|k| (k, &()))
    }

    #[test]
    fn snapshot_and_manifest_round_trip() {
        let dir = scratch_dir("roundtrip");
        assert_eq!(read_manifest(&dir).unwrap(), None);
        let set: Vec<u64> = vec![3, 9, 27, u64::MAX];
        let name = write(&dir, 41, keys(&set)).unwrap();
        commit_manifest(&dir, 41, &name).unwrap();
        let (seq, path) = read_manifest(&dir).unwrap().expect("manifest committed");
        assert_eq!(seq, 41);
        let (snap_seq, loaded) = load::<u64, ()>(&path).unwrap();
        assert_eq!(snap_seq, 41);
        assert_eq!(loaded, set.iter().map(|&k| (k, ())).collect::<Vec<_>>());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let dir = scratch_dir("empty");
        let name = write(&dir, 0, keys(&[])).unwrap();
        let (seq, entries) = load::<u64, ()>(&dir.join(name)).unwrap();
        assert_eq!((seq, entries), (0, vec![]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_or_manifest_is_an_error_not_a_fallback() {
        let dir = scratch_dir("corrupt");
        let name = write(&dir, 5, keys(&[1, 2])).unwrap();
        commit_manifest(&dir, 5, &name).unwrap();

        let snap_path = dir.join(&name);
        let mut bytes = fs::read(&snap_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&snap_path, &bytes).unwrap();
        assert_eq!(
            load::<u64, ()>(&snap_path).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );

        let manifest = dir.join("MANIFEST");
        let mut bytes = fs::read(&manifest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&manifest, &bytes).unwrap();
        assert_eq!(
            read_manifest(&dir).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsorted_snapshot_keys_are_rejected() {
        let dir = scratch_dir("unsorted");
        // Hand-build a snapshot whose keys are out of order but whose
        // checksum is honest: the order check must still reject it.
        let mut buf = Vec::new();
        buf.extend_from_slice(&record::header(SNAPSHOT_TAG, 0));
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&9u64.to_be_bytes());
        buf.extend_from_slice(&3u64.to_be_bytes());
        let sum = fnv1a(&buf[HEADER..]);
        buf.extend_from_slice(&sum.to_le_bytes());
        let path = dir.join("snap-bad.snap");
        fs::write(&path, &buf).unwrap();
        assert_eq!(
            load::<u64, ()>(&path).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn map_snapshots_round_trip_and_widths_stay_apart() {
        let dir = scratch_dir("kv");
        let entries: Vec<(u64, u64)> = vec![(2, 20), (5, 50), (8, 80)];
        let name = write(&dir, 7, entries.iter().map(|(k, v)| (k, v))).unwrap();
        let path = dir.join(&name);
        assert_eq!(load::<u64, u64>(&path).unwrap(), (7, entries));
        // A map snapshot must not load as a set snapshot, nor vice versa:
        // the header's value widths differ.
        assert_eq!(
            load::<u64, ()>(&path).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let set_name = write(&dir, 9, keys(&[2, 5, 8])).unwrap();
        assert_eq!(
            load::<u64, u64>(&dir.join(set_name)).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_snapshots_are_reaped_except_the_kept_one() {
        let dir = scratch_dir("reap");
        let a = write(&dir, 1, keys(&[1])).unwrap();
        let b = write(&dir, 2, keys(&[1, 2])).unwrap();
        let keep = dir.join(&b);
        assert_eq!(remove_stale_snapshots(&dir, &keep).unwrap(), 1);
        assert!(!dir.join(a).exists());
        assert!(keep.exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
