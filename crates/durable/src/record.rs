//! The on-disk codec: the artefact header and the write-ahead log record.
//!
//! **Header.**  Every segment and snapshot opens with 8 bytes: a 5-byte tag
//! naming the artefact, the format version, the value width
//! (`V::WIDTH`), and that width's bitwise complement.  The complement
//! makes the width self-checking: no single flipped byte turns one
//! width's header into another's, so a damaged header still reads as
//! damage while a well-formed header for *another* width — a set's log
//! opened as a map, say — is refused outright.
//!
//! **Record.**  One record per *mutation* round (pure-`Contains` rounds
//! never reach the log — a membership test changes nothing, so the WAL's
//! sequence numbers are allowed to have gaps where read-only rounds
//! committed).  The wire layout is
//!
//! ```text
//! [payload_len: u32 LE][checksum: u64 LE]    <- header, 12 bytes
//! [seq: u64 LE][n_ops: u32 LE]               <- payload ...
//! n_ops x ([kind: u8][key: K::WIDTH bytes][value: V::WIDTH bytes])
//! ```
//!
//! Kind is put or remove; a remove's value bytes are zero.  A set logs
//! with `V = ()`, so its ops carry no value bytes at all.  The checksum
//! is FNV-1a 64 over the payload bytes.  Decoding is strictly
//! *prefix-tolerant*: any defect — a partial header, a partial payload, an
//! implausible length, a checksum mismatch, an unknown kind byte — is
//! reported as [`DecodeOutcome::Torn`] at the offending offset rather than
//! an error, because on the recovery path every one of those is the same
//! event: the valid log ends here.  Recovery truncates at that point and
//! the history before it stands.

use std::io;
use std::marker::PhantomData;
use std::path::Path;

use batchapi::KeyCodec;

/// Bytes in an artefact header (see the module docs).
pub(crate) const HEADER: usize = 8;

/// The format version every header carries.
const VERSION: u8 = 3;

/// Headers of the retired keys-only and key-value dialects (segments,
/// then snapshots), which carried no value width.  They are recognised
/// only to be refused: reading them as damage would let recovery delete
/// another dialect's history.
const RETIRED: [&[u8; HEADER]; 4] = [
    b"PBWAL\x00\x00\x01",
    b"PBWAL\x00\x00\x02",
    b"PBSNAP\x00\x01",
    b"PBSNAP\x00\x02",
];

/// Bytes in a record header: `payload_len: u32` + `checksum: u64`.
pub(crate) const RECORD_HEADER: usize = 4 + 8;

/// Upper bound on a single record's payload, as a plausibility filter: a
/// corrupted length field must not convince the replayer to wait for
/// gigabytes of payload that never existed.  256 MiB is far above any real
/// round (a round holds at most one op per client thread).
pub(crate) const MAX_PAYLOAD: usize = 256 << 20;

/// Op kind tags on the wire.  `Contains` has no tag: read-only ops are
/// stripped before encoding.
const KIND_PUT: u8 = 0;
const KIND_REMOVE: u8 = 1;

/// FNV-1a 64-bit over `bytes` — tiny, allocation-free, std-only, and
/// plenty to catch torn writes and bit rot (this guards against crashes,
/// not adversaries).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The header for an artefact tagged `tag` holding `width`-byte values.
///
/// # Panics
///
/// When `width` exceeds 255 bytes: the header stores it in one byte.
pub(crate) fn header(tag: &[u8; 5], width: usize) -> [u8; HEADER] {
    let width = u8::try_from(width).expect("value codecs are at most 255 bytes wide");
    let mut head = [0; HEADER];
    head[..5].copy_from_slice(tag);
    head[5..].copy_from_slice(&[VERSION, width, !width]);
    head
}

/// Checks the header at the start of `bytes` (read from `path`) against
/// `tag` and the expected value `width`: `Ok(true)` when it matches,
/// `Ok(false)` when it is damaged or missing, and `InvalidData` when it
/// is well-formed but foreign — another value width, or a retired
/// dialect.  Foreign artefacts are refused, never healed away.
pub(crate) fn check_header(
    bytes: &[u8],
    tag: &[u8; 5],
    width: usize,
    path: &Path,
) -> io::Result<bool> {
    let Some(head) = bytes.first_chunk::<HEADER>() else {
        return Ok(false);
    };
    let refuse = |why: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} {why}; refusing to open it", path.display()),
        )
    };
    if RETIRED.contains(&head) {
        return Err(refuse(
            "was written in a retired on-disk dialect".to_string(),
        ));
    }
    if &head[..5] != tag || head[5] != VERSION || head[6] != !head[7] {
        return Ok(false);
    }
    if usize::from(head[6]) != width {
        return Err(refuse(format!(
            "holds {}-byte values where {width}-byte values were expected",
            head[6]
        )));
    }
    Ok(true)
}

/// Bytes per op: kind, key, value.
const fn op_width<K: KeyCodec, V: KeyCodec>() -> usize {
    1 + K::WIDTH + V::WIDTH
}

/// Appends one encoded record for `(seq, ops)` to `buf` and returns how
/// many ops it holds.  Each op is `(key, Some(value))` for a put or
/// `(key, None)` for a remove.  With no ops nothing is appended: a round
/// that changed nothing leaves no record.
pub(crate) fn encode<'a, K, V>(
    seq: u64,
    ops: impl IntoIterator<Item = (&'a K, Option<&'a V>)>,
    buf: &mut Vec<u8>,
) -> usize
where
    K: KeyCodec + 'a,
    V: KeyCodec + 'a,
{
    let start = buf.len();
    buf.extend_from_slice(&[0u8; RECORD_HEADER]);
    let payload_at = buf.len();
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&[0u8; 4]); // n_ops, patched below
    let mut n_ops = 0usize;
    for (key, val) in ops {
        let at = buf.len();
        buf.resize(at + op_width::<K, V>(), 0);
        buf[at] = if val.is_some() { KIND_PUT } else { KIND_REMOVE };
        let (key_bytes, val_bytes) = buf[at + 1..].split_at_mut(K::WIDTH);
        key.encode(key_bytes);
        if let Some(val) = val {
            val.encode(val_bytes);
        }
        n_ops += 1;
    }
    if n_ops == 0 {
        buf.truncate(start);
        return 0;
    }
    let payload_len = buf.len() - payload_at;
    buf[payload_at + 8..payload_at + 12].copy_from_slice(&(n_ops as u32).to_le_bytes());
    let checksum = fnv1a(&buf[payload_at..]);
    buf[start..start + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    buf[start + 4..payload_at].copy_from_slice(&checksum.to_le_bytes());
    n_ops
}

/// One decoded record: a mutation round's sequence number and a view of
/// its ops, borrowed from the segment bytes (no copy until replay asks).
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Record<'a, K, V> {
    pub(crate) seq: u64,
    body: &'a [u8],
    _codec: PhantomData<fn() -> (K, V)>,
}

impl<K: KeyCodec, V: KeyCodec> Record<'_, K, V> {
    /// The round's ops in linearisation order: `(key, Some(value))` for a
    /// put, `(key, None)` for a remove.
    pub(crate) fn ops(&self) -> impl Iterator<Item = (K, Option<V>)> + '_ {
        self.body.chunks_exact(op_width::<K, V>()).map(|op| {
            let (key, val) = op[1..].split_at(K::WIDTH);
            (K::decode(key), (op[0] == KIND_PUT).then(|| V::decode(val)))
        })
    }
}

/// What decoding found at one offset.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum DecodeOutcome<'a, K, V> {
    /// A valid record; `consumed` bytes advance the cursor past it.
    Record {
        record: Record<'a, K, V>,
        consumed: usize,
    },
    /// The buffer ends exactly here — a cleanly-terminated log.
    Clean,
    /// The bytes from this offset on are not a valid record (torn final
    /// write, bit rot, garbage).  The valid log ends at this offset.
    Torn,
}

/// Decodes the record starting at `buf[at..]`.
pub(crate) fn decode<K: KeyCodec, V: KeyCodec>(buf: &[u8], at: usize) -> DecodeOutcome<'_, K, V> {
    let rest = &buf[at..];
    if rest.is_empty() {
        return DecodeOutcome::Clean;
    }
    if rest.len() < RECORD_HEADER {
        return DecodeOutcome::Torn;
    }
    let payload_len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
    let checksum = u64::from_le_bytes(rest[4..12].try_into().unwrap());
    if !(8 + 4..=MAX_PAYLOAD).contains(&payload_len) {
        return DecodeOutcome::Torn;
    }
    let Some(payload) = rest.get(RECORD_HEADER..RECORD_HEADER + payload_len) else {
        return DecodeOutcome::Torn;
    };
    if fnv1a(payload) != checksum {
        return DecodeOutcome::Torn;
    }
    let seq = u64::from_le_bytes(payload[0..8].try_into().unwrap());
    let n_ops = u32::from_le_bytes(payload[8..12].try_into().unwrap()) as usize;
    let body = &payload[12..];
    let width = op_width::<K, V>();
    // An op of another width (a record from another value width's log) or
    // an unknown kind is damage, not data: replay never invents a value.
    if body.len() != n_ops * width
        || body
            .chunks_exact(width)
            .any(|op| op[0] != KIND_PUT && op[0] != KIND_REMOVE)
    {
        return DecodeOutcome::Torn;
    }
    DecodeOutcome::Record {
        record: Record {
            seq,
            body,
            _codec: PhantomData,
        },
        consumed: RECORD_HEADER + payload_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded<V: KeyCodec>(seq: u64, ops: &[(u64, Option<V>)]) -> Vec<u8> {
        let mut buf = Vec::new();
        encode(seq, ops.iter().map(|(k, v)| (k, v.as_ref())), &mut buf);
        buf
    }

    /// A decoded record's seq and ops.
    type Decoded<V> = (u64, Vec<(u64, Option<V>)>);

    fn decoded<V: KeyCodec>(buf: &[u8]) -> Option<Decoded<V>> {
        match decode::<u64, V>(buf, 0) {
            DecodeOutcome::Record { record, consumed } => {
                assert_eq!(consumed, buf.len());
                Some((record.seq, record.ops().collect()))
            }
            _ => None,
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let ops = [(7u64, Some(())), (u64::MAX, None), (0, Some(()))];
        let buf = encoded(42, &ops);
        assert_eq!(decoded::<()>(&buf), Some((42, ops.to_vec())));
        assert_eq!(decode::<u64, ()>(&buf, buf.len()), DecodeOutcome::Clean);
    }

    #[test]
    fn map_records_round_trip_with_values() {
        let ops = [(7u64, Some(700u64)), (9, None), (u64::MAX, Some(0))];
        let buf = encoded(13, &ops);
        assert_eq!(decoded::<u64>(&buf), Some((13, ops.to_vec())));
        assert_eq!(decode::<u64, u64>(&buf, buf.len()), DecodeOutcome::Clean);
    }

    #[test]
    fn one_op_record_lengths_are_pinned() {
        // 12-byte frame + 8 seq + 4 n_ops + kind + key (+ value): these
        // are the bytes per op the durable tiers report.
        assert_eq!(encoded(1, &[(5u64, Some(()))]).len(), 33);
        assert_eq!(encoded(1, &[(5u64, Some(50u64))]).len(), 41);
        // A remove carries the same width as a put.
        assert_eq!(encoded::<u64>(1, &[(5u64, None)]).len(), 41);
    }

    #[test]
    fn an_empty_round_encodes_to_nothing() {
        let mut buf = vec![0xAB];
        let ops: [(&u64, Option<&()>); 0] = [];
        assert_eq!(encode(3, ops, &mut buf), 0);
        assert_eq!(buf, [0xAB], "nothing appended, nothing disturbed");
    }

    #[test]
    fn every_truncation_point_reads_as_torn() {
        let buf = encoded(9, &[(123u64, Some(())), (456, None)]);
        for cut in 1..buf.len() {
            assert_eq!(
                decode::<u64, ()>(&buf[..cut], 0),
                DecodeOutcome::Torn,
                "prefix of {cut} bytes should read as torn"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_reads_as_torn_or_shorter_valid_log() {
        let buf = encoded(5, &[(0xDEAD_BEEFu64, Some(()))]);
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x01;
            match decode::<u64, ()>(&bad, 0) {
                DecodeOutcome::Torn => {}
                // A flip in the length field *could* in principle frame a
                // different window whose checksum happens to match — FNV
                // makes that astronomically unlikely, so treat it as a
                // failure if it ever shows up here.
                other => panic!("flip at byte {i} decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn map_truncations_and_flips_read_as_torn() {
        let buf = encoded(3, &[(1u64, Some(2u64)), (3, None)]);
        for cut in 1..buf.len() {
            assert_eq!(
                decode::<u64, u64>(&buf[..cut], 0),
                DecodeOutcome::Torn,
                "prefix of {cut} bytes"
            );
        }
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x01;
            assert_eq!(
                decode::<u64, u64>(&bad, 0),
                DecodeOutcome::Torn,
                "flip at byte {i}"
            );
        }
    }

    #[test]
    fn a_record_of_another_value_width_is_torn() {
        // A set record must not decode as a map record — there is no
        // value to give it — nor a map record as a set record.
        let set_buf = encoded(1, &[(5u64, Some(()))]);
        assert_eq!(decode::<u64, u64>(&set_buf, 0), DecodeOutcome::Torn);
        let map_buf = encoded(1, &[(5u64, Some(50u64))]);
        assert_eq!(decode::<u64, ()>(&map_buf, 0), DecodeOutcome::Torn);
        // Two set ops span the bytes of one map op plus change: the
        // width check, not luck, keeps them apart.
        let pair = encoded(2, &[(1u64, None::<()>), (2, None)]);
        assert_eq!(decode::<u64, u64>(&pair, 0), DecodeOutcome::Torn);
    }

    /// Overwrites the first op's kind byte and re-seals the checksum, so
    /// only the kind is wrong.
    fn with_kind(mut buf: Vec<u8>, kind: u8) -> Vec<u8> {
        // Kind byte sits right after header + seq + n_ops.
        buf[RECORD_HEADER + 8 + 4] = kind;
        let sum = fnv1a(&buf[RECORD_HEADER..]);
        buf[4..12].copy_from_slice(&sum.to_le_bytes());
        buf
    }

    #[test]
    fn bad_kind_byte_is_torn() {
        let buf = with_kind(encoded(1, &[(1u64, Some(()))]), 7);
        assert_eq!(decode::<u64, ()>(&buf, 0), DecodeOutcome::Torn);
    }

    #[test]
    fn unknown_map_kind_is_torn() {
        let buf = with_kind(encoded::<u64>(1, &[(1u64, None)]), 9);
        assert_eq!(decode::<u64, u64>(&buf, 0), DecodeOutcome::Torn);
    }

    #[test]
    fn implausible_length_is_torn_not_a_huge_allocation() {
        let mut buf = vec![0u8; RECORD_HEADER];
        buf[0..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(decode::<u64, ()>(&buf, 0), DecodeOutcome::Torn);
    }

    #[test]
    fn headers_refuse_other_widths_and_retired_dialects() {
        let path = Path::new("artefact");
        let head = header(b"PBWAL", 8);
        assert!(check_header(&head, b"PBWAL", 8, path).unwrap());
        let refused = |bytes: &[u8], width| {
            check_header(bytes, b"PBWAL", width, path)
                .unwrap_err()
                .kind()
        };
        assert_eq!(refused(&head, 0), io::ErrorKind::InvalidData);
        for retired in RETIRED {
            assert_eq!(refused(retired, 0), io::ErrorKind::InvalidData);
        }
        // Short or damaged headers are damage, not foreign: one flipped
        // byte never yields another width's (or a retired) header.
        assert!(!check_header(&head[..7], b"PBWAL", 8, path).unwrap());
        for width in [0, 8, 16] {
            let head = header(b"PBWAL", width);
            for i in 0..HEADER {
                for bit in 0..8 {
                    let mut bad = head;
                    bad[i] ^= 1 << bit;
                    assert!(
                        !check_header(&bad, b"PBWAL", width, path).unwrap(),
                        "width {width}, byte {i}, bit {bit}"
                    );
                }
            }
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
