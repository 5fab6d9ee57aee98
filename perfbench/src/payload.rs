//! Self-checking row payloads for the key-value workloads.
//!
//! A payload is [`PAYLOAD_LEN`] bytes: the row's key, the tag of the
//! write that produced it (writer xid + per-transaction sequence), a
//! filler derived from those three fields, and a checksum over all of
//! it. A read decodes the payload and checks that it carries the key it
//! was read under, so a misrouted or corrupted row is caught at the
//! client; the tag feeds the black-box anomaly checker.

use sias_common::Xid;
use sias_workload::WriteTag;

/// Bytes per payload.
pub const PAYLOAD_LEN: usize = 100;

const FILLER: std::ops::Range<usize> = 20..96;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over `bytes` (any single changed byte changes the sum).
fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Encodes the payload of `key` written by `tag`.
pub fn encode(key: u64, tag: WriteTag) -> [u8; PAYLOAD_LEN] {
    let mut out = [0u8; PAYLOAD_LEN];
    out[0..8].copy_from_slice(&key.to_le_bytes());
    out[8..16].copy_from_slice(&tag.xid.0.to_le_bytes());
    out[16..20].copy_from_slice(&tag.seq.to_le_bytes());
    let mut z = key ^ tag.xid.0.rotate_left(21) ^ u64::from(tag.seq).rotate_left(42);
    for chunk in out[FILLER].chunks_mut(8) {
        z = splitmix(z);
        chunk.copy_from_slice(&z.to_le_bytes()[..chunk.len()]);
    }
    let c = checksum(&out[..96]);
    out[96..100].copy_from_slice(&c.to_le_bytes());
    out
}

/// Decodes a payload; `None` on a wrong length or checksum.
pub fn decode(buf: &[u8]) -> Option<(u64, WriteTag)> {
    if buf.len() != PAYLOAD_LEN {
        return None;
    }
    let c = u32::from_le_bytes(buf[96..100].try_into().expect("4-byte checksum field"));
    if c != checksum(&buf[..96]) {
        return None;
    }
    let key = u64::from_le_bytes(buf[0..8].try_into().expect("8-byte key field"));
    let xid = u64::from_le_bytes(buf[8..16].try_into().expect("8-byte xid field"));
    let seq = u32::from_le_bytes(buf[16..20].try_into().expect("4-byte seq field"));
    Some((key, WriteTag { xid: Xid(xid), seq }))
}

/// Decodes a payload read under `key`; `None` unless it is intact and
/// carries that key.
pub fn decode_for(key: u64, buf: &[u8]) -> Option<WriteTag> {
    match decode(buf) {
        Some((k, tag)) if k == key => Some(tag),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_key_check() {
        let tag = WriteTag { xid: Xid(77), seq: 3 };
        let p = encode(12, tag);
        assert_eq!(decode(&p), Some((12, tag)));
        assert_eq!(decode_for(12, &p), Some(tag));
        assert_eq!(decode_for(13, &p), None);
    }

    #[test]
    fn corruption_and_truncation_are_rejected() {
        let p = encode(5, WriteTag { xid: Xid(9), seq: 0 });
        for i in 0..PAYLOAD_LEN {
            let mut q = p;
            q[i] ^= 0x10;
            assert_eq!(decode(&q), None, "flip at byte {i} went unnoticed");
        }
        assert_eq!(decode(&p[..99]), None);
    }
}
