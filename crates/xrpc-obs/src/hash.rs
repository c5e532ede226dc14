//! The workspace's one FNV-1a (64-bit). Stable across processes and
//! builds, unlike `DefaultHasher`, so its outputs may appear on the wire
//! (trace ids), in logs (slow-query text hashes) and in anything two
//! peers must derive alike (retry jitter salts, plan-cache keys).

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over `bytes`.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_continue(OFFSET_BASIS, bytes)
}

/// FNV-1a over `bytes`, continuing from `state` — the hash of an earlier
/// prefix (`fnv1a64(b"")` is the empty one) — so a caller can feed a
/// sequence of fields without concatenating them.
#[inline]
pub fn fnv1a64_continue(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, b| (h ^ *b as u64).wrapping_mul(PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known answers computed outside this crate: the values on the wire
    /// and in the logs of every build so far. One per caller's input
    /// shape — a queryId host (trace id), a normalized query text
    /// (slow-log hash), a destination URI (jitter salt) and NUL-terminated
    /// fields fed one by one (plan-cache key; `xqeval` pins the key itself).
    #[test]
    fn known_answers() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a.example.org"), 0x2dbe_f126_c31a_f778);
        assert_eq!(
            crate::trace_id_from("a.example.org", 1_700_000_000_123),
            0x2dbe_f126_c31a_f778_0000_018b_cfe5_687b
        );
        assert_eq!(
            fnv1a64(b"for $x in (1 to 3) return $x"),
            0x2a0e_1da9_5065_585f
        );
        assert_eq!(fnv1a64(b"xrpc://b.example.org"), 0x7158_dd4f_1f39_c4f8);
        let fed = [&b"defelem\0"[..], b"\0", b"base-uri\0\0collation\0", b"\0"]
            .iter()
            .fold(fnv1a64(b""), |h, field| fnv1a64_continue(h, field));
        assert_eq!(fed, 0xeb5b_e9b2_6a7f_a224);
        assert_eq!(fed, fnv1a64(b"defelem\0\0base-uri\0\0collation\0\0"));
    }
}
