//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the per-frame
//! integrity check of the wire protocol (see `docs/WIRE.md`), and of every
//! WAL record and snapshot.
//!
//! TCP's own checksum is weak (16-bit ones' complement) and ends at the
//! socket; the frame CRC catches corruption introduced anywhere between the
//! two state machines — a truncated proxy buffer, a bad length prefix, a
//! miscounted payload — before the payload decoder runs.
//!
//! The kernel is slicing-by-16 (Kounavis and Berry, "A Systematic Approach
//! to Building High Performance, Software-Based CRC Generators", ISCC
//! 2005): sixteen 256-entry tables, built at compile time, advance the CRC
//! over 16 bytes per step with sixteen independent look-ups; the tail
//! shorter than a step goes a byte at a time through the first table. It
//! is the one path: no CPU detection, no intrinsics.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC contribution of byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `bytes` (initial value `!0`, final complement — the standard
/// "CRC-32/ISO-HDLC" parameterization, matching zlib's `crc32()`).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &TABLES;
    let (steps, tail) = bytes.as_chunks::<16>();
    let mut crc = !0u32;
    for x in steps {
        let c = crc.to_le_bytes();
        crc = t15[usize::from(x[0] ^ c[0])]
            ^ t14[usize::from(x[1] ^ c[1])]
            ^ t13[usize::from(x[2] ^ c[2])]
            ^ t12[usize::from(x[3] ^ c[3])]
            ^ t11[usize::from(x[4])]
            ^ t10[usize::from(x[5])]
            ^ t9[usize::from(x[6])]
            ^ t8[usize::from(x[7])]
            ^ t7[usize::from(x[8])]
            ^ t6[usize::from(x[9])]
            ^ t5[usize::from(x[10])]
            ^ t4[usize::from(x[11])]
            ^ t3[usize::from(x[12])]
            ^ t2[usize::from(x[13])]
            ^ t1[usize::from(x[14])]
            ^ t0[usize::from(x[15])];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t0[usize::from(crc as u8 ^ b)];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    /// The byte-at-a-time reference the slicing kernel is held to.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    }

    /// Every length up to four steps and then some, at every alignment a
    /// step can start from, and one buffer far past any frame: the slicing
    /// kernel reads what the byte-at-a-time loop reads.
    #[test]
    fn the_slicing_kernel_matches_the_bytewise_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC3C3_2005);
        let mut buf = vec![0u8; 1 << 20];
        for word in buf.chunks_mut(8) {
            word.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        for start in 0..16 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "{len} bytes at offset {start}"
                );
            }
        }
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
    }

    #[test]
    fn sensitive_to_any_single_byte_change() {
        let base: Vec<u8> = (0..=255u8).collect();
        let reference = crc32(&base);
        for i in 0..base.len() {
            let mut corrupted = base.clone();
            corrupted[i] ^= 0x40;
            assert_ne!(crc32(&corrupted), reference, "flip at byte {i} undetected");
        }
    }
}
