//! Element-set loading shared by the `pbs-syncd` / `pbs-sync` binaries.

use std::io::{BufRead, BufReader};
use std::path::Path;

/// One line of a set file: `Ok(None)` for a blank or `#`-comment line,
/// `Ok(Some(element))` for a decimal or `0x`-prefixed hex element, `Err`
/// with the reason for anything else (the zero element included).
fn parse_line(line: &str) -> Result<Option<u64>, String> {
    let token = line.split('#').next().unwrap_or("").trim();
    if token.is_empty() {
        return Ok(None);
    }
    let value = match token
        .strip_prefix("0x")
        .or_else(|| token.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => token.parse::<u64>(),
    };
    match value {
        Ok(0) => Err("the zero element is not allowed".to_string()),
        Ok(element) => Ok(Some(element)),
        Err(e) => Err(e.to_string()),
    }
}

/// Read a set file: one element per line, decimal or `0x`-prefixed hex,
/// blank lines and `#` comments ignored. Elements must be nonzero (the
/// all-zero signature is excluded from the universe, §2.1 of the paper).
pub fn load_set(path: &Path) -> std::io::Result<Vec<u64>> {
    let file = std::fs::File::open(path)?;
    let mut out = Vec::new();
    for (lineno, line) in BufReader::new(file).lines().enumerate() {
        out.extend(parse_line(&line?).map_err(|why| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}:{}: {why}", path.display(), lineno + 1),
            )
        })?);
    }
    Ok(out)
}

/// Parse as much of a set file as is valid: like [`load_set`], but a
/// malformed line stops the parse instead of failing it, returning the
/// elements of the longest valid prefix plus whether anything was cut.
/// This is the read the `--watch-dir` poller uses — a file caught torn
/// mid-write (or truncated by a crashed producer) yields the elements that
/// were fully written, rather than wedging the store on stale contents.
pub(crate) fn load_set_prefix(path: &Path) -> std::io::Result<(Vec<u64>, bool)> {
    let file = std::fs::File::open(path)?;
    let mut out = Vec::new();
    for line in BufReader::new(file).lines() {
        match line.map_err(|e| e.to_string()).and_then(|l| parse_line(&l)) {
            Ok(element) => out.extend(element),
            Err(_) => return Ok((out, true)),
        }
    }
    Ok((out, false))
}

/// Write `contents` to `path` atomically: temp file in the same directory,
/// fsync, rename. A crash mid-write can leave a stray temp file but never
/// a half-written `path` — the discipline every persistent artifact of the
/// binaries (epoch caches, snapshots) uses.
pub fn write_file_atomic(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "file".into());
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(contents)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// A deterministic pseudo-random demo set of `n` nonzero 32-bit-universe
/// elements — the `--range` option of both binaries, handy for trying the
/// pair without writing set files.
pub fn demo_set(n: usize, salt: u64) -> Vec<u64> {
    let mut x = salt | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 16 & 0xFFFF_FFFF) | 1
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_decimal_hex_comments_and_blanks() {
        let dir = std::env::temp_dir().join("pbs_net_setio_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.txt");
        std::fs::write(&path, "7\n# comment\n0x10\n\n42 # trailing\n").unwrap();
        assert_eq!(load_set(&path).unwrap(), vec![7, 16, 42]);
        std::fs::write(&path, "0\n").unwrap();
        assert!(load_set(&path).is_err());
        std::fs::write(&path, "not-a-number\n").unwrap();
        assert!(load_set(&path).is_err());
    }

    #[test]
    fn prefix_load_survives_torn_tails() {
        let dir = std::env::temp_dir().join("pbs_net_setio_prefix_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.txt");
        std::fs::write(&path, "7\n16\n42\n").unwrap();
        assert_eq!(load_set_prefix(&path).unwrap(), (vec![7, 16, 42], false));
        // A torn tail (non-numeric garbage) cuts the parse, keeps the prefix.
        std::fs::write(&path, "7\n16\n4x!\n99\n").unwrap();
        assert_eq!(load_set_prefix(&path).unwrap(), (vec![7, 16], true));
        // The zero element also stops the prefix (it can never be served).
        std::fs::write(&path, "7\n0\n99\n").unwrap();
        assert_eq!(load_set_prefix(&path).unwrap(), (vec![7], true));
        std::fs::write(&path, "").unwrap();
        assert_eq!(load_set_prefix(&path).unwrap(), (vec![], false));
    }

    #[test]
    fn atomic_write_replaces_in_place() {
        let dir = std::env::temp_dir().join("pbs_net_setio_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("epoch");
        write_file_atomic(&path, b"41\n").unwrap();
        write_file_atomic(&path, b"42\n").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"42\n");
        // No temp droppings left behind.
        let stray = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .count();
        assert_eq!(stray, 0);
    }

    #[test]
    fn demo_sets_are_deterministic_and_nonzero() {
        let a = demo_set(1000, 5);
        assert_eq!(a, demo_set(1000, 5));
        assert!(a.iter().all(|&e| e != 0 && e <= u32::MAX as u64));
    }
}
