//! Benchmark-owned correctness checks. Every failure message names the
//! workload, the rep and the file or value that disagreed.

use std::path::{Path, PathBuf};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a digest of one byte string.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// `(file name, digest of its bytes)` for every regular file directly in
/// `dir` whose name `keep` accepts, sorted by name so the listing does not
/// depend on directory order.
pub fn digest_files(
    dir: &Path,
    keep: impl Fn(&str) -> bool,
) -> std::io::Result<Vec<(String, u64)>> {
    let mut files: Vec<(String, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if entry.file_type()?.is_file() && keep(&name) {
            files.push((name, entry.path()));
        }
    }
    files.sort();
    files.into_iter().map(|(name, path)| Ok((name, digest_bytes(&std::fs::read(path)?)))).collect()
}

/// One digest over a sorted `(relative path, file digest)` listing: path
/// bytes and content digests both feed it, so a renamed, missing or
/// changed file all move it.
pub fn digest_tree(files: &[(String, u64)]) -> u64 {
    files.iter().fold(FNV_OFFSET, |h, (name, d)| {
        fnv1a(fnv1a(fnv1a(h, name.as_bytes()), &[0]), &d.to_le_bytes())
    })
}

/// Product files of the workflow's `products/` directory, minus the
/// `tcinput-*` staging bundles (an intermediate, not a product).
pub fn is_product(name: &str) -> bool {
    !name.starts_with("tcinput-")
}

/// Products both drivers must produce byte-identically: everything named
/// for one simulated year. The streaming plane's cross-year `record-*`
/// files have no staged counterpart.
pub fn is_per_year_product(name: &str) -> bool {
    is_product(name) && !name.starts_with("record-")
}

/// The first file two sorted listings disagree on, for error messages.
pub fn first_difference(a: &[(String, u64)], b: &[(String, u64)]) -> Option<String> {
    for (name, d) in a {
        match b.iter().find(|(n, _)| n == name) {
            None => return Some(format!("{name} (missing on one side)")),
            Some((_, other)) if other != d => return Some(format!("{name} (bytes differ)")),
            _ => {}
        }
    }
    b.iter().find(|(n, _)| !a.iter().any(|(m, _)| m == n)).map(|(n, _)| format!("{n} (extra)"))
}

/// Scalar oracle for the heat-wave indices of one cell: `series` are the
/// year's daily maxima, `baseline` the day-of-year climatology. A day is
/// hot when the f32 anomaly exceeds `threshold_k`; a wave is a run of at
/// least `min_len` hot days. Returns `(longest wave, waves, wave days)`
/// — HWD, HWN and HWF x days — as exact integers. Deliberately the
/// plainest loop that states the definition (Section 5.3 of the paper):
/// no blocking, no bitmasks, nothing shared with the program's kernels.
pub fn wave_oracle(
    series: &[f32],
    baseline: &[f32],
    threshold_k: f32,
    min_len: usize,
) -> (u32, u32, u32) {
    let (mut longest, mut count, mut days) = (0u32, 0u32, 0u32);
    let mut run = 0usize;
    for d in 0..=series.len() {
        let hot = d < series.len() && series[d] - baseline[d] > threshold_k;
        if hot {
            run += 1;
        } else {
            if run >= min_len {
                longest = longest.max(run as u32);
                count += 1;
                days += run as u32;
            }
            run = 0;
        }
    }
    (longest, count, days)
}

/// Every offered request must be accounted for exactly once.
pub fn conservation(offered: u64, admitted: u64, coalesced: u64, rejected: u64) -> Option<String> {
    (offered != admitted + coalesced + rejected).then(|| {
        format!(
            "offered {offered} != admitted {admitted} + coalesced {coalesced} + rejected {rejected}"
        )
    })
}

/// Pooled detection skill over a run's years.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Skill {
    pub hits: usize,
    pub misses: usize,
    pub false_alarms: usize,
}

impl Skill {
    pub fn add(&mut self, hits: usize, misses: usize, false_alarms: usize) {
        self.hits += hits;
        self.misses += misses;
        self.false_alarms += false_alarms;
    }

    /// Probability of detection: hits / (hits + misses).
    pub fn pod(&self) -> f64 {
        ratio(self.hits, self.hits + self.misses)
    }

    /// False-alarm ratio: false alarms / (hits + false alarms).
    pub fn far(&self) -> f64 {
        ratio(self.false_alarms, self.hits + self.false_alarms)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_sensitive() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(digest_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest_bytes(b"foobar"), 0x8594_4171_f739_67e8);

        let dir = std::env::temp_dir().join(format!("wfbench-digest-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("hwn-2030.ncx"), b"abc").unwrap();
        std::fs::write(dir.join("cwn-2030.ncx"), b"def").unwrap();
        std::fs::write(dir.join("tcinput-2030.ncx"), b"staging").unwrap();
        std::fs::write(dir.join("record-hwn.ncx"), b"cross-year").unwrap();

        let all = digest_files(&dir, is_product).unwrap();
        let names: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["cwn-2030.ncx", "hwn-2030.ncx", "record-hwn.ncx"], "sorted, no staging");
        assert_eq!(digest_files(&dir, is_per_year_product).unwrap().len(), 2);
        assert_eq!(digest_tree(&all), digest_tree(&digest_files(&dir, is_product).unwrap()));

        std::fs::write(dir.join("hwn-2030.ncx"), b"abd").unwrap();
        let changed = digest_files(&dir, is_product).unwrap();
        assert_ne!(digest_tree(&all), digest_tree(&changed));
        assert_eq!(first_difference(&all, &changed).unwrap(), "hwn-2030.ncx (bytes differ)");
        std::fs::remove_file(dir.join("cwn-2030.ncx")).unwrap();
        let fewer = digest_files(&dir, is_product).unwrap();
        assert!(first_difference(&changed, &fewer).unwrap().contains("missing"));
        assert!(first_difference(&fewer, &changed).unwrap().contains("extra"));
        assert_eq!(first_difference(&fewer, &fewer), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Three cells worked by hand: baseline 300 K everywhere, threshold
    /// +5 K, waves of at least 3 days.
    #[test]
    fn oracle_matches_hand_worked_cells() {
        let base = [300.0f32; 10];
        // Cell A: hot on days 1-3 (a 3-day wave) and 6-9 (a 4-day wave to
        // the series end): longest 4, two waves, 7 wave days.
        let a = [300.0, 306.0, 307.0, 305.5, 300.0, 304.9, 306.0, 306.0, 306.0, 306.0];
        assert_eq!(wave_oracle(&a, &base, 5.0, 3), (4, 2, 7));
        // Cell B: exactly +5.0 is not "higher than" the threshold, and a
        // 2-day run is too short: no waves.
        let b = [305.0, 305.0, 305.0, 300.0, 306.0, 306.0, 300.0, 300.0, 300.0, 300.0];
        assert_eq!(wave_oracle(&b, &base, 5.0, 3), (0, 0, 0));
        // Cell C: hot all year is one wave covering every day.
        let c = [310.0f32; 10];
        assert_eq!(wave_oracle(&c, &base, 5.0, 3), (10, 1, 10));
        assert_eq!(wave_oracle(&[], &[], 5.0, 3), (0, 0, 0));
    }

    #[test]
    fn conservation_and_skill() {
        assert_eq!(conservation(10, 6, 3, 1), None);
        assert!(conservation(10, 6, 3, 0).unwrap().contains("offered 10"));
        let mut s = Skill::default();
        s.add(6, 2, 1);
        s.add(0, 0, 1);
        assert_eq!(s.pod(), 0.75);
        assert_eq!(s.far(), 0.25);
        assert_eq!(Skill::default().pod(), 0.0);
    }
}
