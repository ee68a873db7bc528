//! Provenance printed with every result: what machine, what code.

use crate::workload::digest_words;
use std::fmt;
use std::path::Path;

/// Host and source identity of one run.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    cpu: String,
    avx512f: bool,
    avx2: bool,
    nproc: usize,
    commit: String,
    source: String,
}

/// Reads the fingerprint of this host and of the checkout the benchmark
/// runs in (the working directory).
pub fn fingerprint() -> Fingerprint {
    Fingerprint {
        cpu: cpu_brand(),
        avx512f: has_feature("avx512f"),
        avx2: has_feature("avx2"),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        commit: git_commit().unwrap_or_else(|| "none".into()),
        source: source_digest(Path::new("crates")),
    }
}

impl Fingerprint {
    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu\": \"{}\", \"avx512f\": {}, \"avx2\": {}, \"nproc\": {}, \
             \"commit\": \"{}\", \"source_digest\": \"{}\"}}",
            self.cpu.replace(['"', '\\'], ""),
            self.avx512f,
            self.avx2,
            self.nproc,
            self.commit,
            self.source
        )
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpu={:?} avx512f={} avx2={} nproc={} commit={} source={}",
            self.cpu, self.avx512f, self.avx2, self.nproc, self.commit, self.source
        )
    }
}

#[cfg(target_arch = "x86_64")]
fn has_feature(name: &str) -> bool {
    match name {
        "avx512f" => std::is_x86_feature_detected!("avx512f"),
        "avx2" => std::is_x86_feature_detected!("avx2"),
        _ => false,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn has_feature(_: &str) -> bool {
    false
}

/// The CPU brand string from CPUID leaves 0x8000_0002..=0x8000_0004.
#[cfg(target_arch = "x86_64")]
fn cpu_brand() -> String {
    use std::arch::x86_64::__cpuid;
    // The brand leaves are read only after leaf 0x8000_0000 reports them.
    let max = __cpuid(0x8000_0000).eax;
    if max < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_brand() -> String {
    "unknown".into()
}

/// The commit checked out in the working directory, when it is a git
/// checkout (read from `.git`, without running git).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)?
            .strip_suffix(' ')
            .map(str::to_string)
    })
}

/// Digest of every file under `dir` (paths and contents, in sorted path
/// order): identifies the code under test even where no git metadata
/// exists.
fn source_digest(dir: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    files.sort();
    let words = files.iter().flat_map(|p| {
        let mut bytes = p.to_string_lossy().into_owned().into_bytes();
        bytes.extend(std::fs::read(p).unwrap_or_default());
        bytes
            .chunks(8)
            .map(|c| {
                let mut w = [0u8; 8];
                w[..c.len()].copy_from_slice(c);
                u64::from_le_bytes(w)
            })
            .collect::<Vec<_>>()
    });
    format!("{:016x}", digest_words(words))
}
