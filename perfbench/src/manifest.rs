//! The run manifest: what ran, on what, built how, from which inputs.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json;

/// FNV-1a, the hash the repository's golden tests use.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// First line of a command's standard output, or `None` if it cannot
/// run or fails. The child is waited for before this returns.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `dir` (the longest mount point
/// that prefixes it, from `/proc/self/mountinfo`).
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(dash)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(dash + 1) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// FNV-1a over the path and bytes of every file the program is built
/// from, in sorted order: identifies the build where no git history is
/// available.
fn source_fingerprint(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("vendor"), &mut files);
    files.sort();
    let mut h = fnv1a64(b"");
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            let rel = f
                .strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .into_owned();
            h = fnv1a64_extend(h, rel.as_bytes());
            h = fnv1a64_extend(h, &bytes);
        }
    }
    h
}

/// The host and build sections of the manifest, as JSON objects.
pub fn host_and_build(root: &Path, work_dir: &Path) -> (String, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host = json::object([
        ("nproc", nproc.to_string()),
        ("cpu_model", json::string(&cpu_model())),
        ("work_dir_fs", json::string(&filesystem_of(work_dir))),
    ]);
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let git_rev = root
        .join(".git")
        .exists()
        .then(|| command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "none (not a git checkout)".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let build = json::object([
        ("rustc", json::string(&rustc)),
        ("git_rev", json::string(&git_rev)),
        (
            "source_fnv",
            json::string(&format!("0x{:016x}", source_fingerprint(root))),
        ),
        ("profile", json::string(profile)),
    ]);
    (host, build)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_published_test_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
