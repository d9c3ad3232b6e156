//! Host record and process-level measurements: CPU count and model,
//! the filesystem under the store directory, peak resident memory, and
//! the fnv1a64 fingerprint used for artifact identity.

use std::path::Path;

/// FNV-1a 64 over `bytes` — the same hash `LAMOARTF` files carry, used
/// here as the artifact fingerprint that must repeat across runs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Logical CPUs this process may run on — what `nproc` prints.
pub fn nproc() -> usize {
    let allowed = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(count_cpu_list)
        });
    allowed.unwrap_or_else(available_parallelism)
}

/// `std::thread::available_parallelism`, which also honours cgroup CPU
/// quotas. The closed loop runs one client fewer, beside the server's
/// worker.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Count the CPUs in a list such as `0-3,6,8-9`.
fn count_cpu_list(list: &str) -> usize {
    list.trim()
        .split(',')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('-') {
            Some((a, b)) => {
                let (a, b) = (
                    a.parse::<usize>().unwrap_or(0),
                    b.parse::<usize>().unwrap_or(0),
                );
                b.saturating_sub(a) + 1
            }
            None => 1,
        })
        .sum()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/mounts`).
fn filesystem_of(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype)
}

/// The host record printed with every result, as one JSON object.
pub fn record(workload: &str, seed: u64, store_dir: &Path, fingerprints: &[(&str, u64)]) -> String {
    let prints = fingerprints
        .iter()
        .map(|(name, fp)| format!("\"{name}\": \"{fp:016x}\""))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"nproc\": {}, \
         \"available_parallelism\": {}, \"cpu_model\": \"{}\", \"store_fs\": \"{}\", \
         \"fingerprints\": {{{prints}}}}}",
        nproc(),
        available_parallelism(),
        cpu_model().replace(['"', '\\'], ""),
        filesystem_of(store_dir).replace(['"', '\\'], ""),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn cpu_lists_count_ranges_and_singles() {
        assert_eq!(count_cpu_list("0-1\n"), 2);
        assert_eq!(count_cpu_list("0-3,6,8-9"), 7);
    }
}
