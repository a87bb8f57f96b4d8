//! The host stamp every output carries, and the process's peak memory.

use std::process::Command;

use crate::adapter::{self, Json};

/// Worker threads every workload runs its compute pool with.
pub const THREADS: usize = 2;

/// What a result was measured on; two results compare only when these
/// agree.
#[derive(Debug, Clone)]
pub struct HostStamp {
    pub nproc: usize,
    pub tutel_threads: String,
    pub simd: &'static str,
    pub rustc: &'static str,
    pub commit: String,
    pub seed: u64,
}

impl HostStamp {
    /// Reads the stamp. `TUTEL_THREADS` must already be exported (see
    /// [`export_threads`]).
    pub fn read(seed: u64) -> HostStamp {
        let commit = Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        HostStamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            tutel_threads: std::env::var("TUTEL_THREADS").unwrap_or_else(|_| "unset".into()),
            simd: adapter::simd_label(),
            rustc: env!("BENCH_RUSTC_VERSION"),
            commit,
            seed,
        }
    }

    /// With fewer cores than rank and pool threads the run
    /// oversubscribes, and its timings compare with nothing.
    pub fn comparable(&self) -> bool {
        self.nproc >= THREADS
    }

    pub fn header(&self) -> String {
        let mut s = format!(
            "# host: nproc={} TUTEL_THREADS={} simd={} rustc=\"{}\" commit={} seed={}",
            self.nproc, self.tutel_threads, self.simd, self.rustc, self.commit, self.seed
        );
        if !self.comparable() {
            s.push_str(&format!(
                "\n# NON-COMPARABLE: nproc {} < {THREADS}; threads share cores, timings are not comparable with any other host's",
                self.nproc
            ));
        }
        s
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::from(self.nproc)),
            ("tutel_threads", Json::from(self.tutel_threads.as_str())),
            ("simd", Json::from(self.simd)),
            ("rustc", Json::from(self.rustc)),
            ("commit", Json::from(self.commit.as_str())),
            ("seed", Json::from(self.seed)),
            ("comparable", Json::Bool(self.comparable())),
        ])
    }
}

/// Exports `TUTEL_THREADS` for this process and its children unless the
/// caller already did. Must run before the first call into the program:
/// the compute pool reads the variable once, when it is created.
pub fn export_threads() {
    if std::env::var_os("TUTEL_THREADS").is_none() {
        std::env::set_var("TUTEL_THREADS", THREADS.to_string());
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB; `0.0` where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 1.0);
    }

    #[test]
    fn one_core_is_flagged_non_comparable() {
        let mut stamp = HostStamp::read(5);
        stamp.nproc = 1;
        assert!(!stamp.comparable());
        assert!(stamp.header().contains("NON-COMPARABLE"));
        assert_eq!(stamp.to_json().get("comparable"), Some(&Json::Bool(false)));
        stamp.nproc = 2;
        assert!(stamp.comparable() && !stamp.header().contains("NON-COMPARABLE"));
        assert_eq!(stamp.to_json().get("seed").and_then(Json::as_u64), Some(5));
    }
}
