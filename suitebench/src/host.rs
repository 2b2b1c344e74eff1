//! The host facts every result carries: CPU counts, compiler, commit and
//! the workload seed.

use std::path::Path;
use std::process::Command;

use dpf_suite::Json;

/// Where a result was measured.
#[derive(Clone, Debug)]
pub struct Host {
    /// `nproc` (online CPUs available to this process), or `unknown`.
    pub nproc: String,
    /// `std::thread::available_parallelism`, the count rayon fans out to.
    pub available_parallelism: usize,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Host {
    /// Probe the current host; `root` is the checkout root.
    pub fn probe(root: &Path) -> Host {
        let nproc = Command::new("nproc")
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc,
            available_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            rustc: env!("SUITEBENCH_RUSTC"),
            commit: git_head(root).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// The host plus the run's workload and seed, as one JSON object.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        Json::Obj(vec![
            ("nproc".to_string(), Json::str(&self.nproc)),
            (
                "available_parallelism".to_string(),
                Json::U64(self.available_parallelism as u64),
            ),
            ("rustc".to_string(), Json::str(self.rustc)),
            ("commit".to_string(), Json::str(&self.commit)),
            ("workload".to_string(), Json::str(workload)),
            ("seed".to_string(), Json::U64(seed)),
        ])
    }
}

/// Read `HEAD` from `root/.git` without running git: a loose ref, then
/// `packed-refs`. `None` when `root` is not a git checkout.
fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}
