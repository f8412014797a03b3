//! `palsim` through the real binary: a Longhorn profile larger than the
//! measured cluster is a config or usage error (exit 2 with a
//! diagnostic), not a panic, in `check` and in the legacy flag mode.

use std::path::PathBuf;
use std::process::Command;

/// Write a one-scenario campaign on `nodes` × 4 GPUs with a Longhorn
/// profile; returns its path.
fn longhorn_campaign(name: &str, nodes: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("palsim_check_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.toml"));
    std::fs::write(
        &path,
        format!(
            "profile = {{ kind = \"longhorn\", seed = 7 }}\n\
             scheduler = \"fifo\"\n\
             policy = [\"pal\"]\n\
             \n\
             [campaign]\n\
             name = \"{name}\"\n\
             \n\
             [cluster]\n\
             nodes = {nodes}\n\
             gpus_per_node = 4\n\
             \n\
             [[scenario]]\n\
             tag = \"t\"\n\
             trace = {{ kind = \"synergy\", num_jobs = 8, jobs_per_hour = 4.0 }}\n"
        ),
    )
    .unwrap();
    path
}

fn palsim_check(path: &PathBuf) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_palsim"))
        .arg("check")
        .arg(path)
        .output()
        .expect("run palsim")
}

#[test]
fn longhorn_profile_beyond_the_measured_cluster_is_a_config_error() {
    let path = longhorn_campaign("longhorn_452", 113);
    let out = palsim_check(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("452 GPUs") && stderr.contains("448"),
        "diagnostic should name both sizes: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn longhorn_profile_at_the_measured_size_checks_ok() {
    let path = longhorn_campaign("longhorn_448", 112);
    let out = palsim_check(&path);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn legacy_mode_rejects_a_cluster_beyond_the_measured_one() {
    let out = Command::new(env!("CARGO_BIN_EXE_palsim"))
        .args(["--nodes", "113", "--gpus-per-node", "4", "--jobs", "4"])
        .output()
        .expect("run palsim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("452 GPUs"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
