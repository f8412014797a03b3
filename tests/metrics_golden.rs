//! Golden digests for the `--metrics` streams: a small fixed campaign —
//! a Synergy training trace sharing the cluster with one Poisson and one
//! bursty serving deployment, under two placement columns and two loads —
//! runs through [`MetricsDir`], and the FNV-1a digest of every
//! `.events.jsonl` and `.rounds.csv` file it lays out is pinned. The
//! deployments pin enough GPUs that admission rejects the largest jobs,
//! so every job-event kind appears, and the workload names carry a quote
//! and non-ASCII text.
//!
//! The `GOLDEN` values were captured from the sink that rendered each
//! event as a `serde::Value` tree through `write_json`. Any change to the
//! bytes of a line — field order, float or integer formatting, string
//! escaping, the `"type"` tag — shows up here.

use pal_config::spill::fnv1a64;
use pal_config::{build_campaign, parse_campaign_str, MetricsDir, Registry};
use std::path::Path;

const CAMPAIGN: &str = r#"
profile = { kind = "flat", classes = 3, value = 1.2 }
scheduler = "las"
policy = ["gandiva", "pal"]

[campaign]
name = "metrics-golden"
seed = 4242
max_parallelism = 2

[cluster]
nodes = 4
gpus_per_node = 4

[[scenario]]
tag = "mixed"
trace = { kind = "synergy", num_jobs = 24, jobs_per_hour = 30.0 }
loads = [1.0, 1.5]
admission = "reject-oversized"

[[scenario.serving]]
replicas = 2
gpus_per_replica = 4
model = "Bert"
class = 0

[scenario.serving.workload]
name = "chat \"poisson\""
num_requests = 300
work_median_s = 0.05
work_sigma = 0.3
slo_s = 1.0
seed = 11

[scenario.serving.workload.arrivals]
Poisson = { rate_per_s = 4.0 }

[[scenario.serving]]
replicas = 1
gpus_per_replica = 2
model = "Gpt2"
class = 2

[scenario.serving.workload]
name = "api-bursty/é"
num_requests = 200
work_median_s = 0.08
work_sigma = 0.4
slo_s = 2.0
seed = 23

[scenario.serving.workload.arrivals]
Bursty = { base_rate_per_s = 2.0, burst_rate_per_s = 8.0, mean_dwell_s = 30.0 }
"#;

/// `(file name, FNV-1a digest of its bytes)` for every file the campaign
/// lays out, sorted by name.
const GOLDEN: &[(&str, u64)] = &[
    (
        "cell0000_mixed_x1_Gandiva.events.jsonl",
        0xE8A2_27D6_38AF_55DD,
    ),
    (
        "cell0000_mixed_x1_Gandiva.rounds.csv",
        0x464B_CFC2_9699_C4EE,
    ),
    ("cell0001_mixed_x1_PAL.events.jsonl", 0xDBAF_D805_5F60_B1B0),
    ("cell0001_mixed_x1_PAL.rounds.csv", 0x1AE9_B7CA_FE0A_4318),
    (
        "cell0002_mixed_x1.5_Gandiva.events.jsonl",
        0x64CA_09EB_B222_5665,
    ),
    (
        "cell0002_mixed_x1.5_Gandiva.rounds.csv",
        0xDF14_3B9E_7213_0235,
    ),
    (
        "cell0003_mixed_x1.5_PAL.events.jsonl",
        0x7BB2_2213_9CDB_AA8E,
    ),
    ("cell0003_mixed_x1.5_PAL.rounds.csv", 0x15C7_778C_93B8_04DD),
];

fn run_into(dir: &Path) -> Vec<(String, u64)> {
    let _ = std::fs::remove_dir_all(dir);
    let file = parse_campaign_str(CAMPAIGN, "metrics_golden.toml").expect("campaign parses");
    let campaign =
        build_campaign(&file, &Registry::with_builtins(), Path::new(".")).expect("campaign builds");
    let metrics = MetricsDir::create(dir).expect("metrics dir");
    let factory = metrics.clone();
    campaign
        .metrics_sinks(move |cell| factory.sink_for(cell))
        .run()
        .expect("campaign runs");
    assert_eq!(metrics.first_error(), None);

    let mut digests: Vec<(String, u64)> = std::fs::read_dir(dir)
        .expect("read metrics dir")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let bytes = std::fs::read(&path).expect("read metrics file");
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, fnv1a64(&bytes))
        })
        .collect();
    digests.sort();
    let _ = std::fs::remove_dir_all(dir);
    digests
}

#[test]
fn metrics_files_match_golden_digests() {
    let dir = std::env::temp_dir().join(format!("pal-metrics-golden-{}", std::process::id()));
    let digests = run_into(&dir);
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(digests, expected);
}
