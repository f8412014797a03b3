//! Workload inputs, generated from the benchmark seed.
//!
//! Every workload is a campaign file plus the trace files it names,
//! written into a work directory. The seed reaches every generator: the
//! campaign seed, the profile and truth seeds, the Synergy trace seed,
//! the Sia-Philly trace (generated here, because the `sia-philly` kind
//! takes no seed) and the serving stream seeds. The program only ever
//! sees the files.
//!
//! Alongside the inputs, `expected.txt` records what the benchmark knows
//! about each scenario row — its job count and its serving request count
//! — for the correctness checks. The program never reads it.

use pal_gpumodel::GpuSpec;
use pal_trace::{write_trace_csv, ModelCatalog, SiaPhillyConfig, Trace};
use std::fmt::Write as _;
use std::io::BufWriter;
use std::path::Path;

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper_sweep", "adaptive_drift", "serving_stream"];

/// Name of the campaign file inside a work directory.
pub const CAMPAIGN_FILE: &str = "campaign.toml";
/// Name of the expectations file inside a work directory.
pub const EXPECTED_FILE: &str = "expected.txt";

/// Campaign workers every workload fixes, whatever the machine has.
const WORKERS: usize = 2;

/// Independent draws of each `paper_sweep` row.
const PAPER_DRAWS: usize = 3;

/// Independent draws of `adaptive_drift`'s rows, profiles and truths.
const ADAPTIVE_DRAWS: usize = 6;

/// Jobs in each `adaptive_drift` trace.
const ADAPTIVE_JOBS: usize = 80;

/// Log-normal sigma of `adaptive_drift`'s job durations.
const ADAPTIVE_SIGMA: f64 = 0.5;

/// What the checks know about one scenario row.
#[derive(Debug, Clone, PartialEq)]
pub struct RowExpectation {
    /// Scenario tag.
    pub tag: String,
    /// Training jobs in the row's trace.
    pub jobs: usize,
    /// Serving requests the row's deployments declare.
    pub requests: u64,
}

/// One independent sub-seed per generator, so changing how one generator
/// draws cannot shift another's inputs. SplitMix64 over the seed and a
/// label, masked to 48 bits so every seed is a plain TOML integer.
fn sub_seed(seed: u64, label: &str) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15;
    for b in label.bytes() {
        z = (z ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 0xFFFF_FFFF_FFFF
}

fn catalog() -> ModelCatalog {
    ModelCatalog::table2(&GpuSpec::v100())
}

fn write_trace(dir: &Path, file: &str, trace: &Trace) -> std::io::Result<()> {
    let out = BufWriter::new(std::fs::File::create(dir.join(file))?);
    write_trace_csv(trace, out).map_err(|e| std::io::Error::other(e.to_string()))
}

/// Sia-Philly workload 5 with `jobs` jobs, drawn from the seed.
fn sia_w5(seed: u64, jobs: usize) -> Trace {
    SiaPhillyConfig {
        num_jobs: jobs,
        ..SiaPhillyConfig::default()
    }
    .generate_seeded(5, sub_seed(seed, "sia-w5"), &catalog())
}

/// The campaign-file lines every workload shares: admission named
/// explicitly (the paper's admit-all, which is also the default), its
/// name, seed and fixed worker count, the cluster, and the paper's 1.5×
/// cross-node locality penalty.
fn header(out: &mut String, name: &str, seed: u64, nodes: usize) {
    let _ = write!(
        out,
        "admission = \"admit-all\"\n\n[campaign]\nname = \"{name}\"\nseed = {}\nmax_parallelism = {WORKERS}\n\n\
         [cluster]\nnodes = {nodes}\ngpus_per_node = 4\n\n\
         [locality]\nl_within = 1.0\nl_across = 1.5\n",
        sub_seed(seed, "campaign"),
    );
}

/// Write `workload`'s inputs for `seed` into `dir` (which must exist).
pub fn generate(workload: &str, seed: u64, dir: &Path) -> std::io::Result<()> {
    let mut toml = String::new();
    let rows: Vec<RowExpectation> = match workload {
        "paper_sweep" => {
            let _ = write!(
                toml,
                "scheduler = \"las\"\n\
                 policy = [\"random-sticky\", \"random\", \"gandiva\", \"tiresias\", \
                 \"pm-first\", \"pal\"]\n",
            );
            header(&mut toml, workload, seed, 64);
            // Three independent draws of each row, draw d of both rows on
            // Longhorn profile draw d: one draw's run time swings with its
            // heavy-tailed job durations and with how its profile bins the
            // GPUs, the sum of three much less.
            let profile = |draw: usize| {
                format!(
                    "profile = {{ kind = \"longhorn\", seed = {} }}\n",
                    sub_seed(seed, &format!("profile-{draw}"))
                )
            };
            let mut rows = Vec::new();
            for draw in 1..=PAPER_DRAWS {
                let _ = write!(
                    toml,
                    "\n[[scenario]]\ntag = \"synergy-{draw}\"\n{}trace = {{ kind = \"synergy\", \
                     num_jobs = 2000, jobs_per_hour = 14.0, seed = {} }}\n",
                    profile(draw),
                    sub_seed(seed, &format!("synergy-{draw}")),
                );
                rows.push(row(&format!("synergy-{draw}"), 2000, 0));
            }
            for draw in 1..=PAPER_DRAWS {
                let file = format!("sia_w5_{draw}.csv");
                let sia = sia_w5(sub_seed(seed, &format!("sia-draw-{draw}")), 1000);
                write_trace(dir, &file, &sia)?;
                let _ = write!(
                    toml,
                    "\n[[scenario]]\ntag = \"sia-w5-{draw}\"\n{}trace = {{ kind = \"csv\", path = \"{file}\" }}\n",
                    profile(draw),
                );
                rows.push(row(&format!("sia-w5-{draw}"), sia.len(), 0));
            }
            rows
        }
        "adaptive_drift" => {
            let _ = write!(
                toml,
                "scheduler = \"fifo\"\npolicy = [\"pal\", \"adaptive-pal\"]\n"
            );
            header(&mut toml, workload, seed, 16);
            // Six independent draws, each with its own stale profile and
            // truth: Adaptive-PAL's cost follows a draw's job-rounds and
            // how fast its estimates re-bin, and six draws average both.
            // Many small Adaptive-PAL cells also keep both workers busy to
            // the end; with a few large ones, a worker idles behind the
            // largest and the run time follows how the cells happen to
            // split.
            // Job durations are log-normal with sigma 0.5, so a row's total
            // job-rounds stays steady across seeds.
            let mut rows = Vec::new();
            for draw in 1..=ADAPTIVE_DRAWS {
                let profiles = format!(
                    "profile = {{ kind = \"longhorn\", seed = {} }}\n\
                     truth = {{ kind = \"longhorn\", seed = {} }}\n",
                    sub_seed(seed, &format!("profile-{draw}")),
                    sub_seed(seed, &format!("truth-{draw}")),
                );
                let file = format!("sia_w5_{draw}.csv");
                let sia = SiaPhillyConfig {
                    num_jobs: ADAPTIVE_JOBS,
                    duration_sigma: ADAPTIVE_SIGMA,
                    ..SiaPhillyConfig::default()
                }
                .generate_seeded(
                    5,
                    sub_seed(seed, &format!("sia-draw-{draw}")),
                    &catalog(),
                );
                write_trace(dir, &file, &sia)?;
                let _ = write!(
                    toml,
                    "\n[[scenario]]\ntag = \"synergy-{draw}\"\n{profiles}trace = {{ kind = \"synergy\", \
                     num_jobs = {ADAPTIVE_JOBS}, duration_sigma = {ADAPTIVE_SIGMA:?}, seed = {} }}\n\n\
                     [[scenario]]\ntag = \"sia-w5-{draw}\"\n{profiles}trace = {{ kind = \"csv\", path = \"{file}\" }}\n",
                    sub_seed(seed, &format!("synergy-{draw}")),
                );
                rows.push(row(&format!("synergy-{draw}"), ADAPTIVE_JOBS, 0));
                rows.push(row(&format!("sia-w5-{draw}"), sia.len(), 0));
            }
            rows
        }
        "serving_stream" => {
            let _ = write!(
                toml,
                "profile = {{ kind = \"longhorn\", seed = {} }}\nscheduler = \"fifo\"\n\
                 policy = [\"pm-first\", \"pal\"]\n",
                sub_seed(seed, "profile"),
            );
            header(&mut toml, workload, seed, 16);
            let _ = write!(
                toml,
                "\n[[scenario]]\ntag = \"mixed\"\ntrace = {{ kind = \"synergy\", \
                 num_jobs = 300, seed = {} }}\n",
                sub_seed(seed, "synergy"),
            );
            serving_deployments(&mut toml, seed);
            toml.push_str("\n[[scenario]]\ntag = \"serving_only\"\n");
            serving_deployments(&mut toml, seed);
            let requests = 2 * SERVING_REQUESTS;
            vec![
                row("mixed", 300, requests),
                row("serving_only", 0, requests),
            ]
        }
        other => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("unknown workload `{other}`"),
            ))
        }
    };
    std::fs::write(dir.join(CAMPAIGN_FILE), toml)?;
    let mut expected = String::new();
    for r in &rows {
        let _ = writeln!(expected, "{} {} {}", r.tag, r.jobs, r.requests);
    }
    std::fs::write(dir.join(EXPECTED_FILE), expected)
}

fn row(tag: &str, jobs: usize, requests: u64) -> RowExpectation {
    RowExpectation {
        tag: tag.to_string(),
        jobs,
        requests,
    }
}

/// Requests in each serving deployment's stream.
const SERVING_REQUESTS: u64 = 500_000;

/// The two serving deployments of a `serving_stream` row: a Poisson
/// stream and a bursty (two-phase MMPP) one, each on four 2-GPU
/// replicas. The rates sit below the capacity knee of the slower
/// placement (PM-First spreads replicas across nodes and pays the 1.5×
/// locality penalty): bursts queue and drain, but no queue grows without
/// bound.
fn serving_deployments(out: &mut String, seed: u64) {
    let _ = write!(
        out,
        "\n[[scenario.serving]]\nreplicas = 4\ngpus_per_replica = 2\nmodel = \"Bert\"\nclass = 0\n\n\
         [scenario.serving.workload]\nname = \"chat-poisson\"\nnum_requests = {SERVING_REQUESTS}\n\
         work_median_s = 0.05\nwork_sigma = 0.3\nslo_s = 1.0\nseed = {}\n\n\
         [scenario.serving.workload.arrivals]\nPoisson = {{ rate_per_s = 34.0 }}\n\n\
         [[scenario.serving]]\nreplicas = 4\ngpus_per_replica = 2\nmodel = \"Gpt2\"\nclass = 2\n\n\
         [scenario.serving.workload]\nname = \"api-bursty\"\nnum_requests = {SERVING_REQUESTS}\n\
         work_median_s = 0.05\nwork_sigma = 0.4\nslo_s = 2.0\nseed = {}\n\n\
         [scenario.serving.workload.arrivals]\n\
         Bursty = {{ base_rate_per_s = 20.0, burst_rate_per_s = 40.0, mean_dwell_s = 30.0 }}\n",
        sub_seed(seed, "serving-poisson"),
        sub_seed(seed, "serving-bursty"),
    );
}

/// Read back `expected.txt`.
pub fn read_expected(dir: &Path) -> std::io::Result<Vec<RowExpectation>> {
    let text = std::fs::read_to_string(dir.join(EXPECTED_FILE))?;
    text.lines()
        .map(|line| {
            let mut parts = line.split(' ');
            let bad = || std::io::Error::other(format!("bad expectation line `{line}`"));
            let tag = parts.next().ok_or_else(bad)?.to_string();
            let jobs = parts.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
            let requests = parts.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
            Ok(RowExpectation {
                tag,
                jobs,
                requests,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_by_label_and_seed() {
        assert_ne!(sub_seed(1, "a"), sub_seed(1, "b"));
        assert_ne!(sub_seed(1, "a"), sub_seed(2, "a"));
        assert!(sub_seed(u64::MAX, "a") < 1 << 48);
    }
}
