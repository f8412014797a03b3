//! Streaming file sinks for engine events: JSONL lifecycle logs and CSV
//! round tables, written live as a run executes.
//!
//! [`CellMetricsSink`] implements [`pal_sim::MetricsSink`] over two
//! files: every job-lifecycle and serving-batch event becomes one line
//! of canonical JSON ([`write_json`](crate::json::write_json)) in an
//! `.events.jsonl` file, and every executed round becomes one row of a
//! `.rounds.csv` table. Both streams contain only simulated quantities
//! (clocks, ids, counts), so two runs of the same cell produce
//! byte-identical files — the same determinism contract the campaign
//! spill sink gives results.
//! High-volume accumulation events (per-round GPU usage, busy
//! GPU-seconds) are deliberately not logged; the `StepSeries` in the
//! result already carries them compactly.
//!
//! [`MetricsDir`] is the campaign wiring: a per-cell factory for
//! [`pal_sim::Campaign::metrics_sinks`] that lays one file pair per cell
//! out under a directory. Sink methods cannot return errors (the engine
//! never fails because an observer did), so I/O failures — and events
//! with no JSON encoding (a non-finite float), whose lines are skipped —
//! park in a shared slot the caller checks after the run with
//! [`MetricsDir::first_error`].

use crate::json::{write_float, write_int, write_string};
use pal_sim::{CellInfo, JobEvent, JobEventKind, MetricsSink, RoundEvent, ServingBatchEvent};
use std::fmt::Display;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Shared first-error slot for sinks whose owner outlives them.
type ErrorSlot = Arc<Mutex<Option<String>>>;

fn record_error(slot: &ErrorSlot, context: &str, err: &dyn Display) {
    let mut slot = slot.lock().expect("metrics error slot");
    if slot.is_none() {
        *slot = Some(format!("{context}: {err}"));
    }
}

/// Header of the `.rounds.csv` table [`CellMetricsSink`] writes.
pub const ROUNDS_CSV_HEADER: &str = "round,executed_rounds,t,running,waiting,finished";

/// A [`MetricsSink`] streaming one run's events to a JSONL file (job
/// lifecycle + serving batches, each line a `{"type": …}`-tagged
/// canonical-JSON object) and its executed rounds to a CSV table.
///
/// Each event line is encoded field by field into one reused buffer by
/// the same encoders [`write_json`](crate::json::write_json) is built
/// on, so a line is byte-identical to `write_json` of the event's
/// `to_value()` map with the tag in front, without building the tree.
///
/// Buffered; everything is flushed when the sink drops at the end of
/// the run. See the [module docs](self) for the error contract; an event
/// with a non-finite float has no JSON encoding, so its line is skipped
/// and the error recorded.
pub struct CellMetricsSink {
    events: BufWriter<File>,
    rounds: BufWriter<File>,
    /// The event line being encoded, reused across events.
    line: String,
    error: ErrorSlot,
}

impl CellMetricsSink {
    /// Open `events_path` (JSONL) and `rounds_path` (CSV, header written
    /// immediately), truncating either if it exists. I/O errors after
    /// creation go to `error` — first one wins.
    pub fn create(
        events_path: &Path,
        rounds_path: &Path,
        error: ErrorSlot,
    ) -> std::io::Result<Self> {
        let events = BufWriter::new(File::create(events_path)?);
        let mut rounds = BufWriter::new(File::create(rounds_path)?);
        writeln!(rounds, "{ROUNDS_CSV_HEADER}")?;
        Ok(CellMetricsSink {
            events,
            rounds,
            line: String::with_capacity(256),
            error,
        })
    }

    /// Encode one event line into the reused buffer and write it, or
    /// record why it could not be encoded and skip it.
    fn write_event(&mut self, encode: impl FnOnce(&mut String) -> Result<(), String>) {
        self.line.clear();
        if let Err(e) = encode(&mut self.line) {
            record_error(&self.error, "encoding events.jsonl line", &e);
            return;
        }
        self.line.push('\n');
        if let Err(e) = self.events.write_all(self.line.as_bytes()) {
            record_error(&self.error, "writing events.jsonl", &e);
        }
    }
}

/// Open an event object with its `"type"` tag: `{"type":"<kind>"`.
fn begin_event(line: &mut String, kind: &str) {
    line.push('{');
    write_string("type", line);
    line.push(':');
    write_string(kind, line);
}

/// Append the separator and key of the next field: `,"<key>":`.
fn field(line: &mut String, key: &str) {
    line.push(',');
    write_string(key, line);
    line.push(':');
}

/// The name the `Serialize` derive gives `kind` (its variant name).
fn kind_name(kind: JobEventKind) -> &'static str {
    match kind {
        JobEventKind::Admitted => "Admitted",
        JobEventKind::Rejected => "Rejected",
        JobEventKind::Started => "Started",
        JobEventKind::Preempted => "Preempted",
        JobEventKind::Migrated => "Migrated",
        JobEventKind::Finished => "Finished",
    }
}

/// A job event's line (no newline): the tag, then the fields of
/// `JobEvent::to_value` in declaration order.
fn encode_job(event: &JobEvent, line: &mut String) -> Result<(), String> {
    begin_event(line, "job");
    field(line, "t");
    write_float(event.t, line)?;
    field(line, "job");
    write_int(event.job.0.into(), line);
    field(line, "kind");
    write_string(kind_name(event.kind), line);
    line.push('}');
    Ok(())
}

/// A serving batch's line (no newline): the tag, then the fields of
/// `ServingBatchEvent::to_value` in declaration order.
fn encode_serving_batch(event: &ServingBatchEvent, line: &mut String) -> Result<(), String> {
    begin_event(line, "serving_batch");
    field(line, "workload");
    write_string(&event.workload, line);
    field(line, "start");
    write_float(event.start, line)?;
    field(line, "finish");
    write_float(event.finish, line)?;
    field(line, "batch_size");
    write_int(event.batch_size as i128, line);
    field(line, "slo_met");
    write_int(event.slo_met as i128, line);
    field(line, "queued");
    write_int(event.queued as i128, line);
    line.push('}');
    Ok(())
}

impl MetricsSink for CellMetricsSink {
    fn on_job(&mut self, event: &JobEvent) {
        self.write_event(|line| encode_job(event, line));
    }

    fn on_round(&mut self, event: &RoundEvent) {
        if let Err(e) = writeln!(
            self.rounds,
            "{},{},{},{},{},{}",
            event.round,
            event.executed_rounds,
            event.t,
            event.running,
            event.waiting,
            event.finished
        ) {
            record_error(&self.error, "writing rounds.csv", &e);
        }
    }

    fn on_serving_batch(&mut self, event: &ServingBatchEvent) {
        self.write_event(|line| encode_serving_batch(event, line));
    }
}

impl Drop for CellMetricsSink {
    fn drop(&mut self) {
        if let Err(e) = self.events.flush() {
            record_error(&self.error, "flushing events.jsonl", &e);
        }
        if let Err(e) = self.rounds.flush() {
            record_error(&self.error, "flushing rounds.csv", &e);
        }
    }
}

/// Per-cell metrics layout under one directory: the factory side of
/// [`pal_sim::Campaign::metrics_sinks`].
///
/// Each cell gets `cell<index>_<scenario>_<policy>.events.jsonl` and
/// `….rounds.csv` (tag and policy sanitized for the filesystem). Clones
/// share the error slot, so keep one handle to interrogate with
/// [`first_error`](MetricsDir::first_error) after the campaign run:
///
/// ```no_run
/// # fn demo(campaign: pal_sim::Campaign) -> Result<(), Box<dyn std::error::Error>> {
/// use pal_config::MetricsDir;
///
/// let metrics = MetricsDir::create("metrics-out")?;
/// let factory = metrics.clone();
/// let results = campaign
///     .metrics_sinks(move |cell| factory.sink_for(cell))
///     .run()?;
/// if let Some(err) = metrics.first_error() {
///     eprintln!("metrics incomplete: {err}");
/// }
/// # Ok(()) }
/// ```
#[derive(Clone)]
pub struct MetricsDir {
    dir: PathBuf,
    error: ErrorSlot,
}

impl MetricsDir {
    /// Create `dir` (and parents) if needed and return the factory.
    pub fn create(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(MetricsDir {
            dir,
            error: Arc::default(),
        })
    }

    /// The file-name stem used for `cell` (without extension).
    pub fn stem(cell: &CellInfo) -> String {
        let sanitize = |s: &str| -> String {
            s.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect()
        };
        format!(
            "cell{:04}_{}_{}",
            cell.index,
            sanitize(&cell.scenario),
            sanitize(&cell.policy)
        )
    }

    /// Open the file pair for `cell`. Returns `None` (and records the
    /// error) if the files cannot be created — the cell then runs
    /// unobserved rather than not at all.
    pub fn sink_for(&self, cell: &CellInfo) -> Option<Box<dyn MetricsSink + Send>> {
        let stem = Self::stem(cell);
        let events = self.dir.join(format!("{stem}.events.jsonl"));
        let rounds = self.dir.join(format!("{stem}.rounds.csv"));
        match CellMetricsSink::create(&events, &rounds, Arc::clone(&self.error)) {
            Ok(sink) => Some(Box::new(sink)),
            Err(e) => {
                record_error(&self.error, &format!("creating {}", events.display()), &e);
                None
            }
        }
    }

    /// The directory files are laid out under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The first error any sink from this directory hit, if any: an I/O
    /// failure, or an event with no JSON encoding.
    pub fn first_error(&self) -> Option<String> {
        self.error.lock().expect("metrics error slot").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, write_json};
    use pal_cluster::{ClusterTopology, JobClass, VariabilityProfile};
    use pal_gpumodel::Workload;
    use pal_sim::{Campaign, PolicySpec, Scenario};
    use pal_trace::{JobId, JobSpec, Trace};
    use proptest::prelude::*;
    use serde::{Serialize, Value};

    /// The line the sink wrote before direct encoding: `write_json` of
    /// the event's `to_value()` map with a `"type"` entry in front.
    fn tagged_line(kind: &str, value: Value) -> Result<String, String> {
        let mut entries = vec![("type".to_string(), Value::Str(kind.to_string()))];
        match value {
            Value::Map(fields) => entries.extend(fields),
            other => panic!("event serialized as {other:?}"),
        }
        write_json(&Value::Map(entries))
    }

    fn encoded(encode: impl FnOnce(&mut String) -> Result<(), String>) -> Result<String, String> {
        let mut line = String::new();
        encode(&mut line).map(|()| line)
    }

    const KINDS: [JobEventKind; 6] = [
        JobEventKind::Admitted,
        JobEventKind::Rejected,
        JobEventKind::Started,
        JobEventKind::Preempted,
        JobEventKind::Migrated,
        JobEventKind::Finished,
    ];

    /// Floats whose formatting has edge cases: signed zero, integral
    /// values, subnormals, extremes, and a non-terminating fraction.
    const SPECIAL_FLOATS: [f64; 11] = [
        -0.0,
        0.0,
        2.0,
        -7.0,
        5e-324,
        f64::MIN_POSITIVE / 3.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        1.0 / 3.0,
        1e21,
    ];

    /// Special floats, arbitrary finite bit patterns, and plain values.
    fn float() -> impl Strategy<Value = f64> {
        (0..SPECIAL_FLOATS.len() + 2, any::<u64>(), -1e7..1e7f64).prop_map(|(i, bits, plain)| {
            match i.checked_sub(SPECIAL_FLOATS.len()) {
                None => SPECIAL_FLOATS[i],
                Some(0) => Some(f64::from_bits(bits))
                    .filter(|x| x.is_finite())
                    .unwrap_or(plain),
                Some(_) => plain,
            }
        })
    }

    /// Characters that JSON escapes (quote, backslash, every kind of
    /// control character) mixed with plain and non-ASCII text.
    const NAME_CHARS: [char; 20] = [
        'a', 'Z', '7', ' ', '@', '/', '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{1}', '\u{8}',
        '\u{c}', '\u{1f}', '\u{7f}', 'é', '€', '𝄞',
    ];

    fn workload_name() -> impl Strategy<Value = String> {
        proptest::collection::vec(0..NAME_CHARS.len(), 0..16)
            .prop_map(|ix| ix.into_iter().map(|i| NAME_CHARS[i]).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn job_lines_match_the_tagged_value_encoding(
            t in float(),
            job in any::<u32>(),
            kind in 0..KINDS.len(),
        ) {
            let event = JobEvent { t, job: JobId(job), kind: KINDS[kind] };
            let line = encoded(|line| encode_job(&event, line)).unwrap();
            prop_assert_eq!(line, tagged_line("job", event.to_value()).unwrap());
        }

        #[test]
        fn serving_batch_lines_match_the_tagged_value_encoding(
            workload in workload_name(),
            (start, finish) in (float(), float()),
            (batch_size, slo_met, queued) in (any::<usize>(), 0..64usize, 0..100_000usize),
        ) {
            let event = ServingBatchEvent { workload, start, finish, batch_size, slo_met, queued };
            let line = encoded(|line| encode_serving_batch(&event, line)).unwrap();
            prop_assert_eq!(line, tagged_line("serving_batch", event.to_value()).unwrap());
        }
    }

    #[test]
    fn every_job_kind_encodes_like_its_value() {
        for kind in KINDS {
            for t in SPECIAL_FLOATS {
                let event = JobEvent {
                    t,
                    job: JobId(u32::MAX),
                    kind,
                };
                assert_eq!(
                    encoded(|line| encode_job(&event, line)),
                    tagged_line("job", event.to_value())
                );
            }
        }
    }

    /// Feed events to a fresh sink; return the recorded first error and
    /// the events file once the sink has dropped.
    fn feed(tag: &str, events: impl FnOnce(&mut CellMetricsSink)) -> (Option<String>, String) {
        let dir =
            std::env::temp_dir().join(format!("pal_config_metrics_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let metrics = MetricsDir::create(&dir).unwrap();
        let path = dir.join("cell.events.jsonl");
        let mut sink =
            CellMetricsSink::create(&path, &dir.join("cell.rounds.csv"), metrics.error.clone())
                .unwrap();
        events(&mut sink);
        drop(sink);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        (metrics.first_error(), text)
    }

    fn batch(start: f64, finish: f64) -> ServingBatchEvent {
        ServingBatchEvent {
            workload: "chat".into(),
            start,
            finish,
            batch_size: 2,
            slo_met: 1,
            queued: 0,
        }
    }

    #[test]
    fn non_finite_fields_record_the_first_error_and_skip_the_line() {
        let job = |t| JobEvent {
            t,
            job: JobId(3),
            kind: JobEventKind::Finished,
        };
        let (error, text) = feed("nonfinite_job", |sink| {
            sink.on_job(&job(1.5));
            sink.on_job(&job(f64::INFINITY));
            sink.on_serving_batch(&batch(0.5, f64::NEG_INFINITY));
            sink.on_serving_batch(&batch(f64::NAN, 1.0));
            sink.on_serving_batch(&batch(0.5, 1.0));
        });
        assert_eq!(
            error.as_deref(),
            Some("encoding events.jsonl line: cannot serialize non-finite float inf as JSON")
        );
        // Only the finite events were written, each line whole.
        assert_eq!(
            text,
            "{\"type\":\"job\",\"t\":1.5,\"job\":3,\"kind\":\"Finished\"}\n\
             {\"type\":\"serving_batch\",\"workload\":\"chat\",\"start\":0.5,\"finish\":1,\
             \"batch_size\":2,\"slo_met\":1,\"queued\":0}\n"
        );

        let (error, text) = feed("nonfinite_batch", |sink| {
            sink.on_serving_batch(&batch(f64::NAN, 1.0));
        });
        assert_eq!(
            error.as_deref(),
            Some("encoding events.jsonl line: cannot serialize non-finite float NaN as JSON")
        );
        assert_eq!(text, "");
    }

    fn campaign(metrics: &MetricsDir) -> Campaign {
        let factory = metrics.clone();
        Campaign::new()
            .seed(77)
            .scenario("stream", || {
                let jobs = (0..5)
                    .map(|i| JobSpec {
                        id: JobId(i),
                        model: Workload::ResNet50,
                        class: JobClass(i as usize % 3),
                        arrival: i as f64 * 200.0,
                        gpu_demand: 1 + i as usize % 2,
                        iterations: 300 + 100 * i as u64,
                        base_iter_time: 1.0,
                    })
                    .collect::<Vec<_>>();
                Scenario::new(Trace::new("stream-test", jobs), ClusterTopology::new(2, 4))
                    .profile(VariabilityProfile::from_raw(vec![vec![1.2; 8]; 3]))
            })
            .policy(PolicySpec::new("Packed", |_, _| {
                Box::new(pal_sim::placement::PackedPlacement::deterministic())
            }))
            .metrics_sinks(move |cell| factory.sink_for(cell))
    }

    #[test]
    fn campaign_streams_deterministic_event_and_round_files() {
        let dir = std::env::temp_dir().join("pal_config_metrics_test");
        std::fs::remove_dir_all(&dir).ok();
        let metrics = MetricsDir::create(&dir).unwrap();
        let results = campaign(&metrics).run().unwrap();
        assert_eq!(metrics.first_error(), None);
        assert_eq!(results.len(), 1);

        let stem = MetricsDir::stem(&CellInfo {
            index: 0,
            scenario: "stream".into(),
            policy: "Packed".into(),
            seed: results[0].seed,
        });
        let events = std::fs::read_to_string(dir.join(format!("{stem}.events.jsonl"))).unwrap();
        let rounds = std::fs::read_to_string(dir.join(format!("{stem}.rounds.csv"))).unwrap();

        // Every line parses; finishes match the result's job records.
        let mut finished = 0;
        for line in events.lines() {
            let v = parse_json(line).expect("every event line is valid JSON");
            assert!(v.get("type").is_some(), "{line}");
            if v.get("kind") == Some(&Value::Str("Finished".into())) {
                finished += 1;
            }
        }
        assert_eq!(finished, results[0].result.records.len());

        // CSV: header plus one row per executed round.
        let mut lines = rounds.lines();
        assert_eq!(lines.next(), Some(ROUNDS_CSV_HEADER));
        assert_eq!(lines.count(), results[0].result.executed_rounds);

        // Byte-identical on re-run: events carry only simulated state.
        let metrics2 = MetricsDir::create(&dir).unwrap();
        campaign(&metrics2).run().unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join(format!("{stem}.events.jsonl"))).unwrap(),
            events
        );
        assert_eq!(
            std::fs::read_to_string(dir.join(format!("{stem}.rounds.csv"))).unwrap(),
            rounds
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stems_are_filesystem_safe() {
        let stem = MetricsDir::stem(&CellInfo {
            index: 3,
            scenario: "philly@x1.5/serving".into(),
            policy: "PAL (adaptive)".into(),
            seed: 1,
        });
        assert_eq!(stem, "cell0003_philly_x1.5_serving_PAL__adaptive_");
    }
}
