//! The experiment runner.
//!
//! ```text
//! cargo run -p wrsn-bench --release --bin exp -- --id fig6
//! cargo run -p wrsn-bench --release --bin exp -- --id all --trace trace.jsonl
//! cargo run -p wrsn-bench --release --bin exp -- --id all --timeout-s 300
//! cargo run -p wrsn-bench --release --bin exp -- --resume target/experiments
//! cargo run -p wrsn-bench --release --bin exp -- --list
//! ```
//!
//! Tables are printed and also written as CSV under `target/experiments/`
//! (override with `--out-dir`). With `--id all`, whole experiments run in
//! parallel; each experiment's output is buffered and printed in the
//! canonical `EXPERIMENTS.md` order, so the transcript is byte-identical to
//! a sequential run. `--threads 1` (or `WRSN_THREADS=1`) forces sequential
//! execution; `--trace <path>` writes the versioned JSONL trace stream in
//! canonical experiment order, each experiment closed by its `Counters`
//! record.
//!
//! **Durable runs.** Every campaign keeps a [`manifest`] under `--out-dir`:
//! per-experiment status transitions are persisted atomically as they
//! happen, and a completed experiment's full output is stored as a
//! digest-pinned artifact. `--resume <dir>` replays completed experiments
//! byte-for-byte from their artifacts and re-runs the rest (experiments are
//! deterministic), so the resumed transcript, CSVs, and trace are identical
//! to an uninterrupted run. `--timeout-s <s>` (or `WRSN_TIMEOUT_S`) arms a
//! watchdog: a hung experiment is cancelled at its wall-clock deadline via
//! the engine's cooperative cancellation token and reported as a typed
//! timeout while the rest of the suite completes.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

use wrsn::sim::cancel::budget_from_secs;
use wrsn::sim::store::write_atomic;
use wrsn_bench::error::BenchError;
use wrsn_bench::manifest::{self, ExpStatus, FailKind, Manifest, StoredOutput};
use wrsn_bench::obs::{self, Recorder, StatsRecorder};
use wrsn_bench::parallel::{self, FailureKind};

/// Everything one experiment produced, buffered for in-order printing.
struct ExpOutput {
    id: &'static str,
    wall_s: f64,
    rendered: Vec<String>,
    csvs: Vec<(String, String)>,
    /// Serialized JSONL trace lines (empty unless observability is on).
    jsonl: Vec<String>,
}

impl ExpOutput {
    fn to_stored(&self) -> StoredOutput {
        StoredOutput {
            id: self.id.to_string(),
            wall_s: self.wall_s,
            rendered: self.rendered.clone(),
            csvs: self.csvs.clone(),
            jsonl: self.jsonl.clone(),
        }
    }

    fn from_stored(id: &'static str, stored: StoredOutput) -> Self {
        ExpOutput {
            id,
            wall_s: stored.wall_s,
            rendered: stored.rendered,
            csvs: stored.csvs,
            jsonl: stored.jsonl,
        }
    }
}

fn run_experiment(id: &'static str, observe: bool) -> Result<ExpOutput, BenchError> {
    let started = Instant::now();
    let mut stats = StatsRecorder::new();
    let mut null = obs::NullRecorder;
    let rec: &mut dyn Recorder = if observe { &mut stats } else { &mut null };
    let tables = wrsn_bench::run_with(id, rec)?;
    let wall_s = started.elapsed().as_secs_f64();
    let mut jsonl = Vec::new();
    if observe {
        stats.emit_counters(id);
        for record in stats.records() {
            jsonl.push(obs::to_jsonl_line(record).map_err(|e| BenchError::Trace {
                id: id.to_string(),
                detail: e.0,
            })?);
        }
    }
    Ok(ExpOutput {
        id,
        wall_s,
        rendered: tables.iter().map(|t| t.render()).collect(),
        csvs: tables
            .iter()
            .enumerate()
            .map(|(k, t)| (format!("{id}_{k}.csv"), t.to_csv()))
            .collect(),
        jsonl,
    })
}

fn emit(output: &ExpOutput, dir: &Path) -> Result<(), BenchError> {
    for rendered in &output.rendered {
        println!("{rendered}");
    }
    std::fs::create_dir_all(dir).map_err(|e| BenchError::io("create", dir, &e))?;
    for (name, csv) in &output.csvs {
        let file = dir.join(name);
        // Atomic like every other campaign artifact: a crash mid-write must
        // not leave a torn CSV at the final path.
        write_atomic(&file, csv.as_bytes()).map_err(|e| BenchError::Manifest {
            path: file.clone(),
            detail: e.to_string(),
        })?;
    }
    eprintln!(
        "[{}] done in {:.1} s; CSVs in {}",
        output.id,
        output.wall_s,
        dir.display()
    );
    Ok(())
}

fn usage() -> String {
    format!(
        "usage: exp --id <id>[,<id>...]|all [--threads <n>] [--out-dir <dir>] [--trace <path>] [--timeout-s <s>]\n\
         \x20      exp --resume <dir> [--threads <n>] [--trace <path>] [--timeout-s <s>]\n\
         \x20      exp --list\n\
         known ids: {}\n\
         extra ids (not in `all`): {}",
        wrsn_bench::ALL_IDS.join(", "),
        wrsn_bench::EXTRA_IDS.join(", ")
    )
}

/// Parsed and validated command line.
struct Cli {
    /// `--id` target (absent in resume mode).
    id: Option<String>,
    /// `--resume <dir>`.
    resume: Option<PathBuf>,
    trace_path: Option<String>,
    out_dir: PathBuf,
    /// Watchdog deadline per experiment, seconds.
    timeout_s: Option<f64>,
}

fn flag_value<'a>(
    args: &'a [String],
    i: &mut usize,
    flag: &'static str,
    what: &str,
) -> Result<&'a str, BenchError> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or(BenchError::InvalidFlag {
            flag,
            detail: format!("needs {what}"),
        })
}

/// A deadline in seconds that a `Duration` can hold.
fn parse_timeout(raw: &str, flag: &'static str) -> Result<f64, BenchError> {
    match raw.trim().parse::<f64>() {
        Ok(s) if budget_from_secs(s).is_some() => Ok(s),
        _ => Err(BenchError::InvalidFlag {
            flag,
            detail: format!("needs a positive number of seconds below 1.8e19, got `{raw}`"),
        }),
    }
}

/// Parses the command line; `None` means `--list` handled everything.
fn parse_cli(args: &[String]) -> Result<Option<Cli>, BenchError> {
    let mut cli = Cli {
        id: None,
        resume: None,
        trace_path: None,
        out_dir: PathBuf::from("target").join("experiments"),
        timeout_s: None,
    };
    let mut out_dir_set = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => {
                for known in wrsn_bench::ALL_IDS.iter().chain(wrsn_bench::EXTRA_IDS) {
                    println!("{known}");
                }
                return Ok(None);
            }
            "--id" => {
                cli.id = Some(flag_value(args, &mut i, "--id", "an experiment id")?.to_string());
            }
            "--resume" => {
                cli.resume = Some(PathBuf::from(flag_value(
                    args,
                    &mut i,
                    "--resume",
                    "a campaign directory",
                )?));
            }
            "--trace" => {
                cli.trace_path =
                    Some(flag_value(args, &mut i, "--trace", "a file path")?.to_string());
            }
            "--out-dir" => {
                cli.out_dir = PathBuf::from(flag_value(args, &mut i, "--out-dir", "a directory")?);
                out_dir_set = true;
            }
            "--threads" => {
                let raw = flag_value(args, &mut i, "--threads", "a positive integer")?;
                match raw.trim().parse::<usize>() {
                    Ok(n) if n >= 1 => std::env::set_var(parallel::THREADS_ENV, n.to_string()),
                    _ => {
                        return Err(BenchError::InvalidFlag {
                            flag: "--threads",
                            detail: format!("needs a positive integer, got `{raw}`"),
                        })
                    }
                }
            }
            "--timeout-s" => {
                let raw = flag_value(args, &mut i, "--timeout-s", "a positive number of seconds")?;
                cli.timeout_s = Some(parse_timeout(raw, "--timeout-s")?);
            }
            other => {
                return Err(BenchError::InvalidFlag {
                    flag: "exp",
                    detail: format!("unknown argument `{other}`"),
                })
            }
        }
        i += 1;
    }
    if cli.id.is_some() && cli.resume.is_some() {
        return Err(BenchError::InvalidFlag {
            flag: "--resume",
            detail: "is mutually exclusive with --id".to_string(),
        });
    }
    if let Some(dir) = &cli.resume {
        if out_dir_set {
            return Err(BenchError::InvalidFlag {
                flag: "--out-dir",
                detail: "is implied by --resume (the campaign directory)".to_string(),
            });
        }
        cli.out_dir = dir.clone();
    }
    if cli.timeout_s.is_none() {
        if let Ok(raw) = std::env::var(parallel::TIMEOUT_ENV) {
            cli.timeout_s = Some(parse_timeout(&raw, "WRSN_TIMEOUT_S")?);
        }
    }
    Ok(Some(cli))
}

/// Fails fast — before any experiment runs — if `--out-dir` is a file or not
/// writable.
fn probe_out_dir(dir: &Path) -> Result<(), BenchError> {
    if dir.exists() && !dir.is_dir() {
        return Err(BenchError::InvalidFlag {
            flag: "--out-dir",
            detail: format!("{} exists and is not a directory", dir.display()),
        });
    }
    std::fs::create_dir_all(dir).map_err(|e| BenchError::io("create", dir, &e))?;
    let probe = dir.join(format!(".probe.{}", std::process::id()));
    std::fs::write(&probe, b"probe").map_err(|e| BenchError::io("write to", dir, &e))?;
    std::fs::remove_file(&probe).map_err(|e| BenchError::io("clean up probe in", dir, &e))?;
    Ok(())
}

fn fresh_run_id() -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    format!("{}-{nanos:x}", std::process::id())
}

/// One terminal experiment failure, for the report and exit code.
struct Failure {
    error: BenchError,
    kind: FailKind,
}

/// Marks `id`'s manifest entry and persists the manifest. A ledger that
/// cannot be written fails the experiment (and ultimately the campaign):
/// continuing without durable status would lie about resumability.
fn mark(
    manifest: &Mutex<Manifest>,
    out_dir: &Path,
    id: &str,
    update: impl FnOnce(&mut manifest::ManifestEntry),
) -> Result<(), BenchError> {
    let mut guard = manifest.lock().expect("manifest lock");
    if let Some(entry) = guard.entry_mut(id) {
        update(entry);
    }
    guard.save(out_dir)
}

fn run_campaign(cli: &Cli) -> Result<ExitCode, BenchError> {
    probe_out_dir(&cli.out_dir)?;
    let resuming = cli.resume.is_some();

    // Build (or reload) the manifest and decide what to observe.
    let (manifest, ids): (Manifest, Vec<&'static str>) = if resuming {
        let mut m = Manifest::load(&cli.out_dir)?;
        if cli.trace_path.is_some() && !m.observed {
            return Err(BenchError::Manifest {
                path: Manifest::path(&cli.out_dir),
                detail: "original run did not collect observability; \
                         a resumed --trace cannot match it — re-run with --trace instead"
                    .to_string(),
            });
        }
        m.resumes += 1;
        // Running (in-flight at the crash) and Failed entries re-run from
        // scratch; experiments are deterministic so the bytes still match.
        for entry in &mut m.entries {
            if entry.status != ExpStatus::Done {
                entry.status = ExpStatus::Pending;
                entry.error = None;
                entry.failure = None;
            }
        }
        let ids = m
            .entries
            .iter()
            .map(|e| {
                wrsn_bench::ALL_IDS
                    .iter()
                    .chain(wrsn_bench::EXTRA_IDS)
                    .copied()
                    .find(|known| *known == e.id)
                    .expect("manifest ids validated on load")
            })
            .collect();
        (m, ids)
    } else {
        let id = cli.id.as_deref().expect("either --id or --resume");
        // `--id` takes a comma-separated list; `all` expands to the paper
        // suite (extra ids like `scale` must be named explicitly).
        let mut ids: Vec<&'static str> = Vec::new();
        for token in id.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            if token == "all" {
                ids.extend(wrsn_bench::ALL_IDS);
                continue;
            }
            match wrsn_bench::ALL_IDS
                .iter()
                .chain(wrsn_bench::EXTRA_IDS)
                .find(|known| **known == token)
            {
                Some(&known) => ids.push(known),
                None => return Err(BenchError::unknown_id(token)),
            }
        }
        let mut seen = std::collections::HashSet::new();
        ids.retain(|id| seen.insert(*id));
        if ids.is_empty() {
            return Err(BenchError::unknown_id(id));
        }
        (
            Manifest::new(
                fresh_run_id(),
                &ids,
                parallel::threads(),
                cli.trace_path.is_some(),
                cli.timeout_s,
            ),
            ids,
        )
    };
    // Observability on resume follows the original run so replayed artifacts
    // and re-run experiments agree on what the trace contains.
    let observe = manifest.observed;
    let timeout_s = cli.timeout_s.or(manifest.timeout_s);
    manifest.save(&cli.out_dir)?;
    let manifest = Mutex::new(manifest);

    // Run whole experiments in parallel, but buffer their output and print
    // in canonical order so the transcript matches a sequential run. The
    // panic-safe harness keeps one poisoned experiment from sinking the
    // campaign, and with a deadline the watchdog cancels hung experiments
    // through the engine's cooperative cancellation token. Every status
    // transition is persisted atomically, so a SIGKILL at any point leaves a
    // resumable manifest.
    // Both sources were validated when read: the flag or environment in
    // `parse_timeout`, a resumed manifest in `Manifest::load`.
    let deadline = timeout_s.and_then(budget_from_secs);
    let out_dir = cli.out_dir.as_path();
    let results = parallel::try_map_indexed_watched(ids.len(), 1, deadline, |k| {
        let id = ids[k];
        let replay = {
            let guard = manifest.lock().expect("manifest lock");
            guard
                .entries
                .iter()
                .find(|e| e.id == id && e.status == ExpStatus::Done)
                .and_then(|e| e.digest.clone())
        };
        if let Some(digest) = replay {
            // Completed in a previous run: replay the digest-pinned artifact
            // byte-for-byte. A corrupt artifact falls through to a re-run —
            // experiments are deterministic, so the bytes come out the same.
            if let Ok(stored) = manifest::load_artifact(out_dir, id, &digest) {
                return Ok(ExpOutput::from_stored(id, stored));
            }
        }
        mark(&manifest, out_dir, id, |e| {
            e.status = ExpStatus::Running;
        })?;
        let output = run_experiment(id, observe)?;
        let digest = manifest::save_artifact(out_dir, &output.to_stored())?;
        mark(&manifest, out_dir, id, |e| {
            e.status = ExpStatus::Done;
            e.wall_s = output.wall_s;
            e.digest = Some(digest.clone());
        })?;
        Ok(output)
    });

    let mut outputs = Vec::with_capacity(results.len());
    let mut failures: Vec<Failure> = Vec::new();
    for (k, result) in results.into_iter().enumerate() {
        let id = ids[k];
        let failure = match result {
            Ok(Ok(output)) => {
                outputs.push(output);
                continue;
            }
            Ok(Err(e)) => Failure {
                error: e,
                kind: FailKind::Panic,
            },
            Err(worker) => Failure {
                kind: match worker.kind {
                    FailureKind::Timeout => FailKind::Timeout,
                    FailureKind::Panic => FailKind::Panic,
                },
                error: BenchError::Worker {
                    id: id.to_string(),
                    source: worker,
                },
            },
        };
        mark(&manifest, out_dir, id, |e| {
            e.status = ExpStatus::Failed;
            e.error = Some(failure.error.to_string());
            e.failure = Some(failure.kind);
        })?;
        failures.push(failure);
    }

    for output in &outputs {
        emit(output, out_dir)?;
    }

    if let Some(path) = &cli.trace_path {
        // One stream, canonical experiment order: each experiment contributes
        // a Meta header, its event/session/snapshot records, and a closing
        // Counters record.
        let mut stream = String::new();
        for output in &outputs {
            for line in &output.jsonl {
                stream.push_str(line);
                stream.push('\n');
            }
        }
        write_atomic(Path::new(path), stream.as_bytes()).map_err(|e| BenchError::Manifest {
            path: PathBuf::from(path),
            detail: e.to_string(),
        })?;
        let records: usize = outputs.iter().map(|o| o.jsonl.len()).sum();
        eprintln!("[trace] {records} records written to {path}");
    }

    if !failures.is_empty() {
        eprintln!(
            "error: {} of {} experiment(s) failed:",
            failures.len(),
            ids.len()
        );
        for failure in &failures {
            let kind = match failure.kind {
                FailKind::Panic => "panic",
                FailKind::Timeout => "timeout",
            };
            eprintln!("  [{kind}] {}", failure.error);
        }
        eprintln!(
            "resume the completed portion with: exp --resume {}",
            out_dir.display()
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(Some(cli)) => cli,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if cli.id.is_none() && cli.resume.is_none() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    match run_campaign(&cli) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(
                e,
                BenchError::InvalidFlag { .. } | BenchError::UnknownId { .. }
            ) {
                eprintln!("{}", usage());
            }
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rejected(args: &[&str]) -> (&'static str, String) {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        match parse_cli(&args) {
            Err(BenchError::InvalidFlag { flag, detail }) => (flag, detail),
            Err(other) => panic!("{args:?}: expected an invalid flag, got {other}"),
            Ok(_) => panic!("{args:?}: expected an error"),
        }
    }

    #[test]
    fn unknown_arguments_are_named() {
        let (_, detail) = rejected(&["--id", "fig2", "--json", "x"]);
        assert_eq!(detail, "unknown argument `--json`");
        let (flag, detail) = rejected(&["--foo"]);
        assert_ne!(flag, "--id", "an unknown argument is not an --id error");
        assert_eq!(detail, "unknown argument `--foo`");
    }

    #[test]
    fn zero_threads_are_rejected() {
        let (flag, detail) = rejected(&["--id", "fig2", "--threads", "0"]);
        assert_eq!(flag, "--threads");
        assert!(detail.contains("`0`"), "{detail}");
    }

    #[test]
    fn negative_timeouts_are_rejected() {
        let (flag, detail) = rejected(&["--id", "fig2", "--timeout-s", "-1"]);
        assert_eq!(flag, "--timeout-s");
        assert!(detail.contains("`-1`"), "{detail}");
    }

    #[test]
    fn timeouts_beyond_a_duration_are_rejected() {
        let (flag, detail) = rejected(&["--id", "fig2", "--timeout-s", "1e20"]);
        assert_eq!(flag, "--timeout-s");
        assert!(detail.contains("`1e20`"), "{detail}");
        // The environment variable goes through the same check.
        assert!(parse_timeout("1e20", "WRSN_TIMEOUT_S").is_err());
        assert_eq!(parse_timeout("2.5", "WRSN_TIMEOUT_S").unwrap(), 2.5);
    }

    #[test]
    fn resume_excludes_id_and_out_dir() {
        let (flag, detail) = rejected(&["--id", "fig2", "--resume", "d"]);
        assert_eq!(flag, "--resume");
        assert!(detail.contains("--id"), "{detail}");
        let (flag, detail) = rejected(&["--resume", "d", "--out-dir", "e"]);
        assert_eq!(flag, "--out-dir");
        assert!(detail.contains("--resume"), "{detail}");
    }
}
