//! Crash-safe campaigns: a write-ahead journal of run outcomes,
//! mid-run checkpoint snapshots, and per-run watchdogs.
//!
//! [`run_campaign_resumable`] executes a [`CampaignPlan`] so that a
//! crash — of the host, the process, or a single pathological run —
//! never loses finished work:
//!
//! * **Write-ahead journal.** Every completed run's [`Grid3Report`]
//!   (and profile stats, when profiled) is appended to
//!   `campaign.wal` *before* it is merged. Records are length-framed
//!   and checksummed; on restart the journal is replayed, finished
//!   runs are skipped, and a torn or corrupt tail is truncated away —
//!   the partial record's run simply re-executes. Runs are a pure
//!   function of `(config, seed)`, so a replayed report is the report,
//!   and an interrupted-then-resumed campaign's merged bands are
//!   byte-identical to a never-interrupted sweep.
//! * **Checkpoint snapshots.** With a checkpoint cadence set, each run
//!   periodically writes an [`EngineSnapshot`] beside the journal. A
//!   resume warm-starts the interrupted run from its latest snapshot
//!   instead of re-simulating the shared prefix — bit-identically, as
//!   locked by `tests/snapshot.rs`. (One caveat: the wall-clock *cost
//!   profile* of a warm-started run covers only the resumed portion;
//!   the simulated state is exact regardless.)
//! * **Watchdogs.** Each run executes on its own thread. A run that
//!   panics is quarantined by `catch_unwind`; one that exceeds its
//!   wall-clock budget is abandoned (the thread cannot be killed and
//!   is left detached, but the campaign moves on). Either way the
//!   outcome is a typed [`RunFailure`] journal record, the run's last
//!   checkpoint snapshot is retained for post-mortem inspection
//!   (`figures -- autopsy <snap>`), and the rest of the campaign
//!   completes with partial bands. Failed runs are re-executed on the
//!   next resume — a watchdog trip may have been environmental; a
//!   deterministic hang will simply fail again.
//!
//! The executor is still serial (one watchdog thread at a time).
//! Ordering is not the reason — every journal record carries its run
//! index, so a resume replays whichever runs finished, in any order.
//! The reason was memory: each checkpoint's encode built a full
//! `serde::Value` tree of the engine, and two concurrent checkpointing
//! runs took peak RSS from ~91 MB to ~165 MB. Encoding now streams
//! (see the snapshot module). A day-15 checkpoint of a scale-0.05 run
//! (~5.1 MB) costs ~1 ms to capture and ~9–11 ms to encode, 7.4 ms of
//! which is the FNV-1a checksum the format fixes, plus ~5 ms to write
//! and rename the file. On perfbench's `campaign_resume` workload
//! (2-CPU Xeon host) the checkpointed sweep takes 2.5–3.4× as long as
//! [`run_campaign_serial`](super::run_campaign_serial) in eight traced
//! runs (5.4–9.9× with the tree), and twenty runs read 6.1–7.0 runs/s
//! at 48–57 MB peak RSS (tree: 2.4–3.2 runs/s at 90–93 MB). Two
//! checkpointing workers, measured on an unshipped copy of this
//! executor (seeds 1–3), ran 9.2–12.7 runs/s at 81–100 MB peak RSS
//! against 5.2–6.4 runs/s at 57 MB serially in the same batch, so
//! running the crash-safe loop on the worker pool is now within reach.

use std::io::{Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::time::Duration;

use super::{merge_partial, CampaignOutcome, CampaignPlan};
use crate::engine::Grid3Engine;
use crate::report::Grid3Report;
use crate::scenario::ScenarioConfig;
use crate::snapshot::{decode_value, encode, fnv1a64, EngineSnapshot};
use grid3_simkit::profiler::{CenterStats, CostProfiler};
use grid3_simkit::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Errors from the crash-safe campaign layer. Torn journal tails are
/// *not* errors (they are truncated and their runs re-executed); these
/// are the conditions a caller must decide about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// Filesystem error (open/read/write/sync).
    Io(String),
    /// The journal on disk was written by a different campaign plan;
    /// replaying it would mis-attribute runs. Point the campaign at a
    /// fresh directory (or delete the stale journal).
    PlanMismatch,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(msg) => write!(f, "campaign journal io error: {msg}"),
            WalError::PlanMismatch => {
                write!(f, "campaign journal belongs to a different plan")
            }
        }
    }
}

impl std::error::Error for WalError {}

/// Why a watched run failed (the payload of a [`WalRecord::Failed`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RunFailure {
    /// The run exceeded its wall-clock budget and was abandoned.
    TimedOut {
        /// The budget that was exceeded, in seconds.
        budget_secs: f64,
    },
    /// The run panicked and was quarantined.
    Panicked {
        /// The panic payload, rendered to a string.
        message: String,
    },
}

/// One record of the campaign write-ahead journal.
///
/// `Finished` dwarfs the other variants (it carries a full report),
/// but records are transient I/O values — encoded and dropped — so
/// boxing would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WalRecord {
    /// First record of every journal: fingerprint of the serialized
    /// plan, so a stale journal cannot be replayed against the wrong
    /// campaign.
    Header {
        /// FNV-1a over the binary-encoded plan.
        fingerprint: u64,
    },
    /// A run finished; its report is final and a resume replays it
    /// instead of re-executing.
    Finished {
        /// Plan-order run index.
        index: u64,
        /// The run's extracted report.
        report: Grid3Report,
        /// Per-center profile stats, when the run was profiled.
        profile: Option<Vec<CenterStats>>,
    },
    /// A run failed (timeout or panic). Recorded for the post-mortem
    /// trail; a resume re-executes the run.
    Failed {
        /// Plan-order run index.
        index: u64,
        /// The typed reason.
        failure: RunFailure,
    },
}

/// The append-only campaign journal: length-framed, checksummed
/// records in the snapshot module's binary value encoding
/// (`[u32 len][u64 FNV-1a][payload]`, all little-endian).
pub struct CampaignJournal {
    path: PathBuf,
    file: std::fs::File,
}

/// Scan the longest valid record prefix of `bytes`: stops at the first
/// frame that is torn (header or payload extends past the end), fails
/// its checksum, or does not decode — everything before it is intact
/// by construction (appends are strictly sequential).
fn scan(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut pos = 0;
    let mut records = Vec::new();
    while bytes.len() - pos >= 12 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let want = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let Some(end) = pos.checked_add(12).and_then(|s| s.checked_add(len)) else {
            break;
        };
        if end > bytes.len() {
            break;
        }
        let payload = &bytes[pos + 12..end];
        if fnv1a64(payload) != want {
            break;
        }
        let mut vpos = 0;
        let Ok(value) = decode_value(payload, &mut vpos) else {
            break;
        };
        if vpos != payload.len() {
            break;
        }
        let Ok(rec) = WalRecord::from_value(&value) else {
            break;
        };
        records.push(rec);
        pos = end;
    }
    (records, pos)
}

impl CampaignJournal {
    /// Open (or create) the journal at `path` for the plan with the
    /// given fingerprint.
    ///
    /// Returns the journal positioned for appending plus the valid
    /// records recovered, header excluded. A torn or corrupt tail is
    /// truncated off the file — torn-write tolerance: the partial
    /// record's run is simply not in the returned set and re-executes.
    /// A journal whose header names a different plan is refused with
    /// [`WalError::PlanMismatch`].
    pub fn open(path: &Path, fingerprint: u64) -> Result<(Self, Vec<WalRecord>), WalError> {
        let io = |e: std::io::Error| WalError::Io(format!("{}: {e}", path.display()));
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io(e)),
        };
        let (mut records, valid_len) = scan(&bytes);
        let fresh = records.is_empty();
        if !fresh {
            match &records[0] {
                WalRecord::Header { fingerprint: f } if *f == fingerprint => {}
                _ => return Err(WalError::PlanMismatch),
            }
            records.remove(0);
        }
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(io)?;
        file.set_len(valid_len as u64).map_err(io)?;
        file.seek(std::io::SeekFrom::End(0)).map_err(io)?;
        let mut journal = CampaignJournal {
            path: path.to_path_buf(),
            file,
        };
        if fresh {
            journal.append(&WalRecord::Header { fingerprint })?;
        }
        Ok((journal, records))
    }

    /// Append one record and sync it to disk — the record is durable
    /// before the caller merges the run it describes (write-ahead).
    pub fn append(&mut self, rec: &WalRecord) -> Result<(), WalError> {
        let io = |e: std::io::Error| WalError::Io(format!("{}: {e}", self.path.display()));
        self.file.write_all(&frame(rec)).map_err(io)?;
        self.file.sync_data().map_err(io)
    }
}

/// One journal frame: the record encoded after a 12-byte header that is
/// patched in place once the payload's length and checksum are known.
fn frame(rec: &WalRecord) -> Vec<u8> {
    let mut frame = vec![0; 12];
    encode(rec, &mut frame);
    let payload = &frame[12..];
    let (len, sum) = (payload.len() as u32, fnv1a64(payload));
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame[4..12].copy_from_slice(&sum.to_le_bytes());
    frame
}

/// FNV-1a over the binary-encoded plan: the journal's identity check.
pub fn plan_fingerprint(plan: &CampaignPlan) -> u64 {
    let mut bytes = Vec::new();
    encode(plan, &mut bytes);
    fnv1a64(&bytes)
}

/// Options for [`run_campaign_resumable`].
#[derive(Debug, Clone)]
pub struct ResumableOptions {
    /// Directory holding the journal (`campaign.wal`) and per-run
    /// checkpoint snapshots (`run-NNNN.snap`). Created if absent; point
    /// a resume at the same directory.
    pub dir: PathBuf,
    /// Simulated time between mid-run checkpoint snapshots. `None`
    /// disables checkpointing (runs still journal on completion).
    pub checkpoint_every: Option<SimDuration>,
    /// Wall-clock budget per run, enforced by the watchdog. `None`
    /// disables the watchdog (runs may take arbitrarily long).
    pub run_budget: Option<Duration>,
}

impl ResumableOptions {
    /// Options with journaling only: no checkpoints, no watchdog.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResumableOptions {
            dir: dir.into(),
            checkpoint_every: None,
            run_budget: None,
        }
    }

    /// Checkpoint each run's engine every `every` of simulated time.
    pub fn with_checkpoint_every(mut self, every: SimDuration) -> Self {
        self.checkpoint_every = Some(every);
        self
    }

    /// Abandon any run that exceeds `budget` of wall-clock time.
    pub fn with_run_budget(mut self, budget: Duration) -> Self {
        self.run_budget = Some(budget);
        self
    }
}

/// A failed run in a [`ResumableOutcome`].
#[derive(Debug, Clone)]
pub struct FailedRun {
    /// Plan-order run index.
    pub index: usize,
    /// The run's variant label.
    pub variant: String,
    /// The run's seed.
    pub seed: u64,
    /// The typed reason.
    pub failure: RunFailure,
    /// The run's latest checkpoint snapshot, retained on disk for
    /// post-mortem inspection (`None` if the run never checkpointed).
    pub snapshot: Option<PathBuf>,
}

/// Outcome of a resumable campaign.
#[derive(Debug, Clone)]
pub struct ResumableOutcome {
    /// The merged outcome over the completed runs. With failures the
    /// bands are partial (each variant's `seeds` names the runs that
    /// actually merged); with none this is byte-identical to
    /// [`run_campaign_serial`](super::run_campaign_serial).
    pub outcome: CampaignOutcome,
    /// Failed runs, in plan order.
    pub failures: Vec<FailedRun>,
    /// Runs replayed from the journal instead of re-executed.
    pub replayed: usize,
    /// Runs warm-started from a checkpoint snapshot.
    pub warm_started: usize,
}

/// Render a panic payload the way the default hook would.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Run `job` on a watchdog thread: panics are quarantined to a typed
/// failure, and with a budget set, a job that outlives it is abandoned
/// (the thread cannot be killed; it is detached and its eventual result
/// discarded).
fn watchdog<T, F>(budget: Option<Duration>, job: F) -> Result<T, RunFailure>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::Builder::new()
        .name("campaign-run".into())
        .spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            let _ = tx.send(result.map_err(|p| panic_message(p.as_ref())));
        })
        .expect("spawn campaign run worker");
    let received = match budget {
        Some(b) => match rx.recv_timeout(b) {
            Ok(r) => r,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                drop(handle);
                return Err(RunFailure::TimedOut {
                    budget_secs: b.as_secs_f64(),
                });
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                Err("run worker vanished without a result".to_string())
            }
        },
        None => rx
            .recv()
            .unwrap_or_else(|_| Err("run worker vanished without a result".to_string())),
    };
    let _ = handle.join();
    received.map_err(|message| RunFailure::Panicked { message })
}

/// True when `snap` was taken under exactly this configuration (binary
/// value-encoding equality), so warm-starting from it is sound.
fn snapshot_matches(snap: &EngineSnapshot, cfg: &ScenarioConfig) -> bool {
    let mut a = Vec::new();
    let mut b = Vec::new();
    encode(snap.scenario(), &mut a);
    encode(cfg, &mut b);
    a == b
}

/// Execute one run, warm-starting from `warm_bytes` when it parses to a
/// snapshot of this exact configuration, checkpointing every `every` of
/// simulated time. Returns the report, the profile (if profiled), and
/// whether the run warm-started.
fn run_checkpointed(
    cfg: ScenarioConfig,
    warm_bytes: Option<Vec<u8>>,
    snap_path: &Path,
    every: Option<SimDuration>,
) -> (Grid3Report, Option<CostProfiler>, bool) {
    let horizon = cfg.horizon();
    let mut warm = false;
    let mut engine = match warm_bytes.and_then(|b| EngineSnapshot::from_bytes(&b).ok()) {
        Some(snap) if snapshot_matches(&snap, &cfg) => {
            warm = true;
            Grid3Engine::restore(snap)
        }
        // Unreadable, corrupt, or mismatched snapshots degrade to a
        // cold start — never to a wrong result.
        _ => Grid3Engine::new(cfg),
    };
    if let Some(every) = every {
        let mut cut = engine.now() + every;
        while cut < horizon {
            engine.run_until(cut);
            // A checkpoint that fails to write must not kill the run;
            // the campaign just loses warm-start granularity.
            let _ = engine.snapshot().write_to(snap_path);
            cut += every;
        }
    }
    engine.run();
    let report = Grid3Report::extract(&engine);
    let profile = engine.take_profiler();
    (report, profile, warm)
}

/// Run the plan crash-safely: journal every outcome before merging,
/// checkpoint long runs, quarantine hung or panicking runs, and — when
/// `opts.dir` already holds a journal from an interrupted invocation of
/// the *same* plan — resume: finished runs replay from the journal,
/// interrupted ones warm-start from their latest checkpoint, failed
/// ones re-execute. See the module docs for the full contract.
pub fn run_campaign_resumable(
    plan: &CampaignPlan,
    opts: &ResumableOptions,
) -> Result<ResumableOutcome, WalError> {
    std::fs::create_dir_all(&opts.dir)
        .map_err(|e| WalError::Io(format!("{}: {e}", opts.dir.display())))?;
    let (mut journal, records) =
        CampaignJournal::open(&opts.dir.join("campaign.wal"), plan_fingerprint(plan))?;
    let runs = plan.runs();
    let n = runs.len();
    let mut slots: Vec<Option<(Grid3Report, Option<CostProfiler>)>> =
        (0..n).map(|_| None).collect();
    let mut replayed = 0usize;
    for rec in records {
        if let WalRecord::Finished {
            index,
            report,
            profile,
        } = rec
        {
            let i = index as usize;
            if i < n && slots[i].is_none() {
                let profile =
                    profile.map(|s| CostProfiler::from_stats(&crate::subsystems::COST_CENTERS, s));
                slots[i] = Some((report, profile));
                replayed += 1;
            }
        }
    }
    let mut failures: Vec<FailedRun> = Vec::new();
    let mut warm_started = 0usize;
    for (i, (vi, seed, cfg)) in runs.iter().enumerate() {
        if slots[i].is_some() {
            continue;
        }
        let snap_path = opts.dir.join(format!("run-{i:04}.snap"));
        let warm_bytes = std::fs::read(&snap_path).ok();
        let cfg = cfg.clone();
        let every = opts.checkpoint_every;
        let worker_path = snap_path.clone();
        let result = watchdog(opts.run_budget, move || {
            run_checkpointed(cfg, warm_bytes, &worker_path, every)
        });
        match result {
            Ok((report, profile, warm)) => {
                if warm {
                    warm_started += 1;
                }
                journal.append(&WalRecord::Finished {
                    index: i as u64,
                    report: report.clone(),
                    profile: profile.as_ref().map(|p| p.stats().to_vec()),
                })?;
                // The run is durable in the journal; its checkpoint is
                // now redundant.
                std::fs::remove_file(&snap_path).ok();
                slots[i] = Some((report, profile));
            }
            Err(failure) => {
                journal.append(&WalRecord::Failed {
                    index: i as u64,
                    failure: failure.clone(),
                })?;
                failures.push(FailedRun {
                    index: i,
                    variant: plan.variants[*vi].name.clone(),
                    seed: *seed,
                    failure,
                    snapshot: snap_path.exists().then_some(snap_path),
                });
            }
        }
    }
    Ok(ResumableOutcome {
        outcome: merge_partial(plan, slots),
        failures,
        replayed,
        warm_started,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_passes_results_through() {
        assert_eq!(watchdog(None, || 41 + 1), Ok(42));
        assert_eq!(
            watchdog(Some(Duration::from_secs(30)), || "ok".to_string()),
            Ok("ok".to_string())
        );
    }

    #[test]
    fn watchdog_quarantines_panics() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result: Result<(), RunFailure> = watchdog(None, || panic!("boom at t={}", 7));
        std::panic::set_hook(prev);
        assert_eq!(
            result,
            Err(RunFailure::Panicked {
                message: "boom at t=7".to_string()
            })
        );
    }

    #[test]
    fn watchdog_abandons_over_budget_runs() {
        let result: Result<(), RunFailure> = watchdog(Some(Duration::from_millis(20)), || {
            std::thread::sleep(Duration::from_secs(2));
        });
        assert!(
            matches!(result, Err(RunFailure::TimedOut { budget_secs }) if budget_secs > 0.0),
            "{result:?}"
        );
    }

    #[test]
    fn journal_rejects_a_different_plans_journal() {
        let dir = std::env::temp_dir().join(format!("grid3-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("campaign.wal");
        let (journal, recovered) = CampaignJournal::open(&path, 0xAAAA).expect("fresh journal");
        drop(journal);
        assert!(recovered.is_empty());
        assert!(matches!(
            CampaignJournal::open(&path, 0xBBBB),
            Err(WalError::PlanMismatch)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_frames_and_plan_fingerprint_match_the_tree_oracle() {
        use crate::snapshot::encode_value;
        let cfg = ScenarioConfig::sc2003()
            .with_scale(0.004)
            .with_days(2)
            .with_demo(false);
        let plan = CampaignPlan::single("base", cfg.clone(), vec![1, 2])
            .with_variant("srm", cfg.clone().with_srm(true));
        let mut oracle = Vec::new();
        encode_value(&plan.to_value(), &mut oracle);
        assert_eq!(plan_fingerprint(&plan), fnv1a64(&oracle));
        assert_eq!(plan_fingerprint(&plan), 0x4bb53f3ced6dee5c);

        let mut engine = Grid3Engine::new(cfg.with_profile(true));
        engine.run();
        let records = [
            WalRecord::Header {
                fingerprint: plan_fingerprint(&plan),
            },
            WalRecord::Finished {
                index: 3,
                report: Grid3Report::extract(&engine),
                profile: engine.take_profiler().map(|p| p.stats().to_vec()),
            },
            WalRecord::Failed {
                index: 1,
                failure: RunFailure::TimedOut { budget_secs: 0.25 },
            },
            WalRecord::Failed {
                index: 2,
                failure: RunFailure::Panicked {
                    message: "boom".to_string(),
                },
            },
        ];
        for (i, rec) in records.iter().enumerate() {
            let mut payload = Vec::new();
            encode_value(&rec.to_value(), &mut payload);
            let mut want = (payload.len() as u32).to_le_bytes().to_vec();
            want.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
            want.extend_from_slice(&payload);
            assert!(frame(rec) == want, "record {i}: frame differs");
        }
        // The profile's wall times vary run to run; with them zeroed the
        // journal's frames are fixed bytes, pinned independently of both
        // encoders.
        let mut journal = Vec::new();
        for rec in records {
            let rec = match rec {
                WalRecord::Finished {
                    index,
                    report,
                    profile,
                } => WalRecord::Finished {
                    index,
                    report,
                    profile: profile.map(|stats| {
                        stats
                            .into_iter()
                            .map(|s| CenterStats {
                                total_ns: 0,
                                hist: [0; grid3_simkit::profiler::LOG2_BUCKETS],
                                ..s
                            })
                            .collect()
                    }),
                },
                other => other,
            };
            journal.extend_from_slice(&frame(&rec));
        }
        assert_eq!(
            (journal.len(), fnv1a64(&journal)),
            (21535, 0x512a9a01762bc1e4)
        );
    }

    /// A checkpoint that nests a million levels deep, with a valid
    /// checksum (FNV is not a MAC), must not abort the resume: the run
    /// cold-starts and the campaign matches the plain sweep.
    #[test]
    fn a_too_deep_checkpoint_degrades_to_a_cold_start() {
        let cfg = ScenarioConfig::sc2003()
            .with_scale(0.004)
            .with_days(3)
            .with_demo(false);
        let plan = CampaignPlan::single("base", cfg, vec![1, 2]);
        let dir = std::env::temp_dir().join(format!("grid3-deep-snap-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(
            dir.join("run-0000.snap"),
            crate::snapshot::nested_file(1_000_000),
        )
        .expect("write hostile checkpoint");
        let resumed = run_campaign_resumable(&plan, &ResumableOptions::new(&dir)).expect("runs");
        std::fs::remove_dir_all(&dir).ok();
        assert!(resumed.failures.is_empty());
        assert_eq!(resumed.warm_started, 0);
        let json = |o: &CampaignOutcome| serde_json::to_string(&o.summary).expect("serializes");
        assert_eq!(
            json(&resumed.outcome),
            json(&super::super::run_campaign_serial(&plan))
        );
    }
}
