//! `campaign_resume`: a crash-safe sweep of the four sc2003-family
//! scenario files, then a resume of an interrupted copy of it.
//!
//! One repeat:
//! 1. **Sweep.** `plan_from_dir` loads the scenario files; the plan runs
//!    under `run_campaign_resumable` with periodic checkpoints.
//! 2. **Interrupt.** A second directory is made to look like a campaign
//!    killed mid-way, with the public calls a crash leaves behind: a
//!    journal holding the first half of the runs (`CampaignJournal::
//!    append`) and a mid-run checkpoint of the next run
//!    (`EngineSnapshot::write_to`).
//! 3. **Resume.** `run_campaign_resumable` on that directory; its merged
//!    summary must be byte-identical to the sweep's.

use std::path::{Path, PathBuf};
use std::time::Instant;

use grid3_core::campaign::{
    plan_fingerprint, plan_from_dir, run_campaign_resumable, run_campaign_serial, CampaignJournal,
    CampaignOutcome, CampaignPlan, ResumableOptions, ResumableOutcome, WalRecord,
};
use grid3_core::scenario::ScenarioConfig;
use grid3_core::{EngineSnapshot, Grid3Engine};
use grid3_simkit::time::{SimDuration, SimTime};

use crate::manifest::fnv1a64;
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::window::{self, Layers};
use crate::{another_repeat, guarded, json, peak_rss_mb, probes, single, Ctx, MAX_WALL_GAP_PCT};

/// The scenario files swept, from the repository's `scenarios/`.
const SCENARIOS: [&str; 4] = [
    "sc2003",
    "sc2003_chaos",
    "sc2003_federated",
    "sc2003_operated",
];
/// Workload scale the scenario files are rewritten to.
const SCALE: f64 = 0.05;
/// Seeds per scenario: `seed`, `seed + 1`, ….
const SEEDS: u64 = 2;
/// Simulated days between checkpoints.
const CHECKPOINT_DAYS: u64 = 5;
/// Simulated day the interrupted run's checkpoint is taken at.
const CUT_DAY: u64 = 15;
/// `plan_from_dir` calls timed per repeat for the set-up median. One call
/// is ~0.5 ms of JSON parsing and DSL decoding, too short to time once.
const SETUP_SAMPLES: usize = 10;
/// Extra timings per repeat of the interrupted run's loop to its cut day,
/// beside the one inside the workload. That loop takes ~25 ms, and single
/// timings of it varied threefold within one process.
const LOOP_SAMPLES: usize = 3;

fn options(dir: &Path) -> ResumableOptions {
    ResumableOptions::new(dir).with_checkpoint_every(SimDuration::from_days(CHECKPOINT_DAYS))
}

fn summary_json(outcome: &CampaignOutcome) -> String {
    serde_json::to_string(&outcome.summary).expect("campaign summary serializes")
}

/// The plan's `index`-th run: variants outermost, seeds innermost.
fn run_config(plan: &CampaignPlan, index: usize) -> ScenarioConfig {
    let n = plan.seeds.len();
    plan.variants[index / n]
        .cfg
        .clone()
        .with_seed(plan.seeds[index % n])
}

/// Write the scenario files, rescaled, into `dir` through the DSL's own
/// loader and exporter.
fn stage_scenarios(root: &Path, dir: &Path) -> Result<Vec<ScenarioConfig>, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut staged = Vec::new();
    for name in SCENARIOS {
        let source = root.join("scenarios").join(format!("{name}.json"));
        let cfg = grid3_core::dsl::load_config(&source)
            .map_err(|e| format!("{}: {e}", source.display()))?
            .with_scale(SCALE);
        std::fs::write(
            dir.join(format!("{name}.json")),
            grid3_core::dsl::export_config(&cfg),
        )
        .map_err(|e| e.to_string())?;
        staged.push(cfg);
    }
    Ok(staged)
}

/// What one repeat measured and produced.
struct Repeat {
    setup_s: Vec<f64>,
    wall_s: f64,
    sweep_s: f64,
    resume_s: f64,
    prefix_events: u64,
    /// Events per second of each timing of the interrupted run's loop.
    prefix_rates: Vec<f64>,
    plan: CampaignPlan,
    sweep: ResumableOutcome,
    resumed: ResumableOutcome,
    summary_hash: u64,
    append_s: Vec<f64>,
    capture_s: f64,
    snapshot: EngineSnapshot,
    wal_bytes: u64,
}

fn repeat(
    plan_dir: &Path,
    seeds: &[u64],
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Repeat, String> {
    let mut setup_s = Vec::with_capacity(SETUP_SAMPLES);
    let mut plan = None;
    for _ in 0..SETUP_SAMPLES {
        let t = Instant::now();
        plan = Some(plan_from_dir(plan_dir, seeds.to_vec()).map_err(|e| e.to_string())?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut prefix_rates = Vec::with_capacity(LOOP_SAMPLES + 1);
    if let Some(plan) = plan {
        for _ in 0..LOOP_SAMPLES {
            let mut engine = Grid3Engine::new(run_config(&plan, plan.len() / 2));
            let t = Instant::now();
            engine.run_until(SimTime::from_days(CUT_DAY));
            prefix_rates.push(engine.events_processed() as f64 / t.elapsed().as_secs_f64());
        }
    }
    let sweep_dir = dir.join("sweep");
    let resume_dir = dir.join("resume");

    let root = tracer.begin("campaign");
    let (plan, _) = tracer.time("dsl.plan_from_dir", || {
        plan_from_dir(plan_dir, seeds.to_vec())
    });
    let plan = plan.map_err(|e| e.to_string())?;
    let (sweep, sweep_s) = tracer.time("campaign.sweep", || {
        run_campaign_resumable(&plan, &options(&sweep_dir))
    });
    let sweep = sweep.map_err(|e| e.to_string())?;

    let interrupt = tracer.begin("campaign.interrupt");
    std::fs::create_dir_all(&resume_dir).map_err(|e| e.to_string())?;
    let half = plan.len() / 2;
    let cfg = run_config(&plan, half);
    let (mut engine, _) = tracer.time("assembly", || Grid3Engine::new(cfg));
    let (_, prefix_loop_s) = tracer.time("loop", || engine.run_until(SimTime::from_days(CUT_DAY)));
    let prefix_events = engine.events_processed();
    prefix_rates.push(prefix_events as f64 / prefix_loop_s);
    let (snapshot, capture_s) = tracer.time("snapshot.capture", || engine.snapshot());
    let (written, _) = tracer.time("snapshot.write_to", || {
        snapshot.write_to(&resume_dir.join(format!("run-{half:04}.snap")))
    });
    written.map_err(|e| e.to_string())?;
    drop(engine);
    let (opened, _) = tracer.time("wal.open", || {
        CampaignJournal::open(&resume_dir.join("campaign.wal"), plan_fingerprint(&plan))
    });
    let (mut journal, _) = opened.map_err(|e| e.to_string())?;
    let mut append_s = Vec::with_capacity(half);
    for index in 0..half {
        let record = WalRecord::Finished {
            index: index as u64,
            report: sweep.outcome.reports[index / seeds.len()][index % seeds.len()].clone(),
            profile: None,
        };
        let (appended, s) = tracer.time("wal.append", || journal.append(&record));
        appended.map_err(|e| e.to_string())?;
        append_s.push(s);
    }
    drop(journal);
    tracer.end(interrupt);

    let (resumed, resume_s) = tracer.time("campaign.resume", || {
        run_campaign_resumable(&plan, &options(&resume_dir))
    });
    let resumed = resumed.map_err(|e| e.to_string())?;
    let wall_s = tracer.end(root);

    let wal_bytes = std::fs::metadata(sweep_dir.join("campaign.wal")).map_or(0, |m| m.len());
    let summary = summary_json(&sweep.outcome);
    if summary_json(&resumed.outcome) != summary {
        return Err("resumed summary differs from the uninterrupted sweep's".to_string());
    }
    Ok(Repeat {
        setup_s,
        wall_s,
        sweep_s,
        resume_s,
        prefix_events,
        prefix_rates,
        summary_hash: fnv1a64(summary.as_bytes()),
        plan,
        sweep,
        resumed,
        append_s,
        capture_s,
        snapshot,
        wal_bytes,
    })
}

/// Check one repeat's outcomes into the ledger: every sweep run and
/// every resumed run is an operation, plus the merged summary.
fn check(ctx: &mut Ctx, rep: &Repeat, first: Option<&Repeat>) {
    let n = rep.plan.len() as u64;
    let half = rep.plan.len() / 2;
    let sweep = &rep.sweep;
    ctx.ledger.ops(
        n,
        sweep.failures.len() as u64,
        "sweep runs failed (watchdog or panic)",
    );
    let resumed = &rep.resumed;
    ctx.ledger.ops(
        n,
        resumed.failures.len() as u64,
        "resumed runs failed (watchdog or panic)",
    );
    let shape = sweep.replayed == 0
        && sweep.warm_started == 0
        && resumed.replayed == half
        && resumed.warm_started == 1;
    let same = first
        .is_none_or(|f| f.summary_hash == rep.summary_hash && f.prefix_events == rep.prefix_events);
    ctx.ledger.op(
        shape && same,
        "campaign replay/warm-start counts or merged summary differ",
    );
}

pub fn measure(ctx: &mut Ctx) {
    let plan_dir = ctx.work.join("scenarios");
    let staged = match stage_scenarios(&ctx.root, &plan_dir) {
        Ok(s) => s,
        Err(e) => {
            ctx.ledger
                .op(false, &format!("staging scenario files: {e}"));
            return;
        }
    };
    let seeds: Vec<u64> = (0..SEEDS).map(|i| ctx.seed.wrapping_add(i)).collect();
    let described: Vec<String> = SCENARIOS
        .iter()
        .zip(&staged)
        .map(|(n, c)| single::describe(n, c))
        .collect();
    ctx.inputs
        .push(("scenarios", format!("[{}]", described.join(","))));
    ctx.inputs.push((
        "seeds",
        format!(
            "[{}]",
            seeds
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        ),
    ));
    ctx.inputs
        .push(("checkpoint_every_days", CHECKPOINT_DAYS.to_string()));
    ctx.inputs.push(("interrupt_at_day", CUT_DAY.to_string()));

    let mut repeats: Vec<Repeat> = Vec::new();
    let mut durations = Vec::new();
    let start = Instant::now();
    while another_repeat(start, &durations, ctx.seconds) {
        let began = Instant::now();
        let dir = ctx.work.join(format!("rep-{}", repeats.len()));
        let mut tracer = Tracer::new(false, "");
        let outcome = guarded(|| repeat(&plan_dir, &seeds, &dir, &mut tracer));
        std::fs::remove_dir_all(&dir).ok();
        match outcome {
            Some(Ok(rep)) => {
                if repeats.is_empty() {
                    ctx.peak_rss_mb = peak_rss_mb();
                }
                check(ctx, &rep, repeats.first());
                repeats.push(rep);
            }
            Some(Err(e)) => {
                ctx.ledger.op(false, &format!("campaign repeat: {e}"));
                break;
            }
            None => {
                ctx.ledger.op(false, "campaign repeat panicked");
                break;
            }
        }
        durations.push(began.elapsed().as_secs_f64());
    }
    let Some(first) = repeats.first() else {
        return;
    };
    ctx.inputs.push((
        "plan_fingerprint",
        json::string(&format!("0x{:016x}", plan_fingerprint(&first.plan))),
    ));

    let walls: Vec<f64> = repeats.iter().map(|r| r.wall_s).collect();
    let wall = Summary::of(&walls);
    crate::log_walls("campaign_resume", &walls);
    let setup: Vec<f64> = repeats.iter().flat_map(|r| r.setup_s.clone()).collect();
    let median_of =
        |f: &dyn Fn(&Repeat) -> f64| stats::median(&repeats.iter().map(f).collect::<Vec<f64>>());
    if !ctx.traced {
        let runs = first.plan.len() as f64;
        let m = &mut ctx.metrics;
        m.set("setup_s", stats::median(&setup));
        m.set("wall_s", wall.median);
        let rates: Vec<f64> = repeats
            .iter()
            .flat_map(|r| r.prefix_rates.clone())
            .collect();
        m.set("events_per_s", stats::median(&rates));
        m.set("runs_per_s", median_of(&|r| runs / r.sweep_s));
        m.set("resume_s", median_of(&|r| r.resume_s));
        return;
    }
    traced(ctx, &plan_dir, &seeds, first, &wall, &setup);
}

/// The traced repeat and the probes that follow it.
fn traced(
    ctx: &mut Ctx,
    plan_dir: &Path,
    seeds: &[u64],
    first: &Repeat,
    baseline: &Summary,
    setup: &[f64],
) {
    let dir: PathBuf = ctx.work.join("traced");
    let run_id = format!("campaign_resume-seed{}-traced", ctx.seed);
    let mut tracer = Tracer::new(true, run_id);
    let rep = match guarded(|| repeat(plan_dir, seeds, &dir, &mut tracer)) {
        Some(Ok(rep)) => rep,
        other => {
            let why = other.map_or("panicked".to_string(), |r| r.err().unwrap_or_default());
            ctx.ledger
                .op(false, &format!("traced campaign repeat: {why}"));
            return;
        }
    };
    check(ctx, &rep, Some(first));

    let m = &mut ctx.metrics;
    // The workload's own spans must account for its wall time.
    let rollup = tracer.rollup();
    let children: f64 = [
        "dsl.plan_from_dir",
        "campaign.sweep",
        "campaign.interrupt",
        "campaign.resume",
    ]
    .iter()
    .map(|name| rollup.get(name).map_or(0.0, |r| r.1))
    .sum();
    let gap_pct = 100.0 * (rep.wall_s - children) / rep.wall_s;
    m.set("balance.wall_gap_pct", gap_pct);
    m.set(
        "trace.overhead_pct",
        100.0 * (rep.wall_s / baseline.median - 1.0),
    );
    m.set("trace.baseline_spread_pct", 100.0 * baseline.spread());
    m.set("trace.baseline_repeats", baseline.n as f64);
    m.set("bench.repeats", baseline.n as f64);
    m.set("bench.setup_samples", setup.len() as f64);
    m.set("dsl.load_ms", stats::median(setup) * 1e3);
    m.set("dsl.files", rep.plan.variants.len() as f64);
    m.set("campaign.runs", rep.plan.len() as f64);
    m.set("campaign.replayed", rep.resumed.replayed as f64);
    m.set("campaign.warm_started", rep.resumed.warm_started as f64);
    m.set(
        "campaign.failures",
        (rep.sweep.failures.len() + rep.resumed.failures.len()) as f64,
    );
    m.set("wal.append_ms", stats::median(&rep.append_s) * 1e3);
    m.set("wal.bytes", rep.wal_bytes as f64);
    m.set("snapshot.capture_ms", rep.capture_s * 1e3);

    // Probes, outside the workload's span.
    let t = Instant::now();
    let serial = run_campaign_serial(&rep.plan);
    let serial_s = t.elapsed().as_secs_f64();
    let sweep_s = rollup["campaign.sweep"].1;
    m.set("campaign.checkpoint_overhead", sweep_s / serial_s);
    ctx.ledger.op(
        summary_json(&serial) == summary_json(&rep.sweep.outcome),
        "checkpointed sweep differs from run_campaign_serial",
    );
    // The interrupted run's report, as the uninterrupted sweep made it.
    let half = rep.plan.len() / 2;
    let want = fnv1a64(
        rep.sweep.outcome.reports[half / seeds.len()][half % seeds.len()]
            .to_json()
            .as_bytes(),
    );
    std::fs::create_dir_all(&dir).ok();
    let restored = probes::snapshot(&rep.snapshot, want, &dir, &mut tracer, m);
    ctx.ledger.op(
        restored,
        "run restored from the checkpoint differs from the sweep's",
    );

    // The single-run layers, on a profiled re-run of the interrupted run.
    let cfg = run_config(&rep.plan, half).with_profile(true);
    let mut layers = Layers::default();
    let span = tracer.begin("probe.run");
    let Some((run, engine)) = guarded(|| window::run(&cfg, &mut tracer, Some(&mut layers))) else {
        ctx.ledger.op(false, "profiled re-run panicked");
        return;
    };
    tracer.end(span);
    ctx.ledger.op(
        run.hash == want,
        "profiled re-run differs from the sweep's report",
    );
    let (run_gap_pct, loop_balanced) = layers.emit(m);
    ctx.ledger.op(
        gap_pct.abs() <= MAX_WALL_GAP_PCT && run_gap_pct.abs() <= MAX_WALL_GAP_PCT && loop_balanced,
        "traced layers do not add up to the workload",
    );
    probes::broker(&engine, ctx.seed, &mut tracer, m);
    std::fs::remove_dir_all(&dir).ok();
    ctx.trace_json = Some(probes::trace_document(&tracer, layers.profile.as_ref()));
}
