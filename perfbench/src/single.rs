//! `scale_out` and `paper_windows`: whole simulation runs, assembly
//! through report JSON, repeated for the measuring budget.

use std::time::Instant;

use grid3_core::scenario::ScenarioConfig;

use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::window::{self, Layers};
use crate::{another_repeat, guarded, json, peak_rss_mb, probes, Ctx, Workload, MAX_WALL_GAP_PCT};

/// The runs one repeat of the workload makes, by name.
fn windows(workload: Workload, seed: u64) -> Vec<(&'static str, ScenarioConfig)> {
    match workload {
        Workload::ScaleOut => vec![("scale_out", ScenarioConfig::scale_out().with_seed(seed))],
        Workload::PaperWindows => vec![
            ("sc2003", ScenarioConfig::sc2003().with_seed(seed)),
            (
                "cms_production",
                ScenarioConfig::cms_production().with_seed(seed),
            ),
            (
                "seven_months",
                ScenarioConfig::seven_months().with_seed(seed),
            ),
        ],
        Workload::CampaignResume => unreachable!("campaign_resume is not a single-run workload"),
    }
}

/// The manifest entry of a scenario: the parameters that size the run
/// (seeds are listed beside it).
pub fn describe(name: &str, cfg: &ScenarioConfig) -> String {
    json::object([
        ("name", json::string(name)),
        ("days", cfg.days.to_string()),
        ("scale", json::number(cfg.scale)),
        ("site_replicas", cfg.site_replicas.to_string()),
        ("demo", cfg.include_demo.to_string()),
    ])
}

/// One repeat, summed over its runs.
#[derive(Debug, Default)]
struct Repeat {
    assembly_s: f64,
    loop_s: f64,
    wall_s: f64,
    events: u64,
    /// `(report hash, events)` per run, to hold every repeat to the first.
    outputs: Vec<(u64, u64)>,
}

pub fn measure(ctx: &mut Ctx, workload: Workload) {
    let windows = windows(workload, ctx.seed);
    let described: Vec<String> = windows.iter().map(|(n, c)| describe(n, c)).collect();
    ctx.inputs
        .push(("scenarios", format!("[{}]", described.join(","))));
    ctx.inputs.push(("seeds", format!("[{}]", ctx.seed)));

    let mut repeats: Vec<Repeat> = Vec::new();
    let mut durations = Vec::new();
    let start = Instant::now();
    while another_repeat(start, &durations, ctx.seconds) {
        let began = Instant::now();
        let mut tracer = Tracer::new(false, "");
        let mut rep = Repeat::default();
        for (name, cfg) in &windows {
            let Some((run, engine)) = guarded(|| window::run(cfg, &mut tracer, None)) else {
                ctx.ledger.op(false, &format!("{name}: run panicked"));
                break;
            };
            drop(engine);
            let same = repeats.first().is_none_or(|first| {
                first.outputs.get(rep.outputs.len()) == Some(&(run.hash, run.events))
            });
            ctx.ledger.op(
                same,
                &format!("{name}: report hash or event count differs from the first repeat"),
            );
            rep.assembly_s += run.assembly_s;
            rep.loop_s += run.loop_s;
            rep.wall_s += run.wall_s;
            rep.events += run.events;
            rep.outputs.push((run.hash, run.events));
        }
        if rep.outputs.len() < windows.len() {
            break;
        }
        if repeats.is_empty() {
            ctx.peak_rss_mb = peak_rss_mb();
        }
        repeats.push(rep);
        durations.push(began.elapsed().as_secs_f64());
    }
    if repeats.is_empty() {
        return;
    }

    let walls: Vec<f64> = repeats.iter().map(|r| r.wall_s).collect();
    let wall = Summary::of(&walls);
    crate::log_walls(workload.name(), &walls);
    let median_of =
        |f: &dyn Fn(&Repeat) -> f64| stats::median(&repeats.iter().map(f).collect::<Vec<f64>>());
    if !ctx.traced {
        let runs = windows.len() as f64;
        let m = &mut ctx.metrics;
        m.set("setup_s", median_of(&|r| r.assembly_s));
        m.set("wall_s", wall.median);
        m.set("events_per_s", median_of(&|r| r.events as f64 / r.loop_s));
        m.set("runs_per_s", median_of(&|r| runs / r.wall_s));
        // A single run keeps no journal or checkpoint: resuming it after
        // an interruption is a cold re-run, so its resume time is the
        // whole run's.
        m.set("resume_s", wall.median);
        return;
    }

    // The traced repeat: profiler on, loop sliced hourly, spans kept.
    let run_id = format!("{}-seed{}-traced", workload.name(), ctx.seed);
    let mut tracer = Tracer::new(true, run_id);
    let mut layers = Layers::default();
    let mut last_engine = None;
    let root = tracer.begin("workload");
    for (i, (name, cfg)) in windows.iter().enumerate() {
        let cfg = cfg.clone().with_profile(true);
        let Some((run, engine)) = guarded(|| window::run(&cfg, &mut tracer, Some(&mut layers)))
        else {
            ctx.ledger
                .op(false, &format!("{name}: traced run panicked"));
            return;
        };
        ctx.ledger.op(
            repeats[0].outputs[i] == (run.hash, run.events),
            &format!("{name}: traced run differs from the untraced runs"),
        );
        last_engine = Some(engine);
    }
    tracer.end(root);

    let m = &mut ctx.metrics;
    let (gap_pct, loop_balanced) = layers.emit(m);
    m.set("balance.wall_gap_pct", gap_pct);
    ctx.ledger.op(
        gap_pct.abs() <= MAX_WALL_GAP_PCT && loop_balanced,
        "traced layers do not add up to the workload",
    );
    let traced_wall: f64 = layers.runs.iter().map(|r| r.wall_s).sum();
    m.set(
        "trace.overhead_pct",
        100.0 * (traced_wall / wall.median - 1.0),
    );
    m.set("trace.baseline_spread_pct", 100.0 * wall.spread());
    m.set("trace.baseline_repeats", wall.n as f64);
    m.set("bench.repeats", wall.n as f64);
    m.set("bench.setup_samples", wall.n as f64);
    if let Some(engine) = last_engine {
        probes::broker(&engine, ctx.seed, &mut tracer, m);
    }
    ctx.trace_json = Some(probes::trace_document(&tracer, layers.profile.as_ref()));
}
