//! CI's in-run gates, in one custom-harness bench.
//!
//! Every gate compares two runs made in this process on this host, so
//! no bound depends on the machine. Absolute numbers are perfbench's
//! job (`BENCHMARK.json`).
//!
//! * **queue** — ladder vs heap on a synthetic pop-one/push-one churn
//!   at the pending depths sc2003 and `scale_out` reach: the ladder's
//!   ops/s must be at least the heap's. Whole-engine ladder/heap
//!   events/s ratios are recorded, and both backends must process the
//!   same event count.
//! * **federation** — an explicit one-grid `Vdt` federation on
//!   `scale_out` must process exactly the baseline's event count, at no
//!   less than half its events/s.
//! * **profiler** and **telemetry** — sc2003 (scale 0.05, seed 2003, no
//!   demo) with the observer off, then on: the reports must be
//!   identical. Every profiled dispatch must be attributed
//!   (`attributed == events_processed + fan-out`), and profiler
//!   overhead past its 10% budget prints a WARNING.
//! * **snapshot** — sc2003 (scale 0.02, seed 2003) finished warm from
//!   its day-15 checkpoint must give a report byte-identical to a cold
//!   run; the warm-start speedup is recorded.
//!
//! `cargo bench -p grid3-bench --bench gates -- --smoke` runs every gate
//! at CI depth and writes nothing. Without `--smoke` the queue and
//! federation gates run deeper, and `BENCH_gates.json` (the host plus
//! one row per ratio) is written at the repo root.

use grid3_core::federation::{Federation, GridSpec};
use grid3_core::scenario::{QueueKind, RunArtifacts, ScenarioConfig};
use grid3_core::{EngineSnapshot, Grid3Engine, Grid3Report};
use grid3_middleware::backend::BackendKind;
use grid3_simkit::engine::EventQueue;
use grid3_simkit::time::SimTime;
use serde_json::Value;
use std::time::Instant;

/// One measured ratio of two in-run timings.
struct Row {
    gate: &'static str,
    scenario: String,
    /// What the ratio divides, e.g. "ladder/heap ops per s".
    ratio_of: &'static str,
    ratio: f64,
    /// The bound the gate enforces; `None` when the ratio is only
    /// recorded.
    bound: Option<&'static str>,
}

impl Row {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("gate".into(), Value::Str(self.gate.into())),
            ("scenario".into(), Value::Str(self.scenario.clone())),
            ("ratio_of".into(), Value::Str(self.ratio_of.into())),
            ("ratio".into(), Value::F64((self.ratio * 1e3).round() / 1e3)),
            (
                "bound".into(),
                self.bound.map_or(Value::Null, |b| Value::Str(b.into())),
            ),
        ])
    }
}

/// Best-of-`reps` wall-clock seconds for `run`, with its last value.
fn timed<T>(reps: usize, mut run: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        last = Some(run());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, last.expect("reps >= 1"))
}

/// Best-of-`reps` seconds of `run()` on a freshly assembled engine
/// (assembly untimed), with the events it processed.
fn engine_secs(cfg: &ScenarioConfig, reps: usize) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut events = 0;
    for _ in 0..reps {
        let mut sim = Grid3Engine::new(cfg.clone());
        let t0 = Instant::now();
        sim.run();
        best = best.min(t0.elapsed().as_secs_f64());
        events = sim.events_processed();
    }
    (best, events)
}

/// SplitMix64: a deterministic stream of schedule offsets, identical
/// for both backends.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Steady-state churn: seed `depth` pending events, then pop-one /
/// push-one for `ops` rounds. Returns pop+push pairs per second. The
/// offset mix mirrors the simulation's: mostly near-future follow-ups,
/// a tail of far-future timers.
fn queue_replay(kind: QueueKind, depth: usize, ops: usize) -> f64 {
    let mut q: EventQueue<usize> = match kind {
        QueueKind::Ladder => EventQueue::new(),
        QueueKind::Heap => EventQueue::with_heap(),
    };
    let mut rng = 0x2436_1A58_21FE_D731u64;
    for i in 0..depth {
        q.schedule_at(SimTime::from_micros(splitmix(&mut rng) % 3_600_000_000), i);
    }
    let t0 = Instant::now();
    for i in 0..ops {
        let (now, _) = q.pop().expect("queue stays populated");
        let draw = splitmix(&mut rng);
        // 7/8 near follow-ups (≤ 1 h), 1/8 far timers (≤ 48 h).
        let offset = if draw.is_multiple_of(8) {
            draw % 172_800_000_000
        } else {
            draw % 3_600_000_000
        };
        q.schedule_at(SimTime::from_micros(now.as_micros() + offset), depth + i);
    }
    ops as f64 / t0.elapsed().as_secs_f64()
}

fn queue_gate(smoke: bool, rows: &mut Vec<Row>) {
    // sc2003 holds a few thousand pending events; the scale-out grid an
    // order of magnitude more.
    let (ops, depths) = if smoke {
        (200_000, [("sc2003", 4_000), ("scale_out", 40_000)])
    } else {
        (2_000_000, [("sc2003", 4_000), ("scale_out", 200_000)])
    };
    for (scenario, depth) in depths {
        eprintln!("[gates] queue replay {scenario} (depth {depth})…");
        let heap = queue_replay(QueueKind::Heap, depth, ops);
        let ladder = queue_replay(QueueKind::Ladder, depth, ops);
        let ratio = ladder / heap;
        assert!(
            ratio >= 1.0,
            "ladder lost to heap on {scenario} replay: {ratio:.3}x"
        );
        rows.push(Row {
            gate: "queue",
            scenario: format!("replay {scenario} depth={depth} ops={ops}"),
            ratio_of: "ladder/heap ops per s",
            ratio,
            bound: Some(">= 1.0"),
        });
    }

    // Whole-engine runs are too short at smoke depth to assert a
    // speedup without flaking; the ratio is recorded only.
    let (reps, sc2003) = if smoke {
        (
            1,
            (
                "sc2003 scale=0.01 days=6",
                ScenarioConfig::sc2003().with_scale(0.01).with_days(6),
            ),
        )
    } else {
        (
            2,
            ("sc2003 scale=0.2", ScenarioConfig::sc2003().with_scale(0.2)),
        )
    };
    for (scenario, cfg) in [sc2003, scale_out(smoke)] {
        eprintln!("[gates] engine {scenario}, heap then ladder…");
        let (heap, heap_events) = engine_secs(&cfg.clone().with_queue(QueueKind::Heap), reps);
        let (ladder, events) = engine_secs(&cfg.with_queue(QueueKind::Ladder), reps);
        assert_eq!(
            heap_events, events,
            "backends must process identical event counts"
        );
        rows.push(Row {
            gate: "queue",
            scenario: format!("engine {scenario} events={events}"),
            ratio_of: "ladder/heap events per s",
            ratio: heap / ladder,
            bound: None,
        });
    }
}

/// The stress grid at the depth both the queue and federation gates
/// run it, with its label.
fn scale_out(smoke: bool) -> (&'static str, ScenarioConfig) {
    if smoke {
        (
            "scale_out scale=0.1 days=4",
            ScenarioConfig::scale_out().with_scale(0.1).with_days(4),
        )
    } else {
        (
            "scale_out scale=2.0",
            ScenarioConfig::scale_out().with_scale(2.0),
        )
    }
}

fn federation_gate(smoke: bool, rows: &mut Vec<Row>) {
    let reps = if smoke { 1 } else { 2 };
    let (scenario, base) = scale_out(smoke);
    let one_grid = Federation::new(vec![GridSpec {
        name: "grid3".to_string(),
        backend: BackendKind::Vdt,
        sites: Vec::new(),
        admits: None,
    }]);
    eprintln!("[gates] federation: baseline, then one-grid…");
    let (base_secs, base_events) = engine_secs(&base, reps);
    let (fed_secs, fed_events) = engine_secs(&base.with_federation(one_grid), reps);
    // A degenerate one-grid federation is bit-identical to the
    // baseline. Throughput parity is asserted only loosely: CI machines
    // are noisy.
    assert_eq!(
        base_events, fed_events,
        "single-grid federation changed the event stream"
    );
    let ratio = base_secs / fed_secs;
    assert!(
        ratio >= 0.5,
        "GridId threading collapsed hot-path throughput: {ratio:.3}x"
    );
    rows.push(Row {
        gate: "federation",
        scenario: format!("{scenario} events={base_events}"),
        ratio_of: "single-grid/baseline events per s",
        ratio,
        bound: Some(">= 0.5"),
    });
}

/// Time sc2003 (scale 0.05, seed 2003, no demo) with one observer off,
/// then on, best of 3 `run_full`s each. The observer must leave the
/// report untouched. Returns the off and on seconds and the observed
/// run's artifacts.
fn observer_off_on(
    observer: fn(ScenarioConfig, bool) -> ScenarioConfig,
) -> (f64, f64, RunArtifacts) {
    let cfg = ScenarioConfig::sc2003()
        .with_scale(0.05)
        .with_seed(2003)
        .with_demo(false);
    let (off, plain) = timed(3, || observer(cfg.clone(), false).run_full());
    let (on, observed) = timed(3, || observer(cfg.clone(), true).run_full());
    assert_eq!(plain.events_processed, observed.events_processed);
    assert_eq!(
        plain.report.to_json(),
        observed.report.to_json(),
        "observer perturbed the report"
    );
    (off, on, observed)
}

const OBSERVED: &str = "sc2003 scale=0.05 seed=2003 no-demo";

fn profiler_gate(rows: &mut Vec<Row>) {
    eprintln!("[gates] profiler off vs on (3 reps each)…");
    let (off, on, profiled) = observer_off_on(ScenarioConfig::with_profile);
    let prof = profiled.profile.expect("profiling was enabled");
    let attributed = prof.total_events();
    let fanout: u64 = prof.stats().iter().map(|s| s.fanout).sum();
    assert_eq!(
        attributed,
        profiled.events_processed + fanout,
        "cost attribution lost events"
    );
    let enabled_overhead_pct = (on / off - 1.0) * 100.0;
    if enabled_overhead_pct > 10.0 {
        eprintln!(
            "  WARNING: enabled profiler overhead {enabled_overhead_pct:.2}% exceeds the 10% budget"
        );
    }
    rows.push(Row {
        gate: "profiler",
        scenario: format!("{OBSERVED} attributed={attributed}"),
        ratio_of: "on/off wall s",
        ratio: on / off,
        bound: Some("<= 1.10 (warns)"),
    });
}

fn telemetry_gate(rows: &mut Vec<Row>) {
    eprintln!("[gates] telemetry off vs on (3 reps each)…");
    let (off, on, observed) = observer_off_on(ScenarioConfig::with_telemetry);
    rows.push(Row {
        gate: "telemetry",
        scenario: format!("{OBSERVED} events={}", observed.events_processed),
        ratio_of: "on/off wall s",
        ratio: on / off,
        bound: None,
    });
}

fn snapshot_gate(rows: &mut Vec<Row>) {
    const CUT_DAYS: u64 = 15;
    let cfg = ScenarioConfig::sc2003().with_scale(0.02).with_seed(2003);
    eprintln!("[gates] snapshot: warm finish from day {CUT_DAYS} vs cold run…");
    let mut engine = Grid3Engine::new(cfg.clone());
    engine.run_until(SimTime::from_days(CUT_DAYS));
    let snap = EngineSnapshot::from_bytes(&engine.snapshot().to_bytes()).expect("decodes");
    let (warm, warm_report) = timed(5, || {
        let mut resumed = Grid3Engine::restore(snap.clone());
        resumed.run();
        Grid3Report::extract(&resumed).to_json()
    });
    let (cold, cold_report) = timed(5, || {
        let mut fresh = Grid3Engine::new(cfg.clone());
        fresh.run();
        Grid3Report::extract(&fresh).to_json()
    });
    assert!(
        warm_report == cold_report,
        "warm finish from the day-{CUT_DAYS} checkpoint diverged from the cold run"
    );
    rows.push(Row {
        gate: "snapshot",
        scenario: format!("sc2003 scale=0.02 seed=2003 cut=day{CUT_DAYS}"),
        ratio_of: "cold/warm finish wall s",
        ratio: cold / warm,
        bound: None,
    });
}

/// The measuring host: logical CPUs and CPU model (Linux
/// `/proc/cpuinfo`; "unknown model" elsewhere).
fn host() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown model".to_string());
    format!("{cpus} x {model}")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut rows = Vec::new();
    queue_gate(smoke, &mut rows);
    federation_gate(smoke, &mut rows);
    profiler_gate(&mut rows);
    telemetry_gate(&mut rows);
    snapshot_gate(&mut rows);

    println!("in-run gates{}:", if smoke { " (smoke)" } else { "" });
    for r in &rows {
        println!(
            "  {:<10} {:<58} {:<34} {:>7.3}x  {}",
            r.gate,
            r.scenario,
            r.ratio_of,
            r.ratio,
            r.bound.unwrap_or("recorded")
        );
    }
    if smoke {
        eprintln!("[gates] smoke OK (no JSON written)");
        return;
    }
    let json = Value::Object(vec![
        ("host".into(), Value::Str(host())),
        (
            "gates".into(),
            Value::Array(rows.iter().map(Row::to_value).collect()),
        ),
    ]);
    let text = serde_json::to_string_pretty(&json).expect("gate rows serialize");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gates.json");
    std::fs::write(path, text + "\n").expect("write BENCH_gates.json");
    eprintln!("[gates] wrote BENCH_gates.json");
}
