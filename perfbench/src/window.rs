//! One simulation run through the program's public calls: assemble
//! (`Grid3Engine::new`), run the event loop, extract the report and
//! serialize it. Untraced, the loop is a single `run()`; traced, it is
//! driven by `run_until` one simulated hour at a time so the queue depth
//! can be sampled at every slice boundary.

use grid3_core::report::Grid3Report;
use grid3_core::scenario::ScenarioConfig;
use grid3_core::Grid3Engine;
use grid3_simkit::profiler::CostProfiler;
use grid3_simkit::time::{SimDuration, SimTime};

use crate::manifest::fnv1a64;
use crate::metrics::{Metrics, CENTERS};
use crate::stats;
use crate::trace::Tracer;

/// What one run produced and how long its phases took, in seconds.
#[derive(Debug, Clone)]
pub struct WindowRun {
    /// FNV-1a over the report JSON (the golden-test hash).
    pub hash: u64,
    /// Timed events the loop popped.
    pub events: u64,
    pub assembly_s: f64,
    pub loop_s: f64,
    pub extract_s: f64,
    pub to_json_s: f64,
    /// The whole run, assembly through report JSON.
    pub wall_s: f64,
}

/// The per-layer record of traced runs, summed over the runs of one
/// workload repeat.
#[derive(Debug, Default)]
pub struct Layers {
    pub runs: Vec<WindowRun>,
    pub sites: usize,
    pub pending: Vec<f64>,
    pub slices_ms: Vec<f64>,
    pub profile: Option<CostProfiler>,
    pub json_bytes: usize,
}

/// Run `cfg` once. With `layers`, the run is traced: profiled (the
/// caller turns the profiler on in `cfg`), sliced hourly, and recorded.
/// The engine is returned so the caller can drop it outside any timing.
pub fn run(
    cfg: &ScenarioConfig,
    tracer: &mut Tracer,
    layers: Option<&mut Layers>,
) -> (WindowRun, Grid3Engine) {
    let root = tracer.begin("run");
    let (mut engine, assembly_s) = tracer.time("assembly", || Grid3Engine::new(cfg.clone()));
    let mut pending = Vec::new();
    let mut slices_ms = Vec::new();
    let lp = tracer.begin("loop");
    if layers.is_some() {
        let horizon = cfg.horizon();
        let mut cut = SimTime::EPOCH + SimDuration::from_hours(1);
        loop {
            let slice = tracer.begin("loop.slice");
            if cut < horizon {
                engine.run_until(cut);
            } else {
                engine.run();
            }
            slices_ms.push(tracer.end(slice) * 1e3);
            pending.push(engine.queue().len() as f64);
            if cut >= horizon {
                break;
            }
            cut += SimDuration::from_hours(1);
        }
    } else {
        engine.run();
    }
    let loop_s = tracer.end(lp);
    let (report, extract_s) = tracer.time("report.extract", || Grid3Report::extract(&engine));
    let (json, to_json_s) = tracer.time("report.to_json", || report.to_json());
    let wall_s = tracer.end(root);
    let run = WindowRun {
        hash: fnv1a64(json.as_bytes()),
        events: engine.events_processed(),
        assembly_s,
        loop_s,
        extract_s,
        to_json_s,
        wall_s,
    };
    if let Some(l) = layers {
        l.runs.push(run.clone());
        l.sites += engine.sites().len();
        l.pending.extend(pending);
        l.slices_ms.extend(slices_ms);
        l.json_bytes += json.len();
        if let Some(p) = engine.take_profiler() {
            match &mut l.profile {
                Some(total) => total.merge(&p),
                None => l.profile = Some(p),
            }
        }
    }
    (run, engine)
}

impl Layers {
    fn sum(&self, f: impl Fn(&WindowRun) -> f64) -> f64 {
        self.runs.iter().map(f).sum()
    }

    /// Report the queue, assembly, loop, cost-center and report layers.
    /// Returns the share of the runs' wall time (in %) that the four
    /// phases leave unaccounted, and whether the loop balances: the
    /// attributed handler time fits in the loop, and the profiler's
    /// attributed events equal timed pops plus fan-out.
    pub fn emit(&self, m: &mut Metrics) -> (f64, bool) {
        let events = self.runs.iter().map(|r| r.events).sum::<u64>();
        let wall = self.sum(|r| r.wall_s);
        let loop_s = self.sum(|r| r.loop_s);
        m.set("queue.events", events as f64);
        m.set(
            "queue.pending_max",
            self.pending.iter().copied().fold(0.0, f64::max),
        );
        m.set(
            "queue.pending_mean",
            self.pending.iter().sum::<f64>() / self.pending.len().max(1) as f64,
        );
        m.set("assembly.s", self.sum(|r| r.assembly_s));
        m.set("assembly.sites", self.sites as f64);
        m.set("loop.s", loop_s);
        m.set("loop.ns_per_event", loop_s * 1e9 / events.max(1) as f64);
        m.set("loop.slices", self.slices_ms.len() as f64);
        m.set(
            "loop.slice_ms.p50",
            stats::percentile(&self.slices_ms, 50.0),
        );
        m.set(
            "loop.slice_ms.p99",
            stats::percentile(&self.slices_ms, 99.0),
        );
        let (tail_pct, tail) = stats::tail(&self.slices_ms).unwrap_or((0.0, 0.0));
        m.set("loop.slice_ms.tail_pct", tail_pct);
        m.set("loop.slice_ms.tail", tail);
        m.set("report.extract_ms", self.sum(|r| r.extract_s) * 1e3);
        m.set("report.to_json_ms", self.sum(|r| r.to_json_s) * 1e3);
        m.set("report.json_bytes", self.json_bytes as f64);

        let profile = self.profile.as_ref().expect("traced runs are profiled");
        let self_s = profile.total_ns() as f64 / 1e9;
        let fanout: u64 = profile.stats().iter().map(|s| s.fanout).sum();
        let total_ns = profile.total_ns().max(1) as f64;
        m.set("subsys.self_s", self_s);
        m.set("subsys.events", profile.total_events() as f64);
        m.set("subsys.fanout", fanout as f64);
        m.set("loop.residual_s", loop_s - self_s);
        let mut listed_ns = 0u64;
        for (center, st) in profile.centers().iter().zip(profile.stats()) {
            let Some((sub, ev)) = CENTERS
                .iter()
                .find(|(s, e)| *s == center.subsystem && *e == center.event)
            else {
                continue;
            };
            listed_ns += st.total_ns;
            let prefix = format!("subsys.{sub}.{ev}");
            m.set(format!("{prefix}.events"), st.events as f64);
            m.set(
                format!("{prefix}.ns_per_event"),
                st.total_ns as f64 / st.events.max(1) as f64,
            );
            m.set(
                format!("{prefix}.share_pct"),
                100.0 * st.total_ns as f64 / total_ns,
            );
        }
        m.set(
            "subsys.other.share_pct",
            100.0 * (profile.total_ns() - listed_ns) as f64 / total_ns,
        );

        let phases = self.sum(|r| r.assembly_s + r.loop_s + r.extract_s + r.to_json_s);
        let gap_pct = 100.0 * (wall - phases) / wall;
        let events_gap = profile.total_events() as f64 - (events + fanout) as f64;
        m.set("balance.events_gap", events_gap);
        (gap_pct, self_s <= loop_s && events_gap == 0.0)
    }
}
