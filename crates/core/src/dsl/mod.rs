//! The declarative scenario DSL: scenarios as data, not code.
//!
//! A scenario file is one JSON object covering the full
//! [`ScenarioConfig`] surface — window, scale, topology replication,
//! demo, install pipeline, campaigns (DAG shapes), resilience, storms,
//! chaos regimes, event queue, federation/grid specs with backend
//! personalities and VO admission, workload overrides with arrival
//! processes, and a trace-replay front end. [`ScenarioDoc`] is the
//! parsed document; it converts **bidirectionally**:
//!
//! ```text
//! scenarios/*.json ⇄ ScenarioDoc ⇄ ScenarioConfig
//! ```
//!
//! `tests/scenario_dsl.rs` locks the round trip differentially: every
//! built-in constructor is exported to a committed file under
//! `scenarios/`, re-loaded, and must reproduce its golden hash
//! bit-for-bit, so any schema drift breaks a golden.
//!
//! **Defaults live in exactly one place:** a field absent from (or
//! `null` in) a scenario document keeps the value from
//! [`ScenarioConfig::default`] — which is [`ScenarioConfig::sc2003`],
//! the paper's 30-day SC2003 window. The minimal document `{}` is
//! therefore a complete, runnable scenario. Malformed documents produce
//! typed [`DslError`]s naming the offending field; nothing panics.

mod decode;
pub mod trace;

pub use decode::DslError;
pub use trace::{JobTrace, TraceJob};

use crate::chaos::{ChaosRates, FaultPlan, PlannedFault};
use crate::federation::{Federation, GridSpec};
use crate::resilience::ResilienceConfig;
use crate::scenario::{CampaignSpec, QueueKind, ScenarioConfig, StormSpec};
use decode as d;
use grid3_apps::workloads::WorkloadSpec;
use grid3_middleware::backend::BackendKind;
use grid3_pacman::install::InstallPipeline;
use grid3_simkit::dist::ArrivalProcess;
use grid3_simkit::time::{SimDuration, SimTime};
use grid3_site::vo::Vo;
use grid3_workflow::mop::CmsSimulator;
use serde::{Serialize, Value};
use std::path::Path;

/// A parsed scenario document: every knob optional, absent = the
/// [`ScenarioConfig::default`] value (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ScenarioDoc {
    /// Free-form scenario name (informational only).
    pub name: Option<String>,
    /// Master seed.
    pub seed: Option<u64>,
    /// Horizon in days from the 2003-10-25 epoch.
    pub days: Option<u64>,
    /// Hour-granular horizon override (trumps `days`).
    pub horizon_hours: Option<u64>,
    /// Workload scale factor (must be positive).
    pub scale: Option<f64>,
    /// The Entrada GridFTP demonstrator.
    pub demo: Option<DemoDoc>,
    /// Monitoring sweep cadence.
    pub monitor_interval: Option<SimDuration>,
    /// Install/certification pipeline: a preset name or inline object.
    pub pipeline: Option<PipelineDoc>,
    /// SRM-style storage reservations (§8 ablation).
    pub srm_reservations: Option<bool>,
    /// The instrumentation layer.
    pub telemetry: Option<bool>,
    /// DAG-shaped production campaigns.
    pub campaigns: Option<Vec<CampaignSpec>>,
    /// Adaptive fault handling: a preset name or inline object.
    pub resilience: Option<ResilienceDoc>,
    /// Correlated multi-site outage storms.
    pub storms: Option<Vec<StormSpec>>,
    /// Topology replication factor (≥ 1).
    pub site_replicas: Option<usize>,
    /// Event-queue backend.
    pub queue: Option<QueueKind>,
    /// Failure regime: an explicit fault plan or chaos rates to sample.
    pub chaos: Option<ChaosDoc>,
    /// The invariant auditor.
    pub audit: Option<bool>,
    /// The cost-attribution profiler.
    pub profile: Option<bool>,
    /// The structured ops journal.
    pub ops_journal: Option<bool>,
    /// Multi-grid federation (grids, backends, VO admission, staleness).
    pub federation: Option<Federation>,
    /// Workload override (`[]` = no synthetic workloads).
    pub workloads: Option<Vec<WorkloadSpec>>,
    /// Submission trace: a JSONL path or inline job list.
    pub trace: Option<TraceDoc>,
}

/// The demo block: `{"enabled": …, "sites": …, "daily_target_tb": …}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DemoDoc {
    /// Run the demonstrator at all.
    pub enabled: bool,
    /// Sites in the transfer matrix.
    pub sites: usize,
    /// Daily volume goal, TB.
    pub daily_target_tb: u64,
}

/// Install pipeline: `"grid3"`, `"automated"`, or an inline object.
#[derive(Debug, Clone)]
pub enum PipelineDoc {
    /// A named preset.
    Preset(String),
    /// Explicit pipeline probabilities.
    Custom(InstallPipeline),
}

/// Resilience layer: `"grid3"` or an inline [`ResilienceConfig`].
#[derive(Debug, Clone)]
pub enum ResilienceDoc {
    /// A named preset.
    Preset(String),
    /// Explicit configuration.
    Custom(ResilienceConfig),
}

/// Failure regime: `{"plan": [...]}` (canonical — what the exporter
/// writes) or `{"rates": "grid3" | {...}}`, sampled into a plan at load
/// time from the scenario's own seed so the run stays a pure function of
/// the document.
#[derive(Debug, Clone)]
pub enum ChaosDoc {
    /// An explicit, replayable fault plan.
    Plan(FaultPlan),
    /// Per-class MTBF rates to sample a plan from.
    Rates(RatesDoc),
}

/// Chaos rates: `"grid3"` or an inline [`ChaosRates`].
#[derive(Debug, Clone)]
pub enum RatesDoc {
    /// A named preset.
    Preset(String),
    /// Explicit rates.
    Custom(ChaosRates),
}

/// Submission trace: `{"path": "log.jsonl"}` (resolved relative to the
/// scenario file) or `{"jobs": [...]}` inline (the canonical form).
#[derive(Debug, Clone)]
pub enum TraceDoc {
    /// A JSONL log on disk.
    Path(String),
    /// The jobs inline.
    Inline(JobTrace),
}

const TOP_KEYS: &[&str] = &[
    "name",
    "seed",
    "days",
    "horizon_hours",
    "scale",
    "demo",
    "monitor_interval_mins",
    "monitor_interval_us",
    "pipeline",
    "srm_reservations",
    "telemetry",
    "campaigns",
    "resilience",
    "storms",
    "site_replicas",
    "queue",
    "chaos",
    "audit",
    "profile",
    "ops_journal",
    "federation",
    "workloads",
    "trace",
];

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Parse a scenario document from JSON text.
pub fn parse_str(text: &str) -> Result<ScenarioDoc, DslError> {
    let value: Value =
        serde_json::from_str(text).map_err(|e| DslError::syntax(text, &e.to_string()))?;
    ScenarioDoc::from_value(&value)
}

/// Load a scenario document from disk.
pub fn load_doc(path: &Path) -> Result<ScenarioDoc, DslError> {
    let text = std::fs::read_to_string(path).map_err(|e| DslError::Io {
        path: path.display().to_string(),
        msg: e.to_string(),
    })?;
    parse_str(&text)
}

/// Load a scenario file straight into a runnable config. Trace paths
/// inside the document resolve relative to the file's directory.
pub fn load_config(path: &Path) -> Result<ScenarioConfig, DslError> {
    load_doc(path)?.to_config_in(path.parent())
}

/// Every built-in scenario constructor, by canonical name. The
/// conformance suite exports each to `scenarios/<name>.json` and holds
/// the committed file to the constructor's golden hash.
pub fn builtin_scenarios() -> Vec<(&'static str, ScenarioConfig)> {
    vec![
        ("sc2003", ScenarioConfig::sc2003()),
        ("sc2003_operated", ScenarioConfig::sc2003_operated()),
        ("sc2003_chaos", ScenarioConfig::sc2003_chaos()),
        ("sc2003_federated", ScenarioConfig::sc2003_federated()),
        ("scale_out", ScenarioConfig::scale_out()),
        ("cms_production", ScenarioConfig::cms_production()),
        ("seven_months", ScenarioConfig::seven_months()),
    ]
}

/// Export a config to canonical pretty-printed scenario JSON (what the
/// committed files under `scenarios/` hold).
pub fn export_config(cfg: &ScenarioConfig) -> String {
    let mut text =
        serde_json::to_string_pretty(&ScenarioDoc::from_config(cfg)).expect("doc renders");
    text.push('\n');
    text
}

impl Serialize for ScenarioDoc {
    fn serialize<S: serde::Sink + ?Sized>(&self, sink: &mut S) {
        self.encode().serialize(sink)
    }
}

impl ScenarioDoc {
    // -- document ⇄ value -------------------------------------------------

    /// Decode a document from its value tree.
    pub fn from_value(v: &Value) -> Result<ScenarioDoc, DslError> {
        let o = d::as_object(v, "")?;
        d::check_keys(o, "", TOP_KEYS)?;
        let opt = |key: &str| d::get(o, key);
        let scale = opt("scale").map(|v| d::f64_value(v, "scale")).transpose()?;
        if let Some(s) = scale {
            if s <= 0.0 {
                return Err(DslError::field("scale", format!("{s} is not positive")));
            }
        }
        let site_replicas = opt("site_replicas")
            .map(|v| d::usize_value(v, "site_replicas"))
            .transpose()?;
        if site_replicas == Some(0) {
            return Err(DslError::field("site_replicas", "must be at least 1"));
        }
        let monitor_interval = match (opt("monitor_interval_mins"), opt("monitor_interval_us")) {
            (Some(_), Some(_)) => {
                return Err(DslError::field(
                    "monitor_interval_us",
                    "give `monitor_interval_mins` or `monitor_interval_us`, not both",
                ))
            }
            (Some(mins), None) => Some(SimDuration::from_mins(d::positive_u64(
                mins,
                "monitor_interval_mins",
            )?)),
            (None, Some(us)) => Some(SimDuration::from_micros(d::positive_u64(
                us,
                "monitor_interval_us",
            )?)),
            (None, None) => None,
        };
        Ok(ScenarioDoc {
            name: opt("name")
                .map(|v| d::str_value(v, "name").map(str::to_string))
                .transpose()?,
            seed: opt("seed").map(|v| d::u64_value(v, "seed")).transpose()?,
            days: opt("days")
                .map(|v| d::positive_u64(v, "days"))
                .transpose()?,
            horizon_hours: opt("horizon_hours")
                .map(|v| d::u64_value(v, "horizon_hours"))
                .transpose()?,
            scale,
            demo: opt("demo").map(decode_demo).transpose()?,
            monitor_interval,
            pipeline: opt("pipeline").map(decode_pipeline).transpose()?,
            srm_reservations: opt("srm_reservations")
                .map(|v| d::bool_value(v, "srm_reservations"))
                .transpose()?,
            telemetry: opt("telemetry")
                .map(|v| d::bool_value(v, "telemetry"))
                .transpose()?,
            campaigns: opt("campaigns").map(decode_campaigns).transpose()?,
            resilience: opt("resilience").map(decode_resilience).transpose()?,
            storms: opt("storms").map(decode_storms).transpose()?,
            site_replicas,
            queue: opt("queue").map(decode_queue).transpose()?,
            chaos: opt("chaos").map(decode_chaos).transpose()?,
            audit: opt("audit")
                .map(|v| d::bool_value(v, "audit"))
                .transpose()?,
            profile: opt("profile")
                .map(|v| d::bool_value(v, "profile"))
                .transpose()?,
            ops_journal: opt("ops_journal")
                .map(|v| d::bool_value(v, "ops_journal"))
                .transpose()?,
            federation: opt("federation").map(decode_federation).transpose()?,
            workloads: opt("workloads").map(decode_workloads).transpose()?,
            trace: opt("trace").map(decode_trace).transpose()?,
        })
    }

    /// The canonical value tree (stable key order; only set fields
    /// appear, so absent-means-default survives the round trip).
    pub fn encode(&self) -> Value {
        let mut o: Vec<(String, Value)> = Vec::new();
        let mut put = |k: &str, v: Value| o.push((k.to_string(), v));
        if let Some(name) = &self.name {
            put("name", Value::Str(name.clone()));
        }
        if let Some(seed) = self.seed {
            put("seed", Value::U64(seed));
        }
        if let Some(days) = self.days {
            put("days", Value::U64(days));
        }
        if let Some(h) = self.horizon_hours {
            put("horizon_hours", Value::U64(h));
        }
        if let Some(scale) = self.scale {
            put("scale", Value::F64(scale));
        }
        if let Some(demo) = &self.demo {
            put(
                "demo",
                Value::Object(vec![
                    ("enabled".into(), Value::Bool(demo.enabled)),
                    ("sites".into(), Value::U64(demo.sites as u64)),
                    ("daily_target_tb".into(), Value::U64(demo.daily_target_tb)),
                ]),
            );
        }
        if let Some(interval) = self.monitor_interval {
            let (key, value) = duration_key("monitor_interval", interval);
            put(key, value);
        }
        if let Some(pipeline) = &self.pipeline {
            put(
                "pipeline",
                match pipeline {
                    PipelineDoc::Preset(name) => Value::Str(name.clone()),
                    PipelineDoc::Custom(p) => p.to_value(),
                },
            );
        }
        if let Some(b) = self.srm_reservations {
            put("srm_reservations", Value::Bool(b));
        }
        if let Some(b) = self.telemetry {
            put("telemetry", Value::Bool(b));
        }
        if let Some(campaigns) = &self.campaigns {
            put(
                "campaigns",
                Value::Array(campaigns.iter().map(encode_campaign).collect()),
            );
        }
        if let Some(resilience) = &self.resilience {
            put(
                "resilience",
                match resilience {
                    ResilienceDoc::Preset(name) => Value::Str(name.clone()),
                    ResilienceDoc::Custom(r) => r.to_value(),
                },
            );
        }
        if let Some(storms) = &self.storms {
            put(
                "storms",
                Value::Array(storms.iter().map(encode_storm).collect()),
            );
        }
        if let Some(replicas) = self.site_replicas {
            put("site_replicas", Value::U64(replicas as u64));
        }
        if let Some(queue) = self.queue {
            put(
                "queue",
                Value::Str(
                    match queue {
                        QueueKind::Ladder => "ladder",
                        QueueKind::Heap => "heap",
                    }
                    .to_string(),
                ),
            );
        }
        if let Some(chaos) = &self.chaos {
            put(
                "chaos",
                match chaos {
                    ChaosDoc::Plan(plan) => {
                        Value::Object(vec![("plan".into(), Serialize::to_value(&plan.faults))])
                    }
                    ChaosDoc::Rates(RatesDoc::Preset(name)) => {
                        Value::Object(vec![("rates".into(), Value::Str(name.clone()))])
                    }
                    ChaosDoc::Rates(RatesDoc::Custom(rates)) => {
                        Value::Object(vec![("rates".into(), rates.to_value())])
                    }
                },
            );
        }
        if let Some(b) = self.audit {
            put("audit", Value::Bool(b));
        }
        if let Some(b) = self.profile {
            put("profile", Value::Bool(b));
        }
        if let Some(b) = self.ops_journal {
            put("ops_journal", Value::Bool(b));
        }
        if let Some(fed) = &self.federation {
            put("federation", encode_federation(fed));
        }
        if let Some(workloads) = &self.workloads {
            put(
                "workloads",
                Value::Array(workloads.iter().map(encode_workload).collect()),
            );
        }
        if let Some(trace) = &self.trace {
            put(
                "trace",
                match trace {
                    TraceDoc::Path(p) => {
                        Value::Object(vec![("path".into(), Value::Str(p.clone()))])
                    }
                    TraceDoc::Inline(t) => Value::Object(vec![(
                        "jobs".into(),
                        Value::Array(t.jobs.iter().map(TraceJob::encode).collect()),
                    )]),
                },
            );
        }
        Value::Object(o)
    }

    // -- document ⇄ config ------------------------------------------------

    /// Lower to a runnable config. Trace paths resolve against the
    /// process working directory; use [`ScenarioDoc::to_config_in`] (or
    /// [`load_config`]) to anchor them at the scenario file instead.
    pub fn to_config(&self) -> Result<ScenarioConfig, DslError> {
        self.to_config_in(None)
    }

    /// Lower to a runnable config, resolving trace paths against `base`.
    pub fn to_config_in(&self, base: Option<&Path>) -> Result<ScenarioConfig, DslError> {
        let mut cfg = ScenarioConfig::default();
        if let Some(seed) = self.seed {
            cfg.seed = seed;
        }
        if let Some(days) = self.days {
            cfg.days = days;
        }
        cfg.horizon_hours = self.horizon_hours;
        if let Some(scale) = self.scale {
            if !(scale > 0.0 && scale.is_finite()) {
                return Err(DslError::field("scale", format!("{scale} is not positive")));
            }
            cfg.scale = scale;
        }
        if let Some(demo) = &self.demo {
            cfg.include_demo = demo.enabled;
            cfg.demo_sites = demo.sites;
            cfg.demo_daily_target_tb = demo.daily_target_tb;
        }
        if let Some(interval) = self.monitor_interval {
            cfg.monitor_interval = interval;
        }
        if let Some(pipeline) = &self.pipeline {
            cfg.pipeline = match pipeline {
                PipelineDoc::Preset(name) => match name.as_str() {
                    "grid3" => InstallPipeline::grid3_default(),
                    "automated" => InstallPipeline::automated(),
                    other => {
                        return Err(DslError::field(
                            "pipeline",
                            format!("unknown preset `{other}` (expected `grid3` or `automated`)"),
                        ))
                    }
                },
                PipelineDoc::Custom(p) => p.clone(),
            };
        }
        if let Some(b) = self.srm_reservations {
            cfg.srm_reservations = b;
        }
        if let Some(b) = self.telemetry {
            cfg.telemetry = b;
        }
        if let Some(campaigns) = &self.campaigns {
            cfg.campaigns = campaigns.clone();
        }
        if let Some(resilience) = &self.resilience {
            cfg.resilience = Some(match resilience {
                ResilienceDoc::Preset(name) => match name.as_str() {
                    "grid3" => ResilienceConfig::grid3_default(),
                    other => {
                        return Err(DslError::field(
                            "resilience",
                            format!("unknown preset `{other}` (expected `grid3`)"),
                        ))
                    }
                },
                ResilienceDoc::Custom(r) => r.clone(),
            });
        }
        if let Some(storms) = &self.storms {
            cfg.storms = storms.clone();
        }
        if let Some(replicas) = self.site_replicas {
            if replicas == 0 {
                return Err(DslError::field("site_replicas", "must be at least 1"));
            }
            cfg.site_replicas = replicas;
        }
        if let Some(queue) = self.queue {
            cfg.queue = queue;
        }
        if let Some(b) = self.audit {
            cfg.audit = b;
        }
        if let Some(b) = self.profile {
            cfg.profile = b;
        }
        if let Some(b) = self.ops_journal {
            cfg.ops_journal = b;
        }
        cfg.federation = self.federation.clone();
        cfg.workloads = self.workloads.clone();
        cfg.trace = match &self.trace {
            Some(TraceDoc::Inline(t)) => Some(t.clone()),
            Some(TraceDoc::Path(p)) => {
                let full = match base {
                    Some(dir) => dir.join(p),
                    None => std::path::PathBuf::from(p),
                };
                Some(JobTrace::load_jsonl(&full)?)
            }
            None => None,
        };
        // Sampled last: the plan depends on the document's own seed,
        // topology width and horizon.
        if let Some(chaos) = &self.chaos {
            cfg.chaos = Some(match chaos {
                ChaosDoc::Plan(plan) => plan.clone(),
                ChaosDoc::Rates(rates) => {
                    let rates = match rates {
                        RatesDoc::Preset(name) => match name.as_str() {
                            "grid3" => ChaosRates::grid3_default(),
                            other => {
                                return Err(DslError::field(
                                    "chaos.rates",
                                    format!("unknown preset `{other}` (expected `grid3`)"),
                                ))
                            }
                        },
                        RatesDoc::Custom(r) => r.clone(),
                    };
                    FaultPlan::sample(
                        &rates,
                        cfg.seed,
                        crate::topology::grid3_topology().len() * cfg.site_replicas,
                        cfg.horizon().since(SimTime::EPOCH),
                    )
                }
            });
        }
        Ok(cfg)
    }

    /// Lift a config into a document: scalar knobs become explicit,
    /// optional layers stay present-iff-set, and known presets collapse
    /// back to their names. `from_config(cfg).to_config()` reproduces
    /// `cfg` exactly — the conformance suite holds every built-in to
    /// this through its golden hash.
    pub fn from_config(cfg: &ScenarioConfig) -> ScenarioDoc {
        let pipeline = if Serialize::to_value(&cfg.pipeline)
            == Serialize::to_value(&InstallPipeline::grid3_default())
        {
            PipelineDoc::Preset("grid3".into())
        } else if Serialize::to_value(&cfg.pipeline)
            == Serialize::to_value(&InstallPipeline::automated())
        {
            PipelineDoc::Preset("automated".into())
        } else {
            PipelineDoc::Custom(cfg.pipeline.clone())
        };
        let resilience = cfg.resilience.as_ref().map(|r| {
            if Serialize::to_value(r) == Serialize::to_value(&ResilienceConfig::grid3_default()) {
                ResilienceDoc::Preset("grid3".into())
            } else {
                ResilienceDoc::Custom(r.clone())
            }
        });
        ScenarioDoc {
            name: None,
            seed: Some(cfg.seed),
            days: Some(cfg.days),
            horizon_hours: cfg.horizon_hours,
            scale: Some(cfg.scale),
            demo: Some(DemoDoc {
                enabled: cfg.include_demo,
                sites: cfg.demo_sites,
                daily_target_tb: cfg.demo_daily_target_tb,
            }),
            monitor_interval: Some(cfg.monitor_interval),
            pipeline: Some(pipeline),
            srm_reservations: Some(cfg.srm_reservations),
            telemetry: Some(cfg.telemetry),
            campaigns: (!cfg.campaigns.is_empty()).then(|| cfg.campaigns.clone()),
            resilience,
            storms: (!cfg.storms.is_empty()).then(|| cfg.storms.clone()),
            site_replicas: Some(cfg.site_replicas),
            queue: Some(cfg.queue),
            chaos: cfg.chaos.clone().map(ChaosDoc::Plan),
            audit: Some(cfg.audit),
            profile: Some(cfg.profile),
            ops_journal: Some(cfg.ops_journal),
            federation: cfg.federation.clone(),
            workloads: cfg.workloads.clone(),
            trace: cfg.trace.clone().map(TraceDoc::Inline),
        }
    }
}

/// Encode a duration under `<stem>_mins` when it is a whole number of
/// minutes (the human-friendly common case), else `<stem>_us` exactly.
fn duration_key(stem: &str, duration: SimDuration) -> (&'static str, Value) {
    let us = duration.as_micros();
    const US_PER_MIN: u64 = 60_000_000;
    if us.is_multiple_of(US_PER_MIN) {
        (
            match stem {
                "monitor_interval" => "monitor_interval_mins",
                "staleness" => "staleness_mins",
                _ => unreachable!("unknown duration stem"),
            },
            Value::U64(us / US_PER_MIN),
        )
    } else {
        (
            match stem {
                "monitor_interval" => "monitor_interval_us",
                "staleness" => "staleness_us",
                _ => unreachable!("unknown duration stem"),
            },
            Value::U64(us),
        )
    }
}

// ---------------------------------------------------------------------------
// Block decoders/encoders
// ---------------------------------------------------------------------------

fn decode_demo(v: &Value) -> Result<DemoDoc, DslError> {
    let path = "demo";
    let o = d::as_object(v, path)?;
    d::check_keys(o, path, &["enabled", "sites", "daily_target_tb"])?;
    let defaults = ScenarioConfig::default();
    let sites = d::get(o, "sites")
        .map(|v| d::usize_value(v, &d::join(path, "sites")))
        .transpose()?
        .unwrap_or(defaults.demo_sites);
    if sites < 2 {
        // The demonstrator moves data over every ordered site pair.
        return Err(DslError::field(
            &d::join(path, "sites"),
            format!("{sites} is fewer than the 2 a transfer matrix needs"),
        ));
    }
    Ok(DemoDoc {
        enabled: d::get(o, "enabled")
            .map(|v| d::bool_value(v, &d::join(path, "enabled")))
            .transpose()?
            .unwrap_or(defaults.include_demo),
        sites,
        daily_target_tb: d::get(o, "daily_target_tb")
            .map(|v| d::u64_value(v, &d::join(path, "daily_target_tb")))
            .transpose()?
            .unwrap_or(defaults.demo_daily_target_tb),
    })
}

fn decode_pipeline(v: &Value) -> Result<PipelineDoc, DslError> {
    match v {
        Value::Str(name) => match name.as_str() {
            "grid3" | "automated" => Ok(PipelineDoc::Preset(name.clone())),
            other => Err(DslError::field(
                "pipeline",
                format!("unknown preset `{other}` (expected `grid3` or `automated`)"),
            )),
        },
        other => d::derived::<InstallPipeline>(other, "pipeline").map(PipelineDoc::Custom),
    }
}

fn decode_resilience(v: &Value) -> Result<ResilienceDoc, DslError> {
    match v {
        Value::Str(name) => match name.as_str() {
            "grid3" => Ok(ResilienceDoc::Preset(name.clone())),
            other => Err(DslError::field(
                "resilience",
                format!("unknown preset `{other}` (expected `grid3`)"),
            )),
        },
        other => d::derived::<ResilienceConfig>(other, "resilience").map(ResilienceDoc::Custom),
    }
}

fn decode_queue(v: &Value) -> Result<QueueKind, DslError> {
    let s = d::str_value(v, "queue")?;
    match s.to_ascii_lowercase().as_str() {
        "ladder" => Ok(QueueKind::Ladder),
        "heap" => Ok(QueueKind::Heap),
        other => Err(DslError::field(
            "queue",
            format!("unknown queue `{other}` (expected `ladder` or `heap`)"),
        )),
    }
}

fn decode_campaigns(v: &Value) -> Result<Vec<CampaignSpec>, DslError> {
    let path = "campaigns";
    let items = v
        .as_array()
        .ok_or_else(|| DslError::field(path, format!("expected an array, found {}", v.kind())))?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| decode_campaign(item, &d::index(path, i)))
        .collect()
}

fn decode_campaign(v: &Value, path: &str) -> Result<CampaignSpec, DslError> {
    let o = d::as_object(v, path)?;
    d::check_keys(
        o,
        path,
        &[
            "dataset",
            "events",
            "events_per_job",
            "simulator",
            "submit_day",
            "retries",
            "throttle",
            "rescue_dags",
        ],
    )?;
    let dataset = d::str_value(
        d::get(o, "dataset")
            .ok_or_else(|| DslError::field(path, "missing required field `dataset`"))?,
        &d::join(path, "dataset"),
    )?
    .to_string();
    let events = d::u64_value(
        d::get(o, "events")
            .ok_or_else(|| DslError::field(path, "missing required field `events`"))?,
        &d::join(path, "events"),
    )?;
    if events == 0 {
        return Err(DslError::field(
            &d::join(path, "events"),
            "must be positive",
        ));
    }
    let events_per_job = d::get(o, "events_per_job")
        .map(|v| d::u64_value(v, &d::join(path, "events_per_job")))
        .transpose()?
        .unwrap_or(500);
    if events_per_job == 0 {
        return Err(DslError::field(
            &d::join(path, "events_per_job"),
            "must be positive",
        ));
    }
    let simulator = match d::get(o, "simulator") {
        None => CmsSimulator::Oscar,
        Some(v) => {
            let s = d::str_value(v, &d::join(path, "simulator"))?;
            match s.to_ascii_lowercase().as_str() {
                "cmsim" => CmsSimulator::Cmsim,
                "oscar" => CmsSimulator::Oscar,
                other => {
                    return Err(DslError::field(
                        &d::join(path, "simulator"),
                        format!("unknown simulator `{other}` (expected `cmsim` or `oscar`)"),
                    ))
                }
            }
        }
    };
    let opt_u64 = |key: &str, default: u64| -> Result<u64, DslError> {
        d::get(o, key)
            .map(|v| d::u64_value(v, &d::join(path, key)))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    Ok(CampaignSpec {
        dataset,
        events,
        events_per_job,
        simulator,
        submit_day: opt_u64("submit_day", 0)?,
        retries: opt_u64("retries", 3)? as u32,
        throttle: opt_u64("throttle", 50)? as usize,
        rescue_dags: opt_u64("rescue_dags", 0)? as u32,
    })
}

fn encode_campaign(spec: &CampaignSpec) -> Value {
    Value::Object(vec![
        ("dataset".into(), Value::Str(spec.dataset.clone())),
        ("events".into(), Value::U64(spec.events)),
        ("events_per_job".into(), Value::U64(spec.events_per_job)),
        (
            "simulator".into(),
            Value::Str(
                match spec.simulator {
                    CmsSimulator::Cmsim => "cmsim",
                    CmsSimulator::Oscar => "oscar",
                }
                .to_string(),
            ),
        ),
        ("submit_day".into(), Value::U64(spec.submit_day)),
        ("retries".into(), Value::U64(spec.retries as u64)),
        ("throttle".into(), Value::U64(spec.throttle as u64)),
        ("rescue_dags".into(), Value::U64(spec.rescue_dags as u64)),
    ])
}

fn decode_storms(v: &Value) -> Result<Vec<StormSpec>, DslError> {
    let path = "storms";
    let items = v
        .as_array()
        .ok_or_else(|| DslError::field(path, format!("expected an array, found {}", v.kind())))?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let path = d::index(path, i);
            let o = d::as_object(item, &path)?;
            d::check_keys(o, &path, &["day", "hour", "outage_hours", "sites"])?;
            let req = |key: &str| -> Result<u64, DslError> {
                d::u64_value(
                    d::get(o, key).ok_or_else(|| {
                        DslError::field(&path, format!("missing required field `{key}`"))
                    })?,
                    &d::join(&path, key),
                )
            };
            let sites_path = d::join(&path, "sites");
            let sites = d::get(o, "sites")
                .ok_or_else(|| DslError::field(&path, "missing required field `sites`"))?
                .as_array()
                .ok_or_else(|| DslError::field(&sites_path, "expected an array of site ids"))?
                .iter()
                .enumerate()
                .map(|(j, s)| d::u32_value(s, &d::index(&sites_path, j)))
                .collect::<Result<Vec<u32>, DslError>>()?;
            Ok(StormSpec {
                day: req("day")?,
                hour: req("hour")?,
                outage_hours: req("outage_hours")?,
                sites,
            })
        })
        .collect()
}

fn encode_storm(storm: &StormSpec) -> Value {
    Value::Object(vec![
        ("day".into(), Value::U64(storm.day)),
        ("hour".into(), Value::U64(storm.hour)),
        ("outage_hours".into(), Value::U64(storm.outage_hours)),
        (
            "sites".into(),
            Value::Array(storm.sites.iter().map(|s| Value::U64(*s as u64)).collect()),
        ),
    ])
}

fn decode_chaos(v: &Value) -> Result<ChaosDoc, DslError> {
    let path = "chaos";
    let o = d::as_object(v, path)?;
    d::check_keys(o, path, &["plan", "rates"])?;
    match (d::get(o, "plan"), d::get(o, "rates")) {
        (Some(_), Some(_)) => Err(DslError::field(path, "give `plan` or `rates`, not both")),
        (Some(plan), None) => {
            let faults: Vec<PlannedFault> = d::derived(plan, &d::join(path, "plan"))?;
            Ok(ChaosDoc::Plan(FaultPlan::new(faults)))
        }
        (None, Some(rates)) => match rates {
            Value::Str(name) => match name.as_str() {
                "grid3" => Ok(ChaosDoc::Rates(RatesDoc::Preset(name.clone()))),
                other => Err(DslError::field(
                    &d::join(path, "rates"),
                    format!("unknown preset `{other}` (expected `grid3`)"),
                )),
            },
            other => d::derived::<ChaosRates>(other, &d::join(path, "rates"))
                .map(|r| ChaosDoc::Rates(RatesDoc::Custom(r))),
        },
        (None, None) => Err(DslError::field(path, "needs `plan` or `rates`")),
    }
}

fn decode_federation(v: &Value) -> Result<Federation, DslError> {
    let path = "federation";
    let o = d::as_object(v, path)?;
    d::check_keys(o, path, &["staleness_mins", "staleness_us", "grids"])?;
    let staleness = match (d::get(o, "staleness_mins"), d::get(o, "staleness_us")) {
        (Some(_), Some(_)) => {
            return Err(DslError::field(
                &d::join(path, "staleness_us"),
                "give `staleness_mins` or `staleness_us`, not both",
            ))
        }
        (Some(mins), None) => Some(SimDuration::from_mins(d::u64_value(
            mins,
            &d::join(path, "staleness_mins"),
        )?)),
        (None, Some(us)) => Some(SimDuration::from_micros(d::u64_value(
            us,
            &d::join(path, "staleness_us"),
        )?)),
        (None, None) => None,
    };
    let grids_path = d::join(path, "grids");
    let grids_value = d::get(o, "grids")
        .ok_or_else(|| DslError::field(path, "missing required field `grids`"))?;
    let items = grids_value
        .as_array()
        .ok_or_else(|| DslError::field(&grids_path, "expected an array of grid specs"))?;
    if items.is_empty() {
        return Err(DslError::field(&grids_path, "needs at least one grid"));
    }
    let grids = items
        .iter()
        .enumerate()
        .map(|(i, item)| decode_grid(item, &d::index(&grids_path, i)))
        .collect::<Result<Vec<GridSpec>, DslError>>()?;
    let mut fed = Federation::new(grids);
    if let Some(staleness) = staleness {
        fed.staleness = staleness;
    }
    Ok(fed)
}

fn decode_grid(v: &Value, path: &str) -> Result<GridSpec, DslError> {
    let o = d::as_object(v, path)?;
    d::check_keys(o, path, &["name", "backend", "sites", "admits"])?;
    let name = d::str_value(
        d::get(o, "name").ok_or_else(|| DslError::field(path, "missing required field `name`"))?,
        &d::join(path, "name"),
    )?
    .to_string();
    let backend = match d::get(o, "backend") {
        None => BackendKind::Vdt,
        Some(v) => {
            let s = d::str_value(v, &d::join(path, "backend"))?;
            match s.to_ascii_lowercase().replace('_', "-").as_str() {
                "vdt" => BackendKind::Vdt,
                "edg-lcg" | "edg" | "edglcg" => BackendKind::EdgLcg,
                other => {
                    return Err(DslError::field(
                        &d::join(path, "backend"),
                        format!("unknown backend `{other}` (expected `vdt` or `edg-lcg`)"),
                    ))
                }
            }
        }
    };
    let sites_path = d::join(path, "sites");
    let sites = match d::get(o, "sites") {
        None => Vec::new(),
        Some(v) => v
            .as_array()
            .ok_or_else(|| DslError::field(&sites_path, "expected an array of site names"))?
            .iter()
            .enumerate()
            .map(|(i, s)| d::str_value(s, &d::index(&sites_path, i)).map(str::to_string))
            .collect::<Result<Vec<String>, DslError>>()?,
    };
    let admits_path = d::join(path, "admits");
    let admits = match d::get(o, "admits") {
        None => None,
        Some(v) => Some(
            v.as_array()
                .ok_or_else(|| DslError::field(&admits_path, "expected an array of VO names"))?
                .iter()
                .enumerate()
                .map(|(i, s)| d::vo(s, &d::index(&admits_path, i)))
                .collect::<Result<Vec<Vo>, DslError>>()?,
        ),
    };
    Ok(GridSpec {
        name,
        backend,
        sites,
        admits,
    })
}

fn encode_federation(fed: &Federation) -> Value {
    let (staleness_key, staleness_value) = duration_key("staleness", fed.staleness);
    Value::Object(vec![
        (staleness_key.into(), staleness_value),
        (
            "grids".into(),
            Value::Array(
                fed.grids
                    .iter()
                    .map(|g| {
                        let mut o: Vec<(String, Value)> = vec![
                            ("name".into(), Value::Str(g.name.clone())),
                            ("backend".into(), Value::Str(g.backend.name().to_string())),
                            (
                                "sites".into(),
                                Value::Array(
                                    g.sites.iter().map(|s| Value::Str(s.clone())).collect(),
                                ),
                            ),
                        ];
                        if let Some(admits) = &g.admits {
                            o.push((
                                "admits".into(),
                                Value::Array(
                                    admits
                                        .iter()
                                        .map(|vo| Value::Str(vo.name().to_string()))
                                        .collect(),
                                ),
                            ));
                        }
                        Value::Object(o)
                    })
                    .collect(),
            ),
        ),
    ])
}

const WORKLOAD_KEYS: &[&str] = &[
    "class",
    "users",
    "admin_share",
    "monthly_jobs",
    "runtime",
    "input",
    "output",
    "staged_files",
    "needs_outbound",
    "registers_output",
    "walltime_margin",
    "walltime_underestimate_prob",
    "vo_affinity",
    "sc2003_surge_frac",
    "arrivals",
];

fn decode_workloads(v: &Value) -> Result<Vec<WorkloadSpec>, DslError> {
    let path = "workloads";
    let items = v
        .as_array()
        .ok_or_else(|| DslError::field(path, format!("expected an array, found {}", v.kind())))?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| decode_workload(item, &d::index(path, i)))
        .collect()
}

fn decode_workload(v: &Value, path: &str) -> Result<WorkloadSpec, DslError> {
    let o = d::as_object(v, path)?;
    d::check_keys(o, path, WORKLOAD_KEYS)?;
    let class = d::user_class(
        d::get(o, "class")
            .ok_or_else(|| DslError::field(path, "missing required field `class`"))?,
        &d::join(path, "class"),
    )?;
    let users = d::get(o, "users")
        .map(|v| d::u32_value(v, &d::join(path, "users")))
        .transpose()?
        .unwrap_or(1);
    if users == 0 {
        return Err(DslError::field(
            &d::join(path, "users"),
            "must be at least 1",
        ));
    }
    let monthly_path = d::join(path, "monthly_jobs");
    let monthly_jobs = match d::get(o, "monthly_jobs") {
        None => Vec::new(),
        Some(v) => v
            .as_array()
            .ok_or_else(|| DslError::field(&monthly_path, "expected an array of job counts"))?
            .iter()
            .enumerate()
            .map(|(i, n)| d::u64_value(n, &d::index(&monthly_path, i)))
            .collect::<Result<Vec<u64>, DslError>>()?,
    };
    let fraction = |key: &str, default: f64| -> Result<f64, DslError> {
        d::get(o, key)
            .map(|v| d::fraction_value(v, &d::join(path, key)))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let flag = |key: &str| -> Result<bool, DslError> {
        d::get(o, key)
            .map(|v| d::bool_value(v, &d::join(path, key)))
            .transpose()
            .map(|v| v.unwrap_or(false))
    };
    let runtime = match d::get(o, "runtime") {
        None => grid3_simkit::dist::DurationDist::Fixed(SimDuration::from_hours(1)),
        Some(v) => d::derived(v, &d::join(path, "runtime"))?,
    };
    let size = |key: &str| -> Result<grid3_simkit::dist::SizeDist, DslError> {
        match d::get(o, key) {
            None => Ok(grid3_simkit::dist::SizeDist::Fixed(0)),
            Some(v) => d::derived(v, &d::join(path, key)),
        }
    };
    let walltime_margin = d::get(o, "walltime_margin")
        .map(|v| d::f64_value(v, &d::join(path, "walltime_margin")))
        .transpose()?
        .unwrap_or(2.0);
    if walltime_margin <= 0.0 {
        return Err(DslError::field(
            &d::join(path, "walltime_margin"),
            format!("{walltime_margin} is not positive"),
        ));
    }
    let arrivals: Option<ArrivalProcess> = d::get(o, "arrivals")
        .map(|v| d::derived(v, &d::join(path, "arrivals")))
        .transpose()?;
    if let Some(ArrivalProcess::Poisson { per_day }) = arrivals {
        if !(per_day >= 0.0 && per_day.is_finite()) {
            return Err(DslError::field(
                &d::join(path, "arrivals.per_day"),
                format!("negative or non-finite arrival rate {per_day}"),
            ));
        }
    }
    Ok(WorkloadSpec {
        class,
        users,
        admin_share: fraction("admin_share", 1.0)?,
        monthly_jobs,
        runtime,
        input: size("input")?,
        output: size("output")?,
        staged_files: d::get(o, "staged_files")
            .map(|v| d::u32_value(v, &d::join(path, "staged_files")))
            .transpose()?
            .unwrap_or(0),
        needs_outbound: flag("needs_outbound")?,
        registers_output: flag("registers_output")?,
        walltime_margin,
        walltime_underestimate_prob: fraction("walltime_underestimate_prob", 0.0)?,
        vo_affinity: fraction("vo_affinity", 0.0)?,
        sc2003_surge_frac: fraction("sc2003_surge_frac", 0.0)?,
        arrivals,
    })
}

fn encode_workload(w: &WorkloadSpec) -> Value {
    let mut o: Vec<(String, Value)> = vec![
        ("class".into(), Value::Str(w.class.name().to_string())),
        ("users".into(), Value::U64(w.users as u64)),
        ("admin_share".into(), Value::F64(w.admin_share)),
        (
            "monthly_jobs".into(),
            Value::Array(w.monthly_jobs.iter().map(|n| Value::U64(*n)).collect()),
        ),
        ("runtime".into(), w.runtime.to_value()),
        ("input".into(), w.input.to_value()),
        ("output".into(), w.output.to_value()),
        ("staged_files".into(), Value::U64(w.staged_files as u64)),
        ("needs_outbound".into(), Value::Bool(w.needs_outbound)),
        ("registers_output".into(), Value::Bool(w.registers_output)),
        ("walltime_margin".into(), Value::F64(w.walltime_margin)),
        (
            "walltime_underestimate_prob".into(),
            Value::F64(w.walltime_underestimate_prob),
        ),
        ("vo_affinity".into(), Value::F64(w.vo_affinity)),
        ("sc2003_surge_frac".into(), Value::F64(w.sc2003_surge_frac)),
    ];
    if let Some(arrivals) = &w.arrivals {
        o.push(("arrivals".into(), arrivals.to_value()));
    }
    Value::Object(o)
}

fn decode_trace(v: &Value) -> Result<TraceDoc, DslError> {
    let path = "trace";
    let o = d::as_object(v, path)?;
    d::check_keys(o, path, &["path", "jobs"])?;
    match (d::get(o, "path"), d::get(o, "jobs")) {
        (Some(_), Some(_)) => Err(DslError::field(path, "give `path` or `jobs`, not both")),
        (Some(p), None) => Ok(TraceDoc::Path(
            d::str_value(p, &d::join(path, "path"))?.to_string(),
        )),
        (None, Some(jobs)) => {
            let jobs_path = d::join(path, "jobs");
            let items = jobs
                .as_array()
                .ok_or_else(|| DslError::field(&jobs_path, "expected an array of jobs"))?;
            let jobs = items
                .iter()
                .enumerate()
                .map(|(i, item)| TraceJob::decode(item, &d::index(&jobs_path, i)))
                .collect::<Result<Vec<TraceJob>, DslError>>()?;
            Ok(TraceDoc::Inline(JobTrace { jobs }))
        }
        (None, None) => Err(DslError::field(path, "needs `path` or `jobs`")),
    }
}
