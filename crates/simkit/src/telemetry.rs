//! Grid-wide instrumentation: metrics registry, span tracing, and
//! event-loop profiling.
//!
//! The paper's §8 lessons ask for "API for accessing troubleshooting and
//! accounting information … without the necessity of parsing log files".
//! [`crate::time`]-stamped spans and a typed metrics registry are the
//! simulation-side answer: every middleware subsystem increments counters
//! and opens spans against one shared [`Telemetry`] handle, and the
//! registry can be cross-checked against the independently-collected
//! monitoring paths (ACDC records, the NetLogger archive) — the §5.2
//! redundancy property, applied to the simulator's own internals.
//!
//! Design constraints:
//!
//! * **Zero-cost when disabled.** [`Telemetry::disabled`] holds no
//!   allocation; every recording call is a single `Option` check.
//! * **Interned hot path.** Metric names are interned once at
//!   registration into dense slot arrays; a [`Counter`] or [`Histo`]
//!   handle records with one `RefCell` borrow and one array index — no
//!   hashing, no tree walk, no `String` allocation. The name-keyed
//!   [`Telemetry::counter_add`] API survives as a compatibility path
//!   that binary-searches a sorted intern index (allocation-free on
//!   hit) and is meant for cold call sites only.
//! * **Deterministic.** The intern index is kept sorted by
//!   `(subsystem, name, label)`, so every export is ordered
//!   independently of registration order and hash seeds.
//! * **Simulation-pure.** Timestamps are [`SimTime`]; wall-clock
//!   events/sec is computed by the bench harness, not here.
//! * **Bounded.** Completed spans live in a ring buffer
//!   ([`DEFAULT_SPAN_CAPACITY`] by default); the oldest records are
//!   dropped, and the drop count is reported, never hidden. Open spans
//!   live in a free-list slab; a [`SpanId`] packs `(generation, slot)`
//!   so a stale or double close is a detected no-op, never a
//!   misattribution.
//!
//! The handle is a shared `Rc<RefCell<…>>`, so recording works through
//! `&self` — subsystems can instrument read-only query paths. It
//! serializes as `null` and deserializes as disabled, so structs that
//! derive serde can embed it without custom attributes.

use crate::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::rc::Rc;

/// Default bound on retained completed spans.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// Width of one queue-depth bin of the event-loop profile.
pub const DEFAULT_DEPTH_BIN: SimDuration = SimDuration::from_hours(1);

/// A registry key: `(subsystem, name)` plus a free-form label
/// (site, VO, …). Empty label means "grid-wide".
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Producing subsystem (`"gram"`, `"gridftp"`, …).
    pub subsystem: &'static str,
    /// Metric name within the subsystem.
    pub name: &'static str,
    /// Site/VO label, `""` for unlabelled.
    pub label: String,
}

/// A fixed-bucket histogram: `counts[i]` holds observations
/// `<= bounds[i]`, with one implicit overflow bucket at the end.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds, ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `len() == bounds.len() + 1` (overflow last).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

#[derive(Debug, Clone)]
struct Histogram {
    bounds: &'static [f64],
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    fn new(bounds: &'static [f64]) -> Self {
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            counts: self.counts.clone(),
            count: self.count,
            sum: self.sum,
        }
    }
}

/// Opaque handle to an open span. Packs `(generation, slot)`: the low 32
/// bits index the open-span slab, the high 32 bits carry the span's
/// monotonic id truncated to 32 bits as a reuse guard. Closing a stale
/// or already-closed id is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

/// A completed span: one timed operation inside a subsystem, optionally
/// linked to the `TraceStore` job id it served.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Monotonic span id (allocation order).
    pub id: u64,
    /// Subsystem that opened the span.
    pub subsystem: &'static str,
    /// Operation name.
    pub op: &'static str,
    /// Linked job id (`JobId.0`), if the span served a job.
    pub job: Option<u64>,
    /// Span start.
    pub begin: SimTime,
    /// Span end.
    pub end: SimTime,
    /// Whether the operation ended in error.
    pub error: bool,
}

/// One slot of the open-span slab. `open == false` means the slot is on
/// the free list; `id` doubles as the reuse guard for [`SpanId`].
#[derive(Debug, Clone)]
struct SpanSlot {
    id: u64,
    open: bool,
    subsystem: &'static str,
    op: &'static str,
    job: Option<u64>,
    begin: SimTime,
}

/// One bin of the event-loop queue-depth profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DepthBin {
    /// Events dispatched inside the bin.
    pub pops: u64,
    /// Maximum post-pop queue depth seen inside the bin.
    pub max_depth: u64,
}

/// One counter reading in a registry snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterReading {
    /// Producing subsystem.
    pub subsystem: &'static str,
    /// Metric name.
    pub name: &'static str,
    /// Site/VO label (`""` for unlabelled).
    pub label: String,
    /// Current value.
    pub value: u64,
}

#[derive(Debug, Default)]
struct Inner {
    /// Sorted `(key → slot)` intern index for counters. Binary-searched
    /// by the name-keyed API; handles skip it entirely.
    counter_index: Vec<(MetricKey, u32)>,
    /// Dense counter storage; slots are append-only and stable, so
    /// [`Counter`] handles stay valid across later registrations.
    counter_values: Vec<u64>,
    gauges: BTreeMap<MetricKey, f64>,
    /// Sorted `(key → slot)` intern index for histograms.
    hist_index: Vec<(MetricKey, u32)>,
    hist_slots: Vec<Histogram>,
    open_slab: Vec<SpanSlot>,
    free_slots: Vec<u32>,
    open_count: usize,
    spans: VecDeque<SpanRecord>,
    span_capacity: usize,
    dropped_spans: u64,
    next_span: u64,
    /// Per-event-type dispatch counts in first-seen order; the label set
    /// is a handful of `&'static str`s, so a pointer-equality linear
    /// scan beats any tree or hash. Sorted on export.
    dispatch: Vec<(&'static str, u64)>,
    /// Queue-depth bins, sorted by bin index. Pop times are monotonic,
    /// so the common case is "same bin as last" or "append".
    depth_bins: Vec<(u64, DepthBin)>,
    depth_bin_width: SimDuration,
}

impl Inner {
    /// Find or intern the counter `(subsystem, name, label)`, returning
    /// its stable slot. Allocation-free when the counter already exists.
    fn counter_slot(
        &mut self,
        subsystem: &'static str,
        name: &'static str,
        label: impl Into<String> + AsRef<str>,
    ) -> u32 {
        let probe = (subsystem, name, label.as_ref());
        match self
            .counter_index
            .binary_search_by(|(k, _)| (k.subsystem, k.name, k.label.as_str()).cmp(&probe))
        {
            Ok(pos) => self.counter_index[pos].1,
            Err(pos) => {
                let slot = self.counter_values.len() as u32;
                self.counter_values.push(0);
                let key = MetricKey {
                    subsystem,
                    name,
                    label: label.into(),
                };
                self.counter_index.insert(pos, (key, slot));
                slot
            }
        }
    }

    /// Find or intern the histogram `(subsystem, name, label)`.
    fn hist_slot(
        &mut self,
        subsystem: &'static str,
        name: &'static str,
        label: impl Into<String> + AsRef<str>,
        bounds: &'static [f64],
    ) -> u32 {
        let probe = (subsystem, name, label.as_ref());
        match self
            .hist_index
            .binary_search_by(|(k, _)| (k.subsystem, k.name, k.label.as_str()).cmp(&probe))
        {
            Ok(pos) => self.hist_index[pos].1,
            Err(pos) => {
                let slot = self.hist_slots.len() as u32;
                self.hist_slots.push(Histogram::new(bounds));
                let key = MetricKey {
                    subsystem,
                    name,
                    label: label.into(),
                };
                self.hist_index.insert(pos, (key, slot));
                slot
            }
        }
    }
}

/// A pre-registered counter: one `RefCell` borrow plus one array index
/// per [`Counter::add`], no name lookup. Obtained from
/// [`Telemetry::register_counter`]; a handle from a disabled `Telemetry`
/// is inert. Clones share the same slot. Serializes as `null` and
/// deserializes as inert, so serde-derived structs can embed it.
#[derive(Clone, Default)]
pub struct Counter(Option<(Rc<RefCell<Inner>>, u32)>);

impl Counter {
    /// An inert handle (what a disabled `Telemetry` hands out).
    pub fn disabled() -> Self {
        Counter(None)
    }

    /// Whether this handle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Add `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        if let Some((inner, slot)) = &self.0 {
            inner.borrow_mut().counter_values[*slot as usize] += delta;
        }
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some((_, slot)) => write!(f, "Counter(slot {slot})"),
            None => write!(f, "Counter(disabled)"),
        }
    }
}

impl serde::Serialize for Counter {
    fn serialize<S: serde::Sink + ?Sized>(&self, sink: &mut S) {
        sink.null()
    }
}

impl serde::Deserialize for Counter {
    fn from_value(_v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Counter::disabled())
    }
}

/// A pre-registered fixed-bucket histogram: one `RefCell` borrow plus
/// one array index per [`Histo::observe`]. Obtained from
/// [`Telemetry::register_histogram`]; inert when the `Telemetry` was
/// disabled. Serializes as `null`, deserializes as inert.
#[derive(Clone, Default)]
pub struct Histo(Option<(Rc<RefCell<Inner>>, u32)>);

impl Histo {
    /// An inert handle (what a disabled `Telemetry` hands out).
    pub fn disabled() -> Self {
        Histo(None)
    }

    /// Whether this handle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Observe `value` into the histogram.
    #[inline]
    pub fn observe(&self, value: f64) {
        if let Some((inner, slot)) = &self.0 {
            inner.borrow_mut().hist_slots[*slot as usize].observe(value);
        }
    }
}

impl std::fmt::Debug for Histo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some((_, slot)) => write!(f, "Histo(slot {slot})"),
            None => write!(f, "Histo(disabled)"),
        }
    }
}

impl serde::Serialize for Histo {
    fn serialize<S: serde::Sink + ?Sized>(&self, sink: &mut S) {
        sink.null()
    }
}

impl serde::Deserialize for Histo {
    fn from_value(_v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Histo::disabled())
    }
}

/// The shared instrumentation handle. Cloning is cheap and every clone
/// records into the same registry; the disabled handle records nothing.
#[derive(Clone, Default)]
pub struct Telemetry(Option<Rc<RefCell<Inner>>>);

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(inner) => write!(
                f,
                "Telemetry(enabled, {} counters, {} spans)",
                inner.borrow().counter_index.len(),
                inner.borrow().spans.len()
            ),
            None => write!(f, "Telemetry(disabled)"),
        }
    }
}

// The handle is runtime plumbing, not state: it serializes as `null` and
// deserializes as disabled, so serde-derived structs can embed it.
impl serde::Serialize for Telemetry {
    fn serialize<S: serde::Sink + ?Sized>(&self, sink: &mut S) {
        sink.null()
    }
}

impl serde::Deserialize for Telemetry {
    fn from_value(_v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Telemetry::disabled())
    }
}

impl Telemetry {
    /// A no-op handle: every recording call is a single branch.
    pub fn disabled() -> Self {
        Telemetry(None)
    }

    /// An active handle with the default span ring capacity.
    pub fn enabled() -> Self {
        Self::with_span_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// An active handle retaining at most `capacity` completed spans.
    pub fn with_span_capacity(capacity: usize) -> Self {
        Telemetry(Some(Rc::new(RefCell::new(Inner {
            span_capacity: capacity.max(1),
            depth_bin_width: DEFAULT_DEPTH_BIN,
            ..Inner::default()
        }))))
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    // ----- registration ----------------------------------------------

    /// Intern the counter `(subsystem, name, label)` and return a dense
    /// [`Counter`] handle for it. Register once at wiring time, then
    /// [`Counter::add`] from the hot path — it costs an array index, not
    /// a name lookup. The handle from a disabled `Telemetry` is inert.
    pub fn register_counter(
        &self,
        subsystem: &'static str,
        name: &'static str,
        label: impl Into<String> + AsRef<str>,
    ) -> Counter {
        match &self.0 {
            Some(inner) => {
                let slot = inner.borrow_mut().counter_slot(subsystem, name, label);
                Counter(Some((Rc::clone(inner), slot)))
            }
            None => Counter(None),
        }
    }

    /// Intern the histogram `(subsystem, name, label)` with fixed
    /// `bounds` and return a dense [`Histo`] handle for it.
    pub fn register_histogram(
        &self,
        subsystem: &'static str,
        name: &'static str,
        label: impl Into<String> + AsRef<str>,
        bounds: &'static [f64],
    ) -> Histo {
        match &self.0 {
            Some(inner) => {
                let slot = inner.borrow_mut().hist_slot(subsystem, name, label, bounds);
                Histo(Some((Rc::clone(inner), slot)))
            }
            None => Histo(None),
        }
    }

    // ----- counters / gauges / histograms ----------------------------

    /// Add `delta` to the counter `(subsystem, name, label)`.
    ///
    /// Compatibility path for cold call sites: binary-searches the
    /// intern index (allocation-free when the counter exists). Hot call
    /// sites should hold a [`Counter`] from
    /// [`Telemetry::register_counter`] instead.
    pub fn counter_add(
        &self,
        subsystem: &'static str,
        name: &'static str,
        label: impl Into<String> + AsRef<str>,
        delta: u64,
    ) {
        if let Some(inner) = &self.0 {
            let mut inner = inner.borrow_mut();
            let slot = inner.counter_slot(subsystem, name, label);
            inner.counter_values[slot as usize] += delta;
        }
    }

    /// [`Telemetry::counter_add`] with a lazily built label: `label` is
    /// only invoked when the handle is enabled, so call sites with
    /// `format!`-style labels cost nothing — no allocation, no
    /// formatting — on a disabled handle.
    pub fn counter_add_with(
        &self,
        subsystem: &'static str,
        name: &'static str,
        label: impl FnOnce() -> String,
        delta: u64,
    ) {
        if let Some(inner) = &self.0 {
            let mut inner = inner.borrow_mut();
            let slot = inner.counter_slot(subsystem, name, label());
            inner.counter_values[slot as usize] += delta;
        }
    }

    /// Current value of one labelled counter (0 if never written).
    pub fn counter(&self, subsystem: &'static str, name: &'static str, label: &str) -> u64 {
        self.0
            .as_ref()
            .and_then(|inner| {
                let inner = inner.borrow();
                let probe = (subsystem, name, label);
                inner
                    .counter_index
                    .binary_search_by(|(k, _)| (k.subsystem, k.name, k.label.as_str()).cmp(&probe))
                    .ok()
                    .map(|pos| inner.counter_values[inner.counter_index[pos].1 as usize])
            })
            .unwrap_or(0)
    }

    /// Sum of a counter over every label.
    pub fn counter_total(&self, subsystem: &'static str, name: &'static str) -> u64 {
        self.0
            .as_ref()
            .map(|inner| {
                let inner = inner.borrow();
                inner
                    .counter_index
                    .iter()
                    .filter(|(k, _)| k.subsystem == subsystem && k.name == name)
                    .map(|(_, slot)| inner.counter_values[*slot as usize])
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Set the gauge `(subsystem, name, label)`.
    pub fn gauge_set(
        &self,
        subsystem: &'static str,
        name: &'static str,
        label: impl Into<String>,
        value: f64,
    ) {
        if let Some(inner) = &self.0 {
            let key = MetricKey {
                subsystem,
                name,
                label: label.into(),
            };
            inner.borrow_mut().gauges.insert(key, value);
        }
    }

    /// Observe `value` into the fixed-bucket histogram
    /// `(subsystem, name, label)`. `bounds` fixes the buckets on first
    /// use; later calls must pass the same slice. Hot call sites should
    /// hold a [`Histo`] from [`Telemetry::register_histogram`] instead.
    pub fn observe(
        &self,
        subsystem: &'static str,
        name: &'static str,
        label: impl Into<String> + AsRef<str>,
        value: f64,
        bounds: &'static [f64],
    ) {
        if let Some(inner) = &self.0 {
            let mut inner = inner.borrow_mut();
            let slot = inner.hist_slot(subsystem, name, label, bounds);
            inner.hist_slots[slot as usize].observe(value);
        }
    }

    /// Snapshot of one histogram.
    pub fn histogram(
        &self,
        subsystem: &'static str,
        name: &'static str,
        label: &str,
    ) -> Option<HistogramSnapshot> {
        self.0.as_ref().and_then(|inner| {
            let inner = inner.borrow();
            let probe = (subsystem, name, label);
            inner
                .hist_index
                .binary_search_by(|(k, _)| (k.subsystem, k.name, k.label.as_str()).cmp(&probe))
                .ok()
                .map(|pos| inner.hist_slots[inner.hist_index[pos].1 as usize].snapshot())
        })
    }

    /// All counters, in deterministic `(subsystem, name, label)` order.
    pub fn counters(&self) -> Vec<CounterReading> {
        self.0
            .as_ref()
            .map(|inner| {
                let inner = inner.borrow();
                inner
                    .counter_index
                    .iter()
                    .map(|(k, slot)| CounterReading {
                        subsystem: k.subsystem,
                        name: k.name,
                        label: k.label.clone(),
                        value: inner.counter_values[*slot as usize],
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    // ----- spans -----------------------------------------------------

    /// Open a span at `now`. Returns a handle for [`Telemetry::span_exit`];
    /// the disabled handle returns an inert id.
    pub fn span_enter(
        &self,
        now: SimTime,
        subsystem: &'static str,
        op: &'static str,
        job: Option<u64>,
    ) -> SpanId {
        let Some(inner) = &self.0 else {
            return SpanId(u64::MAX);
        };
        let mut inner = inner.borrow_mut();
        let id = inner.next_span;
        inner.next_span += 1;
        let slot = SpanSlot {
            id,
            open: true,
            subsystem,
            op,
            job,
            begin: now,
        };
        let idx = match inner.free_slots.pop() {
            Some(idx) => {
                inner.open_slab[idx as usize] = slot;
                idx
            }
            None => {
                inner.open_slab.push(slot);
                (inner.open_slab.len() - 1) as u32
            }
        };
        inner.open_count += 1;
        SpanId(((id & 0xFFFF_FFFF) << 32) | u64::from(idx))
    }

    /// Close a span successfully at `now`.
    pub fn span_exit(&self, now: SimTime, id: SpanId) {
        self.close_span(now, id, false);
    }

    /// Close a span at `now`, marking it errored.
    pub fn span_error(&self, now: SimTime, id: SpanId) {
        self.close_span(now, id, true);
    }

    fn close_span(&self, now: SimTime, id: SpanId, error: bool) {
        let Some(inner) = &self.0 else { return };
        let mut inner = inner.borrow_mut();
        let idx = (id.0 & 0xFFFF_FFFF) as usize;
        let guard = (id.0 >> 32) as u32;
        // Out-of-range slot (including the disabled sentinel), a slot on
        // the free list, or a generation mismatch: stale id, ignore.
        let Some(slot) = inner.open_slab.get_mut(idx) else {
            return;
        };
        if !slot.open || (slot.id & 0xFFFF_FFFF) as u32 != guard {
            return;
        }
        slot.open = false;
        let record = SpanRecord {
            id: slot.id,
            subsystem: slot.subsystem,
            op: slot.op,
            job: slot.job,
            begin: slot.begin,
            end: now,
            error,
        };
        inner.free_slots.push(idx as u32);
        inner.open_count -= 1;
        if inner.spans.len() >= inner.span_capacity {
            inner.spans.pop_front();
            inner.dropped_spans += 1;
        }
        inner.spans.push_back(record);
    }

    /// Completed spans currently retained (oldest first).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.0
            .as_ref()
            .map(|inner| inner.borrow().spans.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Spans opened but not yet closed.
    pub fn open_span_count(&self) -> usize {
        self.0
            .as_ref()
            .map(|inner| inner.borrow().open_count)
            .unwrap_or(0)
    }

    /// Spans evicted from the ring because it was full.
    pub fn dropped_span_count(&self) -> u64 {
        self.0
            .as_ref()
            .map(|inner| inner.borrow().dropped_spans)
            .unwrap_or(0)
    }

    // ----- event-loop profiling --------------------------------------

    /// Record one event dispatch: per-event-type counts plus the
    /// sim-time-binned queue-depth profile. Called by
    /// [`EventQueue::pop_profiled`](crate::engine::EventQueue::pop_profiled).
    pub fn record_dispatch(&self, now: SimTime, label: &'static str, queue_depth: usize) {
        let Some(inner) = &self.0 else { return };
        let mut inner = inner.borrow_mut();
        // The label set is a few dozen static strings; a pointer-equality
        // scan is branch-predictable and allocation-free.
        if let Some(entry) = inner
            .dispatch
            .iter_mut()
            .find(|(l, _)| std::ptr::eq(*l, label) || *l == label)
        {
            entry.1 += 1;
        } else {
            inner.dispatch.push((label, 1));
        }

        let width = inner.depth_bin_width.as_micros().max(1);
        let idx = now.as_micros() / width;
        let depth = queue_depth as u64;
        match inner.depth_bins.last_mut() {
            Some(last) if last.0 == idx => {
                last.1.pops += 1;
                last.1.max_depth = last.1.max_depth.max(depth);
            }
            Some(last) if last.0 < idx => {
                inner.depth_bins.push((
                    idx,
                    DepthBin {
                        pops: 1,
                        max_depth: depth,
                    },
                ));
            }
            None => {
                inner.depth_bins.push((
                    idx,
                    DepthBin {
                        pops: 1,
                        max_depth: depth,
                    },
                ));
            }
            Some(_) => {
                // Time went backwards relative to the newest bin (only
                // synthetic callers do this); keep the vec sorted.
                match inner.depth_bins.binary_search_by_key(&idx, |b| b.0) {
                    Ok(pos) => {
                        let bin = &mut inner.depth_bins[pos].1;
                        bin.pops += 1;
                        bin.max_depth = bin.max_depth.max(depth);
                    }
                    Err(pos) => inner.depth_bins.insert(
                        pos,
                        (
                            idx,
                            DepthBin {
                                pops: 1,
                                max_depth: depth,
                            },
                        ),
                    ),
                }
            }
        }
    }

    /// Dispatch counts per event type, deterministically ordered by label.
    pub fn dispatch_counts(&self) -> Vec<(&'static str, u64)> {
        self.0
            .as_ref()
            .map(|inner| {
                let mut all: Vec<(&'static str, u64)> = inner.borrow().dispatch.clone();
                all.sort_by(|a, b| a.0.cmp(b.0));
                all
            })
            .unwrap_or_default()
    }

    /// The `n` hottest event types, by dispatch count descending (ties
    /// break alphabetically, so the order is deterministic).
    pub fn hottest_events(&self, n: usize) -> Vec<(&'static str, u64)> {
        let mut all = self.dispatch_counts();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        all.truncate(n);
        all
    }

    /// The queue-depth profile as `(bin_start, bin)` pairs.
    pub fn depth_profile(&self) -> Vec<(SimTime, DepthBin)> {
        self.0
            .as_ref()
            .map(|inner| {
                let inner = inner.borrow();
                let width = inner.depth_bin_width.as_micros().max(1);
                inner
                    .depth_bins
                    .iter()
                    .map(|(idx, bin)| (SimTime::from_micros(idx * width), *bin))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Total events recorded through the profiler.
    pub fn dispatch_total(&self) -> u64 {
        self.dispatch_counts().iter().map(|(_, c)| c).sum()
    }

    // ----- exports ---------------------------------------------------

    /// Completed spans as JSON lines, one object per line, oldest first.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let _ = write!(
                out,
                "{{\"id\":{},\"subsystem\":\"{}\",\"op\":\"{}\",",
                s.id, s.subsystem, s.op
            );
            match s.job {
                Some(j) => {
                    let _ = write!(out, "\"job\":{j},");
                }
                None => out.push_str("\"job\":null,"),
            }
            let _ = writeln!(
                out,
                "\"begin_us\":{},\"end_us\":{},\"error\":{}}}",
                s.begin.as_micros(),
                s.end.as_micros(),
                s.error
            );
        }
        out
    }

    /// Completed spans in Chrome `trace_event` format (complete `"X"`
    /// events, microsecond timestamps) — loadable in `chrome://tracing`
    /// or Perfetto. Each subsystem maps to its own tid.
    pub fn chrome_trace(&self) -> String {
        let spans = self.spans();
        let mut tids: BTreeMap<&'static str, usize> = BTreeMap::new();
        for s in &spans {
            let next = tids.len() + 1;
            tids.entry(s.subsystem).or_insert(next);
        }
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{},\"args\":{{",
                s.op,
                s.subsystem,
                s.begin.as_micros(),
                s.end.since(s.begin).as_micros(),
                tids[s.subsystem]
            );
            if let Some(j) = s.job {
                let _ = write!(out, "\"job\":{j},");
            }
            let _ = write!(out, "\"error\":{}}}}}", s.error);
        }
        out.push_str("]}");
        out
    }

    /// The whole registry (counters, gauges, histograms, dispatch
    /// profile) as a JSON object string, deterministically ordered.
    pub fn registry_json(&self) -> String {
        let mut out = String::from("{\"counters\":[");
        for (i, c) in self.counters().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"subsystem\":\"{}\",\"name\":\"{}\",\"label\":\"{}\",\"value\":{}}}",
                c.subsystem, c.name, c.label, c.value
            );
        }
        out.push_str("],\"gauges\":[");
        if let Some(inner) = &self.0 {
            for (i, (k, v)) in inner.borrow().gauges.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"subsystem\":\"{}\",\"name\":\"{}\",\"label\":\"{}\",\"value\":{}}}",
                    k.subsystem,
                    k.name,
                    k.label,
                    if v.is_finite() { *v } else { 0.0 }
                );
            }
        }
        out.push_str("],\"histograms\":[");
        if let Some(inner) = &self.0 {
            let inner = inner.borrow();
            for (i, (k, slot)) in inner.hist_index.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let snap = inner.hist_slots[*slot as usize].snapshot();
                let _ = write!(
                    out,
                    "{{\"subsystem\":\"{}\",\"name\":\"{}\",\"label\":\"{}\",\
                     \"count\":{},\"sum\":{},\"bounds\":{:?},\"bucket_counts\":{:?}}}",
                    k.subsystem, k.name, k.label, snap.count, snap.sum, snap.bounds, snap.counts
                );
            }
        }
        out.push_str("],\"dispatch\":[");
        for (i, (label, count)) in self.dispatch_counts().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"event\":\"{label}\",\"count\":{count}}}");
        }
        let _ = write!(
            out,
            "],\"spans_retained\":{},\"spans_dropped\":{}}}",
            self.spans().len(),
            self.dropped_span_count()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        t.counter_add("gram", "accepted", "site0", 1);
        let id = t.span_enter(SimTime::EPOCH, "gram", "submit", Some(7));
        t.span_exit(SimTime::from_secs(1), id);
        t.record_dispatch(SimTime::EPOCH, "submit", 3);
        assert!(!t.is_enabled());
        assert_eq!(t.counter_total("gram", "accepted"), 0);
        assert!(t.spans().is_empty());
        assert!(t.dispatch_counts().is_empty());
    }

    #[test]
    fn counters_iterate_in_key_order() {
        let t = Telemetry::enabled();
        t.counter_add("rls", "lookups", "", 2);
        t.counter_add("gram", "accepted", "site1", 1);
        t.counter_add("gram", "accepted", "site0", 3);
        let keys: Vec<(&str, &str, String)> = t
            .counters()
            .into_iter()
            .map(|c| (c.subsystem, c.name, c.label))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("gram", "accepted", "site0".to_string()),
                ("gram", "accepted", "site1".to_string()),
                ("rls", "lookups", String::new()),
            ]
        );
        assert_eq!(t.counter_total("gram", "accepted"), 4);
        assert_eq!(t.counter("gram", "accepted", "site0"), 3);
    }

    #[test]
    fn registered_counter_handle_shares_the_slot() {
        let t = Telemetry::enabled();
        let h = t.register_counter("gram", "accepted", "site0");
        assert!(h.is_enabled());
        h.add(2);
        // Name-keyed adds land in the same interned slot.
        t.counter_add("gram", "accepted", "site0", 1);
        h.clone().add(4);
        assert_eq!(t.counter("gram", "accepted", "site0"), 7);
        // Re-registering the same key returns the same slot.
        let again = t.register_counter("gram", "accepted", "site0");
        again.add(1);
        assert_eq!(t.counter("gram", "accepted", "site0"), 8);
        assert_eq!(t.counters().len(), 1);
    }

    #[test]
    fn disabled_registration_hands_out_inert_handles() {
        let t = Telemetry::disabled();
        let c = t.register_counter("gram", "accepted", "site0");
        let h = t.register_histogram("gram", "load", "", &[1.0]);
        assert!(!c.is_enabled());
        assert!(!h.is_enabled());
        c.add(5);
        h.observe(0.5);
        assert_eq!(t.counter_total("gram", "accepted"), 0);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        static BOUNDS: [f64; 3] = [1.0, 10.0, 100.0];
        let t = Telemetry::enabled();
        for v in [0.5, 5.0, 50.0, 500.0, 0.9] {
            t.observe("gram", "load", "", v, &BOUNDS);
        }
        let h = t.histogram("gram", "load", "").unwrap();
        assert_eq!(h.counts, vec![2, 1, 1, 1]);
        assert_eq!(h.count, 5);
        assert!((h.sum - 556.4).abs() < 1e-9);
    }

    #[test]
    fn registered_histogram_handle_shares_the_slot() {
        static BOUNDS: [f64; 2] = [1.0, 10.0];
        let t = Telemetry::enabled();
        let h = t.register_histogram("gram", "load", "site3", &BOUNDS);
        h.observe(0.5);
        t.observe("gram", "load", "site3", 5.0, &BOUNDS);
        let snap = t.histogram("gram", "load", "site3").unwrap();
        assert_eq!(snap.counts, vec![1, 1, 0]);
        assert_eq!(snap.count, 2);
    }

    #[test]
    fn span_ring_is_bounded_and_reports_drops() {
        let t = Telemetry::with_span_capacity(2);
        for i in 0..4u64 {
            let id = t.span_enter(SimTime::from_secs(i), "engine", "job", Some(i));
            t.span_exit(SimTime::from_secs(i + 1), id);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(t.dropped_span_count(), 2);
        // Oldest survivors dropped first: ids 2 and 3 remain.
        assert_eq!(spans[0].job, Some(2));
        assert_eq!(spans[1].job, Some(3));
    }

    #[test]
    fn span_error_marks_record() {
        let t = Telemetry::enabled();
        let ok = t.span_enter(SimTime::EPOCH, "gridftp", "stage_in", Some(1));
        t.span_exit(SimTime::from_secs(5), ok);
        let bad = t.span_enter(SimTime::from_secs(5), "gridftp", "stage_out", Some(1));
        t.span_error(SimTime::from_secs(9), bad);
        let spans = t.spans();
        assert!(!spans[0].error);
        assert!(spans[1].error);
        assert_eq!(
            spans[1].end.since(spans[1].begin),
            SimDuration::from_secs(4)
        );
        assert_eq!(t.open_span_count(), 0);
    }

    #[test]
    fn stale_and_double_close_are_noops() {
        let t = Telemetry::enabled();
        let a = t.span_enter(SimTime::EPOCH, "gram", "submit", Some(1));
        t.span_exit(SimTime::from_secs(1), a);
        // Double close: the slot is free, nothing happens.
        t.span_exit(SimTime::from_secs(2), a);
        assert_eq!(t.spans().len(), 1);
        // The freed slot is reused by the next span; the stale id for it
        // carries the old generation and must not close the new span.
        let b = t.span_enter(SimTime::from_secs(3), "gram", "submit", Some(2));
        t.span_exit(SimTime::from_secs(4), a);
        assert_eq!(t.open_span_count(), 1);
        t.span_exit(SimTime::from_secs(5), b);
        assert_eq!(t.open_span_count(), 0);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].job, Some(2));
        assert_eq!(spans[1].end, SimTime::from_secs(5));
    }

    #[test]
    fn dispatch_profile_bins_and_hottest() {
        let t = Telemetry::enabled();
        for i in 0..10 {
            t.record_dispatch(SimTime::from_mins(i * 30), "try_dispatch", i as usize);
        }
        t.record_dispatch(SimTime::from_hours(3), "monitor_tick", 1);
        assert_eq!(t.dispatch_total(), 11);
        let hottest = t.hottest_events(1);
        assert_eq!(hottest, vec![("try_dispatch", 10)]);
        let profile = t.depth_profile();
        // 30-minute cadence over 5 hours → bins 0..=4 (plus the tick at 3 h).
        assert_eq!(profile.len(), 5);
        assert_eq!(profile[0].1.pops, 2);
        assert_eq!(profile[0].1.max_depth, 1);
    }

    #[test]
    fn dispatch_handles_out_of_order_times() {
        let t = Telemetry::enabled();
        t.record_dispatch(SimTime::from_hours(5), "a", 1);
        t.record_dispatch(SimTime::from_hours(2), "b", 9);
        t.record_dispatch(SimTime::from_hours(2), "b", 3);
        let profile = t.depth_profile();
        assert_eq!(profile.len(), 2);
        assert_eq!(profile[0].0, SimTime::from_hours(2));
        assert_eq!(profile[0].1.pops, 2);
        assert_eq!(profile[0].1.max_depth, 9);
        assert_eq!(profile[1].0, SimTime::from_hours(5));
    }

    #[test]
    fn exports_are_wellformed() {
        let t = Telemetry::enabled();
        t.counter_add("gram", "accepted", "site0", 2);
        let a = t.span_enter(SimTime::EPOCH, "gram", "job", Some(41));
        t.span_exit(SimTime::from_secs(2), a);
        let b = t.span_enter(SimTime::from_secs(1), "engine", "job", None);
        t.span_error(SimTime::from_secs(3), b);
        t.record_dispatch(SimTime::EPOCH, "submit", 1);

        let jsonl = t.spans_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"job\":41"));
        assert!(jsonl.contains("\"job\":null"));

        let chrome = t.chrome_trace();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"dur\":2000000"));

        let reg = t.registry_json();
        assert!(reg.contains("\"counters\""));
        assert!(reg.contains("\"spans_retained\":2"));
    }

    #[test]
    fn serde_embeds_as_null() {
        use serde::{Deserialize, Serialize};
        let t = Telemetry::enabled();
        t.counter_add("x", "y", "", 1);
        assert_eq!(t.to_value(), serde::Value::Null);
        let back = Telemetry::from_value(&serde::Value::Null).unwrap();
        assert!(!back.is_enabled());

        let c = t.register_counter("x", "y", "");
        assert_eq!(c.to_value(), serde::Value::Null);
        assert!(!Counter::from_value(&serde::Value::Null)
            .unwrap()
            .is_enabled());
        let h = t.register_histogram("x", "z", "", &[1.0]);
        assert_eq!(h.to_value(), serde::Value::Null);
        assert!(!Histo::from_value(&serde::Value::Null).unwrap().is_enabled());
    }
}
