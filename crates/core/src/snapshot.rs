//! Engine snapshot/restore: serialize a live [`Grid3Engine`] mid-run and
//! resume it later, bit-identically.
//!
//! A snapshot captures the *run-mutated* state — the simulation clock and
//! pending event queue (both backends, including the ladder queue's full
//! rung-refinement state), both RNG stream positions, every site's
//! cluster/storage/scheduler state, the middleware fabric (GridFTP
//! transfers in flight, RLS catalog, MDS records, tickets, monitoring
//! archives), all five subsystems' accumulators, the federation tally and
//! the invariant auditor. Everything that is a pure function of the
//! scenario configuration — topology, install pipeline, arena pools,
//! broker caches — is *not* captured: [`Grid3Engine::restore`] rebuilds
//! it by re-assembling the scenario and overlaying the captured state.
//!
//! Deliberately not captured (observation-only, process-local):
//!
//! * telemetry counter *values* and open span maps — counters are
//!   re-interned against a fresh registry on restore;
//! * the cost profiler's wall-clock accumulators — restored runs start a
//!   fresh profile;
//! * the ops journal — the journal is an append-only log beside the run;
//!   a resumed run appends to a fresh journal from the restore point.
//!
//! None of these feed back into simulation state, so their loss cannot
//! move a simulated byte — the differential suite in `tests/snapshot.rs`
//! pins snapshot→restore→run against uninterrupted runs for all nine
//! golden scenarios, on both queue backends.
//!
//! # On-disk format
//!
//! See DESIGN.md §13. A snapshot file is a small header followed by a
//! tagged binary encoding of the snapshot's serde value:
//!
//! ```text
//! [8B magic "G3ENGSNP"] [4B version LE] [8B FNV-1a checksum LE] [payload]
//! ```
//!
//! The checksum covers the payload only; a torn or bit-flipped file fails
//! closed with a typed [`SnapshotError`] instead of deserializing
//! garbage. The version is bumped whenever the payload schema changes
//! shape; old versions are rejected, not migrated (snapshots are
//! ephemeral crash-recovery artifacts, not archival data).
//!
//! The encoder streams: [`EngineSnapshot::to_bytes`] walks the snapshot
//! through `serde::Serialize::serialize` into one tag writer that fills
//! a single buffer, header first, and patches the checksum in place. No
//! `serde::Value` tree is built; the bytes equal those of encoding the
//! tree (the test oracle), so the format and [`SNAPSHOT_VERSION`] are
//! those of tree-encoded snapshots. `to_value` builds its tree from the
//! same `serialize` events, so the tests also pin the goldens' snapshot
//! bytes to fixed constants. Decoding lifts a tree, with nesting capped
//! at [`MAX_DEPTH`].

use crate::chaos::{ChaosState, InvariantAuditor};
use crate::engine::Grid3Engine;
use crate::federation::FederationCapture;
use crate::resilience::ResilienceLayer;
use crate::scenario::ScenarioConfig;
use crate::subsystems::brokering::BrokeringCapture;
use crate::subsystems::fabric::{ActiveJob, TransferPurpose};
use crate::subsystems::fault::FaultHandling;
use crate::subsystems::reporting::ReportingCapture;
use crate::subsystems::staging::Staging;
use crate::subsystems::GridEvent;
use grid3_igoc::center::CenterCapture;
use grid3_middleware::gram::Gatekeeper;
use grid3_middleware::gridftp::GridFtp;
use grid3_middleware::gsi::CertificateAuthority;
use grid3_middleware::rls::ReplicaLocationService;
use grid3_middleware::voms::VomsServer;
use grid3_monitoring::trace::TraceStore;
use grid3_simkit::engine::EventQueue;
use grid3_simkit::hash::FastMap;
use grid3_simkit::ids::{JobId, JobIdGen, TransferId};
use grid3_simkit::rng::SimRng;
use grid3_simkit::series::GaugeTracker;
use grid3_simkit::time::SimTime;
use grid3_site::cluster::Site;
use serde::{Deserialize, Serialize, Sink, Value};

/// Current snapshot payload schema version. Bumped on any change to the
/// captured field set or their serde shapes; readers reject mismatches.
pub const SNAPSHOT_VERSION: u32 = 1;

/// File magic: "G3ENGSNP".
const MAGIC: [u8; 8] = *b"G3ENGSNP";

/// Header length in bytes (magic + version + checksum).
const HEADER_LEN: usize = 8 + 4 + 8;

/// A serialized-engine error: bad files fail closed with a typed cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem error (open/read/write/rename).
    Io(String),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file's schema version is not [`SNAPSHOT_VERSION`].
    UnsupportedVersion(u32),
    /// The payload checksum does not match — torn write or corruption.
    ChecksumMismatch,
    /// The file ends mid-value.
    Truncated,
    /// The payload nests arrays/objects deeper than [`MAX_DEPTH`]. No
    /// snapshot the engine writes comes close; a file that does was not
    /// written by it, and decoding it recursively would exhaust the stack.
    TooDeep,
    /// The payload decoded to a value tree the engine schema rejects.
    Decode(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(msg) => write!(f, "snapshot io error: {msg}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (want {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::TooDeep => {
                write!(f, "snapshot nests deeper than {MAX_DEPTH} levels")
            }
            SnapshotError::Decode(msg) => write!(f, "snapshot decode error: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a over a byte stream: the same stable hash the golden-report
/// suite uses, here guarding snapshot payloads and journal records.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Binary value codec
// ---------------------------------------------------------------------
//
// A compact tagged encoding of the serde value tree. One byte of tag,
// fixed-width little-endian scalars, u64 lengths. Floats travel as raw
// IEEE-754 bits, so the decode is exact — no text round-trip, no
// shortest-representation dependence.

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_U64: u8 = 3;
const TAG_I64: u8 = 4;
const TAG_F64: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_ARRAY: u8 = 7;
const TAG_OBJECT: u8 = 8;

/// The codec's writer: a [`Sink`] appending the tagged encoding of each
/// value event to a byte buffer. Snapshots, journal records, plan
/// fingerprints and scenario comparisons all stream through it, so no
/// value tree is built on the way to bytes.
struct TagWriter<'a> {
    out: &'a mut Vec<u8>,
}

impl TagWriter<'_> {
    fn tagged(&mut self, tag: u8, word: u64) {
        self.out.push(tag);
        self.out.extend_from_slice(&word.to_le_bytes());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.out.extend_from_slice(&(b.len() as u64).to_le_bytes());
        self.out.extend_from_slice(b);
    }
}

impl Sink for TagWriter<'_> {
    fn null(&mut self) {
        self.out.push(TAG_NULL);
    }

    fn bool(&mut self, b: bool) {
        self.out.push(if b { TAG_TRUE } else { TAG_FALSE });
    }

    fn u64(&mut self, n: u64) {
        self.tagged(TAG_U64, n);
    }

    fn i64(&mut self, n: i64) {
        self.tagged(TAG_I64, n as u64);
    }

    fn f64(&mut self, x: f64) {
        self.tagged(TAG_F64, x.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.out.push(TAG_STR);
        self.bytes(s.as_bytes());
    }

    fn seq(&mut self, len: usize) {
        self.tagged(TAG_ARRAY, len as u64);
    }

    fn map(&mut self, len: usize) {
        self.tagged(TAG_OBJECT, len as u64);
    }

    fn key(&mut self, k: &str) {
        self.bytes(k.as_bytes());
    }
}

/// Append the binary encoding of `value` to `out`, streamed straight
/// from the value (see [`TagWriter`]).
pub(crate) fn encode<T: Serialize + ?Sized>(value: &T, out: &mut Vec<u8>) {
    value.serialize(&mut TagWriter { out });
}

/// The tree-walking encoder, kept as the test oracle: `encode(x)` must
/// equal `encode_value(&x.to_value())`.
#[cfg(test)]
pub(crate) fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::U64(n) => {
            out.push(TAG_U64);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::I64(n) => {
            out.push(TAG_I64);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::F64(x) => {
            out.push(TAG_F64);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Array(items) => {
            out.push(TAG_ARRAY);
            out.extend_from_slice(&(items.len() as u64).to_le_bytes());
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Object(pairs) => {
            out.push(TAG_OBJECT);
            out.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
            for (k, item) in pairs {
                out.extend_from_slice(&(k.len() as u64).to_le_bytes());
                out.extend_from_slice(k.as_bytes());
                encode_value(item, out);
            }
        }
    }
}

fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], SnapshotError> {
    let end = pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
    if end > bytes.len() {
        return Err(SnapshotError::Truncated);
    }
    let out = &bytes[*pos..end];
    *pos = end;
    Ok(out)
}

fn take_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, SnapshotError> {
    let raw = take(bytes, pos, 8)?;
    Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
}

fn take_len(bytes: &[u8], pos: &mut usize) -> Result<usize, SnapshotError> {
    let n = take_u64(bytes, pos)?;
    // A length cannot exceed the bytes remaining (every element costs at
    // least one byte) — rejecting early keeps a corrupt length from
    // attempting a huge allocation.
    if n > (bytes.len() - *pos) as u64 {
        return Err(SnapshotError::Truncated);
    }
    Ok(n as usize)
}

fn take_string(bytes: &[u8], pos: &mut usize) -> Result<String, SnapshotError> {
    let len = take_len(bytes, pos)?;
    let raw = take(bytes, pos, len)?;
    String::from_utf8(raw.to_vec())
        .map_err(|_| SnapshotError::Decode("non-UTF-8 string".to_string()))
}

/// Deepest array/object nesting the snapshot decoder accepts. The deepest
/// nesting in the nine golden scenarios' mid-run snapshots is 14 levels
/// (see `goldens_stream_byte_identically_and_nest_shallowly`), so the
/// cap leaves a margin of 114 while bounding the decoder's recursion.
pub const MAX_DEPTH: usize = 128;

/// Decode one value starting at `pos`, advancing it past the value.
pub(crate) fn decode_value(bytes: &[u8], pos: &mut usize) -> Result<Value, SnapshotError> {
    decode_nested(bytes, pos, 0)
}

/// [`decode_value`] for a value inside `depth` enclosing arrays/objects.
fn decode_nested(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, SnapshotError> {
    let tag = take(bytes, pos, 1)?[0];
    if matches!(tag, TAG_ARRAY | TAG_OBJECT) && depth == MAX_DEPTH {
        return Err(SnapshotError::TooDeep);
    }
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_U64 => Ok(Value::U64(take_u64(bytes, pos)?)),
        TAG_I64 => Ok(Value::I64(take_u64(bytes, pos)? as i64)),
        TAG_F64 => Ok(Value::F64(f64::from_bits(take_u64(bytes, pos)?))),
        TAG_STR => Ok(Value::Str(take_string(bytes, pos)?)),
        TAG_ARRAY => {
            let n = take_len(bytes, pos)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_nested(bytes, pos, depth + 1)?);
            }
            Ok(Value::Array(items))
        }
        TAG_OBJECT => {
            let n = take_len(bytes, pos)?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let key = take_string(bytes, pos)?;
                pairs.push((key, decode_nested(bytes, pos, depth + 1)?));
            }
            Ok(Value::Object(pairs))
        }
        other => Err(SnapshotError::Decode(format!("unknown value tag {other}"))),
    }
}

/// A well-formed snapshot file (valid header and checksum) whose payload
/// is `levels` nested one-element arrays around a `null`: hostile input
/// that only the nesting cap stops.
#[cfg(test)]
pub(crate) fn nested_file(levels: usize) -> Vec<u8> {
    let mut payload = Vec::with_capacity(9 * levels + 1);
    for _ in 0..levels {
        payload.push(TAG_ARRAY);
        payload.extend_from_slice(&1u64.to_le_bytes());
    }
    payload.push(TAG_NULL);
    let mut file = Vec::new();
    file.extend_from_slice(&MAGIC);
    file.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    file.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    file.extend_from_slice(&payload);
    file
}

// ---------------------------------------------------------------------
// The snapshot itself
// ---------------------------------------------------------------------

/// A serialized [`Grid3Engine`]: the complete run-mutated state of a
/// simulation at one instant (see the module docs for the capture
/// boundary). Built by [`Grid3Engine::snapshot`]; consumed by
/// [`Grid3Engine::restore`].
#[derive(Clone, Serialize, Deserialize)]
pub struct EngineSnapshot {
    version: u32,
    cfg: ScenarioConfig,
    queue: EventQueue<GridEvent>,
    broker_rng: SimRng,
    fate_rng: SimRng,
    traces: TraceStore,
    sites: Vec<Site>,
    gatekeepers: Vec<Gatekeeper>,
    gridftp: GridFtp,
    rls: ReplicaLocationService,
    center: CenterCapture,
    voms: Vec<VomsServer>,
    ca: CertificateAuthority,
    resilience: Option<ResilienceLayer>,
    job_gauge: GaugeTracker,
    jobs: FastMap<JobId, ActiveJob>,
    job_ids: JobIdGen,
    transfer_purpose: FastMap<TransferId, TransferPurpose>,
    chaos: ChaosState,
    federation: FederationCapture,
    brokering: BrokeringCapture,
    staging: Staging,
    fault: FaultHandling,
    reporting: ReportingCapture,
    auditor: Option<InvariantAuditor>,
}

impl EngineSnapshot {
    /// The scenario configuration the snapshot was taken under. A
    /// restore re-assembles exactly this configuration before overlaying
    /// the captured state, so the snapshot is self-describing.
    pub fn scenario(&self) -> &ScenarioConfig {
        &self.cfg
    }

    /// The simulation clock at capture time.
    pub fn sim_now(&self) -> SimTime {
        self.queue.now()
    }

    /// Timed events pending in the captured queue.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Timed events the run had processed by capture time.
    pub fn events_processed(&self) -> u64 {
        self.queue.processed()
    }

    /// Serialize to the versioned, checksummed binary format (see the
    /// module docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&[0; 8]);
        encode(self, &mut out);
        let sum = fnv1a64(&out[HEADER_LEN..]);
        out[12..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parse the binary format, verifying magic, version and checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < HEADER_LEN {
            return Err(if bytes.starts_with(&MAGIC) || MAGIC.starts_with(bytes) {
                SnapshotError::Truncated
            } else {
                SnapshotError::BadMagic
            });
        }
        if bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let want = u64::from_le_bytes(bytes[12..HEADER_LEN].try_into().expect("8 bytes"));
        let payload = &bytes[HEADER_LEN..];
        if fnv1a64(payload) != want {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let mut pos = 0;
        let value = decode_value(payload, &mut pos)?;
        if pos != payload.len() {
            return Err(SnapshotError::Decode(
                "trailing bytes after value".to_string(),
            ));
        }
        let snap = Self::from_value(&value).map_err(|e| SnapshotError::Decode(format!("{e:?}")))?;
        if snap.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(snap.version));
        }
        Ok(snap)
    }

    /// Write the binary format to `path` atomically: the bytes land in a
    /// sibling `.tmp` file first and are renamed into place, so a crash
    /// mid-write leaves either the old snapshot or none — never a torn
    /// one under the final name.
    pub fn write_to(&self, path: &std::path::Path) -> Result<(), SnapshotError> {
        let io = |e: std::io::Error| SnapshotError::Io(format!("{}: {e}", path.display()));
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_bytes()).map_err(io)?;
        std::fs::rename(&tmp, path).map_err(io)
    }

    /// Read and parse a snapshot file.
    pub fn read_from(path: &std::path::Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }
}

/// Capture the complete run-mutated state of `engine` (see the module
/// docs for what is and is not included).
pub(crate) fn capture(engine: &Grid3Engine) -> EngineSnapshot {
    assert!(
        engine.ctx.immediates.is_empty(),
        "snapshot mid-dispatch: immediates must be drained"
    );
    let fabric = &engine.fabric;
    EngineSnapshot {
        version: SNAPSHOT_VERSION,
        cfg: fabric.cfg.clone(),
        queue: engine.ctx.queue.clone(),
        broker_rng: engine.ctx.broker_rng.clone(),
        fate_rng: engine.ctx.fate_rng.clone(),
        traces: engine.ctx.traces.clone(),
        sites: fabric.sites.clone(),
        gatekeepers: fabric.gatekeepers.clone(),
        gridftp: fabric.gridftp.clone(),
        rls: fabric.rls.clone(),
        center: fabric.center.capture(),
        voms: fabric.voms.clone(),
        ca: fabric.ca.clone(),
        resilience: fabric.resilience.clone(),
        job_gauge: fabric.job_gauge.clone(),
        jobs: fabric.jobs.clone(),
        job_ids: fabric.job_ids.clone(),
        transfer_purpose: fabric.transfer_purpose.clone(),
        chaos: fabric.chaos.clone(),
        federation: fabric.federation.capture(),
        brokering: engine.brokering.capture(),
        staging: engine.staging.clone(),
        fault: engine.fault.clone(),
        reporting: engine.reporting.capture(),
        auditor: engine.auditor.clone(),
    }
}

/// Rebuild a runnable engine from a snapshot: re-assemble the scenario
/// (reconstructing everything configuration-derived), then overlay the
/// captured run state and re-attach process-local telemetry handles.
pub(crate) fn restore_engine(snap: EngineSnapshot) -> Grid3Engine {
    let mut engine = crate::subsystems::assembly::assemble(snap.cfg);
    let tele = engine.ctx.telemetry.clone();
    engine.ctx.queue = snap.queue;
    engine.ctx.broker_rng = snap.broker_rng;
    engine.ctx.fate_rng = snap.fate_rng;
    engine.ctx.traces = snap.traces;

    let fabric = &mut engine.fabric;
    fabric.sites = snap.sites;
    for site in fabric.sites.iter_mut() {
        site.scheduler
            .set_telemetry(tele.clone(), format!("site{}", site.id.0));
    }
    fabric.gatekeepers = snap.gatekeepers;
    for gk in fabric.gatekeepers.iter_mut() {
        gk.set_telemetry(tele.clone());
    }
    fabric.gridftp = snap.gridftp;
    fabric.gridftp.set_telemetry(tele.clone());
    fabric.rls = snap.rls;
    fabric.rls.set_telemetry(tele.clone());
    fabric.center.apply(snap.center);
    fabric.center.mds.set_telemetry(tele.clone());
    fabric.voms = snap.voms;
    fabric.ca = snap.ca;
    fabric.resilience = snap.resilience;
    fabric.job_gauge = snap.job_gauge;
    fabric.jobs = snap.jobs;
    fabric.job_ids = snap.job_ids;
    fabric.transfer_purpose = snap.transfer_purpose;
    // Telemetry spans are process-local observability: open spans do not
    // survive a restore (the registry they index into is gone).
    fabric.job_spans.clear();
    fabric.gram_spans.clear();
    fabric.transfer_spans.clear();
    fabric.chaos = snap.chaos;
    fabric.federation.apply(snap.federation);

    engine.brokering.apply(snap.brokering, &tele);
    engine.staging = snap.staging;
    engine.fault = snap.fault;
    engine.reporting.apply(snap.reporting);
    engine.auditor = snap.auditor;
    engine
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    fn round_trip(v: &Value) -> Value {
        let mut bytes = Vec::new();
        encode_value(v, &mut bytes);
        let mut pos = 0;
        let out = decode_value(&bytes, &mut pos).expect("decodes");
        assert_eq!(pos, bytes.len(), "decoder consumed everything");
        out
    }

    #[test]
    fn codec_round_trips_every_value_shape() {
        let v = Value::Object(vec![
            ("null".to_string(), Value::Null),
            ("t".to_string(), Value::Bool(true)),
            ("f".to_string(), Value::Bool(false)),
            ("u".to_string(), Value::U64(u64::MAX)),
            ("i".to_string(), Value::I64(i64::MIN)),
            ("x".to_string(), Value::F64(-0.1)),
            ("nan".to_string(), Value::F64(f64::NAN)),
            ("s".to_string(), Value::Str("grité\u{1F30D}".to_string())),
            (
                "a".to_string(),
                Value::Array(vec![Value::U64(1), Value::Str(String::new())]),
            ),
            ("o".to_string(), Value::Object(Vec::new())),
        ]);
        let got = round_trip(&v);
        // NaN != NaN, so compare through the encoding (bit-exact floats).
        let mut a = Vec::new();
        let mut b = Vec::new();
        encode_value(&v, &mut a);
        encode_value(&got, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn codec_rejects_truncation_at_every_boundary() {
        let v = Value::Array(vec![
            Value::Str("abcdef".to_string()),
            Value::U64(7),
            Value::Object(vec![("k".to_string(), Value::F64(1.5))]),
        ]);
        let mut bytes = Vec::new();
        encode_value(&v, &mut bytes);
        for cut in 0..bytes.len() {
            let mut pos = 0;
            assert!(
                decode_value(&bytes[..cut], &mut pos).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn header_errors_are_typed() {
        assert!(matches!(
            EngineSnapshot::from_bytes(b"not a snapshot file at all..").err(),
            Some(SnapshotError::BadMagic)
        ));
        assert!(matches!(
            EngineSnapshot::from_bytes(b"G3EN").err(),
            Some(SnapshotError::Truncated)
        ));
        let mut bad_version = Vec::new();
        bad_version.extend_from_slice(&MAGIC);
        bad_version.extend_from_slice(&99u32.to_le_bytes());
        bad_version.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            EngineSnapshot::from_bytes(&bad_version).err(),
            Some(SnapshotError::UnsupportedVersion(99))
        ));
        let mut bad_sum = Vec::new();
        bad_sum.extend_from_slice(&MAGIC);
        bad_sum.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        bad_sum.extend_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
        bad_sum.push(TAG_NULL);
        assert!(matches!(
            EngineSnapshot::from_bytes(&bad_sum).err(),
            Some(SnapshotError::ChecksumMismatch)
        ));
    }

    /// `encode` must write exactly what the tree oracle writes.
    fn assert_streams_like_tree<T: Serialize>(x: &T) -> Vec<u8> {
        let mut streamed = Vec::new();
        encode(x, &mut streamed);
        let mut oracle = Vec::new();
        encode_value(&x.to_value(), &mut oracle);
        assert!(
            streamed == oracle,
            "streamed encoding differs from the tree's"
        );
        streamed
    }

    /// Arrays/objects enclosing the deepest value of `v`.
    fn nesting(v: &Value) -> usize {
        match v {
            Value::Array(xs) => 1 + xs.iter().map(nesting).max().unwrap_or(0),
            Value::Object(pairs) => 1 + pairs.iter().map(|(_, x)| nesting(x)).max().unwrap_or(0),
            _ => 0,
        }
    }

    /// The nine golden scenarios of `tests/determinism.rs`, cut at half
    /// their horizon: the streamed file is the header plus the tree
    /// oracle's payload, byte for byte, and the deepest nesting leaves
    /// [`MAX_DEPTH`] a wide margin.
    #[test]
    fn goldens_stream_byte_identically_and_nest_shallowly() {
        let goldens = [
            ("sc2003", 2003),
            ("sc2003_operated", 2003),
            ("sc2003", 7),
            ("sc2003_operated", 7),
            ("sc2003", 42),
            ("sc2003_operated", 42),
            ("sc2003_operated", 1234),
            ("sc2003_chaos", 2003),
            ("sc2003_federated", 2003),
        ];
        // `(len, fnv1a64)` of each golden's half-horizon `to_bytes()`,
        // pinned independently of both encoders.
        let pinned: [(usize, u64); 9] = [
            (3214068, 0x6cb5489425dd51bc),
            (3244529, 0xb561b7014215f4bf),
            (3169042, 0x499e15cbdd230263),
            (3247555, 0xace087c68e4bdfbc),
            (3204359, 0x60edef7444cee69f),
            (3259748, 0x3f37a84061fc1664),
            (3238549, 0xe0f2a0cd14b1eb71),
            (3233082, 0x9da62265f67c5e55),
            (3236158, 0x68cb62c0880aab33),
        ];
        let mut deepest = 0;
        for ((name, seed), (len, sum)) in goldens.into_iter().zip(pinned) {
            let base = match name {
                "sc2003" => ScenarioConfig::sc2003(),
                "sc2003_operated" => ScenarioConfig::sc2003_operated(),
                "sc2003_chaos" => ScenarioConfig::sc2003_chaos(),
                _ => ScenarioConfig::sc2003_federated(),
            };
            let cfg = base.with_scale(0.02).with_seed(seed);
            let half = SimTime::EPOCH + cfg.horizon().since(SimTime::EPOCH) / 2;
            let mut engine = Grid3Engine::new(cfg);
            engine.run_until(half);
            let snap = engine.snapshot();
            let tree = snap.to_value();
            let mut payload = Vec::new();
            encode_value(&tree, &mut payload);
            let mut want = Vec::new();
            want.extend_from_slice(&MAGIC);
            want.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
            want.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
            want.extend_from_slice(&payload);
            let bytes = snap.to_bytes();
            assert!(bytes == want, "{name}/seed {seed}: bytes differ");
            assert_eq!(
                (bytes.len(), fnv1a64(&bytes)),
                (len, sum),
                "{name}/seed {seed}: pinned bytes moved"
            );
            deepest = deepest.max(nesting(&tree));
        }
        assert_eq!(deepest, 14, "update the margin recorded at MAX_DEPTH");
    }

    #[test]
    fn decoder_caps_nesting_with_a_typed_error() {
        let file = nested_file(1_000_000);
        assert!(matches!(
            EngineSnapshot::from_bytes(&file),
            Err(SnapshotError::TooDeep)
        ));
        let payload = &file[HEADER_LEN..];
        assert_eq!(decode_value(payload, &mut 0), Err(SnapshotError::TooDeep));
        // Exactly MAX_DEPTH levels still decode; one more does not.
        let legal = &payload[payload.len() - 9 * MAX_DEPTH - 1..];
        assert!(decode_value(legal, &mut 0).is_ok());
        let over = &payload[payload.len() - 9 * (MAX_DEPTH + 1) - 1..];
        assert_eq!(decode_value(over, &mut 0), Err(SnapshotError::TooDeep));
    }

    #[derive(Serialize)]
    enum Shape {
        Unit,
        One(u32),
        Pair(i64, f32),
        Named {
            wide: u128,
            #[serde(skip_serializing_if = "Option::is_none")]
            note: Option<String>,
        },
    }

    #[derive(Serialize)]
    struct Triple(u8, f64, Option<i16>);

    #[derive(Serialize)]
    struct Id(u64);

    #[derive(Serialize)]
    struct Marker;

    #[derive(Serialize)]
    struct Wrap<T> {
        inner: T,
    }

    #[derive(Serialize)]
    struct Doc {
        #[serde(skip_serializing_if = "Option::is_none")]
        maybe: Option<u64>,
        #[serde(skip_serializing_if = "Vec::is_empty")]
        shapes: Vec<Shape>,
        floats: Vec<f64>,
        narrow: f32,
        wide: u128,
        by_id: HashMap<u32, Triple>,
        by_name: HashMap<String, Id>,
        by_pair: BTreeMap<(u8, u8), bool>,
        empty_hash: HashMap<u64, u64>,
        empty_tree: BTreeMap<String, u64>,
        set: BTreeSet<i32>,
        marker: Marker,
        wrapped: Wrap<Option<Id>>,
    }

    /// Floats the encoder must carry bit-exactly.
    const SPECIAL: [f64; 6] = [
        f64::NAN,
        -0.0,
        0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e-310,
    ];

    fn doc(words: &[u64]) -> Doc {
        let w = |i: usize| words[i % words.len()];
        let shapes = words
            .iter()
            .map(|&x| match x % 5 {
                0 => Shape::Unit,
                1 => Shape::One(x as u32),
                2 => Shape::Pair(x as i64, f32::from_bits(x as u32)),
                3 => Shape::Named {
                    wide: u128::from(x) << 64 | u128::from(x),
                    note: None,
                },
                _ => Shape::Named {
                    wide: u128::from(x),
                    note: Some(format!("n{x}")),
                },
            })
            .take(w(0) as usize % 4)
            .collect();
        Doc {
            maybe: (w(1) % 2 == 0).then_some(w(2)),
            shapes,
            floats: words
                .iter()
                .map(|&x| match x % 8 {
                    k @ 0..=5 => SPECIAL[k as usize],
                    _ => f64::from_bits(x),
                })
                .collect(),
            narrow: f32::from_bits(w(3) as u32),
            wide: u128::from(w(4)) * u128::from(w(5)),
            // Keys of one to three digits, so `10` must sort before `9`.
            by_id: words
                .iter()
                .map(|&x| {
                    (
                        (x % 1000) as u32,
                        Triple(x as u8, -0.0, (x % 3 == 0).then_some(-7)),
                    )
                })
                .collect(),
            by_name: words
                .iter()
                .map(|&x| (format!("k{}", x % 100), Id(x)))
                .collect(),
            by_pair: words
                .iter()
                .map(|&x| ((x as u8, (x >> 8) as u8), x % 2 == 0))
                .collect(),
            empty_hash: HashMap::new(),
            empty_tree: BTreeMap::new(),
            set: words.iter().map(|&x| x as i32).collect(),
            marker: Marker,
            wrapped: Wrap {
                inner: (w(6) % 2 == 0).then_some(Id(w(7))),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn streamed_encoding_matches_the_tree_oracle(
            words in proptest::collection::vec(any::<u64>(), 1..24),
        ) {
            let doc = doc(&words);
            let bytes = assert_streams_like_tree(&doc);
            let mut pos = 0;
            let back = decode_value(&bytes, &mut pos).expect("decodes");
            prop_assert_eq!(pos, bytes.len());
            let mut again = Vec::new();
            encode_value(&back, &mut again);
            prop_assert!(again == bytes, "decode/encode is not the identity");
        }
    }

    #[test]
    fn integer_keyed_hash_maps_sort_by_debug_text() {
        let m: HashMap<u32, ()> = [(9, ()), (10, ()), (100, ()), (1, ())].into();
        let bytes = assert_streams_like_tree(&m);
        let Value::Array(pairs) = decode_value(&bytes, &mut 0).expect("decodes") else {
            panic!("integer keys encode as pairs");
        };
        let keys: Vec<u64> = pairs
            .iter()
            .map(|p| p.as_array().and_then(|kv| kv[0].as_u64()).expect("pair"))
            .collect();
        assert_eq!(keys, [1, 10, 100, 9]);
    }
}
