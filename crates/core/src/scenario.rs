//! Declarative scenario engine: experiments as data, not binaries.
//!
//! A [`Scenario`] is a serializable description of one experiment —
//! which workloads (zoo names or parametric generators), which NPUs,
//! which protection schemes, an optional DRAM-configuration override,
//! repeat/verifier settings, and which outputs to render. Scenarios live
//! as JSON files in the repository's top-level `scenarios/` directory
//! and execute through the existing [`Sweep`] engine, so a scenario run
//! is bit-identical to the hand-coded experiment it replaced.
//!
//! Fig. 5/6 and the cache, energy and granularity ablations exist only
//! as registered scenarios; `seda_cli scenario list|describe|run <name>`
//! drives the zoo. Every scenario's headline numbers can be pinned as
//! a golden fixture via [`ScenarioRun::snapshot_json`], which makes the
//! zoo a regression surface: adding a JSON file adds an experiment *and*
//! its drift detector.
//!
//! # Examples
//!
//! ```
//! use seda::scenario::Scenario;
//!
//! let text = r#"{
//!   "name": "demo",
//!   "title": "LeNet under SeDA on the edge NPU",
//!   "npus": ["edge"],
//!   "workloads": ["let"],
//!   "schemes": ["baseline", "SeDA"],
//!   "outputs": ["traffic"]
//! }"#;
//! let scenario = Scenario::from_json(text).expect("valid scenario");
//! let run = scenario.run().expect("runs clean");
//! let outcomes = &run.evaluations[0].workloads[0].outcomes;
//! assert_eq!(outcomes[0].scheme, "baseline");
//! assert!(outcomes[1].traffic_norm >= 1.0 - 1e-9);
//! ```

use crate::error::SedaError;
use crate::experiment::{partial_evaluations_of, Evaluation};
use crate::pipeline::dram_config_for;
use crate::report;
use crate::resilience::{
    load_journal, FailurePolicy, FailureReport, JournalHeader, JournalWriter, CHECKPOINT_SCHEMA,
};
use crate::sweep::Sweep;
use seda_dram::{estimate_energy, DramConfig, EnergyParams};
use seda_models::{zoo, Model};
use seda_protect::{
    BlockMacKind, BlockMacScheme, HashEngine, ProtectionScheme, DEFAULT_MAC_CACHE_BYTES,
    DEFAULT_VN_CACHE_BYTES, PROTECTED_BYTES,
};
use seda_scalesim::NpuConfig;
use serde::{Deserialize, Serialize, Value};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Largest accepted `block_mac` metadata-cache override, in KB: 16 MiB,
/// 1000× the paper's caches. Caches are allocated whole up front, so the
/// cap keeps a typo from requesting a huge (or, past `2^54` KB, wrapped)
/// capacity.
pub const MAX_META_CACHE_KB: u64 = 16 << 10;

/// Environment variable overriding the scenario directory location.
pub const SCENARIOS_ENV: &str = "SEDA_SCENARIOS";

/// What went wrong while parsing or validating a scenario description.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A workload name did not resolve in the model zoo.
    UnknownModel {
        /// The name that failed to resolve.
        name: String,
    },
    /// A scheme name did not resolve in the protection registry.
    UnknownScheme {
        /// The name that failed to resolve.
        name: String,
    },
    /// An NPU name was neither `server` nor `edge`.
    UnknownNpu {
        /// The name that failed to resolve.
        name: String,
    },
    /// A DRAM override field had a value the timing model cannot use.
    BadDramOverride {
        /// What was wrong with it.
        reason: String,
    },
    /// The scenario was structurally well-formed but semantically invalid.
    BadSpec {
        /// What was wrong with it.
        reason: String,
    },
    /// The scenario file was not readable or not valid scenario JSON.
    Parse {
        /// What was wrong with it.
        reason: String,
    },
    /// A checkpoint journal could not be written, read, or did not
    /// describe this scenario's sweep.
    Checkpoint {
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnknownModel { name } => {
                write!(f, "unknown workload {name:?} (try `seda_cli workloads`)")
            }
            ScenarioError::UnknownScheme { name } => {
                write!(f, "unknown scheme {name:?} (try `seda_cli schemes`)")
            }
            ScenarioError::UnknownNpu { name } => {
                write!(f, "unknown NPU {name:?} (expected \"server\" or \"edge\")")
            }
            ScenarioError::BadDramOverride { reason } => {
                write!(f, "bad DRAM override: {reason}")
            }
            ScenarioError::BadSpec { reason } => write!(f, "bad scenario: {reason}"),
            ScenarioError::Parse { reason } => write!(f, "scenario parse error: {reason}"),
            ScenarioError::Checkpoint { reason } => {
                write!(f, "checkpoint journal error: {reason}")
            }
        }
    }
}

impl Error for ScenarioError {}

/// A workload selection: a zoo name or a parametric generator.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// A registered zoo model, looked up case-insensitively by name.
    Zoo {
        /// The zoo label (e.g. `"rest"`).
        name: String,
    },
    /// [`zoo::transformer_decode`]: one-token autoregressive decode
    /// against a KV cache of `context` past tokens.
    TransformerDecode {
        /// Cached context length in tokens.
        context: u32,
    },
    /// [`zoo::dlrm_gather`]: scattered embedding-table gathers that
    /// stress the singleton-streak DRAM replay fallback.
    DlrmGather {
        /// Number of embedding tables.
        tables: u32,
        /// Embedding vector dimension.
        embedding_dim: u32,
        /// Lookups per table (batch size).
        lookups: u32,
    },
}

impl WorkloadSpec {
    /// Resolves the spec into a concrete [`Model`].
    pub fn resolve(&self) -> Result<Model, ScenarioError> {
        match self {
            WorkloadSpec::Zoo { name } => {
                zoo::by_name(name).ok_or_else(|| ScenarioError::UnknownModel { name: name.clone() })
            }
            WorkloadSpec::TransformerDecode { context } => {
                if *context == 0 {
                    return Err(ScenarioError::BadSpec {
                        reason: "transformer_decode needs context > 0".to_owned(),
                    });
                }
                Ok(zoo::transformer_decode(*context))
            }
            WorkloadSpec::DlrmGather {
                tables,
                embedding_dim,
                lookups,
            } => {
                if *tables == 0 || *embedding_dim == 0 || *lookups == 0 {
                    return Err(ScenarioError::BadSpec {
                        reason: "dlrm_gather needs tables, embedding_dim, lookups > 0".to_owned(),
                    });
                }
                Ok(zoo::dlrm_gather(*tables, *embedding_dim, *lookups))
            }
        }
    }
}

// Mixed string/object JSON ("rest" vs {"transformer_decode": {...}}) is
// outside what the vendored derive emits, so the impls are hand-written
// against the Value tree.
impl Serialize for WorkloadSpec {
    fn to_value(&self) -> Value {
        match self {
            WorkloadSpec::Zoo { name } => Value::String(name.clone()),
            WorkloadSpec::TransformerDecode { context } => {
                let mut inner = serde::Map::new();
                inner.insert("context", context.to_value());
                let mut outer = serde::Map::new();
                outer.insert("transformer_decode", Value::Object(inner));
                Value::Object(outer)
            }
            WorkloadSpec::DlrmGather {
                tables,
                embedding_dim,
                lookups,
            } => {
                let mut inner = serde::Map::new();
                inner.insert("tables", tables.to_value());
                inner.insert("embedding_dim", embedding_dim.to_value());
                inner.insert("lookups", lookups.to_value());
                let mut outer = serde::Map::new();
                outer.insert("dlrm_gather", Value::Object(inner));
                Value::Object(outer)
            }
        }
    }
}

impl Deserialize for WorkloadSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v {
            Value::String(name) => Ok(WorkloadSpec::Zoo { name: name.clone() }),
            Value::Object(m) => {
                if let Some(inner) = m.get("transformer_decode") {
                    let im = inner.as_object().ok_or_else(|| {
                        serde::Error::custom("transformer_decode takes an object of parameters")
                    })?;
                    Ok(WorkloadSpec::TransformerDecode {
                        context: serde::de_field(im, "context")?,
                    })
                } else if let Some(inner) = m.get("dlrm_gather") {
                    let im = inner.as_object().ok_or_else(|| {
                        serde::Error::custom("dlrm_gather takes an object of parameters")
                    })?;
                    Ok(WorkloadSpec::DlrmGather {
                        tables: serde::de_field(im, "tables")?,
                        embedding_dim: serde::de_field(im, "embedding_dim")?,
                        lookups: serde::de_field(im, "lookups")?,
                    })
                } else {
                    Err(serde::Error::custom(
                        "workload object must be {\"transformer_decode\": ...} or \
                         {\"dlrm_gather\": ...}",
                    ))
                }
            }
            other => Err(serde::Error::custom(format!(
                "workload must be a zoo name or a generator object, found {other:?}"
            ))),
        }
    }
}

/// A scheme selection: a registry name or a parameterized block-MAC.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeSpec {
    /// A scheme from the [`seda_protect`] registry, by exact name.
    Registry {
        /// The registry name (e.g. `"SeDA"`).
        name: String,
    },
    /// A [`BlockMacScheme`] outside the registry: SGX- or MGX-style
    /// metadata at an arbitrary granularity, with optional metadata-cache
    /// capacity overrides (for granularity and cache ablations).
    BlockMac {
        /// `"sgx"` or `"mgx"` (case-insensitive).
        kind: String,
        /// Protection-block granularity in bytes (a positive multiple of
        /// 64 that divides [`PROTECTED_BYTES`]).
        granularity: u64,
        /// MAC cache capacity override in KB (default
        /// [`DEFAULT_MAC_CACHE_BYTES`], 8 KB; at most
        /// [`MAX_META_CACHE_KB`]).
        mac_cache_kb: Option<u64>,
        /// VN cache capacity override in KB (default
        /// [`DEFAULT_VN_CACHE_BYTES`], 16 KB; at most
        /// [`MAX_META_CACHE_KB`]).
        vn_cache_kb: Option<u64>,
    },
}

impl SchemeSpec {
    /// The column label this scheme carries through sweeps and reports.
    pub fn label(&self) -> String {
        match self {
            SchemeSpec::Registry { name } => name.clone(),
            SchemeSpec::BlockMac {
                kind,
                granularity,
                mac_cache_kb,
                vn_cache_kb,
            } => {
                let mut label = format!("{}-{granularity}B", kind.to_ascii_uppercase());
                if mac_cache_kb.is_some() || vn_cache_kb.is_some() {
                    let _ = write!(
                        label,
                        "/m{}v{}",
                        mac_cache_kb.unwrap_or(DEFAULT_MAC_CACHE_BYTES >> 10),
                        vn_cache_kb.unwrap_or(DEFAULT_VN_CACHE_BYTES >> 10)
                    );
                }
                label
            }
        }
    }

    fn block_mac_kind(kind: &str) -> Result<BlockMacKind, ScenarioError> {
        match kind.to_ascii_lowercase().as_str() {
            "sgx" => Ok(BlockMacKind::Sgx),
            "mgx" => Ok(BlockMacKind::Mgx),
            _ => Err(ScenarioError::UnknownScheme {
                name: format!("block_mac kind {kind:?}"),
            }),
        }
    }

    fn validate(&self) -> Result<(), ScenarioError> {
        match self {
            SchemeSpec::Registry { name } => match seda_protect::scheme_by_name(name) {
                Some(_) => Ok(()),
                None => Err(ScenarioError::UnknownScheme { name: name.clone() }),
            },
            SchemeSpec::BlockMac {
                kind,
                granularity,
                mac_cache_kb,
                vn_cache_kb,
            } => {
                Self::block_mac_kind(kind)?;
                if *granularity == 0 || granularity % 64 != 0 {
                    return Err(ScenarioError::BadSpec {
                        reason: format!(
                            "block_mac granularity must be a positive multiple of 64, got \
                             {granularity}"
                        ),
                    });
                }
                // The MAC array sits right above the protected region, so
                // the region must be a whole number of protection blocks.
                if !PROTECTED_BYTES.is_multiple_of(*granularity) {
                    return Err(ScenarioError::BadSpec {
                        reason: format!(
                            "block_mac granularity {granularity} does not divide the \
                             {PROTECTED_BYTES}-byte protected region"
                        ),
                    });
                }
                for (cache, kb) in [("mac_cache_kb", mac_cache_kb), ("vn_cache_kb", vn_cache_kb)] {
                    if let Some(kb) = *kb {
                        if kb == 0 || kb > MAX_META_CACHE_KB {
                            return Err(ScenarioError::BadSpec {
                                reason: format!(
                                    "block_mac {cache} must be in 1..={MAX_META_CACHE_KB}, \
                                     got {kb}"
                                ),
                            });
                        }
                    }
                }
                Ok(())
            }
        }
    }

    /// Instantiates one fresh scheme for this spec — the serving
    /// simulator's per-tenant path (each tenant owns stateful metadata
    /// caches, so every tenant needs its own instance).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::UnknownScheme`] when a registry name does
    /// not resolve (parameter validation is `Self::validate`'s job and
    /// is assumed to have run).
    pub fn instantiate(&self) -> Result<Box<dyn ProtectionScheme>, ScenarioError> {
        match self {
            SchemeSpec::Registry { name } => seda_protect::scheme_by_name(name)
                .ok_or_else(|| ScenarioError::UnknownScheme { name: name.clone() }),
            SchemeSpec::BlockMac {
                kind,
                granularity,
                mac_cache_kb,
                vn_cache_kb,
            } => Ok(Self::block_mac(
                Self::block_mac_kind(kind)?,
                *granularity,
                *mac_cache_kb,
                *vn_cache_kb,
            )),
        }
    }

    /// The one [`BlockMacScheme`] constructor behind both
    /// [`SchemeSpec::instantiate`] and the sweep factory `add_to`
    /// registers, so serving tenants and sweep points build identical
    /// schemes. Absent cache overrides take the paper defaults.
    fn block_mac(
        kind: BlockMacKind,
        granularity: u64,
        mac_cache_kb: Option<u64>,
        vn_cache_kb: Option<u64>,
    ) -> Box<dyn ProtectionScheme> {
        Box::new(BlockMacScheme::with_caches(
            kind,
            granularity,
            PROTECTED_BYTES,
            mac_cache_kb.map_or(DEFAULT_MAC_CACHE_BYTES, |kb| kb << 10),
            vn_cache_kb.map_or(DEFAULT_VN_CACHE_BYTES, |kb| kb << 10),
        ))
    }

    fn add_to(&self, sweep: Sweep) -> Sweep {
        match self {
            SchemeSpec::Registry { name } => sweep.scheme(name),
            SchemeSpec::BlockMac {
                kind,
                granularity,
                mac_cache_kb,
                vn_cache_kb,
            } => {
                // Validated before execution, so the kind parses here.
                let kind = Self::block_mac_kind(kind).unwrap_or(BlockMacKind::Sgx);
                let (g, mac, vn) = (*granularity, *mac_cache_kb, *vn_cache_kb);
                sweep.scheme_with(&self.label(), move || Self::block_mac(kind, g, mac, vn))
            }
        }
    }
}

impl Serialize for SchemeSpec {
    fn to_value(&self) -> Value {
        match self {
            SchemeSpec::Registry { name } => Value::String(name.clone()),
            SchemeSpec::BlockMac {
                kind,
                granularity,
                mac_cache_kb,
                vn_cache_kb,
            } => {
                let mut inner = serde::Map::new();
                inner.insert("kind", kind.to_value());
                inner.insert("granularity", granularity.to_value());
                if let Some(kb) = mac_cache_kb {
                    inner.insert("mac_cache_kb", kb.to_value());
                }
                if let Some(kb) = vn_cache_kb {
                    inner.insert("vn_cache_kb", kb.to_value());
                }
                let mut outer = serde::Map::new();
                outer.insert("block_mac", Value::Object(inner));
                Value::Object(outer)
            }
        }
    }
}

impl Deserialize for SchemeSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v {
            Value::String(name) => Ok(SchemeSpec::Registry { name: name.clone() }),
            Value::Object(m) => {
                let inner = m.get("block_mac").ok_or_else(|| {
                    serde::Error::custom("scheme object must be {\"block_mac\": ...}")
                })?;
                let im = inner.as_object().ok_or_else(|| {
                    serde::Error::custom("block_mac takes an object of parameters")
                })?;
                Ok(SchemeSpec::BlockMac {
                    kind: serde::de_field(im, "kind")?,
                    granularity: serde::de_field(im, "granularity")?,
                    mac_cache_kb: serde::de_field(im, "mac_cache_kb")?,
                    vn_cache_kb: serde::de_field(im, "vn_cache_kb")?,
                })
            }
            other => Err(serde::Error::custom(format!(
                "scheme must be a registry name or a block_mac object, found {other:?}"
            ))),
        }
    }
}

/// Field-level overrides applied on top of each NPU's default
/// [`DramConfig`] (the [`Sweep::dram_map`] surface, as data).
///
/// Absent fields keep the default value, so an override like
/// `{"channels": 8}` perturbs exactly one knob. Overrides are raw: the
/// derived fields of the default configuration (e.g. the per-channel
/// clock computed from the NPU's aggregate bandwidth) are not rebalanced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DramOverride {
    /// Independent channels.
    pub channels: Option<u32>,
    /// Ranks per channel.
    pub ranks: Option<u32>,
    /// Banks per rank.
    pub banks: Option<u32>,
    /// Row (page) size in bytes.
    pub row_bytes: Option<u64>,
    /// Memory clock in Hz.
    pub clock_hz: Option<f64>,
    /// ACT-to-column-command delay.
    pub t_rcd: Option<u64>,
    /// Precharge latency.
    pub t_rp: Option<u64>,
    /// Read column-access latency.
    pub t_cl: Option<u64>,
    /// Write column-access latency.
    pub t_cwl: Option<u64>,
    /// Minimum row-open time.
    pub t_ras: Option<u64>,
    /// Data burst length in memory cycles.
    pub t_bl: Option<u64>,
    /// Write recovery time.
    pub t_wr: Option<u64>,
    /// Refresh interval (0 disables refresh).
    pub t_refi: Option<u64>,
    /// Refresh cycle time.
    pub t_rfc: Option<u64>,
}

// The one list of override fields, expanded by `Serialize`, `Deserialize`
// and `apply`. Serialization is hand-written so absent overrides
// serialize as absent fields rather than 14 explicit nulls (the derive
// writes every `Option` as `null`).
macro_rules! dram_override_fields {
    ($macro_cb:ident) => {
        $macro_cb!(
            channels, ranks, banks, row_bytes, clock_hz, t_rcd, t_rp, t_cl, t_cwl, t_ras, t_bl,
            t_wr, t_refi, t_rfc
        );
    };
}

impl Serialize for DramOverride {
    fn to_value(&self) -> Value {
        let mut m = serde::Map::new();
        macro_rules! put {
            ($($field:ident),*) => {$(
                if let Some(v) = &self.$field {
                    m.insert(stringify!($field), v.to_value());
                }
            )*};
        }
        dram_override_fields!(put);
        Value::Object(m)
    }
}

impl Deserialize for DramOverride {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let m = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("dram override must be an object"))?;
        let mut out = DramOverride::default();
        macro_rules! take {
            ($($field:ident),*) => {$(
                out.$field = serde::de_field(m, stringify!($field))?;
            )*};
        }
        dram_override_fields!(take);
        Ok(out)
    }
}

impl DramOverride {
    /// Applies the overrides to a base configuration.
    pub fn apply(&self, mut cfg: DramConfig) -> DramConfig {
        // Each override field has the name of the `DramConfig` field it sets.
        macro_rules! set {
            ($($field:ident),*) => {$(
                if let Some(v) = self.$field {
                    cfg.$field = v;
                }
            )*};
        }
        dram_override_fields!(set);
        cfg
    }

    fn validate(&self) -> Result<(), ScenarioError> {
        let pow2 = [
            ("channels", self.channels.map(u64::from)),
            ("ranks", self.ranks.map(u64::from)),
            ("banks", self.banks.map(u64::from)),
            ("row_bytes", self.row_bytes),
        ];
        for (field, v) in pow2 {
            if let Some(v) = v {
                if v == 0 || !v.is_power_of_two() {
                    return Err(ScenarioError::BadDramOverride {
                        reason: format!(
                            "{field} must be a nonzero power of two (address bits are \
                             shift/mask-decoded), got {v}"
                        ),
                    });
                }
            }
        }
        if self.t_bl == Some(0) {
            return Err(ScenarioError::BadDramOverride {
                reason: "t_bl must be nonzero (every data transfer occupies the bus)".to_owned(),
            });
        }
        if let Some(hz) = self.clock_hz {
            if !(hz.is_finite() && hz > 0.0) {
                return Err(ScenarioError::BadDramOverride {
                    reason: format!("clock_hz must be positive and finite, got {hz}"),
                });
            }
        }
        Ok(())
    }
}

/// Integrity-verifier engine model settings ([`HashEngine`], as data).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerifierSpec {
    /// Hash throughput in bytes per accelerator cycle.
    pub bytes_per_cycle: f64,
    /// Pipeline latency per verification in cycles.
    pub latency_cycles: u64,
}

/// Which report sections a scenario run renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputKind {
    /// Normalized memory traffic per scheme (Fig. 5 shape).
    Traffic,
    /// Normalized runtime per scheme (Fig. 6 shape).
    Runtime,
    /// DRAM energy per scheme (DDR4 for server, LPDDR4 for edge).
    Energy,
}

impl OutputKind {
    /// The lowercase JSON spelling of this output kind.
    pub fn as_str(self) -> &'static str {
        match self {
            OutputKind::Traffic => "traffic",
            OutputKind::Runtime => "runtime",
            OutputKind::Energy => "energy",
        }
    }
}

impl Serialize for OutputKind {
    fn to_value(&self) -> Value {
        Value::String(self.as_str().to_owned())
    }
}

impl Deserialize for OutputKind {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v.as_str() {
            Some("traffic") => Ok(OutputKind::Traffic),
            Some("runtime") => Ok(OutputKind::Runtime),
            Some("energy") => Ok(OutputKind::Energy),
            _ => Err(serde::Error::custom(format!(
                "output must be one of traffic|runtime|energy, found {v:?}"
            ))),
        }
    }
}

/// One scheme-level assertion on a scenario's mean normalized metrics:
/// `scenario run` checks the named scheme's mean normalized traffic
/// and/or runtime against the declared ceilings and exits nonzero on a
/// violation — the paper's claims, pinned as data next to the experiment
/// that produces them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpectationSpec {
    /// Scheme label to check (case-insensitive against the lineup).
    pub scheme: String,
    /// Restrict the check to one NPU; `None` checks every NPU.
    pub npu: Option<String>,
    /// Ceiling on the mean normalized traffic (baseline = 1.0).
    pub traffic_norm_max: Option<f64>,
    /// Ceiling on the mean normalized runtime (baseline = 1.0).
    pub perf_norm_max: Option<f64>,
}

/// The scenario's `expect` block: one assertion or a list of them.
#[derive(Debug, Clone, PartialEq)]
pub struct Expectations(pub Vec<ExpectationSpec>);

// JSON accepts either a single object (`"expect": {"scheme": "seda", ...}`)
// or an array of them; a single entry serializes back to the object form.
impl Serialize for Expectations {
    fn to_value(&self) -> Value {
        match self.0.as_slice() {
            [only] => only.to_value(),
            many => Value::Array(many.iter().map(Serialize::to_value).collect()),
        }
    }
}

impl Deserialize for Expectations {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v {
            Value::Array(items) => items
                .iter()
                .map(ExpectationSpec::from_value)
                .collect::<Result<Vec<_>, _>>()
                .map(Expectations),
            Value::Object(_) => ExpectationSpec::from_value(v).map(|e| Expectations(vec![e])),
            other => Err(serde::Error::custom(format!(
                "expect must be an assertion object or an array of them, found {other:?}"
            ))),
        }
    }
}

/// One violated `expect` assertion, with the measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectationFailure {
    /// NPU the check ran on.
    pub npu: String,
    /// Scheme label from the `expect` entry.
    pub scheme: String,
    /// Which ceiling was violated (`traffic_norm_max`/`perf_norm_max`).
    pub metric: &'static str,
    /// The declared ceiling.
    pub limit: f64,
    /// The measured mean; `NaN` when no surviving points produced one.
    pub actual: f64,
}

impl fmt::Display for ExpectationFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.actual.is_nan() {
            write!(
                f,
                "expectation unverifiable: scheme {} on NPU {} has no surviving points to check {} <= {}",
                self.scheme, self.npu, self.metric, self.limit
            )
        } else {
            write!(
                f,
                "expectation failed: scheme {} on NPU {} has mean {} {:.4}, over the {} ceiling",
                self.scheme, self.npu, self.metric, self.actual, self.limit
            )
        }
    }
}

/// Deterministic burst modulation for an open-loop arrival stream: for
/// the first `duty_pct` percent of every `period_ms` window the base
/// rate is multiplied by `factor` — a square wave evaluated on the
/// virtual clock, so replays are exact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BurstSpec {
    /// Burst cycle period in simulated milliseconds.
    pub period_ms: f64,
    /// Percentage of each period spent bursting, in (0, 100).
    pub duty_pct: f64,
    /// Rate multiplier while bursting (positive; below 1 models lulls).
    pub factor: f64,
}

/// Deterministic diurnal modulation: a sinusoid of the given period
/// scales the base arrival rate by `1 + amplitude * sin(2π t / period)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiurnalSpec {
    /// Sinusoid period in simulated milliseconds.
    pub period_ms: f64,
    /// Peak fractional rate swing, in [0, 1).
    pub amplitude: f64,
}

/// How requests enter the serving simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSpec {
    /// Open-loop: Poisson arrivals (seeded inverse-CDF draws) at a base
    /// rate, optionally modulated by burst and diurnal waves. Arrivals
    /// do not wait for completions, so overload grows the queue.
    OpenLoop {
        /// Base arrival rate in requests per simulated second.
        rate_rps: f64,
        /// Total requests to issue before draining.
        requests: u64,
        /// Optional square-wave burst modulation.
        burst: Option<BurstSpec>,
        /// Optional sinusoidal diurnal modulation.
        diurnal: Option<DiurnalSpec>,
    },
    /// Closed-loop: a fixed client population where each client issues
    /// one request, waits for its completion, thinks, and repeats — so
    /// in-flight requests never exceed `clients`.
    ClosedLoop {
        /// Concurrent client population.
        clients: u32,
        /// Mean exponential think time in simulated milliseconds.
        think_ms: f64,
        /// Total requests to issue before draining.
        requests: u64,
    },
}

// Mirrors the WorkloadSpec convention: tagged single-key objects
// ({"open_loop": {...}} / {"closed_loop": {...}}), hand-written because
// the vendored derive does not emit this spelling for enum variants.
impl Serialize for ArrivalSpec {
    fn to_value(&self) -> Value {
        match self {
            ArrivalSpec::OpenLoop {
                rate_rps,
                requests,
                burst,
                diurnal,
            } => {
                let mut inner = serde::Map::new();
                inner.insert("rate_rps", rate_rps.to_value());
                inner.insert("requests", requests.to_value());
                if let Some(b) = burst {
                    inner.insert("burst", b.to_value());
                }
                if let Some(d) = diurnal {
                    inner.insert("diurnal", d.to_value());
                }
                let mut outer = serde::Map::new();
                outer.insert("open_loop", Value::Object(inner));
                Value::Object(outer)
            }
            ArrivalSpec::ClosedLoop {
                clients,
                think_ms,
                requests,
            } => {
                let mut inner = serde::Map::new();
                inner.insert("clients", clients.to_value());
                inner.insert("think_ms", think_ms.to_value());
                inner.insert("requests", requests.to_value());
                let mut outer = serde::Map::new();
                outer.insert("closed_loop", Value::Object(inner));
                Value::Object(outer)
            }
        }
    }
}

impl Deserialize for ArrivalSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let m = v.as_object().ok_or_else(|| {
            serde::Error::custom("arrival must be {\"open_loop\": ...} or {\"closed_loop\": ...}")
        })?;
        if let Some(inner) = m.get("open_loop") {
            let im = inner
                .as_object()
                .ok_or_else(|| serde::Error::custom("open_loop takes an object of parameters"))?;
            Ok(ArrivalSpec::OpenLoop {
                rate_rps: serde::de_field(im, "rate_rps")?,
                requests: serde::de_field(im, "requests")?,
                burst: serde::de_field(im, "burst")?,
                diurnal: serde::de_field(im, "diurnal")?,
            })
        } else if let Some(inner) = m.get("closed_loop") {
            let im = inner
                .as_object()
                .ok_or_else(|| serde::Error::custom("closed_loop takes an object of parameters"))?;
            Ok(ArrivalSpec::ClosedLoop {
                clients: serde::de_field(im, "clients")?,
                think_ms: serde::de_field(im, "think_ms")?,
                requests: serde::de_field(im, "requests")?,
            })
        } else {
            Err(serde::Error::custom(
                "arrival object must be {\"open_loop\": ...} or {\"closed_loop\": ...}",
            ))
        }
    }
}

/// One tenant in a serving scenario: a sealed model with its own
/// key/version-number space, its own protection scheme instance, and an
/// optional latency SLA.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Unique tenant name — the snapshot and report key.
    pub name: String,
    /// The tenant's model.
    pub workload: WorkloadSpec,
    /// The tenant's protection scheme (instantiated per tenant).
    pub scheme: SchemeSpec,
    /// Latency SLA in simulated milliseconds — the EDF deadline source
    /// (default: no deadline pressure; EDF treats it as far-future).
    pub sla_ms: Option<f64>,
    /// Relative share of the arrival stream (default 1).
    pub weight: Option<u64>,
}

/// One per-tenant latency ceiling checked after a serving run — the
/// serving analogue of [`ExpectationSpec`], feeding the same exit-code
/// plumbing (`seda_cli serve` exits 5 on a violation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeExpectation {
    /// Tenant name to check (case-insensitive against the lineup).
    pub tenant: String,
    /// Ceiling on the tenant's p50 latency in simulated milliseconds.
    pub p50_ms_max: Option<f64>,
    /// Ceiling on the tenant's p95 latency in simulated milliseconds.
    pub p95_ms_max: Option<f64>,
    /// Ceiling on the tenant's p99 latency in simulated milliseconds.
    pub p99_ms_max: Option<f64>,
}

/// One scheduled hot model-swap: at `at_ms` of simulated time a
/// tenant's replacement sealed image starts streaming in under traffic,
/// and the scheduler cuts over to the replacement's cost model at the
/// first instant the tenant has no batch in flight — a layer-boundary
/// cutover, never mid-batch. The replacement is provisioned through the
/// `seda-stream` chunked encrypt-then-MAC pipeline under a fresh key
/// (new key id, next key epoch); the old image's version-number space
/// is retired at cutover.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwapSpec {
    /// Tenant to swap (must name a lineup tenant; at most one swap per
    /// tenant).
    pub tenant: String,
    /// Simulated time of the swap request in milliseconds.
    pub at_ms: f64,
    /// Replacement model; defaults to re-provisioning the tenant's own
    /// workload (same cost model, fresh keys).
    pub workload: Option<WorkloadSpec>,
}

/// The `"serving"` block of a scenario: everything `seda-serve` needs to
/// run a multi-tenant serving simulation — arrival process, tenant
/// lineup, scheduler, and SLA ceilings. The block is pure data; the
/// `seda-serve` crate interprets it, so a scenario file carrying one is
/// still a valid plain scenario for `scenario run`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingSpec {
    /// Master seed: arrivals, think times, tenant selection, and tenant
    /// sealing keys all derive from it.
    pub seed: u64,
    /// Scheduler: `"fcfs"`, `"rr"`, or `"edf"` (case-insensitive).
    pub scheduler: String,
    /// Identical NPU replicas served from one queue (default 1).
    pub replicas: Option<u32>,
    /// Largest same-tenant batch dispatched at once (default 1).
    pub max_batch: Option<u32>,
    /// Let EDF preempt a running batch at layer boundaries.
    pub preempt: Option<bool>,
    /// Arrival process.
    pub arrival: ArrivalSpec,
    /// Tenant lineup; the arrival stream is split by tenant weight.
    pub tenants: Vec<TenantSpec>,
    /// Scheduled hot model-swaps applied while traffic is in flight.
    pub swaps: Option<Vec<SwapSpec>>,
    /// Per-tenant latency ceilings enforced by `seda_cli serve`.
    pub expect: Option<Vec<ServeExpectation>>,
}

impl ServingSpec {
    /// The canonical (lowercase) scheduler name.
    pub fn scheduler_name(&self) -> String {
        self.scheduler.to_ascii_lowercase()
    }

    /// Checks every parameter, reporting the first problem.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let bad = |reason: String| Err(ScenarioError::BadSpec { reason });
        let sched = self.scheduler_name();
        if !matches!(sched.as_str(), "fcfs" | "rr" | "edf") {
            return bad(format!(
                "serving scheduler must be fcfs|rr|edf, got {:?}",
                self.scheduler
            ));
        }
        if self.preempt == Some(true) && sched != "edf" {
            return bad(format!(
                "serving preempt requires the edf scheduler, not {sched:?}"
            ));
        }
        if self.replicas == Some(0) {
            return bad("serving replicas must be at least 1".to_owned());
        }
        if self.max_batch == Some(0) {
            return bad("serving max_batch must be at least 1".to_owned());
        }
        if self.tenants.is_empty() {
            return bad("serving needs at least one tenant".to_owned());
        }
        let mut names: Vec<&str> = Vec::new();
        for t in &self.tenants {
            if t.name.is_empty() {
                return bad("serving tenants need nonempty names".to_owned());
            }
            if names.iter().any(|n| n.eq_ignore_ascii_case(&t.name)) {
                return bad(format!("duplicate serving tenant name {:?}", t.name));
            }
            names.push(&t.name);
            t.workload.resolve()?;
            t.scheme.validate()?;
            if let Some(sla) = t.sla_ms {
                if !(sla.is_finite() && sla > 0.0) {
                    return bad(format!(
                        "tenant {:?} sla_ms must be positive and finite, got {sla}",
                        t.name
                    ));
                }
            }
            if t.weight == Some(0) {
                return bad(format!("tenant {:?} weight must be at least 1", t.name));
            }
        }
        if let Some(swaps) = &self.swaps {
            if swaps.is_empty() {
                return bad("serving swaps block needs at least one swap".to_owned());
            }
            let mut swapped: Vec<&str> = Vec::new();
            for s in swaps {
                if !names.iter().any(|n| n.eq_ignore_ascii_case(&s.tenant)) {
                    return bad(format!(
                        "serving swap references tenant {:?}, not in this lineup",
                        s.tenant
                    ));
                }
                if swapped.iter().any(|n| n.eq_ignore_ascii_case(&s.tenant)) {
                    return bad(format!(
                        "tenant {:?} has more than one scheduled swap",
                        s.tenant
                    ));
                }
                swapped.push(&s.tenant);
                if !(s.at_ms.is_finite() && s.at_ms > 0.0) {
                    return bad(format!(
                        "swap for {:?} needs a positive finite at_ms, got {}",
                        s.tenant, s.at_ms
                    ));
                }
                if let Some(w) = &s.workload {
                    w.resolve()?;
                }
            }
        }
        match &self.arrival {
            ArrivalSpec::OpenLoop {
                rate_rps,
                requests,
                burst,
                diurnal,
            } => {
                if !(rate_rps.is_finite() && *rate_rps > 0.0) {
                    return bad(format!(
                        "open_loop rate_rps must be positive and finite, got {rate_rps}"
                    ));
                }
                if *requests == 0 {
                    return bad("open_loop requests must be at least 1".to_owned());
                }
                if let Some(b) = burst {
                    if !(b.period_ms.is_finite() && b.period_ms > 0.0) {
                        return bad("burst period_ms must be positive and finite".to_owned());
                    }
                    if !(b.duty_pct > 0.0 && b.duty_pct < 100.0) {
                        return bad(format!(
                            "burst duty_pct must be in (0, 100), got {}",
                            b.duty_pct
                        ));
                    }
                    if !(b.factor.is_finite() && b.factor > 0.0) {
                        return bad("burst factor must be positive and finite".to_owned());
                    }
                }
                if let Some(d) = diurnal {
                    if !(d.period_ms.is_finite() && d.period_ms > 0.0) {
                        return bad("diurnal period_ms must be positive and finite".to_owned());
                    }
                    if !(d.amplitude >= 0.0 && d.amplitude < 1.0) {
                        return bad(format!(
                            "diurnal amplitude must be in [0, 1), got {}",
                            d.amplitude
                        ));
                    }
                }
            }
            ArrivalSpec::ClosedLoop {
                clients,
                think_ms,
                requests,
            } => {
                if *clients == 0 {
                    return bad("closed_loop clients must be at least 1".to_owned());
                }
                if !(think_ms.is_finite() && *think_ms >= 0.0) {
                    return bad(format!(
                        "closed_loop think_ms must be nonnegative and finite, got {think_ms}"
                    ));
                }
                if *requests == 0 {
                    return bad("closed_loop requests must be at least 1".to_owned());
                }
            }
        }
        if let Some(expect) = &self.expect {
            if expect.is_empty() {
                return bad("serving expect block needs at least one ceiling".to_owned());
            }
            for e in expect {
                if !names.iter().any(|n| n.eq_ignore_ascii_case(&e.tenant)) {
                    return bad(format!(
                        "serving expect references tenant {:?}, not in this lineup",
                        e.tenant
                    ));
                }
                let bounds = [
                    ("p50_ms_max", e.p50_ms_max),
                    ("p95_ms_max", e.p95_ms_max),
                    ("p99_ms_max", e.p99_ms_max),
                ];
                if bounds.iter().all(|(_, b)| b.is_none()) {
                    return bad(format!(
                        "serving expect for {:?} needs p50_ms_max, p95_ms_max, or p99_ms_max",
                        e.tenant
                    ));
                }
                for (name, bound) in bounds {
                    if let Some(b) = bound {
                        if !(b.is_finite() && b > 0.0) {
                            return bad(format!(
                                "serving expect {name} must be positive and finite"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// A declarative experiment: everything the sweep engine needs, as data.
///
/// The **first scheme is the normalization baseline** for the traffic and
/// runtime outputs, matching the Fig. 5/6 convention.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Registry name (the `scenarios/<name>.json` stem).
    pub name: String,
    /// One-line human description.
    pub title: String,
    /// NPU suite (`"server"` / `"edge"`), in sweep order.
    pub npus: Vec<String>,
    /// Workload selections, in sweep order.
    pub workloads: Vec<WorkloadSpec>,
    /// Scheme selections, baseline first.
    pub schemes: Vec<SchemeSpec>,
    /// Optional DRAM-configuration override applied to every NPU.
    pub dram: Option<DramOverride>,
    /// Back-to-back inferences per point (default 1).
    pub repeats: Option<u32>,
    /// Optional integrity-verifier engine model.
    pub verifier: Option<VerifierSpec>,
    /// Report sections to render, in order.
    pub outputs: Vec<OutputKind>,
    /// Per-point failure policy (`"fail-fast"` | `"skip"` |
    /// `{"retry": ...}`); absent means fail-fast, the historical
    /// all-or-nothing contract.
    pub on_failure: Option<FailurePolicy>,
    /// Per-point wall-clock watchdog budget in milliseconds; a hung
    /// point becomes a typed timeout instead of hanging the run.
    pub point_budget_ms: Option<u64>,
    /// Scheme-level assertions `scenario run` checks after execution.
    pub expect: Option<Expectations>,
    /// Optional multi-tenant serving block interpreted by `seda_cli
    /// serve` (ignored by `scenario run`).
    pub serving: Option<ServingSpec>,
}

/// Resolves an NPU suite name (`"server"` / `"edge"`, case-insensitive)
/// to its configuration — the same lookup every scenario axis uses.
///
/// # Errors
///
/// Returns [`ScenarioError::UnknownNpu`] for any other name.
pub fn npu_by_name(name: &str) -> Result<NpuConfig, ScenarioError> {
    match name.to_ascii_lowercase().as_str() {
        "server" => Ok(NpuConfig::server()),
        "edge" => Ok(NpuConfig::edge()),
        _ => Err(ScenarioError::UnknownNpu {
            name: name.to_owned(),
        }),
    }
}

impl Scenario {
    /// Parses and validates a scenario from its JSON text.
    pub fn from_json(text: &str) -> Result<Self, SedaError> {
        let scenario: Scenario = serde_json::from_str(text).map_err(|e| ScenarioError::Parse {
            reason: e.to_string(),
        })?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Serializes the scenario as pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        // The Value tree for a validated scenario contains no non-finite
        // floats, so serialization cannot fail.
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Checks every reference and parameter, reporting the first problem
    /// as a typed [`ScenarioError`] (wrapped in [`SedaError::Scenario`]).
    pub fn validate(&self) -> Result<(), SedaError> {
        let bad = |reason: &str| {
            Err(SedaError::Scenario(ScenarioError::BadSpec {
                reason: reason.to_owned(),
            }))
        };
        if self.name.is_empty() {
            return bad("scenario needs a name");
        }
        if self.npus.is_empty() {
            return bad("scenario needs at least one NPU");
        }
        if self.workloads.is_empty() {
            return bad("scenario needs at least one workload");
        }
        if self.schemes.is_empty() {
            return bad("scenario needs at least one scheme (the first is the baseline)");
        }
        for npu in &self.npus {
            npu_by_name(npu)?;
        }
        for w in &self.workloads {
            w.resolve()?;
        }
        let mut labels = Vec::new();
        for s in &self.schemes {
            s.validate()?;
            let label = s.label();
            if labels.contains(&label) {
                return bad(&format!("duplicate scheme label {label:?}"));
            }
            labels.push(label);
        }
        if let Some(d) = &self.dram {
            d.validate()?;
        }
        if self.repeats == Some(0) {
            return bad("repeats must be at least 1");
        }
        if let Some(v) = &self.verifier {
            if !(v.bytes_per_cycle.is_finite() && v.bytes_per_cycle > 0.0) {
                return bad("verifier bytes_per_cycle must be positive and finite");
            }
        }
        if let Some(FailurePolicy::Retry { max_attempts, .. }) = self.on_failure {
            if max_attempts == 0 {
                return bad("retry max_attempts must be at least 1");
            }
        }
        if self.point_budget_ms == Some(0) {
            return bad("point_budget_ms must be at least 1");
        }
        if let Some(expect) = &self.expect {
            if expect.0.is_empty() {
                return bad("expect block needs at least one assertion");
            }
            for e in &expect.0 {
                if !labels.iter().any(|l| l.eq_ignore_ascii_case(&e.scheme)) {
                    return bad(&format!(
                        "expect references scheme {:?}, not in this scenario's lineup",
                        e.scheme
                    ));
                }
                if let Some(npu) = &e.npu {
                    if !self.npus.iter().any(|n| n.eq_ignore_ascii_case(npu)) {
                        return bad(&format!(
                            "expect references NPU {npu:?}, not in this scenario"
                        ));
                    }
                }
                if e.traffic_norm_max.is_none() && e.perf_norm_max.is_none() {
                    return bad(&format!(
                        "expect entry for {:?} needs traffic_norm_max or perf_norm_max",
                        e.scheme
                    ));
                }
                for (name, bound) in [
                    ("traffic_norm_max", e.traffic_norm_max),
                    ("perf_norm_max", e.perf_norm_max),
                ] {
                    if let Some(b) = bound {
                        if !(b.is_finite() && b > 0.0) {
                            return bad(&format!("expect {name} must be positive and finite"));
                        }
                    }
                }
            }
        }
        if let Some(serving) = &self.serving {
            if self.npus.len() != 1 {
                return bad(
                    "a serving scenario pins exactly one NPU (scale capacity with \
                     serving.replicas instead)",
                );
            }
            serving.validate()?;
        }
        Ok(())
    }

    /// Builds the configured [`Sweep`] without executing it.
    fn sweep(&self) -> Result<Sweep, SedaError> {
        self.validate()?;
        let mut sweep = Sweep::new();
        for npu in &self.npus {
            sweep = sweep.npu(npu_by_name(npu)?);
        }
        for w in &self.workloads {
            sweep = sweep.model(w.resolve()?);
        }
        for s in &self.schemes {
            sweep = s.add_to(sweep);
        }
        if let Some(v) = &self.verifier {
            sweep = sweep.verifier(HashEngine::new(v.bytes_per_cycle, v.latency_cycles));
        }
        if let Some(n) = self.repeats {
            sweep = sweep.repeats(n);
        }
        if let Some(d) = self.dram.clone() {
            sweep = sweep.dram_map(move |npu| d.apply(dram_config_for(npu)));
        }
        sweep = sweep.on_failure(self.policy());
        if let Some(ms) = self.point_budget_ms {
            sweep = sweep.point_budget_ms(ms);
        }
        Ok(sweep)
    }

    /// The effective failure policy: the declared `on_failure`, or
    /// fail-fast — the historical all-or-nothing scenario contract.
    pub fn policy(&self) -> FailurePolicy {
        self.on_failure.unwrap_or(FailurePolicy::FailFast)
    }

    /// The checkpoint-journal header describing this scenario's sweep —
    /// what `--resume` validates a journal against.
    pub fn journal_header(&self) -> Result<JournalHeader, SedaError> {
        let mut npus = Vec::new();
        for n in &self.npus {
            npus.push(npu_by_name(n)?.name.clone());
        }
        let mut models = Vec::new();
        for w in &self.workloads {
            models.push(w.resolve()?.name().to_owned());
        }
        let schemes: Vec<String> = self.schemes.iter().map(|s| s.label()).collect();
        Ok(JournalHeader {
            schema: CHECKPOINT_SCHEMA.to_owned(),
            scenario: self.name.clone(),
            points: npus.len() * models.len() * schemes.len(),
            npus,
            models,
            schemes,
        })
    }

    /// Executes the scenario through the sweep engine (no journaling).
    ///
    /// The whole cross-product runs as one parallel sweep (one simulated
    /// trace per distinct NPU × workload pair); a failed point surfaces
    /// through the scenario's failure policy instead of a panic.
    ///
    /// # Errors
    ///
    /// Under the default fail-fast policy, any point failure aborts with
    /// [`SedaError::ScenarioPointFailed`] carrying the structured report
    /// of *every* failed point (`source()` chains to the first one).
    /// Under `skip`/`retry`, exhausted failures degrade the run to a
    /// partial [`ScenarioRun`] instead — see [`ScenarioRun::failures`].
    pub fn run(&self) -> Result<ScenarioRun, SedaError> {
        self.run_with(&RunOptions::default())
    }

    /// [`run`](Self::run) with checkpoint journaling and resume.
    ///
    /// With [`RunOptions::journal`], completed points stream to a
    /// `seda-checkpoint/v1` journal as they finish. With
    /// [`RunOptions::resume`], points recorded in the journal replay
    /// bit-identically without executing, fresh completions append to
    /// the same file, and the journal's header is validated against this
    /// scenario's sweep shape first.
    pub fn run_with(&self, opts: &RunOptions) -> Result<ScenarioRun, SedaError> {
        let mut sweep = self.sweep()?;
        let header = self.journal_header()?;
        let mut writer: Option<std::sync::Arc<JournalWriter>> = None;
        if let Some(resume_path) = &opts.resume {
            if opts.journal.as_ref().is_some_and(|j| j != resume_path) {
                return Err(SedaError::Scenario(ScenarioError::Checkpoint {
                    reason: "a resumed run appends to the journal it resumes from; \
                             drop --journal or point it at the same file"
                        .to_owned(),
                }));
            }
            let contents = load_journal(resume_path)?;
            if contents.header != header {
                return Err(SedaError::Scenario(ScenarioError::Checkpoint {
                    reason: format!(
                        "journal {} records scenario {:?} with {} points, but this run \
                         is scenario {:?} with {} points",
                        resume_path.display(),
                        contents.header.scenario,
                        contents.header.points,
                        header.scenario,
                        header.points
                    ),
                }));
            }
            sweep = sweep.resume_from(contents.points);
            writer = Some(std::sync::Arc::new(JournalWriter::append(resume_path)?));
        } else if let Some(journal_path) = &opts.journal {
            writer = Some(std::sync::Arc::new(JournalWriter::create(
                journal_path,
                &header,
            )?));
        }
        if let Some(w) = &writer {
            let sink = std::sync::Arc::clone(w);
            sweep = sweep.stream_to(move |i, runs| sink.record(i, runs));
        }
        let results = sweep.run();
        if let Some(w) = &writer {
            w.finish()?;
        }
        let failures = results.failure_report();
        let (n, m, s) = results.shape();
        let points_total = n * m * s;
        if !failures.is_empty() && self.policy() == FailurePolicy::FailFast {
            return Err(SedaError::ScenarioPointFailed {
                scenario: self.name.clone(),
                total_points: points_total,
                report: failures,
            });
        }
        Ok(ScenarioRun {
            scenario: self.clone(),
            evaluations: partial_evaluations_of(&results),
            failures,
            points_total,
            points_resumed: results.resumed_count(),
        })
    }
}

/// Execution options for [`Scenario::run_with`]: checkpoint journaling
/// and resume.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Stream completed points to this `seda-checkpoint/v1` journal.
    pub journal: Option<PathBuf>,
    /// Resume from this journal: recorded points replay bit-identically,
    /// fresh completions append to the same file.
    pub resume: Option<PathBuf>,
}

/// A completed scenario execution: the scenario plus its per-NPU
/// normalized evaluations — possibly partial. Under a `skip`/`retry`
/// policy, workloads with failed points drop out of the evaluations and
/// the failures are carried in [`failures`](Self::failures) instead of
/// aborting the run.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// One evaluation per NPU, in scenario order. A workload appears
    /// only if every one of its scheme points succeeded on that NPU.
    pub evaluations: Vec<Evaluation>,
    /// Every failed point with its attempts and final error; empty for
    /// an all-green run.
    pub failures: FailureReport,
    /// Total points in the sweep.
    pub points_total: usize,
    /// Points replayed from a checkpoint journal instead of executed.
    pub points_resumed: usize,
}

/// One raw sweep point in a scenario snapshot.
#[derive(Serialize)]
struct SnapshotPoint {
    npu: String,
    workload: String,
    scheme: String,
    total_cycles: u64,
    traffic_bytes: u64,
}

/// Per-NPU per-scheme normalized means in a scenario snapshot.
#[derive(Serialize)]
struct SnapshotMean {
    npu: String,
    scheme: String,
    mean_traffic: f64,
    mean_runtime: f64,
}

#[derive(Serialize)]
struct Snapshot {
    schema: String,
    scenario: String,
    means: Vec<SnapshotMean>,
    points: Vec<SnapshotPoint>,
}

impl ScenarioRun {
    /// Renders the scenario's selected outputs as a report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Scenario {}: {}",
            self.scenario.name, self.scenario.title
        );
        let _ = writeln!(out);
        for kind in &self.scenario.outputs {
            match kind {
                OutputKind::Traffic => self.render_traffic(&mut out),
                OutputKind::Runtime => self.render_runtime(&mut out),
                OutputKind::Energy => self.render_energy(&mut out),
            }
        }
        if self.points_resumed > 0 {
            let _ = writeln!(
                out,
                "resumed: {} of {} points replayed from the checkpoint journal",
                self.points_resumed, self.points_total
            );
            let _ = writeln!(out);
        }
        if !self.failures.is_empty() {
            let _ = writeln!(
                out,
                "PARTIAL RESULTS: {} of {} points failed; workloads with failed \
                 points are excluded from the figures above.",
                self.failures.len(),
                self.points_total
            );
            let _ = write!(out, "{}", self.failures.render());
            let _ = writeln!(out);
        }
        out
    }

    fn render_traffic(&self, out: &mut String) {
        for eval in self.evaluations.iter().filter(|e| !e.workloads.is_empty()) {
            let _ = write!(out, "{}", report::figure5(eval));
            let _ = writeln!(out);
            let _ = write!(
                out,
                "{}",
                report::bar_chart(
                    &format!("mean normalized traffic — {} NPU", eval.npu),
                    &eval.mean_traffic(),
                    48
                )
            );
            let _ = writeln!(out);
            for (scheme, t) in eval.mean_traffic().iter().skip(1) {
                let _ = writeln!(
                    out,
                    "  {} NPU {scheme}: traffic overhead {:+.2}%",
                    eval.npu,
                    (t - 1.0) * 100.0
                );
            }
            let _ = writeln!(out);
        }
    }

    fn render_runtime(&self, out: &mut String) {
        for eval in self.evaluations.iter().filter(|e| !e.workloads.is_empty()) {
            let _ = write!(out, "{}", report::figure6(eval));
            let _ = writeln!(out);
            let _ = write!(
                out,
                "{}",
                report::bar_chart(
                    &format!("mean normalized runtime — {} NPU", eval.npu),
                    &eval.mean_perf(),
                    48
                )
            );
            let _ = writeln!(out);
            for (scheme, p) in eval.mean_perf().iter().skip(1) {
                let _ = writeln!(
                    out,
                    "  {} NPU {scheme}: slowdown {:+.2}%",
                    eval.npu,
                    (p - 1.0) * 100.0
                );
            }
            let _ = writeln!(out);
        }
    }

    fn render_energy(&self, out: &mut String) {
        for eval in self.evaluations.iter().filter(|e| !e.workloads.is_empty()) {
            // LPDDR4 energies for the edge-class part, DDR4 otherwise,
            // matching the energy ablation's pairing.
            let (params, mem) = if eval.npu.eq_ignore_ascii_case("edge") {
                (EnergyParams::lpddr4(), "LPDDR4")
            } else {
                (EnergyParams::ddr4(), "DDR4")
            };
            let _ = writeln!(out, "DRAM energy — {} NPU ({mem})", eval.npu);
            let _ = writeln!(
                out,
                "{:<16} {:>10} {:>10} {:>10} {:>10} {:>11} {:>9}",
                "scheme", "act mJ", "read mJ", "write mJ", "bkgd mJ", "total mJ", "vs base"
            );
            let n_schemes = eval.workloads.first().map_or(0, |w| w.outcomes.len());
            let mut base_total = None;
            for si in 0..n_schemes {
                let mut acc = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
                let mut label = String::new();
                for w in &eval.workloads {
                    let o = &w.outcomes[si];
                    label = o.scheme.clone();
                    let secs: f64 = o
                        .run
                        .layers
                        .iter()
                        .map(|l| l.memory_cycles as f64 / o.run.clock_hz)
                        .sum();
                    let e = estimate_energy(&params, &o.run.dram, secs);
                    acc.0 += e.activate_mj;
                    acc.1 += e.read_mj;
                    acc.2 += e.write_mj;
                    acc.3 += e.background_mj;
                }
                let total = acc.0 + acc.1 + acc.2 + acc.3;
                let base = *base_total.get_or_insert(total);
                let _ = writeln!(
                    out,
                    "{label:<16} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>11.3} {:>8.2}%",
                    acc.0,
                    acc.1,
                    acc.2,
                    acc.3,
                    total,
                    (total / base - 1.0) * 100.0
                );
            }
            let _ = writeln!(out);
        }
    }

    /// The scenario's headline numbers as stable JSON (schema
    /// `seda-scenario/v1`) — the payload the golden fixtures pin.
    pub fn snapshot_json(&self) -> String {
        let means = self
            .evaluations
            .iter()
            .flat_map(|eval| {
                eval.mean_traffic().into_iter().zip(eval.mean_perf()).map(
                    |((scheme, mean_traffic), (_, mean_runtime))| SnapshotMean {
                        npu: eval.npu.clone(),
                        scheme,
                        mean_traffic,
                        mean_runtime,
                    },
                )
            })
            .collect();
        let points = self
            .evaluations
            .iter()
            .flat_map(|eval| {
                eval.workloads.iter().flat_map(|w| {
                    w.outcomes.iter().map(|o| SnapshotPoint {
                        npu: eval.npu.clone(),
                        workload: w.workload.clone(),
                        scheme: o.scheme.clone(),
                        total_cycles: o.run.total_cycles,
                        traffic_bytes: o.run.traffic.total(),
                    })
                })
            })
            .collect();
        let snapshot = Snapshot {
            schema: "seda-scenario/v1".to_owned(),
            scenario: self.scenario.name.clone(),
            means,
            points,
        };
        serde_json::to_string_pretty(&snapshot).unwrap_or_default()
    }

    /// Checks the scenario's `expect` assertions against the evaluated
    /// means, returning every violation (empty means all assertions
    /// hold). An assertion whose scheme row is missing — every workload
    /// carrying it failed — is reported as unverifiable (`actual` is
    /// `NaN`): a failed run must not silently pass its claims.
    pub fn check_expectations(&self) -> Vec<ExpectationFailure> {
        let mut out = Vec::new();
        let Some(expect) = &self.scenario.expect else {
            return out;
        };
        for e in &expect.0 {
            for eval in &self.evaluations {
                if let Some(npu) = &e.npu {
                    if !eval.npu.eq_ignore_ascii_case(npu) {
                        continue;
                    }
                }
                type MetricRow = (&'static str, Option<f64>, Vec<(String, f64)>);
                let metrics: [MetricRow; 2] = [
                    (
                        "normalized traffic",
                        e.traffic_norm_max,
                        eval.mean_traffic(),
                    ),
                    ("normalized runtime", e.perf_norm_max, eval.mean_perf()),
                ];
                for (metric, bound, means) in metrics {
                    let Some(limit) = bound else { continue };
                    let row = means
                        .iter()
                        .find(|(scheme, _)| scheme.eq_ignore_ascii_case(&e.scheme));
                    match row {
                        Some((_, actual)) if *actual <= limit => {}
                        Some((_, actual)) => out.push(ExpectationFailure {
                            npu: eval.npu.clone(),
                            scheme: e.scheme.clone(),
                            metric,
                            limit,
                            actual: *actual,
                        }),
                        None => out.push(ExpectationFailure {
                            npu: eval.npu.clone(),
                            scheme: e.scheme.clone(),
                            metric,
                            limit,
                            actual: f64::NAN,
                        }),
                    }
                }
            }
        }
        out
    }
}

/// Locates the scenario registry directory: `$SEDA_SCENARIOS` if set,
/// otherwise the nearest `scenarios/` directory walking up from the
/// current working directory (so the registry resolves from the repo
/// root, from a crate directory under `cargo test`, and from CI).
pub fn scenarios_dir() -> Result<PathBuf, SedaError> {
    if let Some(dir) = std::env::var_os(SCENARIOS_ENV) {
        let dir = PathBuf::from(dir);
        if dir.is_dir() {
            return Ok(dir);
        }
        return Err(SedaError::Scenario(ScenarioError::Parse {
            reason: format!("{SCENARIOS_ENV}={} is not a directory", dir.display()),
        }));
    }
    let mut cur = std::env::current_dir().map_err(|e| {
        SedaError::Scenario(ScenarioError::Parse {
            reason: format!("cannot resolve working directory: {e}"),
        })
    })?;
    loop {
        let candidate = cur.join("scenarios");
        if candidate.is_dir() {
            return Ok(candidate);
        }
        if !cur.pop() {
            return Err(SedaError::Scenario(ScenarioError::Parse {
                reason: format!(
                    "no scenarios/ directory found above the working directory (set \
                     {SCENARIOS_ENV} to point at one)"
                ),
            }));
        }
    }
}

fn load_file(path: &Path) -> Result<Scenario, SedaError> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        SedaError::Scenario(ScenarioError::Parse {
            reason: format!("cannot read {}: {e}", path.display()),
        })
    })?;
    Scenario::from_json(&text)
}

/// Loads and validates a registered scenario by name (or an explicit
/// path to a `.json` file).
pub fn load(name: &str) -> Result<Scenario, SedaError> {
    let explicit = Path::new(name);
    if name.ends_with(".json") && explicit.is_file() {
        return load_file(explicit);
    }
    load_file(&scenarios_dir()?.join(format!("{name}.json")))
}

/// Loads every registered scenario, sorted by name.
///
/// A file that fails to parse or validate fails the whole listing — the
/// registry is a regression surface and must stay uniformly loadable.
pub fn list() -> Result<Vec<Scenario>, SedaError> {
    let dir = scenarios_dir()?;
    let entries = std::fs::read_dir(&dir).map_err(|e| {
        SedaError::Scenario(ScenarioError::Parse {
            reason: format!("cannot list {}: {e}", dir.display()),
        })
    })?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    paths.iter().map(|p| load_file(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_scenario() -> Scenario {
        Scenario {
            name: "round-trip".to_owned(),
            title: "every feature of the schema in one scenario".to_owned(),
            npus: vec!["server".to_owned(), "edge".to_owned()],
            workloads: vec![
                WorkloadSpec::Zoo {
                    name: "let".to_owned(),
                },
                WorkloadSpec::TransformerDecode { context: 2048 },
                WorkloadSpec::DlrmGather {
                    tables: 26,
                    embedding_dim: 64,
                    lookups: 128,
                },
            ],
            schemes: vec![
                SchemeSpec::Registry {
                    name: "baseline".to_owned(),
                },
                SchemeSpec::BlockMac {
                    kind: "mgx".to_owned(),
                    granularity: 256,
                    mac_cache_kb: None,
                    vn_cache_kb: None,
                },
                SchemeSpec::BlockMac {
                    kind: "sgx".to_owned(),
                    granularity: 64,
                    mac_cache_kb: Some(4),
                    vn_cache_kb: Some(8),
                },
                SchemeSpec::Registry {
                    name: "SeDA".to_owned(),
                },
            ],
            dram: Some(DramOverride {
                channels: Some(8),
                row_bytes: Some(1024),
                t_rfc: Some(313),
                ..DramOverride::default()
            }),
            repeats: Some(2),
            verifier: Some(VerifierSpec {
                bytes_per_cycle: 32.0,
                latency_cycles: 80,
            }),
            outputs: vec![OutputKind::Traffic, OutputKind::Runtime, OutputKind::Energy],
            on_failure: Some(FailurePolicy::Retry {
                max_attempts: 3,
                base_backoff_ms: 25,
            }),
            point_budget_ms: Some(60_000),
            expect: Some(Expectations(vec![ExpectationSpec {
                scheme: "SeDA".to_owned(),
                npu: Some("server".to_owned()),
                traffic_norm_max: Some(1.01),
                perf_norm_max: None,
            }])),
            serving: None,
        }
    }

    fn serving_scenario() -> Scenario {
        Scenario {
            name: "serve-round-trip".to_owned(),
            title: "every serving feature in one scenario".to_owned(),
            npus: vec!["edge".to_owned()],
            workloads: vec![WorkloadSpec::Zoo {
                name: "let".to_owned(),
            }],
            schemes: vec![
                SchemeSpec::Registry {
                    name: "baseline".to_owned(),
                },
                SchemeSpec::Registry {
                    name: "SeDA".to_owned(),
                },
            ],
            dram: None,
            repeats: None,
            verifier: None,
            outputs: vec![OutputKind::Traffic],
            on_failure: None,
            point_budget_ms: None,
            expect: None,
            serving: Some(ServingSpec {
                seed: 7,
                scheduler: "EDF".to_owned(),
                replicas: Some(2),
                max_batch: Some(4),
                preempt: Some(true),
                arrival: ArrivalSpec::OpenLoop {
                    rate_rps: 250.0,
                    requests: 500,
                    burst: Some(BurstSpec {
                        period_ms: 40.0,
                        duty_pct: 25.0,
                        factor: 3.0,
                    }),
                    diurnal: Some(DiurnalSpec {
                        period_ms: 1000.0,
                        amplitude: 0.5,
                    }),
                },
                tenants: vec![
                    TenantSpec {
                        name: "alpha".to_owned(),
                        workload: WorkloadSpec::Zoo {
                            name: "let".to_owned(),
                        },
                        scheme: SchemeSpec::Registry {
                            name: "SeDA".to_owned(),
                        },
                        sla_ms: Some(5.0),
                        weight: Some(3),
                    },
                    TenantSpec {
                        name: "beta".to_owned(),
                        workload: WorkloadSpec::TransformerDecode { context: 256 },
                        scheme: SchemeSpec::BlockMac {
                            kind: "sgx".to_owned(),
                            granularity: 64,
                            mac_cache_kb: None,
                            vn_cache_kb: None,
                        },
                        sla_ms: None,
                        weight: None,
                    },
                ],
                swaps: Some(vec![SwapSpec {
                    tenant: "beta".to_owned(),
                    at_ms: 12.5,
                    workload: Some(WorkloadSpec::Zoo {
                        name: "let".to_owned(),
                    }),
                }]),
                expect: Some(vec![ServeExpectation {
                    tenant: "alpha".to_owned(),
                    p50_ms_max: Some(4.0),
                    p95_ms_max: None,
                    p99_ms_max: Some(8.0),
                }]),
            }),
        }
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let scenario = full_scenario();
        let json = scenario.to_json_pretty();
        let back = Scenario::from_json(&json).expect("round-trip parses");
        assert_eq!(back, scenario);
        // And the round-trip is a fixed point of serialization.
        assert_eq!(back.to_json_pretty(), json);
    }

    #[test]
    fn serving_scenario_round_trips_through_json() {
        let scenario = serving_scenario();
        let json = scenario.to_json_pretty();
        let back = Scenario::from_json(&json).expect("round-trip parses");
        assert_eq!(back, scenario);
        assert_eq!(back.to_json_pretty(), json);
    }

    #[test]
    fn serving_spec_rejects_bad_parameters() {
        let reject = |mutate: fn(&mut Scenario), needle: &str| {
            let mut s = serving_scenario();
            mutate(&mut s);
            let e = match s.validate() {
                Err(SedaError::Scenario(e)) => e,
                other => panic!("expected rejection containing {needle:?}, got {other:?}"),
            };
            assert!(e.to_string().contains(needle), "{needle:?} not in: {e}");
        };
        reject(
            |s| s.serving.as_mut().unwrap().scheduler = "lifo".to_owned(),
            "scheduler",
        );
        reject(
            |s| s.serving.as_mut().unwrap().scheduler = "fcfs".to_owned(),
            "preempt requires the edf scheduler",
        );
        reject(
            |s| s.serving.as_mut().unwrap().replicas = Some(0),
            "replicas",
        );
        reject(
            |s| s.serving.as_mut().unwrap().max_batch = Some(0),
            "max_batch",
        );
        reject(
            |s| s.serving.as_mut().unwrap().tenants.clear(),
            "at least one tenant",
        );
        reject(
            |s| {
                let serving = s.serving.as_mut().unwrap();
                serving.tenants[1].name = "ALPHA".to_owned();
            },
            "duplicate serving tenant",
        );
        reject(
            |s| s.serving.as_mut().unwrap().tenants[0].sla_ms = Some(0.0),
            "sla_ms",
        );
        reject(
            |s| s.serving.as_mut().unwrap().tenants[0].weight = Some(0),
            "weight",
        );
        reject(
            |s| {
                s.serving.as_mut().unwrap().arrival = ArrivalSpec::OpenLoop {
                    rate_rps: 0.0,
                    requests: 10,
                    burst: None,
                    diurnal: None,
                };
            },
            "rate_rps",
        );
        reject(
            |s| {
                s.serving.as_mut().unwrap().arrival = ArrivalSpec::ClosedLoop {
                    clients: 0,
                    think_ms: 1.0,
                    requests: 10,
                };
            },
            "clients",
        );
        reject(
            |s| {
                s.serving.as_mut().unwrap().expect.as_mut().unwrap()[0].tenant =
                    "nobody".to_owned();
            },
            "not in this lineup",
        );
        reject(
            |s| {
                let e = &mut s.serving.as_mut().unwrap().expect.as_mut().unwrap()[0];
                e.p50_ms_max = None;
                e.p99_ms_max = None;
            },
            "needs p50_ms_max",
        );
        reject(
            |s| {
                s.serving.as_mut().unwrap().swaps.as_mut().unwrap()[0].tenant = "nobody".to_owned();
            },
            "swap references tenant",
        );
        reject(
            |s| {
                let swaps = s.serving.as_mut().unwrap().swaps.as_mut().unwrap();
                let mut dup = swaps[0].clone();
                dup.tenant = "BETA".to_owned();
                swaps.push(dup);
            },
            "more than one scheduled swap",
        );
        reject(
            |s| s.serving.as_mut().unwrap().swaps.as_mut().unwrap()[0].at_ms = 0.0,
            "at_ms",
        );
        reject(
            |s| s.serving.as_mut().unwrap().swaps = Some(vec![]),
            "at least one swap",
        );
        reject(|s| s.npus.push("server".to_owned()), "exactly one NPU");
    }

    fn minimal_json() -> String {
        r#"{
            "name": "t", "title": "t",
            "npus": ["edge"],
            "workloads": ["let"],
            "schemes": ["baseline", "SeDA"],
            "outputs": ["traffic"]
        }"#
        .to_owned()
    }

    fn expect_scenario_err(json: &str) -> ScenarioError {
        match Scenario::from_json(json) {
            Err(SedaError::Scenario(e)) => e,
            other => panic!("expected a scenario error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_model_is_typed() {
        let json = minimal_json().replace("\"let\"", "\"not-a-model\"");
        let e = expect_scenario_err(&json);
        assert!(matches!(e, ScenarioError::UnknownModel { ref name } if name == "not-a-model"));
        assert!(e.to_string().contains("not-a-model"), "{e}");
    }

    #[test]
    fn unknown_scheme_is_typed() {
        let json = minimal_json().replace("\"SeDA\"", "\"NotAScheme\"");
        let e = expect_scenario_err(&json);
        assert!(matches!(e, ScenarioError::UnknownScheme { ref name } if name == "NotAScheme"));
    }

    #[test]
    fn unknown_npu_is_typed() {
        let json = minimal_json().replace("\"edge\"", "\"tpu-v9\"");
        let e = expect_scenario_err(&json);
        assert!(matches!(e, ScenarioError::UnknownNpu { ref name } if name == "tpu-v9"));
    }

    #[test]
    fn bad_dram_override_is_typed() {
        let json =
            minimal_json().replace("\"outputs\"", "\"dram\": {\"channels\": 3}, \"outputs\"");
        let e = expect_scenario_err(&json);
        assert!(matches!(e, ScenarioError::BadDramOverride { .. }), "{e}");
        assert!(e.to_string().contains("channels"), "{e}");
    }

    #[test]
    fn bad_generator_parameters_are_typed() {
        let json = minimal_json().replace("\"let\"", "{\"transformer_decode\": {\"context\": 0}}");
        let e = expect_scenario_err(&json);
        assert!(matches!(e, ScenarioError::BadSpec { .. }), "{e}");
    }

    #[test]
    fn bad_granularity_is_typed() {
        let json = minimal_json().replace(
            "\"SeDA\"",
            "{\"block_mac\": {\"kind\": \"mgx\", \"granularity\": 100}}",
        );
        let e = expect_scenario_err(&json);
        assert!(matches!(e, ScenarioError::BadSpec { .. }), "{e}");
        assert!(e.to_string().contains("granularity"), "{e}");
    }

    #[test]
    fn granularity_must_divide_the_protected_region() {
        let json = minimal_json().replace(
            "\"SeDA\"",
            "{\"block_mac\": {\"kind\": \"mgx\", \"granularity\": 192}}",
        );
        let e = expect_scenario_err(&json);
        assert!(matches!(e, ScenarioError::BadSpec { .. }), "{e}");
        assert!(e.to_string().contains("does not divide"), "{e}");
    }

    #[test]
    fn oversized_metadata_caches_are_typed() {
        // 2^54 KB wraps to zero bytes under `kb << 10`; 2^30 KB is 1 TiB.
        for kb in [1u64 << 54, 1 << 30, MAX_META_CACHE_KB + 1] {
            for field in ["mac_cache_kb", "vn_cache_kb"] {
                let json = minimal_json().replace(
                    "\"SeDA\"",
                    &format!(
                        "{{\"block_mac\": {{\"kind\": \"sgx\", \"granularity\": 64, \
                         \"{field}\": {kb}}}}}"
                    ),
                );
                let e = expect_scenario_err(&json);
                assert!(
                    matches!(e, ScenarioError::BadSpec { .. }),
                    "{field}={kb}: {e}"
                );
                assert!(e.to_string().contains(field), "{e}");
            }
        }
        // The cap itself is accepted.
        let json = minimal_json().replace(
            "\"SeDA\"",
            &format!(
                "{{\"block_mac\": {{\"kind\": \"sgx\", \"granularity\": 64, \
                 \"mac_cache_kb\": {MAX_META_CACHE_KB}}}}}"
            ),
        );
        assert!(Scenario::from_json(&json).is_ok());
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        let e = expect_scenario_err("{ this is not json");
        assert!(matches!(e, ScenarioError::Parse { .. }), "{e}");
        let e = expect_scenario_err("{\"name\": \"x\"}");
        assert!(
            matches!(e, ScenarioError::Parse { .. }),
            "missing fields: {e}"
        );
    }

    #[test]
    fn empty_axes_are_rejected() {
        let json = minimal_json().replace("[\"baseline\", \"SeDA\"]", "[]");
        let e = expect_scenario_err(&json);
        assert!(matches!(e, ScenarioError::BadSpec { .. }), "{e}");
        let json = minimal_json().replace("[\"let\"]", "[]");
        let e = expect_scenario_err(&json);
        assert!(matches!(e, ScenarioError::BadSpec { .. }), "{e}");
    }

    #[test]
    fn duplicate_scheme_labels_are_rejected() {
        let json = minimal_json().replace("\"SeDA\"", "\"baseline\"");
        let e = expect_scenario_err(&json);
        assert!(e.to_string().contains("duplicate"), "{e}");
    }

    #[test]
    fn scenario_run_matches_the_direct_sweep_path() {
        // A scenario run must be bit-identical to driving the Sweep
        // engine by hand with the same axes.
        let scenario = Scenario::from_json(&minimal_json()).expect("valid");
        let run = scenario.run().expect("runs clean");
        let direct = Sweep::new()
            .npu(NpuConfig::edge())
            .model(zoo::lenet())
            .schemes(["baseline", "SeDA"])
            .run();
        let direct_evals = crate::experiment::evaluations_of(&direct);
        assert_eq!(run.evaluations.len(), direct_evals.len());
        for (a, b) in run.evaluations.iter().zip(&direct_evals) {
            assert_eq!(a.npu, b.npu);
            for (wa, wb) in a.workloads.iter().zip(&b.workloads) {
                assert_eq!(wa.workload, wb.workload);
                for (oa, ob) in wa.outcomes.iter().zip(&wb.outcomes) {
                    assert_eq!(oa.scheme, ob.scheme);
                    assert_eq!(oa.run.total_cycles, ob.run.total_cycles);
                    assert_eq!(oa.run.traffic, ob.run.traffic);
                }
            }
        }
        let rendered = run.render();
        assert!(rendered.contains("mean normalized traffic"), "{rendered}");
        let snapshot = run.snapshot_json();
        assert!(snapshot.contains("seda-scenario/v1"), "{snapshot}");
    }

    #[test]
    fn dram_override_changes_the_outcome() {
        let base = Scenario::from_json(&minimal_json()).expect("valid");
        let mut overridden = base.clone();
        overridden.dram = Some(DramOverride {
            t_bl: Some(dram_config_for(&NpuConfig::edge()).t_bl + 1),
            ..DramOverride::default()
        });
        let a = base.run().expect("base runs");
        let b = overridden.run().expect("override runs");
        assert_ne!(
            a.evaluations[0].workloads[0].outcomes[0].run.total_cycles,
            b.evaluations[0].workloads[0].outcomes[0].run.total_cycles,
            "a one-cycle burst-length override must be visible"
        );
    }

    #[test]
    fn dram_override_applies_every_field_and_keeps_absent_ones() {
        let base = dram_config_for(&NpuConfig::edge());
        let all = DramOverride {
            channels: Some(1001),
            ranks: Some(1002),
            banks: Some(1003),
            row_bytes: Some(1004),
            clock_hz: Some(1005.5),
            t_rcd: Some(1006),
            t_rp: Some(1007),
            t_cl: Some(1008),
            t_cwl: Some(1009),
            t_ras: Some(1010),
            t_bl: Some(1011),
            t_wr: Some(1012),
            t_refi: Some(1013),
            t_rfc: Some(1014),
        };
        let expected = DramConfig {
            channels: 1001,
            ranks: 1002,
            banks: 1003,
            row_bytes: 1004,
            clock_hz: 1005.5,
            t_rcd: 1006,
            t_rp: 1007,
            t_cl: 1008,
            t_cwl: 1009,
            t_ras: 1010,
            t_bl: 1011,
            t_wr: 1012,
            t_refi: 1013,
            t_rfc: 1014,
        };
        assert_eq!(all.apply(base.clone()), expected);
        assert_eq!(DramOverride::default().apply(base.clone()), base);
        let one = DramOverride {
            t_cwl: Some(1009),
            ..DramOverride::default()
        };
        assert_eq!(
            one.apply(base.clone()),
            DramConfig {
                t_cwl: 1009,
                ..base
            }
        );
    }

    #[test]
    fn block_mac_labels_are_stable() {
        let plain = SchemeSpec::BlockMac {
            kind: "mgx".to_owned(),
            granularity: 256,
            mac_cache_kb: None,
            vn_cache_kb: None,
        };
        assert_eq!(plain.label(), "MGX-256B");
        let cached = SchemeSpec::BlockMac {
            kind: "sgx".to_owned(),
            granularity: 64,
            mac_cache_kb: Some(4),
            vn_cache_kb: Some(8),
        };
        assert_eq!(cached.label(), "SGX-64B/m4v8");
    }
}
