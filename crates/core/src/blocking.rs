//! Blocking structures and the rule-aware blocking plan compiler
//! (Sections 4.2, 5.3, 5.4).
//!
//! Two blocking modes are provided:
//!
//! * **Record-level HB** (Section 4.2): one [`BlockingStructure`] whose
//!   composite hashes sample bits uniformly from the whole record-level
//!   c-vector. This is the paper's baseline blocking mode ("standard
//!   LSH-based approach"). One constructor builds it over any
//!   [`RowLayout`] ([`BlockingPlan::record_level_over`]), so records that
//!   are fixed-width bit vectors without a schema — the keyed PPRL
//!   encodings, BfH's Bloom filters — block through the same structure.
//! * **Attribute-level, rule-aware blocking** (Section 5.4): a
//!   classification [`Rule`] is compiled by [`BlockingPlan::compile`] into a
//!   set of structures plus a set-algebra expression over their candidate
//!   sets:
//!   - a conjunction of predicates fuses into **one** structure whose keys
//!     concatenate per-attribute samples (`p_∧ = Π p_i^{K_i}`, Definition 4);
//!   - a disjunction of predicates builds one structure per attribute, all
//!     sharing `L = ⌈ln δ / ln(1 − p_∨)⌉` with `p_∨` from
//!     inclusion–exclusion (Definition 5);
//!   - a negated conjunct builds its own structure whose co-blocked set is
//!     *subtracted* from the candidates (Definition 6 / rule C3) — such
//!     pairs "are not formulated at all and are never brought for
//!     comparison";
//!   - compound rules (the paper's C1/C2/C3) compose recursively: union for
//!     OR of subrules, intersection for AND of subrules.
//!
//! **Keys.** A structure never asks its hash families for a key one table
//! and one bit at a time. Its families are compiled once — when the
//! structure is built, and again by [`BlockingPlan::compile_kernels`] after
//! a plan was deserialized, never serialized — against a [`RowLayout`] into
//! a [`rl_lsh::KeyKernel`] over the *packed record-level c-vector*: the row
//! of two to five `u64` words the engine keeps a record as
//! ([`RecordSchema::embed_row`], [`crate::matcher::RecordSlab`]), read as it
//! is. One call, [`BlockingStructure::keys_into_row`], yields all `L` keys
//! and serves insert, remove, re-index, bucket inspection and probing; the
//! families' own `key`/`key_concat` stay as the definition the kernels are
//! tested bit-identical against.
//!
//! **Rows and the `&EmbeddedRecord` adapters.** Keys, the candidate algebra
//! and the verified-NOT check ([`BlockingStructure::conjuncts_hold_row`],
//! per-attribute popcounts under the structure's
//! [`RowLayout`]) have one implementation, over rows; a plan's candidate
//! evaluation is generic in what its record lookup returns (`Option<R>`,
//! `R: AsRef<[u64]>`: a slab hands out `&[u64]`). The methods that take an
//! [`EmbeddedRecord`] — `insert`, `remove`, `keys_into`, `bucket`,
//! `candidates*`, `conjuncts_hold` — pack it
//! ([`EmbeddedRecord::packed`]) and call their `_row` twin; they exist for
//! callers that hold the unpacked reference (tests, the benchmark's replay).
//!
//! **Table values.** A bucket holds `u64` values that the engines make the
//! record's slot in its [`crate::matcher::RecordSlab`]
//! ([`crate::matcher::index_row`]); the `&EmbeddedRecord` adapters insert
//! the record's id, so there slot ≡ id. A store refuses a value of 2³² or
//! more (counted in `StoreStats::dropped`).
//!
//! **Candidate sets** are sorted, de-duplicated `Vec<u64>`s of values. A
//! single-structure plan gathers its bucket values into the caller's
//! [`ProbeScratch`] and sorts them; compound plans intersect, unite and
//! subtract by merging sorted vectors.

use crate::error::{Error, Result};
use crate::rule::{Pred, Rule};
use crate::schema::{EmbeddedRecord, PackedRow, RecordSchema, RowLayout};
use rand::Rng;
use rl_blockstore::{BlockPolicy, CapMode, TableSet};
use rl_lsh::backend::{Backend, BackendKind, BlockingBackend};
use rl_lsh::params::{and_probability, base_success_probability, optimal_l, or_probability};
use rl_lsh::{BitSampleFamily, BitSampler, CoveringFamily, KeyKernel};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Where a backend samples its bits from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum Source {
    /// The conceptual record-level concatenation.
    Record,
    /// A single attribute's c-vector.
    Attr(usize),
    /// The concatenation of several attributes' c-vectors, in order — a
    /// covering conjunction fuses its conjunct attributes into one family
    /// over this concatenation.
    Attrs(Vec<usize>),
}

/// One sub-family of a composite key: a blocking backend over one source.
/// A structure combines one sub-family per fused conjunct.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SubFamily {
    source: Source,
    backend: Backend,
}

impl SubFamily {
    fn key_bits(&self, l: usize) -> usize {
        self.backend.key_bits(l)
    }

    /// For each position of the vector this family hashes, its bit offset
    /// in a row laid out by `layout`.
    fn position_map(&self, layout: &RowLayout) -> Vec<u32> {
        let widths = layout.widths();
        let span = |attr: usize| {
            let offset: usize = widths[..attr].iter().sum();
            offset as u32..(offset + widths[attr]) as u32
        };
        match &self.source {
            Source::Record => (0..layout.bits() as u32).collect(),
            Source::Attr(attr) => span(*attr).collect(),
            Source::Attrs(attrs) => attrs.iter().flat_map(|&attr| span(attr)).collect(),
        }
    }
}

/// A structure's families compiled against one row layout.
/// Derived state: rebuilt from the families, never written to a snapshot.
#[derive(Debug, Clone, Default)]
struct CompiledKeys {
    kernel: KeyKernel,
    /// The row layout the kernel was compiled for: every record it keys
    /// must have that size.
    layout: RowLayout,
    /// The last insert's or remove's keys, kept for its buffer.
    scratch: Vec<u128>,
}

/// How a record-level structure sets its number of tables `L`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TableCount {
    /// Equation 2 for the failure budget `delta`. With `flips > 0` a probe
    /// also looks up every key up to `flips` bits away (multi-probe), which
    /// raises the per-table collision probability and lowers `L`.
    Equation2 {
        /// Failure budget δ.
        delta: f64,
        /// Multi-probe flip budget (0 = exact probing).
        flips: u32,
    },
    /// A fixed `L`.
    Fixed(usize),
}

/// A blocking structure: `L` hash tables `T_l`, each keyed by a composite
/// hash built from one or more sub-families (one per fused conjunct).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlockingStructure {
    /// Human-readable description (for stats / debugging).
    label: String,
    /// The sub-families whose table-`l` keys are concatenated to form table
    /// `l`'s composite key. All families share the same `L`.
    families: Vec<SubFamily>,
    /// The `L` blocking tables, behind the storage abstraction: heap
    /// hash maps by default, a disk-resident mmap store when configured
    /// via [`BlockingStructure::configure_store`].
    store: TableSet,
    /// Per-table collision probability for a pair within the thresholds
    /// (1.0 for covering structures — the collision is guaranteed).
    p_collide: f64,
    /// The `(attr, θ)` conjuncts this structure was built for (empty for a
    /// record-level structure). Used to verify NOT-exclusion hints.
    conjuncts: Vec<Pred>,
    /// Multi-probe budget: when probing, also look up keys with up to this
    /// many flipped bits (0 = exact probing).
    #[serde(default)]
    probe_flips: u32,
    /// `families`, compiled (see the module documentation).
    #[serde(skip)]
    keys: CompiledKeys,
}

impl BlockingStructure {
    /// Assembles a structure over empty in-memory tables and compiles its
    /// key kernel against `layout`.
    fn assemble(
        layout: &RowLayout,
        label: String,
        families: Vec<SubFamily>,
        p_collide: f64,
        conjuncts: Vec<Pred>,
        probe_flips: u32,
    ) -> Self {
        let l = families[0].backend.l();
        let mut structure = Self {
            label,
            families,
            store: TableSet::memory(l),
            p_collide,
            conjuncts,
            probe_flips,
            keys: CompiledKeys::default(),
        };
        structure.compile_kernel(layout);
        structure
    }

    /// (Re)compiles the key kernel against `layout` — the row layout the
    /// structure was built for.
    fn compile_kernel(&mut self, layout: &RowLayout) {
        let maps: Vec<Vec<u32>> = self
            .families
            .iter()
            .map(|f| f.position_map(layout))
            .collect();
        let families: Vec<(&Backend, &[u32])> = self
            .families
            .iter()
            .zip(&maps)
            .map(|(f, map)| (&f.backend, map.as_slice()))
            .collect();
        self.keys = CompiledKeys {
            kernel: KeyKernel::compile(&families),
            layout: layout.clone(),
            scratch: Vec::new(),
        };
    }

    /// The one record-level HB constructor: keys sample `k` bits uniformly
    /// from rows laid out by `layout` (the `m̄`-bit record-level c-vector);
    /// `theta` is the record-level Hamming threshold `L` is computed for.
    /// The `L` samplers are drawn by [`BitSampleFamily::random`].
    fn record_level_over<R: Rng + ?Sized>(
        layout: &RowLayout,
        theta: u32,
        k: u32,
        tables: TableCount,
        rng: &mut R,
    ) -> Result<Self> {
        let m = layout.bits();
        if m == 0 {
            return Err(Error::InvalidParameter("a row of 0 bits".into()));
        }
        if theta as usize > m {
            return Err(Error::ThresholdTooLarge {
                attr: usize::MAX,
                theta,
                m,
            });
        }
        let p = base_success_probability(theta, m);
        let (l, p_collide, flips) = match tables {
            TableCount::Fixed(l) => (l, p.powi(k as i32), 0),
            TableCount::Equation2 { flips, .. } if flips > k => {
                return Err(Error::InvalidParameter(format!(
                    "cannot flip {flips} bits of a {k}-bit key"
                )));
            }
            TableCount::Equation2 { delta, flips } => {
                check_delta(delta)?;
                // `p^K` at 0 flips.
                let p_collide = rl_lsh::params::multiprobe_collision_probability(p, k, flips);
                if p_collide <= 0.0 {
                    return Err(Error::InvalidParameter(format!(
                        "record-level collision probability underflowed to 0 \
                         (theta={theta}, m={m}, k={k}, flips={flips})"
                    )));
                }
                (optimal_l(p_collide, delta), p_collide, flips)
            }
        };
        let label = match tables {
            TableCount::Fixed(_) => format!("record-level(theta={theta},K={k},L={l},fixed)"),
            _ if flips == 0 => format!("record-level(theta={theta},K={k},L={l})"),
            _ => format!("record-level-mp(theta={theta},K={k},L={l},t={flips})"),
        };
        let family = BitSampleFamily::random(m, k as usize, l, rng)?;
        Ok(Self::assemble(
            layout,
            label,
            vec![SubFamily {
                source: Source::Record,
                backend: Backend::RandomSampling(family),
            }],
            p_collide,
            Vec::new(),
            flips,
        ))
    }

    /// Builds the record-level HB structure over `schema`'s rows, `L` from
    /// Equation 2.
    pub fn record_level<R: Rng + ?Sized>(
        schema: &RecordSchema,
        theta: u32,
        k: u32,
        delta: f64,
        rng: &mut R,
    ) -> Result<Self> {
        let tables = TableCount::Equation2 { delta, flips: 0 };
        Self::record_level_over(&schema.layout(), theta, k, tables, rng)
    }

    /// As [`Self::record_level`], but with a fixed number of blocking
    /// groups instead of deriving `L` from Equation 2 — used by parameter
    /// sweeps (Figure 7) where `L` must stay constant while the embedding
    /// geometry changes.
    pub fn record_level_with_l<R: Rng + ?Sized>(
        schema: &RecordSchema,
        theta: u32,
        k: u32,
        l: usize,
        rng: &mut R,
    ) -> Result<Self> {
        Self::record_level_over(&schema.layout(), theta, k, TableCount::Fixed(l), rng)
    }

    /// Multi-probe record-level HB (Lv et al., adapted): each probe also
    /// looks up the buckets of keys with up to `flips` bits toggled, which
    /// boosts the per-table success probability and shrinks `L`
    /// (`rl_lsh::params::multiprobe_collision_probability`).
    pub fn record_level_multiprobe<R: Rng + ?Sized>(
        schema: &RecordSchema,
        theta: u32,
        k: u32,
        delta: f64,
        flips: u32,
        rng: &mut R,
    ) -> Result<Self> {
        let tables = TableCount::Equation2 { delta, flips };
        Self::record_level_over(&schema.layout(), theta, k, tables, rng)
    }

    /// Builds a fused conjunction structure over `(attr, θ)` conjuncts:
    /// per-attribute samplers of `K^(f_i)` bits (taken from the schema
    /// spec), keys concatenated, `L` from `p_∧` (Definition 4).
    pub fn conjunction<R: Rng + ?Sized>(
        schema: &RecordSchema,
        conjuncts: &[Pred],
        delta: f64,
        rng: &mut R,
    ) -> Result<Self> {
        check_delta(delta)?;
        let p_collide = conjunction_probability(schema, conjuncts)?;
        let l = optimal_l(p_collide, delta);
        Self::conjunction_with_l(schema, conjuncts, l, p_collide, rng)
    }

    /// As [`Self::conjunction`], but with an externally fixed `L` — used by
    /// the OR compiler, which shares one `L` across the disjunct structures
    /// (Definition 5).
    fn conjunction_with_l<R: Rng + ?Sized>(
        schema: &RecordSchema,
        conjuncts: &[Pred],
        l: usize,
        p_collide: f64,
        rng: &mut R,
    ) -> Result<Self> {
        if conjuncts.is_empty() {
            return Err(Error::InvalidRule("empty conjunction".into()));
        }
        // Draw samplers table-major (table 0's samplers for every conjunct,
        // then table 1's, …): the exact RNG order of the pre-backend
        // implementation, so seeded runs keep their blocking keys. The
        // draws are then transposed into one per-conjunct family.
        let mut per_family: Vec<Vec<BitSampler>> =
            conjuncts.iter().map(|_| Vec::with_capacity(l)).collect();
        for _ in 0..l {
            for (j, c) in conjuncts.iter().enumerate() {
                let spec = &schema.specs()[c.attr];
                per_family[j].push(BitSampler::random(spec.m, spec.k as usize, rng)?);
            }
        }
        let mut families = Vec::with_capacity(conjuncts.len());
        for (c, samplers) in conjuncts.iter().zip(per_family) {
            families.push(SubFamily {
                source: Source::Attr(c.attr),
                backend: Backend::RandomSampling(BitSampleFamily::from_samplers(samplers)?),
            });
        }
        let label = conjuncts
            .iter()
            .map(|c| format!("f{}<={}", c.attr, c.theta))
            .collect::<Vec<_>>()
            .join("&");
        Ok(Self::assemble(
            &schema.layout(),
            format!("attr-level({label},L={l})"),
            families,
            p_collide,
            conjuncts.to_vec(),
            0,
        ))
    }

    /// Builds a record-level covering structure: `L = 2^{theta+1} − 1`
    /// groups over the record-level c-vector, with **zero false negatives**
    /// for pairs at record-level Hamming distance ≤ `theta`.
    pub fn covering_record_level<R: Rng + ?Sized>(
        schema: &RecordSchema,
        theta: u32,
        rng: &mut R,
    ) -> Result<Self> {
        let m = schema.total_size();
        if theta as usize > m {
            return Err(Error::ThresholdTooLarge {
                attr: usize::MAX,
                theta,
                m,
            });
        }
        let family = CoveringFamily::random(m, theta, rng)?;
        let l = family.l();
        Ok(Self::assemble(
            &schema.layout(),
            format!("covering-record(theta={theta},L={l})"),
            vec![SubFamily {
                source: Source::Record,
                backend: Backend::Covering(family),
            }],
            1.0,
            Vec::new(),
            0,
        ))
    }

    /// Builds a covering structure for a conjunction of `(attr, θ)`
    /// predicates. The conjunct attributes are fused into **one** covering
    /// family over their concatenation with radius `θ_∧ = Σ θ_i`: a pair
    /// satisfying every conjunct differs in at most `θ_∧` bits of the
    /// concatenation, so the single family's guarantee covers the whole
    /// conjunction with `2^{θ_∧+1} − 1` groups instead of the cross-product
    /// of per-attribute group counts.
    pub fn covering_conjunction<R: Rng + ?Sized>(
        schema: &RecordSchema,
        conjuncts: &[Pred],
        rng: &mut R,
    ) -> Result<Self> {
        if conjuncts.is_empty() {
            return Err(Error::InvalidRule("empty conjunction".into()));
        }
        let mut theta_total = 0u32;
        let mut m_total = 0usize;
        for c in conjuncts {
            let spec = schema
                .specs()
                .get(c.attr)
                .ok_or(Error::AttributeOutOfRange {
                    attr: c.attr,
                    num_attributes: schema.num_attributes(),
                })?;
            if c.theta as usize > spec.m {
                return Err(Error::ThresholdTooLarge {
                    attr: c.attr,
                    theta: c.theta,
                    m: spec.m,
                });
            }
            theta_total += c.theta;
            m_total += spec.m;
        }
        let family = CoveringFamily::random(m_total, theta_total, rng)?;
        let l = family.l();
        let source = if conjuncts.len() == 1 {
            Source::Attr(conjuncts[0].attr)
        } else {
            Source::Attrs(conjuncts.iter().map(|c| c.attr).collect())
        };
        let label = conjuncts
            .iter()
            .map(|c| format!("f{}<={}", c.attr, c.theta))
            .collect::<Vec<_>>()
            .join("&");
        Ok(Self::assemble(
            &schema.layout(),
            format!("covering({label},theta={theta_total},L={l})"),
            vec![SubFamily {
                source,
                backend: Backend::Covering(family),
            }],
            1.0,
            conjuncts.to_vec(),
            0,
        ))
    }

    /// Number of blocking groups `L`.
    pub fn l(&self) -> usize {
        self.store.num_tables()
    }

    /// Switches this structure's (empty) tables to the storage backend
    /// and policy in `cfg`, rooting a disk store under `dir`.
    ///
    /// Covering structures guarantee zero false negatives, so the lossy
    /// knobs are neutralised for them: a `Drop` cap becomes `Chain` and
    /// the per-probe top-k bound is disabled (ISSUE: off by default for
    /// the covering backend to preserve zero-FN).
    pub fn configure_store(
        &mut self,
        cfg: &crate::pipeline::BlockStoreConfig,
        dir: Option<&Path>,
    ) -> Result<()> {
        let mut policy = BlockPolicy {
            max_block_size: cfg.max_block_size,
            cap_mode: cfg.cap_mode,
            probe_top_k: cfg.probe_top_k,
        };
        if self.backend_kind() == BackendKind::Covering {
            policy.probe_top_k = 0;
            policy.cap_mode = CapMode::Chain;
        }
        self.store
            .convert(cfg.kind, dir)
            .map_err(|e| Error::Store(e.to_string()))?;
        self.store.set_policy(policy);
        Ok(())
    }

    /// Re-roots an (empty) disk-resident store at `dir` — sharded
    /// pipelines call this so each shard's clone of the plan writes its
    /// generation files under its own subdirectory.
    pub fn rehome_store(&mut self, dir: &Path) -> Result<()> {
        self.store
            .rehome(dir)
            .map_err(|e| Error::Store(e.to_string()))
    }

    /// True when a deserialized disk store lost its generation file and
    /// must be rebuilt by re-inserting every record.
    pub fn needs_rebuild(&self) -> bool {
        self.store.needs_rebuild()
    }

    /// The disk store's generation directory (`None` for in-memory).
    pub fn store_dir(&self) -> Option<&Path> {
        self.store.dir()
    }

    /// Drops all blocking entries (hash functions keep their draws), the
    /// first step of a rebuild.
    pub fn clear_tables(&mut self) {
        self.store.clear();
    }

    /// Compacts the underlying store: merges a disk store's delta overlay
    /// into the next on-disk generation (a memory store has nothing to do).
    pub fn compact_store(&mut self) -> Result<()> {
        self.store
            .compact()
            .map_err(|e| Error::Store(e.to_string()))
    }

    /// Per-table collision probability for an in-threshold pair.
    pub fn p_collide(&self) -> f64 {
        self.p_collide
    }

    /// Structure label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The `(attr, θ)` conjuncts this structure covers (empty for
    /// record-level structures).
    pub fn conjuncts(&self) -> &[Pred] {
        &self.conjuncts
    }

    /// True when rows `a` and `b` satisfy every conjunct of this structure
    /// (single-attribute popcounts — the cheap verification used for
    /// NOT-exclusion hints).
    pub fn conjuncts_hold_row(&self, a: &[u64], b: &[u64]) -> bool {
        let layout = &self.keys.layout;
        self.conjuncts
            .iter()
            .all(|c| layout.distance(a, b, c.attr) <= c.theta)
    }

    /// [`Self::conjuncts_hold_row`] for unpacked records.
    pub fn conjuncts_hold(&self, a: &EmbeddedRecord, b: &EmbeddedRecord) -> bool {
        self.conjuncts_hold_row(self.packed(a).as_ref(), self.packed(b).as_ref())
    }

    /// Packs `rec` for the row path.
    ///
    /// # Panics
    /// Panics if `rec` does not have the size of the schema this structure
    /// was built for.
    fn packed(&self, rec: &EmbeddedRecord) -> PackedRow {
        let bits = rec.total_bits();
        self.check_size(bits == self.keys.layout.bits(), bits, "bits");
        rec.packed()
    }

    /// Panics unless the kernel is compiled for this structure's tables and
    /// the record at hand `fits` it.
    fn check_size(&self, fits: bool, size: usize, unit: &str) {
        assert!(
            self.keys.kernel.tables() == self.l() && fits,
            "a record of {size} {unit} met a blocking structure compiled for {} bits and {} of \
             its {} tables (a deserialized plan needs BlockingPlan::compile_kernels)",
            self.keys.layout.bits(),
            self.keys.kernel.tables(),
            self.l(),
        );
    }

    /// Replaces `out` by the composite keys of `row` for tables `0..L`: the
    /// compiled kernel run over the row's words.
    ///
    /// # Panics
    /// Panics if `row` does not have the size of the schema this structure
    /// was built for, or if the structure was deserialized and
    /// [`BlockingPlan::compile_kernels`] has not been called since.
    pub fn keys_into_row(&self, row: &[u64], out: &mut Vec<u128>) {
        self.check_size(row.len() == self.keys.layout.words(), row.len(), "words");
        self.keys.kernel.keys_into(row, out);
    }

    /// [`Self::keys_into_row`] for an unpacked record.
    pub fn keys_into(&self, rec: &EmbeddedRecord, out: &mut Vec<u128>) {
        self.keys_into_row(self.packed(rec).as_ref(), out);
    }

    /// Hashes value `id` — a record's slab slot, or its id under the
    /// adapters — whose row is `row`, into all `L` tables (the indexing pass
    /// for data set A).
    pub fn insert_row(&mut self, id: u64, row: &[u64]) {
        let mut keys = std::mem::take(&mut self.keys.scratch);
        self.keys_into_row(row, &mut keys);
        for (l, &key) in keys.iter().enumerate() {
            self.store.insert(l, key, id);
        }
        self.keys.scratch = keys;
    }

    /// Takes record `id`, inserted with row `row`, out of its bucket in
    /// every table (`TableSet::evict`): the keys are recomputed from
    /// `row`, so nothing of the id stays behind and a later insert of it
    /// brings nothing back.
    pub fn evict_row(&mut self, id: u64, row: &[u64]) {
        let mut keys = std::mem::take(&mut self.keys.scratch);
        self.keys_into_row(row, &mut keys);
        for (l, &key) in keys.iter().enumerate() {
            self.store.evict(l, key, id);
        }
        self.keys.scratch = keys;
    }

    /// Re-keys record `id` from row `old` to row `new`: in a table where
    /// the key changed the id leaves the old bucket (`TableSet::evict`)
    /// and enters the new one; where it did not, nothing is touched. Each
    /// table holds the id once afterwards.
    pub fn reindex_row(&mut self, id: u64, old: &[u64], new: &[u64]) {
        let mut keys = std::mem::take(&mut self.keys.scratch);
        let mut old_keys = Vec::new();
        self.keys_into_row(old, &mut old_keys);
        self.keys_into_row(new, &mut keys);
        for (l, (&was, &now)) in old_keys.iter().zip(&keys).enumerate() {
            if was != now {
                self.store.evict(l, was, id);
                self.store.insert(l, now, id);
            }
        }
        self.keys.scratch = keys;
    }

    /// [`Self::insert_row`] for an unpacked record.
    pub fn insert(&mut self, rec: &EmbeddedRecord) {
        self.insert_row(rec.id, self.packed(rec).as_ref());
    }

    /// Ids co-blocked with `rec` in table `l` (the bucket `rec` maps to).
    pub fn bucket(&self, rec: &EmbeddedRecord, l: usize) -> Vec<u64> {
        let mut keys = Vec::new();
        self.keys_into(rec, &mut keys);
        let mut out = Vec::new();
        self.probe_key_into(l, keys[l], &mut out);
        out
    }

    /// Appends the live ids of table `l`'s bucket for `key` to `out`, in
    /// insertion order — for callers that walk the tables themselves with
    /// the keys of [`Self::keys_into`].
    pub fn probe_key_into(&self, l: usize, key: u128, out: &mut Vec<u64>) {
        self.store.probe_into(l, key, out);
    }

    /// The de-duplicated union of co-blocked ids across all tables
    /// (including multi-probe neighbours when configured), ascending.
    pub fn candidates(&self, rec: &EmbeddedRecord) -> Vec<u64> {
        let mut scratch = ProbeScratch::default();
        self.candidates_into(rec, &mut scratch);
        scratch.candidates
    }

    /// [`Self::candidates_into_row`] for an unpacked record.
    pub fn candidates_into(&self, rec: &EmbeddedRecord, scratch: &mut ProbeScratch) -> bool {
        self.candidates_into_row(self.packed(rec).as_ref(), scratch)
    }

    /// Leaves the ascending, de-duplicated ids co-blocked with `row` in
    /// `scratch.candidates`, allocating nothing once the scratch has grown
    /// to the workload. Returns `true` when the store's per-probe top-k
    /// bound cut the candidate set short (callers surface this as a typed
    /// `CandidatesTruncated` note).
    pub fn candidates_into_row(&self, row: &[u64], scratch: &mut ProbeScratch) -> bool {
        let ProbeScratch {
            keys,
            bucket,
            candidates,
        } = scratch;
        self.keys_into_row(row, keys);
        candidates.clear();
        let top_k = self.store.policy().probe_top_k;
        for (l, &key) in keys.iter().enumerate() {
            // Unbounded probes gather straight into the result; bounded
            // ones go table by table through `bucket`.
            let ids = if top_k == 0 {
                &mut *candidates
            } else {
                bucket.clear();
                &mut *bucket
            };
            self.store.probe_into(l, key, ids);
            if self.probe_flips > 0 {
                let k_bits: usize = self.families.iter().map(|f| f.key_bits(l)).sum();
                self.probe_neighbours(l, key, k_bits, self.probe_flips, 0, ids);
            }
            if top_k > 0 {
                // Deterministic truncation: tables in order, ids in
                // insertion order, so both storage backends cut at the
                // same candidate. `candidates` stays sorted throughout.
                for &id in bucket.iter() {
                    if let Err(at) = candidates.binary_search(&id) {
                        if candidates.len() >= top_k {
                            return true;
                        }
                        candidates.insert(at, id);
                    }
                }
            }
        }
        if top_k == 0 {
            candidates.sort_unstable();
            candidates.dedup();
        }
        false
    }

    /// Recursively visits keys with up to `budget` more flipped bits,
    /// starting from bit `from` (each combination visited once).
    fn probe_neighbours(
        &self,
        l: usize,
        key: u128,
        k_bits: usize,
        budget: u32,
        from: usize,
        out: &mut Vec<u64>,
    ) {
        if budget == 0 {
            return;
        }
        for i in from..k_bits {
            let flipped = key ^ (1u128 << i);
            self.store.probe_into(l, flipped, out);
            self.probe_neighbours(l, flipped, k_bits, budget - 1, i + 1, out);
        }
    }

    /// The backend family this structure keys with. Fused structures hold
    /// one sub-family per conjunct, but never mix backends, so the first
    /// family's kind is the structure's kind.
    pub fn backend_kind(&self) -> BackendKind {
        self.families[0].backend.kind()
    }

    /// Mean composite-key width in bits across tables: the `ΣK` of the
    /// fused samplers for random sampling (constant across tables), the
    /// mean kept-width (≈ m/2, capped at 128 per sub-key) for covering.
    pub fn mean_key_bits(&self) -> usize {
        let l = self.l();
        if l == 0 {
            return 0;
        }
        let total: usize = (0..l)
            .map(|i| self.families.iter().map(|f| f.key_bits(i)).sum::<usize>())
            .sum();
        total / l
    }

    /// Folds every live `(table, bucket_size)` pair into `f`
    /// (profiling/diagnostics — replaces direct table access, which the
    /// storage abstraction no longer exposes).
    pub fn for_each_bucket(&self, mut f: impl FnMut(usize, usize)) {
        self.store
            .for_each_entry(|table, _, ids| f(table, ids.len()));
    }

    /// Folds every live `(table, key, live_ids)` entry into `f`, ids in
    /// insertion order (key fingerprinting, exhaustive exports).
    pub fn for_each_entry(&self, f: impl FnMut(usize, u128, &[u64])) {
        self.store.for_each_entry(f);
    }

    /// Total non-empty buckets across tables (diagnostics).
    pub fn num_buckets(&self) -> usize {
        self.store.stats().buckets
    }

    /// Largest bucket across tables (the paper's over-population
    /// diagnostic).
    pub fn max_bucket(&self) -> usize {
        self.store.stats().max_bucket
    }

    /// Snapshot of this structure's blocking diagnostics (the server's
    /// Stats reporting).
    pub fn stats(&self) -> StructureStats {
        let s = self.store.stats();
        StructureStats {
            label: self.label.clone(),
            backend: self.backend_kind().to_string(),
            l: self.l(),
            key_bits: self.mean_key_bits(),
            buckets: s.buckets,
            entries: s.entries as usize,
            max_bucket: s.max_bucket,
            store: self.store.kind().to_string(),
            size_histogram: s.size_histogram,
            dropped: s.dropped,
            on_disk_bytes: s.on_disk_bytes,
            heap_bytes: self.store.heap_bytes(),
        }
    }
}

/// Per-structure blocking diagnostics: which backend keys the structure,
/// its table count and key width, and bucket occupancy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StructureStats {
    /// The structure's label.
    pub label: String,
    /// Backend tag (`"random"` or `"covering"`).
    pub backend: String,
    /// Number of blocking tables `L`.
    pub l: usize,
    /// Mean composite-key width in bits (`ΣK` for random sampling, mean
    /// kept-width for covering).
    pub key_bits: usize,
    /// Non-empty buckets across the structure's tables.
    pub buckets: usize,
    /// Stored ids across the structure's tables.
    pub entries: usize,
    /// Largest single bucket.
    pub max_bucket: usize,
    /// Storage backend tag (`"memory"` or `"mmap"`).
    #[serde(default)]
    pub store: String,
    /// Log₂-binned live bucket sizes: bin `i` counts buckets holding
    /// `2^i ..= 2^(i+1) − 1` ids (see [`StructureStats::p99_bucket`]).
    #[serde(default)]
    pub size_histogram: Vec<u64>,
    /// Inserts discarded by a `drop`-mode block cap.
    #[serde(default)]
    pub dropped: u64,
    /// Bytes of the store's on-disk generation file (0 for memory).
    #[serde(default)]
    pub on_disk_bytes: u64,
    /// Heap bytes the store's tables hold: directories, id arenas and free
    /// lists (for an mmap store, of its delta overlay).
    #[serde(default)]
    pub heap_bytes: u64,
}

impl StructureStats {
    /// Merges another shard's view of the *same* structure (identical hash
    /// functions, disjoint record partitions): occupancy adds up, the
    /// shape fields must agree.
    pub fn merge(&mut self, other: &StructureStats) {
        debug_assert_eq!(self.label, other.label);
        self.buckets += other.buckets;
        self.entries += other.entries;
        self.max_bucket = self.max_bucket.max(other.max_bucket);
        if self.size_histogram.len() < other.size_histogram.len() {
            self.size_histogram.resize(other.size_histogram.len(), 0);
        }
        for (i, c) in other.size_histogram.iter().enumerate() {
            self.size_histogram[i] += c;
        }
        self.dropped += other.dropped;
        self.on_disk_bytes += other.on_disk_bytes;
        self.heap_bytes += other.heap_bytes;
    }

    /// Upper bound on the size of 99% of this structure's buckets, read
    /// off the log₂ histogram (the operator-facing skew signal: a probe
    /// rarely scans more than this many ids per table).
    pub fn p99_bucket(&self) -> usize {
        let total: u64 = self.size_histogram.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = (total as f64 * 0.99).ceil() as u64;
        let mut cum = 0u64;
        for (bin, &count) in self.size_histogram.iter().enumerate() {
            cum += count;
            if cum >= target {
                let bound = (1usize << (bin + 1)) - 1;
                return bound.min(self.max_bucket);
            }
        }
        self.max_bucket
    }
}

fn check_delta(delta: f64) -> Result<()> {
    if delta <= 0.0 || delta >= 1.0 {
        return Err(Error::InvalidParameter(format!(
            "delta must lie in (0, 1), got {delta}"
        )));
    }
    Ok(())
}

/// `p_∧` for a set of conjuncts, validating thresholds against the schema.
fn conjunction_probability(schema: &RecordSchema, conjuncts: &[Pred]) -> Result<f64> {
    let mut terms = Vec::with_capacity(conjuncts.len());
    for c in conjuncts {
        let spec = schema
            .specs()
            .get(c.attr)
            .ok_or(Error::AttributeOutOfRange {
                attr: c.attr,
                num_attributes: schema.num_attributes(),
            })?;
        if c.theta as usize > spec.m {
            return Err(Error::ThresholdTooLarge {
                attr: c.attr,
                theta: c.theta,
                m: spec.m,
            });
        }
        terms.push((base_success_probability(c.theta, spec.m), spec.k));
    }
    let p = and_probability(terms);
    if p <= 0.0 {
        return Err(Error::InvalidParameter(
            "conjunction collision probability underflowed to 0".into(),
        ));
    }
    Ok(p)
}

/// Set-algebra expression over structure candidate sets.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum PlanExpr {
    /// Candidates of one structure.
    Leaf(usize),
    /// Intersection of children, minus the co-blocked sets of the negated
    /// structures (empty `negated` for a plain AND).
    And {
        children: Vec<PlanExpr>,
        negated: Vec<usize>,
    },
    /// Union of children.
    Or(Vec<PlanExpr>),
}

/// A compiled blocking plan: structures plus the candidate-set expression.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlockingPlan {
    structures: Vec<BlockingStructure>,
    expr: PlanExpr,
}

impl BlockingPlan {
    /// Compiles a validated classification rule into blocking structures
    /// (Section 5.4). `delta` is the per-rule failure budget δ.
    ///
    /// Following the paper's compound-rule treatment, each subrule's
    /// structure receives the full δ budget; nested disjunctions of
    /// predicates share one `L` per Definition 5.
    pub fn compile<R: Rng + ?Sized>(
        schema: &RecordSchema,
        rule: &Rule,
        delta: f64,
        rng: &mut R,
    ) -> Result<Self> {
        let sizes: Vec<usize> = schema.specs().iter().map(|s| s.m).collect();
        rule.validate(&sizes)?;
        check_delta(delta)?;
        let mut structures = Vec::new();
        let expr = compile_node(schema, rule, delta, &mut structures, rng)?;
        Ok(Self { structures, expr })
    }

    /// Compiles a classification rule into **covering** blocking structures:
    /// the same set algebra as [`Self::compile`], but every structure uses
    /// the CoveringLSH backend, so each positive structure finds *all*
    /// pairs within its thresholds (no δ budget — recall is 1 by
    /// construction). Conjunctions fuse into one summed-radius family;
    /// disjunctions simply union per-disjunct structures (no shared-`L`
    /// machinery is needed when every structure already has full recall).
    pub fn compile_covering<R: Rng + ?Sized>(
        schema: &RecordSchema,
        rule: &Rule,
        rng: &mut R,
    ) -> Result<Self> {
        let sizes: Vec<usize> = schema.specs().iter().map(|s| s.m).collect();
        rule.validate(&sizes)?;
        let mut structures = Vec::new();
        let expr = compile_covering_node(schema, rule, &mut structures, rng)?;
        Ok(Self { structures, expr })
    }

    /// Wraps a single record-level covering structure as a plan.
    pub fn covering_record_level<R: Rng + ?Sized>(
        schema: &RecordSchema,
        theta: u32,
        rng: &mut R,
    ) -> Result<Self> {
        BlockingStructure::covering_record_level(schema, theta, rng).map(Self::single)
    }

    /// A plan of the one structure `s`.
    fn single(s: BlockingStructure) -> Self {
        Self {
            structures: vec![s],
            expr: PlanExpr::Leaf(0),
        }
    }

    /// Builds the plan a [`crate::pipeline::LinkageConfig`] asks for — the
    /// single construction point shared by the pipeline, the sharded
    /// service and deduplication, so a new blocking mode lands everywhere
    /// at once. Validates the rule and the config before compiling.
    pub fn from_config<R: Rng + ?Sized>(
        schema: &RecordSchema,
        config: &crate::pipeline::LinkageConfig,
        rng: &mut R,
    ) -> Result<Self> {
        use crate::pipeline::BlockingMode;
        let sizes: Vec<usize> = schema.specs().iter().map(|s| s.m).collect();
        config.rule.validate(&sizes)?;
        config.validate()?;
        let mut plan = match config.mode {
            BlockingMode::RecordLevel { theta, k } => {
                Self::record_level(schema, theta, k, config.delta, rng)
            }
            BlockingMode::RecordLevelFixedL { theta, k, l } => {
                Self::record_level_over(&schema.layout(), theta, k, TableCount::Fixed(l), rng)
            }
            BlockingMode::RuleAware => Self::compile(schema, &config.rule, config.delta, rng),
            BlockingMode::Covering { theta } => Self::covering_record_level(schema, theta, rng),
            BlockingMode::CoveringRuleAware => Self::compile_covering(schema, &config.rule, rng),
        }?;
        plan.configure_stores(&config.block)?;
        Ok(plan)
    }

    /// Wraps a single record-level structure as a plan (standard HB mode).
    pub fn record_level<R: Rng + ?Sized>(
        schema: &RecordSchema,
        theta: u32,
        k: u32,
        delta: f64,
        rng: &mut R,
    ) -> Result<Self> {
        BlockingStructure::record_level(schema, theta, k, delta, rng).map(Self::single)
    }

    /// Record-level HB over rows laid out by `layout`, for records that are
    /// fixed-width bit vectors without a [`RecordSchema`] (keyed PPRL
    /// encodings, Bloom filters), or with a fixed `L` (parameter sweeps):
    /// the constructor behind [`Self::record_level`].
    pub fn record_level_over<R: Rng + ?Sized>(
        layout: &RowLayout,
        theta: u32,
        k: u32,
        tables: TableCount,
        rng: &mut R,
    ) -> Result<Self> {
        BlockingStructure::record_level_over(layout, theta, k, tables, rng).map(Self::single)
    }

    /// The compiled structures.
    pub fn structures(&self) -> &[BlockingStructure] {
        &self.structures
    }

    /// Per-structure blocking diagnostics.
    pub fn stats(&self) -> Vec<StructureStats> {
        self.structures
            .iter()
            .map(BlockingStructure::stats)
            .collect()
    }

    /// Total number of hash tables across structures (`Σ L`).
    pub fn total_tables(&self) -> usize {
        self.structures.iter().map(BlockingStructure::l).sum()
    }

    /// Indexes value `id` — a record's slab slot, or its id under the
    /// adapters — whose row is `row`, into every structure.
    pub fn insert_row(&mut self, id: u64, row: &[u64]) {
        for s in &mut self.structures {
            s.insert_row(id, row);
        }
    }

    /// Takes record `id`, indexed with row `row`, out of every structure's
    /// buckets ([`BlockingStructure::evict_row`]). Callers must pass the row
    /// that was indexed so the keys resolve to the same buckets.
    pub fn evict_row(&mut self, id: u64, row: &[u64]) {
        for s in &mut self.structures {
            s.evict_row(id, row);
        }
    }

    /// Re-keys record `id`, indexed with row `old`, to row `new` in every
    /// structure ([`BlockingStructure::reindex_row`]).
    pub fn reindex_row(&mut self, id: u64, old: &[u64], new: &[u64]) {
        for s in &mut self.structures {
            s.reindex_row(id, old, new);
        }
    }

    /// [`Self::insert_row`] for an unpacked record.
    pub fn insert(&mut self, rec: &EmbeddedRecord) {
        self.insert_row(rec.id, self.packed(rec).as_ref());
    }

    /// Packs `rec` for the row path, checked against the plan's schema.
    fn packed(&self, rec: &EmbeddedRecord) -> PackedRow {
        self.structures[0].packed(rec)
    }

    /// Applies a block-store configuration to every (empty) structure.
    /// Disk-resident structures are rooted at `<dir>/s<i>` so each
    /// structure's generation files stay separate.
    pub fn configure_stores(&mut self, cfg: &crate::pipeline::BlockStoreConfig) -> Result<()> {
        let base = cfg.dir.as_ref().map(Path::new);
        for (i, s) in self.structures.iter_mut().enumerate() {
            let dir = base.map(|b| b.join(format!("s{i}")));
            s.configure_store(cfg, dir.as_deref())?;
        }
        Ok(())
    }

    /// The root directory the plan's disk stores were configured under
    /// (the parent of structure 0's `s0` directory); `None` when all
    /// stores are in-memory.
    pub fn store_root(&self) -> Option<std::path::PathBuf> {
        self.structures
            .first()
            .and_then(BlockingStructure::store_dir)
            .and_then(Path::parent)
            .map(Path::to_path_buf)
    }

    /// Re-roots every (empty) disk-resident store under
    /// `<dir>/shard-<shard>/s<i>` — one subtree per shard clone.
    pub fn rehome_stores(&mut self, dir: &Path, shard: usize) -> Result<()> {
        let shard_dir = dir.join(format!("shard-{shard}"));
        for (i, s) in self.structures.iter_mut().enumerate() {
            s.rehome_store(&shard_dir.join(format!("s{i}")))?;
        }
        Ok(())
    }

    /// True when any structure's deserialized disk store lost its
    /// generation file: the plan must be rebuilt (cleared + re-inserted)
    /// before serving probes.
    pub fn needs_rebuild(&self) -> bool {
        self.structures.iter().any(BlockingStructure::needs_rebuild)
    }

    /// Drops every structure's blocking entries (hash draws are kept):
    /// step one of a rebuild from the record store.
    pub fn clear_for_rebuild(&mut self) {
        for s in &mut self.structures {
            s.clear_tables();
        }
    }

    /// Compacts every structure's store (the next on-disk generation of a
    /// disk store).
    pub fn compact(&mut self) -> Result<()> {
        for s in &mut self.structures {
            s.compact_store()?;
        }
        Ok(())
    }

    /// Indexes a batch.
    pub fn insert_all(&mut self, recs: &[EmbeddedRecord]) {
        for r in recs {
            self.insert(r);
        }
    }

    /// Recompiles every structure's key kernel against `schema` — the
    /// schema the plan was built for. Kernels are derived state and are not
    /// serialized: call this once on a deserialized plan, before it keys a
    /// record. (Plans from the constructors arrive compiled.)
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] naming the structure whose store holds
    /// another number of tables than its kernel keys (an edited document):
    /// every probe of it would otherwise panic.
    pub fn compile_kernels(&mut self, schema: &RecordSchema) -> Result<()> {
        let layout = schema.layout();
        for s in &mut self.structures {
            s.compile_kernel(&layout);
            if s.keys.kernel.tables() != s.l() {
                return Err(Error::InvalidParameter(format!(
                    "blocking structure {}: its store holds {} tables, its kernel keys {}",
                    s.label,
                    s.l(),
                    s.keys.kernel.tables()
                )));
            }
        }
        Ok(())
    }

    /// The candidate ids for a probe record, ascending, per the rule's
    /// logic, using the paper's literal NOT semantics: a candidate is
    /// excluded when it is co-blocked with the probe in *any* table of a
    /// negated structure.
    ///
    /// Caveat: with small `K` the negated structure's tables have few
    /// buckets, so unrelated records co-block by chance and true matches
    /// are over-excluded. Prefer [`Self::candidates_verified`], which
    /// confirms each exclusion hint with a cheap single-attribute distance.
    pub fn candidates(&self, rec: &EmbeddedRecord) -> Vec<u64> {
        let mut scratch = ProbeScratch::default();
        self.eval(
            &self.expr,
            self.packed(rec).as_ref(),
            None::<&fn(u64) -> Option<&'static [u64]>>,
            &mut scratch,
            &mut false,
        );
        scratch.candidates
    }

    /// As [`Self::candidates`], but each NOT-exclusion hint is verified: a
    /// co-blocked candidate is only excluded when the negated structure's
    /// conjuncts actually hold for the pair (one popcount per conjunct).
    /// This keeps the paper's "never brought for comparison" pruning while
    /// avoiding chance-collision over-exclusion.
    pub fn candidates_verified<'s, F>(&self, rec: &EmbeddedRecord, lookup: F) -> Vec<u64>
    where
        F: Fn(u64) -> Option<&'s EmbeddedRecord>,
    {
        self.candidates_verified_counted(rec, lookup).0
    }

    /// As [`Self::candidates_verified`], also reporting whether any
    /// structure's per-probe top-k bound truncated its candidate stream
    /// (surfaced to clients as a `CandidatesTruncated` note).
    pub fn candidates_verified_counted<'s, F>(
        &self,
        rec: &EmbeddedRecord,
        lookup: F,
    ) -> (Vec<u64>, bool)
    where
        F: Fn(u64) -> Option<&'s EmbeddedRecord>,
    {
        let mut scratch = ProbeScratch::default();
        let truncated = self.candidates_into(rec, lookup, &mut scratch);
        (scratch.candidates, truncated)
    }

    /// [`Self::candidates_into_row`] for an unpacked probe and a lookup of
    /// unpacked records.
    pub fn candidates_into<'s, F>(
        &self,
        rec: &EmbeddedRecord,
        lookup: F,
        scratch: &mut ProbeScratch,
    ) -> bool
    where
        F: Fn(u64) -> Option<&'s EmbeddedRecord>,
    {
        let lookup = |id| lookup(id).map(EmbeddedRecord::packed);
        self.candidates_into_row(self.packed(rec).as_ref(), lookup, scratch)
    }

    /// The probe loop's candidate formulation: the verified candidates of
    /// the probe whose row is `row` are left in `scratch`
    /// ([`ProbeScratch::candidates`]), whose buffers a single-structure
    /// plan reuses from probe to probe; `lookup` resolves a table value to
    /// its row (a slot to `&[u64]` by direct index from a slab, or anything
    /// that derefs to one). Returns whether a top-k bound truncated the
    /// candidate stream.
    pub fn candidates_into_row<R, F>(
        &self,
        row: &[u64],
        lookup: F,
        scratch: &mut ProbeScratch,
    ) -> bool
    where
        F: Fn(u64) -> Option<R>,
        R: AsRef<[u64]>,
    {
        let mut truncated = false;
        self.eval(&self.expr, row, Some(&lookup), scratch, &mut truncated);
        truncated
    }

    /// Evaluates `expr` for the probe `row`, leaving its candidate set —
    /// ascending, de-duplicated — in `scratch.candidates`.
    fn eval<R, F>(
        &self,
        expr: &PlanExpr,
        row: &[u64],
        lookup: Option<&F>,
        scratch: &mut ProbeScratch,
        truncated: &mut bool,
    ) where
        F: Fn(u64) -> Option<R>,
        R: AsRef<[u64]>,
    {
        match expr {
            PlanExpr::Leaf(i) => {
                *truncated |= self.structures[*i].candidates_into_row(row, scratch);
            }
            PlanExpr::Or(children) => {
                let mut union = Vec::new();
                for c in children {
                    self.eval(c, row, lookup, scratch, truncated);
                    union = union_sorted(&union, &scratch.candidates);
                }
                scratch.candidates = union;
            }
            PlanExpr::And { children, negated } => {
                let mut sets: Vec<Vec<u64>> = children
                    .iter()
                    .map(|c| {
                        self.eval(c, row, lookup, scratch, truncated);
                        std::mem::take(&mut scratch.candidates)
                    })
                    .collect();
                // Intersect starting from the smallest set.
                sets.sort_by_key(Vec::len);
                let mut iter = sets.into_iter();
                let mut acc = iter.next().unwrap_or_default();
                for s in iter {
                    retain_merged(&mut acc, &s, |_, in_both| in_both);
                }
                for &n in negated {
                    if acc.is_empty() {
                        break;
                    }
                    let structure = &self.structures[n];
                    structure.candidates_into_row(row, scratch);
                    retain_merged(&mut acc, &scratch.candidates, |id, co_blocked| {
                        if !co_blocked {
                            return true;
                        }
                        match lookup {
                            // Verified mode: only exclude when the
                            // negated conjuncts truly hold.
                            Some(f) => {
                                f(id).is_none_or(|a| !structure.conjuncts_hold_row(a.as_ref(), row))
                            }
                            // Literal mode: any co-block excludes.
                            None => false,
                        }
                    });
                }
                scratch.candidates = acc;
            }
        }
    }
}

/// The buffers a probing thread carries from probe to probe: the `L` keys
/// of the record, one table's bucket (bounded probes only), and the
/// candidate set. A steady-state probe of a single-structure plan through
/// [`BlockingPlan::candidates_into`] allocates nothing.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    keys: Vec<u128>,
    bucket: Vec<u64>,
    pub(crate) candidates: Vec<u64>,
}

impl ProbeScratch {
    /// The candidates the last probe left here — table values: slab slots
    /// in the engines — ascending, distinct. (`matcher::match_record`
    /// leaves its matched ids here instead.)
    pub fn candidates(&self) -> &[u64] {
        &self.candidates
    }
}

/// One forward pass over ascending `acc` and `other`: keeps the ids of
/// `acc` for which `keep(id, id ∈ other)` holds. Intersection keeps those
/// in both, difference those in `acc` alone.
fn retain_merged(acc: &mut Vec<u64>, other: &[u64], mut keep: impl FnMut(u64, bool) -> bool) {
    let mut rest = other;
    acc.retain(|&id| {
        rest = &rest[rest.partition_point(|&o| o < id)..];
        keep(id, rest.first() == Some(&id))
    });
}

/// The union of two ascending, distinct id lists, ascending and distinct.
fn union_sorted(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let next = a[i].min(b[j]);
        i += usize::from(a[i] == next);
        j += usize::from(b[j] == next);
        out.push(next);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Recursive compiler: returns the expression for `rule`, appending any new
/// structures to `structures`.
fn compile_node<R: Rng + ?Sized>(
    schema: &RecordSchema,
    rule: &Rule,
    delta: f64,
    structures: &mut Vec<BlockingStructure>,
    rng: &mut R,
) -> Result<PlanExpr> {
    match rule {
        Rule::Pred(p) => {
            let s = BlockingStructure::conjunction(schema, &[*p], delta, rng)?;
            structures.push(s);
            Ok(PlanExpr::Leaf(structures.len() - 1))
        }
        Rule::And(children) => {
            // Partition: fuse predicate conjuncts into one structure; compile
            // compound conjuncts recursively; negations become exclusions.
            let mut preds: Vec<Pred> = Vec::new();
            let mut compound: Vec<&Rule> = Vec::new();
            let mut negations: Vec<&Rule> = Vec::new();
            for c in children {
                match c {
                    Rule::Pred(p) => preds.push(*p),
                    Rule::Not(inner) => negations.push(inner),
                    other => compound.push(other),
                }
            }
            let mut sub_exprs = Vec::new();
            if !preds.is_empty() {
                let s = BlockingStructure::conjunction(schema, &preds, delta, rng)?;
                structures.push(s);
                sub_exprs.push(PlanExpr::Leaf(structures.len() - 1));
            }
            for c in compound {
                sub_exprs.push(compile_node(schema, c, delta, structures, rng)?);
            }
            let mut negated = Vec::new();
            for n in negations {
                // The negated subrule's structure is built exactly like a
                // positive one (Definition 6 "does not include any
                // modifications"); only its set role flips.
                let preds =
                    match n {
                        Rule::Pred(p) => vec![*p],
                        Rule::And(inner) => {
                            let mut ps = Vec::new();
                            for r in inner {
                                match r {
                                    Rule::Pred(p) => ps.push(*p),
                                    _ => return Err(Error::InvalidRule(
                                        "NOT supports a predicate or a conjunction of predicates"
                                            .into(),
                                    )),
                                }
                            }
                            ps
                        }
                        _ => {
                            return Err(Error::InvalidRule(
                                "NOT supports a predicate or a conjunction of predicates".into(),
                            ))
                        }
                    };
                let s = BlockingStructure::conjunction(schema, &preds, delta, rng)?;
                structures.push(s);
                negated.push(structures.len() - 1);
            }
            if sub_exprs.is_empty() {
                return Err(Error::InvalidRule(
                    "AND must contain at least one non-negated conjunct".into(),
                ));
            }
            Ok(PlanExpr::And {
                children: sub_exprs,
                negated,
            })
        }
        Rule::Or(children) => {
            let all_preds: Option<Vec<Pred>> = children
                .iter()
                .map(|c| match c {
                    Rule::Pred(p) => Some(*p),
                    _ => None,
                })
                .collect();
            if let Some(preds) = all_preds {
                // Definition 5: one structure per disjunct attribute, all
                // sharing L computed from p_∨.
                let mut terms = Vec::new();
                for p in &preds {
                    let spec = schema
                        .specs()
                        .get(p.attr)
                        .ok_or(Error::AttributeOutOfRange {
                            attr: p.attr,
                            num_attributes: schema.num_attributes(),
                        })?;
                    terms.push((base_success_probability(p.theta, spec.m), spec.k));
                }
                let p_or = or_probability(terms.iter().copied());
                if p_or <= 0.0 {
                    return Err(Error::InvalidParameter(
                        "disjunction collision probability underflowed to 0".into(),
                    ));
                }
                let l = optimal_l(p_or, delta);
                let mut leaves = Vec::new();
                for (p, term) in preds.iter().zip(terms) {
                    let s = BlockingStructure::conjunction_with_l(
                        schema,
                        &[*p],
                        l,
                        term.0.powi(term.1 as i32),
                        rng,
                    )?;
                    structures.push(s);
                    leaves.push(PlanExpr::Leaf(structures.len() - 1));
                }
                Ok(PlanExpr::Or(leaves))
            } else {
                // Compound OR (the paper's C1): each subrule keeps its own
                // structures with the full δ budget; a pair is returned if it
                // is formulated in either blocking structure.
                let mut exprs = Vec::new();
                for c in children {
                    exprs.push(compile_node(schema, c, delta, structures, rng)?);
                }
                Ok(PlanExpr::Or(exprs))
            }
        }
        Rule::Not(_) => Err(Error::InvalidRule(
            "NOT is only valid as a direct conjunct of an AND".into(),
        )),
    }
}

/// Recursive covering compiler: same rule algebra as [`compile_node`], all
/// structures built on the covering backend.
fn compile_covering_node<R: Rng + ?Sized>(
    schema: &RecordSchema,
    rule: &Rule,
    structures: &mut Vec<BlockingStructure>,
    rng: &mut R,
) -> Result<PlanExpr> {
    match rule {
        Rule::Pred(p) => {
            let s = BlockingStructure::covering_conjunction(schema, &[*p], rng)?;
            structures.push(s);
            Ok(PlanExpr::Leaf(structures.len() - 1))
        }
        Rule::And(children) => {
            let mut preds: Vec<Pred> = Vec::new();
            let mut compound: Vec<&Rule> = Vec::new();
            let mut negations: Vec<&Rule> = Vec::new();
            for c in children {
                match c {
                    Rule::Pred(p) => preds.push(*p),
                    Rule::Not(inner) => negations.push(inner),
                    other => compound.push(other),
                }
            }
            let mut sub_exprs = Vec::new();
            if !preds.is_empty() {
                let s = BlockingStructure::covering_conjunction(schema, &preds, rng)?;
                structures.push(s);
                sub_exprs.push(PlanExpr::Leaf(structures.len() - 1));
            }
            for c in compound {
                sub_exprs.push(compile_covering_node(schema, c, structures, rng)?);
            }
            let mut negated = Vec::new();
            for n in negations {
                let preds =
                    match n {
                        Rule::Pred(p) => vec![*p],
                        Rule::And(inner) => {
                            let mut ps = Vec::new();
                            for r in inner {
                                match r {
                                    Rule::Pred(p) => ps.push(*p),
                                    _ => return Err(Error::InvalidRule(
                                        "NOT supports a predicate or a conjunction of predicates"
                                            .into(),
                                    )),
                                }
                            }
                            ps
                        }
                        _ => {
                            return Err(Error::InvalidRule(
                                "NOT supports a predicate or a conjunction of predicates".into(),
                            ))
                        }
                    };
                // A covering exclusion structure co-blocks *every* pair
                // within the negated thresholds — the exhaustive form of
                // Definition 6's "never brought for comparison".
                let s = BlockingStructure::covering_conjunction(schema, &preds, rng)?;
                structures.push(s);
                negated.push(structures.len() - 1);
            }
            if sub_exprs.is_empty() {
                return Err(Error::InvalidRule(
                    "AND must contain at least one non-negated conjunct".into(),
                ));
            }
            Ok(PlanExpr::And {
                children: sub_exprs,
                negated,
            })
        }
        Rule::Or(children) => {
            // Every covering structure already has recall 1 within its
            // thresholds, so an OR is a plain union of per-child plans —
            // Definition 5's shared-L trade-off does not arise.
            let mut exprs = Vec::new();
            for c in children {
                exprs.push(compile_covering_node(schema, c, structures, rng)?);
            }
            Ok(PlanExpr::Or(exprs))
        }
        Rule::Not(_) => Err(Error::InvalidRule(
            "NOT is only valid as a direct conjunct of an AND".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttributeSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use textdist::Alphabet;

    fn schema(seed: u64) -> RecordSchema {
        let mut rng = StdRng::seed_from_u64(seed);
        RecordSchema::build(
            Alphabet::linkage(),
            vec![
                AttributeSpec::new("FirstName", 2, 15, false, 5),
                AttributeSpec::new("LastName", 2, 15, false, 5),
                AttributeSpec::new("Address", 2, 68, false, 10),
                AttributeSpec::new("Town", 2, 22, false, 10),
            ],
            &mut rng,
        )
    }

    fn embed(s: &RecordSchema, id: u64, f: [&str; 4]) -> EmbeddedRecord {
        s.embed(&crate::Record::new(id, f)).unwrap()
    }

    #[test]
    fn record_level_l_matches_equation_2() {
        let s = schema(1);
        let mut rng = StdRng::seed_from_u64(9);
        let b = BlockingStructure::record_level(&s, 4, 30, 0.1, &mut rng).unwrap();
        assert_eq!(b.l(), 6); // §6.2: NCVR PL parameters give L = 6
    }

    #[test]
    fn identical_records_are_always_candidates() {
        let s = schema(2);
        let mut rng = StdRng::seed_from_u64(10);
        let mut b = BlockingStructure::record_level(&s, 4, 30, 0.1, &mut rng).unwrap();
        let e1 = embed(&s, 1, ["JOHN", "SMITH", "12 OAK ST", "DURHAM"]);
        let e2 = embed(&s, 2, ["JOHN", "SMITH", "12 OAK ST", "DURHAM"]);
        b.insert(&e1);
        assert!(b.candidates(&e2).contains(&1));
    }

    #[test]
    fn conjunction_structure_blocks_per_rule() {
        let s = schema(3);
        let mut rng = StdRng::seed_from_u64(11);
        let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
        let mut plan = BlockingPlan::compile(&s, &rule, 0.1, &mut rng).unwrap();
        assert_eq!(plan.structures().len(), 1); // fused conjunction
        let a = embed(&s, 1, ["JOHN", "SMITH", "X", "Y"]);
        let probe = embed(&s, 2, ["JOHN", "SMITH", "COMPLETELY", "DIFFERENT"]);
        plan.insert(&a);
        // Names match exactly → must be co-blocked regardless of address.
        assert!(plan.candidates(&probe).contains(&1));
    }

    #[test]
    fn or_plan_unions_candidates() {
        let s = schema(4);
        let mut rng = StdRng::seed_from_u64(12);
        let rule = Rule::or([Rule::pred(0, 4), Rule::pred(2, 8)]);
        let mut plan = BlockingPlan::compile(&s, &rule, 0.1, &mut rng).unwrap();
        assert_eq!(plan.structures().len(), 2);
        // Shared L per Definition 5.
        assert_eq!(plan.structures()[0].l(), plan.structures()[1].l());
        let a = embed(&s, 1, ["JOHN", "X", "12 OAK STREET", "Y"]);
        plan.insert(&a);
        // Probe matches only on the address attribute.
        let probe = embed(&s, 2, ["WILHELMINA", "Z", "12 OAK STREET", "W"]);
        assert!(plan.candidates(&probe).contains(&1));
    }

    #[test]
    fn not_excludes_co_blocked_pairs() {
        let s = schema(5);
        let mut rng = StdRng::seed_from_u64(13);
        // C3: first name close AND last name NOT close.
        let rule = Rule::and([Rule::pred(0, 4), Rule::not(Rule::pred(1, 4))]);
        let mut plan = BlockingPlan::compile(&s, &rule, 0.1, &mut rng).unwrap();
        assert_eq!(plan.structures().len(), 2);
        let same_both = embed(&s, 1, ["JOHN", "SMITH", "A", "B"]);
        let same_first = embed(&s, 2, ["JOHN", "WINTERBOTTOM", "A", "B"]);
        plan.insert(&same_both);
        plan.insert(&same_first);
        let probe = embed(&s, 3, ["JOHN", "SMITH", "A", "B"]);
        let cands = plan.candidates(&probe);
        // Record 1 shares both names with the probe → excluded by the NOT.
        assert!(!cands.contains(&1));
        // Record 2 shares only the first name → kept.
        assert!(cands.contains(&2));
    }

    #[test]
    fn compound_c1_unions_subrule_structures() {
        let s = schema(6);
        let mut rng = StdRng::seed_from_u64(14);
        let rule = Rule::or([
            Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]),
            Rule::and([Rule::pred(2, 8), Rule::pred(3, 4)]),
        ]);
        let plan = BlockingPlan::compile(&s, &rule, 0.1, &mut rng).unwrap();
        assert_eq!(plan.structures().len(), 2);
    }

    #[test]
    fn compound_c2_intersects_or_structures() {
        let s = schema(7);
        let mut rng = StdRng::seed_from_u64(15);
        let rule = Rule::and([
            Rule::or([Rule::pred(0, 4), Rule::pred(1, 4)]),
            Rule::or([Rule::pred(2, 8), Rule::pred(3, 4)]),
        ]);
        let mut plan = BlockingPlan::compile(&s, &rule, 0.1, &mut rng).unwrap();
        // Four structures: one per OR disjunct (paper: "four separate
        // blocking structures").
        assert_eq!(plan.structures().len(), 4);
        let a = embed(&s, 1, ["JOHN", "X", "12 OAK STREET", "Y"]);
        plan.insert(&a);
        // Matches first name (subrule 1) and address (subrule 2) → candidate.
        let both = embed(&s, 2, ["JOHN", "Q", "12 OAK STREET", "Z"]);
        assert!(plan.candidates(&both).contains(&1));
    }

    #[test]
    fn and_l_exceeds_or_l() {
        // §5.4: "The new value of L is larger using an AND rule, and smaller
        // using an OR rule".
        let s = schema(8);
        let mut rng = StdRng::seed_from_u64(16);
        let and_plan = BlockingPlan::compile(
            &s,
            &Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]),
            0.1,
            &mut rng,
        )
        .unwrap();
        let or_plan = BlockingPlan::compile(
            &s,
            &Rule::or([Rule::pred(0, 4), Rule::pred(1, 4)]),
            0.1,
            &mut rng,
        )
        .unwrap();
        let single = BlockingPlan::compile(&s, &Rule::pred(0, 4), 0.1, &mut rng).unwrap();
        assert!(and_plan.structures()[0].l() > single.structures()[0].l());
        assert!(or_plan.structures()[0].l() < single.structures()[0].l());
    }

    #[test]
    fn invalid_rules_rejected_at_compile() {
        let s = schema(9);
        let mut rng = StdRng::seed_from_u64(17);
        let bare_not = Rule::not(Rule::pred(0, 4));
        assert!(BlockingPlan::compile(&s, &bare_not, 0.1, &mut rng).is_err());
        let bad_attr = Rule::pred(7, 4);
        assert!(BlockingPlan::compile(&s, &bad_attr, 0.1, &mut rng).is_err());
        let bad_delta = Rule::pred(0, 4);
        assert!(BlockingPlan::compile(&s, &bad_delta, 0.0, &mut rng).is_err());
    }

    #[test]
    fn candidates_empty_when_nothing_indexed() {
        let s = schema(10);
        let mut rng = StdRng::seed_from_u64(18);
        let plan = BlockingPlan::compile(&s, &Rule::pred(0, 4), 0.1, &mut rng).unwrap();
        let probe = embed(&s, 1, ["A", "B", "C", "D"]);
        assert!(plan.candidates(&probe).is_empty());
    }

    #[test]
    fn total_tables_accounts_all_structures() {
        let s = schema(11);
        let mut rng = StdRng::seed_from_u64(19);
        let rule = Rule::or([Rule::pred(0, 4), Rule::pred(1, 4)]);
        let plan = BlockingPlan::compile(&s, &rule, 0.1, &mut rng).unwrap();
        let per = plan.structures()[0].l();
        assert_eq!(plan.total_tables(), per * 2);
    }
}

#[cfg(test)]
mod multiprobe_tests {
    use super::*;
    use crate::schema::AttributeSpec;
    use crate::Record;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use textdist::Alphabet;

    fn schema(seed: u64) -> RecordSchema {
        let mut rng = StdRng::seed_from_u64(seed);
        RecordSchema::build(
            Alphabet::linkage(),
            vec![
                AttributeSpec::new("FirstName", 2, 15, false, 5),
                AttributeSpec::new("LastName", 2, 15, false, 5),
                AttributeSpec::new("Address", 2, 68, false, 10),
                AttributeSpec::new("Town", 2, 22, false, 10),
            ],
            &mut rng,
        )
    }

    #[test]
    fn multiprobe_uses_fewer_tables() {
        let s = schema(1);
        let mut rng = StdRng::seed_from_u64(2);
        let exact = BlockingStructure::record_level(&s, 4, 30, 0.1, &mut rng).unwrap();
        let mp1 = BlockingStructure::record_level_multiprobe(&s, 4, 30, 0.1, 1, &mut rng).unwrap();
        let mp2 = BlockingStructure::record_level_multiprobe(&s, 4, 30, 0.1, 2, &mut rng).unwrap();
        assert!(mp1.l() < exact.l(), "t=1: {} vs {}", mp1.l(), exact.l());
        assert!(mp2.l() <= mp1.l());
    }

    #[test]
    fn multiprobe_finds_identical_records() {
        let s = schema(3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut mp =
            BlockingStructure::record_level_multiprobe(&s, 4, 30, 0.1, 1, &mut rng).unwrap();
        let rec = |id| {
            s.embed(&Record::new(
                id,
                ["JOHN", "SMITH", "12 OAK STREET", "DURHAM"],
            ))
            .unwrap()
        };
        mp.insert(&rec(1));
        assert!(mp.candidates(&rec(2)).contains(&1));
    }

    #[test]
    fn multiprobe_recall_matches_guarantee_on_perturbed_pairs() {
        // Statistical check: pairs at θ = 4 must be found ≥ 90% of the time
        // with δ = 0.1, despite the smaller L.
        let s = schema(5);
        let mut rng = StdRng::seed_from_u64(6);
        let mut found = 0u32;
        let trials = 200u64;
        let mut pairs = Vec::new();
        for i in 0..trials {
            let a = Record::new(i, ["JOHN", "SMITH", "12 OAK STREET", "DURHAM"]);
            // One substitute in the town (≤ 4 differing bits).
            let b = Record::new(10_000 + i, ["JOHN", "SMITH", "12 OAK STREET", "DURHAX"]);
            let ea = s.embed(&a).unwrap();
            let eb = s.embed(&b).unwrap();
            // Re-randomize the structure per trial for independence.
            let mut mp =
                BlockingStructure::record_level_multiprobe(&s, 4, 30, 0.1, 1, &mut rng).unwrap();
            mp.insert(&ea);
            pairs.push((ea, eb.clone()));
            if mp.candidates(&eb).contains(&i) {
                found += 1;
            }
        }
        let recall = f64::from(found) / trials as f64;
        assert!(recall >= 0.9, "multiprobe recall {recall}");
    }

    #[test]
    fn excess_flip_budget_rejected() {
        let s = schema(7);
        let mut rng = StdRng::seed_from_u64(8);
        assert!(BlockingStructure::record_level_multiprobe(&s, 4, 10, 0.1, 11, &mut rng).is_err());
    }
}

/// The compiled kernels against the definition they replace: for every
/// structure shape the constructors and the plan compilers emit, the keys
/// of [`BlockingStructure::keys_into`] must equal, bit for bit, the keys
/// the families' reference functions give one table and one bit at a time.
#[cfg(test)]
mod kernel_tests {
    use super::*;
    use crate::schema::AttributeSpec;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use rl_bitvec::BitVec;
    use rl_lsh::hashfn::KeyAccumulator;
    use textdist::Alphabet;

    /// Table `l`'s key the way it was computed before the kernels: each
    /// family's `key`/`key_concat` over borrowed attribute vectors,
    /// concatenated up to 128 bits and folded beyond.
    fn reference_key(s: &BlockingStructure, rec: &EmbeddedRecord, l: usize) -> u128 {
        let sub = |f: &SubFamily| match &f.source {
            Source::Record => f
                .backend
                .key_concat(l, &rec.attrs.iter().collect::<Vec<_>>()),
            Source::Attr(i) => f.backend.key(l, &rec.attrs[*i]),
            Source::Attrs(attrs) => {
                let refs: Vec<&BitVec> = attrs.iter().map(|&i| &rec.attrs[i]).collect();
                f.backend.key_concat(l, &refs)
            }
        };
        if s.families.len() == 1 {
            return sub(&s.families[0]);
        }
        let total: usize = s.families.iter().map(|f| f.key_bits(l)).sum();
        if total <= 128 {
            let (mut key, mut shift) = (0u128, 0);
            for f in &s.families {
                key |= sub(f) << shift;
                shift += f.key_bits(l);
            }
            key
        } else {
            let mut acc = KeyAccumulator::new();
            for f in &s.families {
                let k = sub(f);
                acc.push(k as u64);
                acc.push((k >> 64) as u64);
            }
            acc.finish()
        }
    }

    fn schema_of(widths: &[usize], ks: &[u32], rng: &mut StdRng) -> RecordSchema {
        let specs = widths
            .iter()
            .zip(ks)
            .enumerate()
            .map(|(i, (&m, &k))| AttributeSpec::new(format!("f{i}"), 2, m, false, k))
            .collect();
        RecordSchema::build(Alphabet::linkage(), specs, rng)
    }

    /// A record of the schema's shape with every bit drawn at random.
    fn random_record(schema: &RecordSchema, rng: &mut StdRng) -> EmbeddedRecord {
        let attrs = schema
            .specs()
            .iter()
            .map(|s| BitVec::from_positions(s.m, (0..s.m).filter(|_| rng.random_bool(0.4))))
            .collect();
        EmbeddedRecord { id: 1, attrs }
    }

    fn assert_kernel_is_reference(s: &BlockingStructure, schema: &RecordSchema, rng: &mut StdRng) {
        let mut keys = Vec::new();
        for _ in 0..3 {
            let rec = random_record(schema, rng);
            s.keys_into(&rec, &mut keys);
            let reference: Vec<u128> = (0..s.l()).map(|l| reference_key(s, &rec, l)).collect();
            assert_eq!(keys, reference, "{}", s.label());
        }
    }

    /// The attribute indexes `0..n` in a random order: fused structures
    /// must not depend on conjuncts being listed in schema order.
    fn shuffled_attrs(n: usize, rng: &mut StdRng) -> Vec<usize> {
        let mut attrs: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            attrs.swap(i, rng.random_range(0..=i));
        }
        attrs
    }

    /// Attribute widths: one to four attributes, 1 to 600 bits in all, so
    /// attributes start and end anywhere relative to word boundaries.
    fn widths() -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(1usize..=150, 1..=4)
    }

    proptest! {
        #[test]
        fn record_level_sampling(widths in widths(), k in 1u32..=128, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let schema = schema_of(&widths, &[1, 1, 1, 1], &mut rng);
            let s = BlockingStructure::record_level_with_l(&schema, 0, k, 4, &mut rng).unwrap();
            assert_kernel_is_reference(&s, &schema, &mut rng);
        }

        #[test]
        fn fused_sampling_conjunctions_below_and_above_128_key_bits(
            widths in widths(),
            ks in proptest::collection::vec(1u32..=90, 4),
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let schema = schema_of(&widths, &ks, &mut rng);
            // Every non-empty selection of attributes, in a shuffled order:
            // one conjunct is `Source::Attr` alone, several are fused.
            let attrs = shuffled_attrs(widths.len(), &mut rng);
            for take in 1..=attrs.len() {
                let conjuncts: Vec<Pred> =
                    attrs[..take].iter().map(|&attr| Pred { attr, theta: 0 }).collect();
                let s = BlockingStructure::conjunction_with_l(&schema, &conjuncts, 3, 0.5, &mut rng)
                    .unwrap();
                assert_kernel_is_reference(&s, &schema, &mut rng);
            }
        }

        #[test]
        fn covering_over_the_record_an_attribute_and_fused_attributes(
            widths in widths(),
            theta in 0u32..=2,
            seed in any::<u64>(),
        ) {
            // Kept widths are about half the source: below 128 bits for
            // most single attributes, above for records beyond ~256 bits.
            let mut rng = StdRng::seed_from_u64(seed);
            let schema = schema_of(&widths, &[1, 1, 1, 1], &mut rng);
            let theta = theta.min(widths.iter().sum::<usize>() as u32);
            let s = BlockingStructure::covering_record_level(&schema, theta, &mut rng).unwrap();
            assert_kernel_is_reference(&s, &schema, &mut rng);
            let attrs = shuffled_attrs(widths.len(), &mut rng);
            for take in 1..=attrs.len() {
                let conjuncts: Vec<Pred> = attrs[..take]
                    .iter()
                    .map(|&attr| Pred { attr, theta: u32::from(take == 1) })
                    .collect();
                let s = BlockingStructure::covering_conjunction(&schema, &conjuncts, &mut rng)
                    .unwrap();
                assert_kernel_is_reference(&s, &schema, &mut rng);
            }
        }

        #[test]
        fn every_structure_of_a_compiled_compound_rule(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let schema = schema_of(&[15, 15, 68, 22], &[2, 2, 3, 3], &mut rng);
            // AND of predicates, OR of predicates, compound OR, and NOT.
            let rule = Rule::or([
                Rule::and([
                    Rule::pred(3, 4),
                    Rule::pred(0, 4),
                    Rule::not(Rule::and([Rule::pred(1, 2), Rule::pred(2, 4)])),
                ]),
                Rule::and([
                    Rule::or([Rule::pred(1, 4), Rule::pred(2, 8)]),
                    Rule::pred(0, 2),
                ]),
            ]);
            for plan in [
                BlockingPlan::compile(&schema, &rule, 0.3, &mut rng).unwrap(),
                BlockingPlan::compile_covering(&schema, &Rule::or([
                    Rule::and([Rule::pred(3, 1), Rule::pred(0, 1), Rule::not(Rule::pred(1, 1))]),
                    Rule::pred(2, 2),
                ]), &mut rng).unwrap(),
            ] {
                for s in plan.structures() {
                    assert_kernel_is_reference(s, &schema, &mut rng);
                }
            }
        }
    }

    #[test]
    fn records_beyond_512_bits_are_packed_on_the_heap() {
        let mut rng = StdRng::seed_from_u64(3);
        let schema = schema_of(&[300, 7, 290], &[40, 5, 40], &mut rng);
        assert!(schema.total_size().div_ceil(64) > crate::schema::STACK_WORDS);
        let s = BlockingStructure::covering_record_level(&schema, 1, &mut rng).unwrap();
        assert_kernel_is_reference(&s, &schema, &mut rng);
        let all = [0, 1, 2].map(|attr| Pred { attr, theta: 0 });
        let s = BlockingStructure::conjunction_with_l(&schema, &all, 2, 0.5, &mut rng).unwrap();
        assert_kernel_is_reference(&s, &schema, &mut rng);
    }

    #[test]
    fn a_clone_and_a_recompiled_copy_key_alike() {
        let mut rng = StdRng::seed_from_u64(4);
        let schema = schema_of(&[15, 15, 68, 22], &[5, 5, 10, 10], &mut rng);
        let plan = BlockingPlan::record_level(&schema, 4, 30, 0.1, &mut rng).unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        assert!(!json.contains("\"keys\""), "compiled state was serialized");
        let mut restored: BlockingPlan = serde_json::from_str(&json).unwrap();
        restored.compile_kernels(&schema).unwrap();
        let rec = random_record(&schema, &mut rng);
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        plan.structures()[0].keys_into(&rec, &mut a);
        plan.clone().structures()[0].keys_into(&rec, &mut b);
        restored.structures()[0].keys_into(&rec, &mut c);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    #[should_panic(expected = "120 bits")]
    fn a_record_of_another_schema_is_refused() {
        let mut rng = StdRng::seed_from_u64(5);
        let schema = schema_of(&[15, 15, 68, 22], &[5, 5, 10, 10], &mut rng);
        let other = schema_of(&[15, 15, 68, 23], &[5, 5, 10, 10], &mut rng);
        let mut plan = BlockingPlan::record_level(&schema, 4, 30, 0.1, &mut rng).unwrap();
        plan.insert(&random_record(&other, &mut rng));
    }

    #[test]
    fn merges_agree_with_set_algebra() {
        use std::collections::BTreeSet;
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..200 {
            let mut draw = |n: usize| -> BTreeSet<u64> {
                (0..rng.random_range(0..n))
                    .map(|_| rng.random_range(0..40u64))
                    .collect()
            };
            let (a, b) = (draw(30), draw(30));
            let (va, vb): (Vec<u64>, Vec<u64>) =
                (a.iter().copied().collect(), b.iter().copied().collect());
            assert!(union_sorted(&va, &vb).into_iter().eq(a.union(&b).copied()));
            let mut both = va.clone();
            retain_merged(&mut both, &vb, |_, in_b| in_b);
            assert!(both.into_iter().eq(a.intersection(&b).copied()));
            let mut only_a = va.clone();
            retain_merged(&mut only_a, &vb, |_, in_b| !in_b);
            assert!(only_a.into_iter().eq(a.difference(&b).copied()));
        }
    }
}
