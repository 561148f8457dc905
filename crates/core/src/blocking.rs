//! Blocking structures and the rule-aware blocking plan compiler
//! (Sections 4.2, 5.3, 5.4).
//!
//! A plan is built in one of two ways:
//!
//! * [`BlockingPlan::from_config`] builds every plan over a schema — the
//!   pipelines, the sharded server, deduplication and the streaming
//!   subscriptions all call it — in the [`crate::pipeline::BlockingMode`]
//!   the config names;
//! * [`BlockingPlan::record_level_over`] builds record-level HB over any
//!   [`RowLayout`], for records that are fixed-width bit vectors without a
//!   schema — the keyed PPRL encodings, BfH's Bloom filters — and for a
//!   fixed `L` or multi-probe ([`TableCount`]).
//!
//! The modes:
//!
//! * **Record-level HB** (Section 4.2): one [`BlockingStructure`] whose
//!   composite hashes sample bits uniformly from the whole record-level
//!   c-vector — the paper's baseline ("standard LSH-based approach") — or,
//!   under CoveringLSH, one covering family over it.
//! * **Attribute-level, rule-aware blocking** (Section 5.4): one recursive
//!   compiler turns a classification [`Rule`] into a set of structures plus
//!   a set-algebra expression over their candidate sets, on either backend:
//!   - a conjunction of predicates fuses into **one** structure: under bit
//!     sampling its keys concatenate per-attribute samples
//!     (`p_∧ = Π p_i^{K_i}`, Definition 4), under covering one family of
//!     the summed radius covers the concatenated attributes;
//!   - a disjunction of predicates builds one structure per attribute;
//!     under bit sampling they share `L = ⌈ln δ / ln(1 − p_∨)⌉` with `p_∨`
//!     from inclusion–exclusion (Definition 5), under covering each already
//!     has recall 1 and the OR is a plain union;
//!   - a negated conjunct builds its own structure whose co-blocked set is
//!     *subtracted* from the candidates (Definition 6 / rule C3) — such
//!     pairs "are not formulated at all and are never brought for
//!     comparison". The subtraction is **verified**: a co-blocked candidate
//!     leaves only when the negated conjuncts hold for the pair
//!     ([`BlockingStructure::conjuncts_hold_row`], one popcount per
//!     conjunct). This is the one NOT semantics. The paper's literal reading
//!     — any co-block in any table of the negated structure excludes — is
//!     not offered: with a small `K` the negated tables have few buckets,
//!     unrelated records co-block by chance, and on C3 it drops about half
//!     of the true pairs (DESIGN.md §8);
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
//! and the verified-NOT check (per-attribute popcounts under the
//! structure's [`RowLayout`]) have one implementation, over rows; a plan's
//! candidate evaluation is generic in what its record lookup returns
//! (`Option<R>`, `R: AsRef<[u64]>`: a slab hands out `&[u64]`). Three
//! methods take an [`EmbeddedRecord`] — [`BlockingPlan::insert`],
//! [`BlockingPlan::candidates_verified_counted`] and
//! [`BlockingStructure::keys_into`] — pack it ([`EmbeddedRecord::packed`])
//! and call their `_row` twin; they are kept for the benchmark's replay,
//! which names them.
//!
//! **Table values.** A bucket holds `u64` values that the engines make the
//! record's slot in its [`crate::matcher::RecordSlab`]
//! ([`crate::matcher::index_row`]); [`BlockingPlan::insert`] inserts the
//! record's id, so there slot ≡ id. A store refuses a value of 2³² or
//! more (counted in `StoreStats::dropped`).
//!
//! **Candidate sets** are sorted, de-duplicated `Vec<u64>`s of values. A
//! single-structure plan gathers its bucket values into the caller's
//! [`ProbeScratch`] and removes the duplicates there, with a bitmap over
//! their range when it is dense and by sorting otherwise; compound plans
//! intersect, unite and subtract by merging sorted vectors.

use crate::error::{Error, Result};
use crate::rule::{Pred, Rule};
use crate::schema::{EmbeddedRecord, PackedRow, RecordSchema, RowLayout};
use rand::Rng;
use rl_blockstore::{BlockPolicy, CapMode, ProbeSlots, TableSet};
use rl_lsh::backend::{Backend, BackendKind};
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
    /// The old keys of the last re-key, kept for its buffer.
    old: Vec<u128>,
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
            old: Vec::new(),
        };
    }

    /// Definition 4's fused conjunction under bit sampling: in each of the
    /// `L` tables one sampler of `K^(f_i)` bits (the schema spec's) per
    /// conjunct, keys concatenated; a pair within the thresholds collides
    /// in a table with probability `p_collide`.
    fn sampled_conjunction<R: Rng + ?Sized>(
        schema: &RecordSchema,
        conjuncts: &[Pred],
        l: usize,
        p_collide: f64,
        rng: &mut R,
    ) -> Result<Self> {
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
        Ok(Self::assemble(
            &schema.layout(),
            format!("attr-level({},L={l})", conjunct_label(conjuncts)),
            families,
            p_collide,
            conjuncts.to_vec(),
            0,
        ))
    }

    /// A CoveringLSH structure of radius `theta` over the `m` bits of
    /// `source`: `L = 2^{θ+1} − 1` groups and **zero false negatives** for
    /// pairs within `theta` there. `label` names the structure given `L`.
    fn covering<R: Rng + ?Sized>(
        layout: &RowLayout,
        source: Source,
        m: usize,
        theta: u32,
        conjuncts: Vec<Pred>,
        label: impl FnOnce(usize) -> String,
        rng: &mut R,
    ) -> Result<Self> {
        let family = CoveringFamily::random(m, theta, rng)?;
        let label = label(family.l());
        let families = vec![SubFamily {
            source,
            backend: Backend::Covering(family),
        }];
        Ok(Self::assemble(layout, label, families, 1.0, conjuncts, 0))
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

    /// What keeps this structure, read from a document, from keying rows
    /// laid out by `layout`: no family, a family over an attribute beyond
    /// the layout or addressing a position beyond its source, families that
    /// disagree on `L`, a conjunct over an attribute beyond the layout, or a
    /// multi-probe budget wider than a key (the bound
    /// [`BlockingPlan::record_level_over`] sets). The constructors build
    /// none of these.
    fn fault(&self, layout: &RowLayout) -> Option<String> {
        let arity = layout.arity();
        let Some(first) = self.families.first() else {
            return Some("it has no hash family".into());
        };
        let l = first.backend.l();
        for f in &self.families {
            let attrs = match &f.source {
                Source::Record => &[][..],
                Source::Attr(attr) => std::slice::from_ref(attr),
                Source::Attrs(attrs) => attrs,
            };
            if let Some(attr) = attrs.iter().find(|&&a| a >= arity) {
                return Some(format!(
                    "a family hashes attribute {attr} of a {arity}-attribute schema"
                ));
            }
            if f.backend.l() != l {
                return Some(format!("its families key {l} and {} tables", f.backend.l()));
            }
            let span = f.position_map(layout).len();
            let last = match &f.backend {
                Backend::RandomSampling(b) => b.samplers().iter().flat_map(|s| s.positions()).max(),
                Backend::Covering(c) => c.groups().iter().flat_map(|g| g.kept()).max(),
            };
            if let Some(p) = last.filter(|&&p| p as usize >= span) {
                return Some(format!(
                    "a family addresses position {p} of a {span}-bit source"
                ));
            }
        }
        if let Some(c) = self.conjuncts.iter().find(|c| c.attr >= arity) {
            return Some(format!(
                "a conjunct names attribute {} of a {arity}-attribute schema",
                c.attr
            ));
        }
        let key_bits = |t| self.families.iter().map(|f| f.key_bits(t)).sum::<usize>();
        let narrowest = (0..l).map(key_bits).min().unwrap_or(0);
        if self.probe_flips as usize > narrowest {
            return Some(format!(
                "cannot flip {} bits of a {narrowest}-bit key",
                self.probe_flips
            ));
        }
        None
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

    /// Hashes value `id` — a record's slab slot, or its id under
    /// [`BlockingPlan::insert`] — whose row is `row`, into all `L` tables
    /// (the indexing pass for data set A).
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
        let mut old_keys = std::mem::take(&mut self.keys.old);
        self.keys_into_row(old, &mut old_keys);
        self.keys_into_row(new, &mut keys);
        for (l, (&was, &now)) in old_keys.iter().zip(&keys).enumerate() {
            if was != now {
                self.store.evict(l, was, id);
                self.store.insert(l, now, id);
            }
        }
        self.keys.scratch = keys;
        self.keys.old = old_keys;
    }

    /// Appends the live ids of table `l`'s bucket for `key` to `out`, in
    /// insertion order — for callers that walk the tables themselves with
    /// the keys of [`Self::keys_into_row`].
    pub fn probe_key_into(&self, l: usize, key: u128, out: &mut Vec<u64>) {
        self.store.probe_into(l, key, out);
    }

    /// Leaves the ascending, de-duplicated ids co-blocked with `row` — the
    /// union across all tables, multi-probe neighbours included — in
    /// `scratch.candidates`, allocating nothing once the scratch has grown
    /// to the workload. Returns `true` when the store's per-probe top-k
    /// bound cut the candidate set short (callers surface this as a typed
    /// `CandidatesTruncated` note).
    pub fn candidates_into_row(&self, row: &[u64], scratch: &mut ProbeScratch) -> bool {
        let ProbeScratch {
            keys,
            lookups,
            candidates,
            seen,
            ..
        } = scratch;
        self.keys_into_row(row, keys);
        let key_bits = |l| self.families.iter().map(|f| f.key_bits(l)).sum();
        let flips = self.probe_flips;
        let truncated = self
            .store
            .probe_all_into(keys, flips, key_bits, lookups, candidates);
        // A bounded probe's candidates are ascending and distinct already.
        if self.store.policy().probe_top_k == 0 {
            distinct_ascending(candidates, seen);
        }
        truncated
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

/// Refuses a record-level threshold wider than the row's `m` bits.
fn check_record_theta(theta: u32, m: usize) -> Result<()> {
    if theta as usize > m {
        return Err(Error::ThresholdTooLarge {
            attr: usize::MAX,
            theta,
            m,
        });
    }
    Ok(())
}

/// Refuses a collision probability that underflowed to 0: no `L` reaches
/// the failure budget with it.
fn check_collision(p: f64, what: &str) -> Result<f64> {
    if p <= 0.0 {
        return Err(Error::InvalidParameter(format!(
            "{what} collision probability underflowed to 0"
        )));
    }
    Ok(p)
}

/// `f0<=4&f1<=4`: the conjuncts as a structure's label names them.
fn conjunct_label(conjuncts: &[Pred]) -> String {
    let names: Vec<String> = conjuncts
        .iter()
        .map(|c| format!("f{}<={}", c.attr, c.theta))
        .collect();
    names.join("&")
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

impl PlanExpr {
    /// True when every structure the expression names is one of `0..n`.
    fn names_only_below(&self, n: usize) -> bool {
        match self {
            PlanExpr::Leaf(i) => *i < n,
            PlanExpr::And { children, negated } => {
                children.iter().all(|c| c.names_only_below(n)) && negated.iter().all(|&i| i < n)
            }
            PlanExpr::Or(children) => children.iter().all(|c| c.names_only_below(n)),
        }
    }
}

/// A compiled blocking plan: structures plus the candidate-set expression.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlockingPlan {
    structures: Vec<BlockingStructure>,
    expr: PlanExpr,
}

impl BlockingPlan {
    /// A plan of the one structure `s`.
    fn single(s: BlockingStructure) -> Self {
        Self {
            structures: vec![s],
            expr: PlanExpr::Leaf(0),
        }
    }

    /// Builds the plan a [`crate::pipeline::LinkageConfig`] asks for — the
    /// construction point of every plan over a schema, shared by the
    /// pipeline, the sharded service, deduplication and the streaming
    /// subscriptions, so a new blocking mode lands everywhere at once.
    /// Validates the rule and the config before anything is drawn.
    pub fn from_config<R: Rng + ?Sized>(
        schema: &RecordSchema,
        config: &crate::pipeline::LinkageConfig,
        rng: &mut R,
    ) -> Result<Self> {
        use crate::pipeline::BlockingMode;
        let sizes: Vec<usize> = schema.specs().iter().map(|s| s.m).collect();
        config.rule.validate(&sizes)?;
        config.validate()?;
        let record_level = |theta, k, tables, rng: &mut R| {
            Self::record_level_over(&schema.layout(), theta, k, tables, rng)
        };
        let mut plan = match config.mode {
            BlockingMode::RecordLevel { theta, k } => {
                let tables = TableCount::Equation2 {
                    delta: config.delta,
                    flips: 0,
                };
                record_level(theta, k, tables, rng)
            }
            BlockingMode::RecordLevelFixedL { theta, k, l } => {
                record_level(theta, k, TableCount::Fixed(l), rng)
            }
            BlockingMode::RuleAware => {
                check_delta(config.delta)?;
                let leaves = Leaves::Sampling {
                    delta: config.delta,
                };
                RuleCompiler::compile(schema, &config.rule, leaves, rng)
            }
            BlockingMode::Covering { theta } => {
                let m = schema.total_size();
                check_record_theta(theta, m)?;
                let label = |l| format!("covering-record(theta={theta},L={l})");
                let layout = schema.layout();
                BlockingStructure::covering(&layout, Source::Record, m, theta, vec![], label, rng)
                    .map(Self::single)
            }
            BlockingMode::CoveringRuleAware => {
                RuleCompiler::compile(schema, &config.rule, Leaves::Covering, rng)
            }
        }?;
        plan.configure_stores(&config.block)?;
        Ok(plan)
    }

    /// Record-level HB over rows laid out by `layout`: keys sample `k` bits
    /// uniformly from the `m̄`-bit row, `theta` is the record-level Hamming
    /// threshold `L` is computed for, and `tables` sets `L` — from Equation 2,
    /// optionally with multi-probe, or fixed. The one plan constructor for
    /// records that are fixed-width bit vectors without a [`RecordSchema`]
    /// (keyed PPRL encodings, Bloom filters), and the one behind
    /// [`Self::from_config`]'s record-level modes. The `L` samplers are
    /// drawn by [`BitSampleFamily::random`].
    pub fn record_level_over<R: Rng + ?Sized>(
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
        check_record_theta(theta, m)?;
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
        let families = vec![SubFamily {
            source: Source::Record,
            backend: Backend::RandomSampling(family),
        }];
        let structure =
            BlockingStructure::assemble(layout, label, families, p_collide, Vec::new(), flips);
        Ok(Self::single(structure))
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

    /// Indexes value `id` — a record's slab slot, or its id under
    /// [`Self::insert`] — whose row is `row`, into every structure.
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

    /// Recompiles every structure's key kernel against `schema` — the
    /// schema the plan was built for. Kernels are derived state and are not
    /// serialized: call this once on a deserialized plan, before it keys a
    /// record. (Plans from the constructors arrive compiled.)
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] for a document no constructor writes —
    /// a structure whose families, conjuncts or multi-probe budget do not
    /// fit `schema`, whose store holds another number of tables than its
    /// kernel keys, or a candidate expression naming a structure the plan
    /// lacks — naming what is at fault: a kernel or a probe of it would
    /// otherwise panic.
    pub fn compile_kernels(&mut self, schema: &RecordSchema) -> Result<()> {
        let layout = schema.layout();
        for s in &mut self.structures {
            let fault = s.fault(&layout).or_else(|| {
                s.compile_kernel(&layout);
                let tables = s.keys.kernel.tables();
                (tables != s.l())
                    .then(|| format!("its store holds {} tables, its kernel keys {tables}", s.l()))
            });
            if let Some(why) = fault {
                return Err(Error::InvalidParameter(format!(
                    "blocking structure {}: {why}",
                    s.label
                )));
            }
        }
        if !self.expr.names_only_below(self.structures.len()) {
            return Err(Error::InvalidParameter(format!(
                "the candidate expression names a structure beyond the plan's {}",
                self.structures.len()
            )));
        }
        Ok(())
    }

    /// The candidate ids for an unpacked probe, ascending, per the rule's
    /// logic ([`Self::candidates_into_row`]), with `lookup` resolving a
    /// table value to its unpacked record, and whether any structure's
    /// per-probe top-k bound truncated the candidate stream (surfaced to
    /// clients as a `CandidatesTruncated` note).
    pub fn candidates_verified_counted<'s, F>(
        &self,
        rec: &EmbeddedRecord,
        lookup: F,
    ) -> (Vec<u64>, bool)
    where
        F: Fn(u64) -> Option<&'s EmbeddedRecord>,
    {
        let mut scratch = ProbeScratch::default();
        let lookup = |id| lookup(id).map(EmbeddedRecord::packed);
        let truncated = self.candidates_into_row(self.packed(rec).as_ref(), lookup, &mut scratch);
        (scratch.candidates, truncated)
    }

    /// The probe loop's candidate formulation: the candidates of the probe
    /// whose row is `row` are left in `scratch`
    /// ([`ProbeScratch::candidates`]), whose buffers a single-structure
    /// plan reuses from probe to probe; `lookup` resolves a table value to
    /// its row (a slot to `&[u64]` by direct index from a slab, or anything
    /// that derefs to one), for the verified NOT: a candidate co-blocked in
    /// a negated structure leaves only if the negated conjuncts hold for the
    /// pair, and a value `lookup` cannot resolve stays. Returns whether a
    /// top-k bound truncated the candidate stream.
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
        self.eval(&self.expr, row, &lookup, scratch, &mut truncated);
        truncated
    }

    /// Evaluates `expr` for the probe `row`, leaving its candidate set —
    /// ascending, de-duplicated — in `scratch.candidates`.
    fn eval<R, F>(
        &self,
        expr: &PlanExpr,
        row: &[u64],
        lookup: &F,
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
            PlanExpr::And { children, negated } if negated.is_empty() && children.len() == 1 => {
                // C1 compiles to this: the one child's set is the result,
                // with no list of sets to build.
                self.eval(&children[0], row, lookup, scratch, truncated);
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
                        !co_blocked
                            || lookup(id)
                                .is_none_or(|a| !structure.conjuncts_hold_row(a.as_ref(), row))
                    });
                }
                scratch.candidates = acc;
            }
        }
    }
}

/// The buffers a probing thread carries from probe to probe: the `L` keys
/// of the record, one table's bucket (bounded probes only), the unique
/// collection's bitmap, the candidate set, and the candidate sets of a
/// probe group ([`crate::matcher::match_batch`]). A steady-state probe of a
/// single-structure plan through [`BlockingPlan::candidates_into_row`] or a
/// steady-state group allocates nothing.
///
/// The engines do not make one per call: each probing thread owns one, in
/// its [`crate::buffers::ProbeBuffers`], grown by its first probes and
/// reused by every later call on the thread; a buffer past
/// [`crate::buffers::RETAIN_BYTES`] is dropped when the call returns. A
/// caller outside the engines may keep its own.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    keys: Vec<u128>,
    /// The directory slots of a probe's first pass
    /// ([`TableSet::probe_all_into`]).
    lookups: ProbeSlots,
    /// One bit per value of a dense candidate multiset's range, all zero
    /// between probes ([`distinct_ascending`]).
    seen: Vec<u64>,
    pub(crate) candidates: Vec<u64>,
    /// A probe group's candidate slots, probe after probe.
    pub(crate) slots: Vec<u64>,
}

impl ProbeScratch {
    /// Drops every buffer above [`crate::buffers::RETAIN_BYTES`]. The
    /// bitmap is all zero between probes, so what is kept stays valid.
    pub(crate) fn trim(&mut self) {
        use crate::buffers::retain_at_most;
        retain_at_most(&mut self.keys);
        self.lookups.retain_at_most(crate::buffers::RETAIN_BYTES);
        retain_at_most(&mut self.seen);
        retain_at_most(&mut self.candidates);
        retain_at_most(&mut self.slots);
    }

    /// The capacity, in bytes, of the largest buffer.
    pub(crate) fn largest_bytes(&self) -> usize {
        use crate::buffers::bytes;
        (bytes(&self.keys))
            .max(self.lookups.largest_bytes())
            .max(bytes(&self.seen))
            .max(bytes(&self.candidates))
            .max(bytes(&self.slots))
    }

    /// The candidates the last [`BlockingPlan::candidates_into_row`] left
    /// here — table values: slab slots in the engines — ascending, distinct.
    /// (`matcher::match_batch` moves them out.)
    pub fn candidates(&self) -> &[u64] {
        &self.candidates
    }
}

/// The fewest values [`distinct_ascending`] collects in a bitmap.
const DENSE_MIN: usize = 64;

/// Algorithm 2's unique collection: leaves the distinct values of the
/// multiset `ids` in it, ascending. A multiset of at least [`DENSE_MIN`]
/// values whose range spans no more 64-value words than it has values is
/// dense: each value sets its bit in `seen` and the words are read back low
/// to high, zeroed as they are read, two passes over at most as many words
/// as values. Any other is sorted: a sparse one, where a bitmap would be
/// mostly words to clear, and a small one, whose sort is a few compares
/// (and whose bitmap would be one more buffer for a probe to grow).
fn distinct_ascending(ids: &mut Vec<u64>, seen: &mut Vec<u64>) {
    if ids.len() < DENSE_MIN {
        ids.sort_unstable();
        ids.dedup();
        return;
    }
    let (min, max) = (ids.iter()).fold((u64::MAX, 0), |(lo, hi), &id| (lo.min(id), hi.max(id)));
    let words = (max - min) / 64 + 1;
    if words > ids.len() as u64 {
        ids.sort_unstable();
        ids.dedup();
        return;
    }
    let words = words as usize;
    if seen.len() < words {
        seen.resize(words, 0);
    }
    for &id in ids.iter() {
        let at = id - min;
        seen[(at / 64) as usize] |= 1 << (at % 64);
    }
    ids.clear();
    for (i, word) in seen[..words].iter_mut().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            ids.push(min + i as u64 * 64 + u64::from(bits.trailing_zeros()));
            bits &= bits - 1;
        }
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

/// The backend a rule compiles onto. The two differ only in the structure
/// a conjunction of predicates becomes and in an OR of plain predicates.
#[derive(Debug, Clone, Copy)]
enum Leaves {
    /// Bit sampling with failure budget δ: a conjunction is per-attribute
    /// samplers with `L` from `p_∧` (Definition 4), an OR of predicates
    /// shares the `L` of `p_∨` (Definition 5).
    Sampling { delta: f64 },
    /// CoveringLSH: a conjunction is one family of the summed radius over
    /// its attributes, recall 1 within the thresholds, so an OR is a union.
    Covering,
}

/// The §5.4 rule compiler, for both backends: walks a validated rule,
/// appending a structure per leaf to `structures` in the order the
/// expression names them, and drawing every hash family from `rng` in that
/// order.
struct RuleCompiler<'a, R: ?Sized> {
    schema: &'a RecordSchema,
    layout: RowLayout,
    leaves: Leaves,
    structures: Vec<BlockingStructure>,
    rng: &'a mut R,
}

impl<'a, R: Rng + ?Sized> RuleCompiler<'a, R> {
    /// Compiles `rule`, validated against `schema` (and δ checked) by the
    /// caller, into a plan.
    fn compile(
        schema: &'a RecordSchema,
        rule: &Rule,
        leaves: Leaves,
        rng: &'a mut R,
    ) -> Result<BlockingPlan> {
        let mut compiler = Self {
            schema,
            layout: schema.layout(),
            leaves,
            structures: Vec::new(),
            rng,
        };
        let expr = compiler.node(rule)?;
        Ok(BlockingPlan {
            structures: compiler.structures,
            expr,
        })
    }

    fn node(&mut self, rule: &Rule) -> Result<PlanExpr> {
        match rule {
            Rule::Pred(p) => self.leaf(&[*p]).map(PlanExpr::Leaf),
            Rule::And(children) => {
                // Predicate conjuncts fuse into one structure, compound ones
                // compile recursively, and each negated one builds a
                // structure exactly like a positive one (Definition 6 "does
                // not include any modifications") whose set role flips: its
                // co-blocked set is subtracted.
                let preds: Vec<Pred> = children.iter().filter_map(as_pred).collect();
                let mut positive = Vec::new();
                if !preds.is_empty() {
                    positive.push(PlanExpr::Leaf(self.leaf(&preds)?));
                }
                for c in children {
                    if !matches!(c, Rule::Pred(_) | Rule::Not(_)) {
                        positive.push(self.node(c)?);
                    }
                }
                let mut negated = Vec::new();
                for c in children {
                    if let Rule::Not(inner) = c {
                        negated.push(self.leaf(&negated_conjuncts(inner)?)?);
                    }
                }
                Ok(PlanExpr::And {
                    children: positive,
                    negated,
                })
            }
            Rule::Or(children) => {
                let preds: Option<Vec<Pred>> = children.iter().map(as_pred).collect();
                match (self.leaves, preds) {
                    (Leaves::Sampling { delta }, Some(preds)) => {
                        // Definition 5: one structure per disjunct attribute,
                        // all sharing the `L` of `p_∨`.
                        let terms = self.terms(&preds);
                        let p_or =
                            check_collision(or_probability(terms.iter().copied()), "disjunction")?;
                        let l = optimal_l(p_or, delta);
                        let mut leaves = Vec::with_capacity(preds.len());
                        for (p, (p1, k)) in preds.iter().zip(terms) {
                            let s = BlockingStructure::sampled_conjunction(
                                self.schema,
                                &[*p],
                                l,
                                p1.powi(k as i32),
                                self.rng,
                            )?;
                            leaves.push(PlanExpr::Leaf(self.push(s)));
                        }
                        Ok(PlanExpr::Or(leaves))
                    }
                    // A compound OR (the paper's C1), or any OR under
                    // covering, whose structures already have recall 1: each
                    // child keeps its own structures (and the full δ), and a
                    // pair is a candidate of either.
                    _ => children
                        .iter()
                        .map(|c| self.node(c))
                        .collect::<Result<_>>()
                        .map(PlanExpr::Or),
                }
            }
            Rule::Not(_) => Err(Error::InvalidRule(
                "NOT is only valid as a direct conjunct of an AND".into(),
            )),
        }
    }

    /// Builds the one structure of the conjunction `preds` on the backend
    /// and returns its index.
    fn leaf(&mut self, preds: &[Pred]) -> Result<usize> {
        let s = match self.leaves {
            Leaves::Sampling { delta } => {
                let p = check_collision(and_probability(self.terms(preds)), "conjunction")?;
                BlockingStructure::sampled_conjunction(
                    self.schema,
                    preds,
                    optimal_l(p, delta),
                    p,
                    self.rng,
                )?
            }
            Leaves::Covering => {
                // A pair satisfying every conjunct differs in at most
                // `θ_∧ = Σ θ_i` bits of the conjunct attributes'
                // concatenation, so one family of that radius covers the
                // conjunction with `2^{θ_∧+1} − 1` groups instead of the
                // cross-product of per-attribute group counts.
                let m = preds.iter().map(|p| self.schema.specs()[p.attr].m).sum();
                let theta: u32 = preds.iter().map(|p| p.theta).sum();
                let source = match preds {
                    [p] => Source::Attr(p.attr),
                    _ => Source::Attrs(preds.iter().map(|p| p.attr).collect()),
                };
                let label = conjunct_label(preds);
                let label = |l| format!("covering({label},theta={theta},L={l})");
                BlockingStructure::covering(
                    &self.layout,
                    source,
                    m,
                    theta,
                    preds.to_vec(),
                    label,
                    self.rng,
                )?
            }
        };
        Ok(self.push(s))
    }

    fn push(&mut self, s: BlockingStructure) -> usize {
        self.structures.push(s);
        self.structures.len() - 1
    }

    /// Each predicate's `(p_i, K_i)`: its per-bit collision probability
    /// within `θ_i` and its attribute's `K`.
    fn terms(&self, preds: &[Pred]) -> Vec<(f64, u32)> {
        let specs = self.schema.specs();
        preds
            .iter()
            .map(|p| {
                (
                    base_success_probability(p.theta, specs[p.attr].m),
                    specs[p.attr].k,
                )
            })
            .collect()
    }
}

fn as_pred(rule: &Rule) -> Option<Pred> {
    match rule {
        Rule::Pred(p) => Some(*p),
        _ => None,
    }
}

/// The predicates a NOT negates: one, or a conjunction of them.
fn negated_conjuncts(rule: &Rule) -> Result<Vec<Pred>> {
    let refuse =
        || Error::InvalidRule("NOT supports a predicate or a conjunction of predicates".into());
    match rule {
        Rule::Pred(p) => Ok(vec![*p]),
        Rule::And(inner) => inner
            .iter()
            .map(|r| as_pred(r).ok_or_else(refuse))
            .collect(),
        _ => Err(refuse()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttributeSpec;
    use crate::LinkageConfig;
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

    /// `probe`'s candidates in `plan`, into which `indexed` were inserted.
    pub(super) fn candidates(
        plan: &BlockingPlan,
        indexed: &[&EmbeddedRecord],
        probe: &EmbeddedRecord,
    ) -> Vec<u64> {
        let lookup = |id| indexed.iter().copied().find(|r| r.id == id);
        plan.candidates_verified_counted(probe, lookup).0
    }

    /// The rule-aware bit-sampling plan of `rule` at failure budget `delta`.
    pub(super) fn compile(
        s: &RecordSchema,
        rule: &Rule,
        delta: f64,
        rng: &mut StdRng,
    ) -> Result<BlockingPlan> {
        let config = LinkageConfig {
            delta,
            ..LinkageConfig::rule_aware(rule.clone())
        };
        BlockingPlan::from_config(s, &config, rng)
    }

    /// The rule-aware covering plan of `rule`.
    pub(super) fn compile_covering(
        s: &RecordSchema,
        rule: Rule,
        rng: &mut StdRng,
    ) -> Result<BlockingPlan> {
        BlockingPlan::from_config(s, &LinkageConfig::covering_rule_aware(rule), rng)
    }

    /// Record-level HB over `s`'s rows, `L` from Equation 2 at δ = 0.1 with
    /// `flips`-bit multi-probe.
    pub(super) fn record_level(
        s: &RecordSchema,
        theta: u32,
        k: u32,
        flips: u32,
        rng: &mut StdRng,
    ) -> Result<BlockingPlan> {
        let tables = TableCount::Equation2 { delta: 0.1, flips };
        BlockingPlan::record_level_over(&s.layout(), theta, k, tables, rng)
    }

    #[test]
    fn record_level_l_matches_equation_2() {
        let s = schema(1);
        let mut rng = StdRng::seed_from_u64(9);
        let b = record_level(&s, 4, 30, 0, &mut rng).unwrap();
        assert_eq!(b.total_tables(), 6); // §6.2: NCVR PL parameters give L = 6
    }

    #[test]
    fn identical_records_are_always_candidates() {
        let s = schema(2);
        let mut rng = StdRng::seed_from_u64(10);
        let mut b = record_level(&s, 4, 30, 0, &mut rng).unwrap();
        let e1 = embed(&s, 1, ["JOHN", "SMITH", "12 OAK ST", "DURHAM"]);
        let e2 = embed(&s, 2, ["JOHN", "SMITH", "12 OAK ST", "DURHAM"]);
        b.insert(&e1);
        assert!(candidates(&b, &[&e1], &e2).contains(&1));
    }

    #[test]
    fn conjunction_structure_blocks_per_rule() {
        let s = schema(3);
        let mut rng = StdRng::seed_from_u64(11);
        let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
        let mut plan = compile(&s, &rule, 0.1, &mut rng).unwrap();
        assert_eq!(plan.structures().len(), 1); // fused conjunction
        let a = embed(&s, 1, ["JOHN", "SMITH", "X", "Y"]);
        let probe = embed(&s, 2, ["JOHN", "SMITH", "COMPLETELY", "DIFFERENT"]);
        plan.insert(&a);
        // Names match exactly → must be co-blocked regardless of address.
        assert!(candidates(&plan, &[&a], &probe).contains(&1));
    }

    #[test]
    fn or_plan_unions_candidates() {
        let s = schema(4);
        let mut rng = StdRng::seed_from_u64(12);
        let rule = Rule::or([Rule::pred(0, 4), Rule::pred(2, 8)]);
        let mut plan = compile(&s, &rule, 0.1, &mut rng).unwrap();
        assert_eq!(plan.structures().len(), 2);
        // Shared L per Definition 5.
        assert_eq!(plan.structures()[0].l(), plan.structures()[1].l());
        let a = embed(&s, 1, ["JOHN", "X", "12 OAK STREET", "Y"]);
        plan.insert(&a);
        // Probe matches only on the address attribute.
        let probe = embed(&s, 2, ["WILHELMINA", "Z", "12 OAK STREET", "W"]);
        assert!(candidates(&plan, &[&a], &probe).contains(&1));
    }

    #[test]
    fn not_excludes_co_blocked_pairs() {
        let s = schema(5);
        let mut rng = StdRng::seed_from_u64(13);
        // C3: first name close AND last name NOT close.
        let rule = Rule::and([Rule::pred(0, 4), Rule::not(Rule::pred(1, 4))]);
        let mut plan = compile(&s, &rule, 0.1, &mut rng).unwrap();
        assert_eq!(plan.structures().len(), 2);
        let same_both = embed(&s, 1, ["JOHN", "SMITH", "A", "B"]);
        let same_first = embed(&s, 2, ["JOHN", "WINTERBOTTOM", "A", "B"]);
        plan.insert(&same_both);
        plan.insert(&same_first);
        let probe = embed(&s, 3, ["JOHN", "SMITH", "A", "B"]);
        let cands = candidates(&plan, &[&same_both, &same_first], &probe);
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
        let plan = compile(&s, &rule, 0.1, &mut rng).unwrap();
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
        let mut plan = compile(&s, &rule, 0.1, &mut rng).unwrap();
        // Four structures: one per OR disjunct (paper: "four separate
        // blocking structures").
        assert_eq!(plan.structures().len(), 4);
        let a = embed(&s, 1, ["JOHN", "X", "12 OAK STREET", "Y"]);
        plan.insert(&a);
        // Matches first name (subrule 1) and address (subrule 2) → candidate.
        let both = embed(&s, 2, ["JOHN", "Q", "12 OAK STREET", "Z"]);
        assert!(candidates(&plan, &[&a], &both).contains(&1));
    }

    #[test]
    fn and_l_exceeds_or_l() {
        // §5.4: "The new value of L is larger using an AND rule, and smaller
        // using an OR rule".
        let s = schema(8);
        let mut rng = StdRng::seed_from_u64(16);
        let and_rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
        let and_plan = compile(&s, &and_rule, 0.1, &mut rng).unwrap();
        let or_rule = Rule::or([Rule::pred(0, 4), Rule::pred(1, 4)]);
        let or_plan = compile(&s, &or_rule, 0.1, &mut rng).unwrap();
        let single = compile(&s, &Rule::pred(0, 4), 0.1, &mut rng).unwrap();
        assert!(and_plan.structures()[0].l() > single.structures()[0].l());
        assert!(or_plan.structures()[0].l() < single.structures()[0].l());
    }

    #[test]
    fn invalid_rules_rejected_at_compile() {
        let s = schema(9);
        let mut rng = StdRng::seed_from_u64(17);
        let bare_not = Rule::not(Rule::pred(0, 4));
        assert!(compile(&s, &bare_not, 0.1, &mut rng).is_err());
        let bad_attr = Rule::pred(7, 4);
        assert!(compile(&s, &bad_attr, 0.1, &mut rng).is_err());
        let bad_delta = Rule::pred(0, 4);
        assert!(compile(&s, &bad_delta, 0.0, &mut rng).is_err());
    }

    #[test]
    fn candidates_empty_when_nothing_indexed() {
        let s = schema(10);
        let mut rng = StdRng::seed_from_u64(18);
        let plan = compile(&s, &Rule::pred(0, 4), 0.1, &mut rng).unwrap();
        let probe = embed(&s, 1, ["A", "B", "C", "D"]);
        assert!(candidates(&plan, &[], &probe).is_empty());
    }

    #[test]
    fn total_tables_accounts_all_structures() {
        let s = schema(11);
        let mut rng = StdRng::seed_from_u64(19);
        let rule = Rule::or([Rule::pred(0, 4), Rule::pred(1, 4)]);
        let plan = compile(&s, &rule, 0.1, &mut rng).unwrap();
        let per = plan.structures()[0].l();
        assert_eq!(plan.total_tables(), per * 2);
    }
}

#[cfg(test)]
mod multiprobe_tests {
    use super::tests::{candidates, record_level};
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
        let [exact, mp1, mp2] = [0, 1, 2].map(|flips| {
            record_level(&s, 4, 30, flips, &mut rng)
                .unwrap()
                .total_tables()
        });
        assert!(mp1 < exact, "t=1: {mp1} vs {exact}");
        assert!(mp2 <= mp1);
    }

    #[test]
    fn multiprobe_finds_identical_records() {
        let s = schema(3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut mp = record_level(&s, 4, 30, 1, &mut rng).unwrap();
        let rec = |id| {
            s.embed(&Record::new(
                id,
                ["JOHN", "SMITH", "12 OAK STREET", "DURHAM"],
            ))
            .unwrap()
        };
        mp.insert(&rec(1));
        assert!(candidates(&mp, &[&rec(1)], &rec(2)).contains(&1));
    }

    #[test]
    fn multiprobe_recall_matches_guarantee_on_perturbed_pairs() {
        // Statistical check: pairs at θ = 4 must be found ≥ 90% of the time
        // with δ = 0.1, despite the smaller L.
        let s = schema(5);
        let mut rng = StdRng::seed_from_u64(6);
        let mut found = 0u32;
        let trials = 200u64;
        for i in 0..trials {
            let a = Record::new(i, ["JOHN", "SMITH", "12 OAK STREET", "DURHAM"]);
            // One substitute in the town (≤ 4 differing bits).
            let b = Record::new(10_000 + i, ["JOHN", "SMITH", "12 OAK STREET", "DURHAX"]);
            let ea = s.embed(&a).unwrap();
            let eb = s.embed(&b).unwrap();
            // Re-randomize the structure per trial for independence.
            let mut mp = record_level(&s, 4, 30, 1, &mut rng).unwrap();
            mp.insert(&ea);
            if candidates(&mp, &[&ea], &eb).contains(&i) {
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
        assert!(record_level(&s, 4, 10, 11, &mut rng).is_err());
    }
}

/// The compiled kernels against the definition they replace: for every
/// structure shape the constructors and the plan compilers emit, the keys
/// of [`BlockingStructure::keys_into`] must equal, bit for bit, the keys
/// the samplers' and groups' reference functions give one table and one
/// bit at a time.
#[cfg(test)]
mod kernel_tests {
    use super::tests::{compile, compile_covering};
    use super::*;
    use crate::schema::AttributeSpec;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use rl_bitvec::BitVec;
    use rl_lsh::hashfn::KeyAccumulator;
    use textdist::Alphabet;

    /// Table `l`'s key the way it was computed before the kernels: each
    /// family's sampler or group `key`/`key_concat` over borrowed attribute
    /// vectors, concatenated up to 128 bits and folded beyond.
    fn reference_key(s: &BlockingStructure, rec: &EmbeddedRecord, l: usize) -> u128 {
        let sub = |f: &SubFamily| {
            let refs: Vec<&BitVec> = match &f.source {
                Source::Record => rec.attrs.iter().collect(),
                Source::Attr(i) => vec![&rec.attrs[*i]],
                Source::Attrs(attrs) => attrs.iter().map(|&i| &rec.attrs[i]).collect(),
            };
            match (&f.backend, refs.as_slice()) {
                (Backend::RandomSampling(b), [v]) => b.samplers()[l].key(v),
                (Backend::RandomSampling(b), refs) => b.samplers()[l].key_concat(refs),
                (Backend::Covering(c), [v]) => c.groups()[l].key(v),
                (Backend::Covering(c), refs) => c.groups()[l].key_concat(refs),
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

    /// Record-level covering of radius `theta` over `schema`'s rows.
    fn record_covering(schema: &RecordSchema, theta: u32, rng: &mut StdRng) -> BlockingPlan {
        let config = crate::LinkageConfig::covering(Rule::pred(0, 0), theta);
        BlockingPlan::from_config(schema, &config, rng).unwrap()
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
            let plan = BlockingPlan::record_level_over(
                &schema.layout(), 0, k, TableCount::Fixed(4), &mut rng,
            ).unwrap();
            assert_kernel_is_reference(&plan.structures()[0], &schema, &mut rng);
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
                let s = BlockingStructure::sampled_conjunction(&schema, &conjuncts, 3, 0.5, &mut rng)
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
            let plan = record_covering(&schema, theta, &mut rng);
            assert_kernel_is_reference(&plan.structures()[0], &schema, &mut rng);
            let attrs = shuffled_attrs(widths.len(), &mut rng);
            for take in 1..=attrs.len() {
                let conjuncts = attrs[..take]
                    .iter()
                    .map(|&attr| Rule::pred(attr, u32::from(take == 1)));
                let plan = compile_covering(&schema, Rule::and(conjuncts), &mut rng).unwrap();
                assert_kernel_is_reference(&plan.structures()[0], &schema, &mut rng);
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
                compile(&schema, &rule, 0.3, &mut rng).unwrap(),
                compile_covering(&schema, Rule::or([
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
        let plan = record_covering(&schema, 1, &mut rng);
        assert_kernel_is_reference(&plan.structures()[0], &schema, &mut rng);
        let all = [0, 1, 2].map(|attr| Pred { attr, theta: 0 });
        let s = BlockingStructure::sampled_conjunction(&schema, &all, 2, 0.5, &mut rng).unwrap();
        assert_kernel_is_reference(&s, &schema, &mut rng);
    }

    #[test]
    fn a_clone_and_a_recompiled_copy_key_alike() {
        let mut rng = StdRng::seed_from_u64(4);
        let schema = schema_of(&[15, 15, 68, 22], &[5, 5, 10, 10], &mut rng);
        let plan = super::tests::record_level(&schema, 4, 30, 0, &mut rng).unwrap();
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
        let mut plan = super::tests::record_level(&schema, 4, 30, 0, &mut rng).unwrap();
        plan.insert(&random_record(&other, &mut rng));
    }

    #[test]
    fn a_plan_no_constructor_writes_is_refused_before_it_compiles() {
        let mut rng = StdRng::seed_from_u64(7);
        let schema = schema_of(&[15, 15, 68, 22], &[5, 5, 10, 10], &mut rng);
        let rule = Rule::and([
            Rule::pred(0, 4),
            Rule::pred(1, 4),
            Rule::not(Rule::pred(2, 8)),
        ]);
        let plan = compile(&schema, &rule, 0.1, &mut rng).unwrap();
        let l = plan.structures[0].l();
        let samplers = |n: usize, position: u32| {
            let samplers = (0..n)
                .map(|_| BitSampler::from_positions(vec![position; 5]).unwrap())
                .collect();
            Backend::RandomSampling(BitSampleFamily::from_samplers(samplers).unwrap())
        };
        type Edit = Box<dyn Fn(&mut BlockingPlan)>;
        let edits: [(&str, Edit); 6] = [
            (
                "a family hashes attribute 9 of a 4-attribute schema",
                Box::new(|p| p.structures[0].families[0].source = Source::Attr(9)),
            ),
            (
                "a family addresses position 15 of a 15-bit source",
                Box::new(move |p| p.structures[0].families[1].backend = samplers(l, 15)),
            ),
            (
                &*format!("its families key {l} and {} tables", l - 1),
                Box::new(move |p| p.structures[0].families[1].backend = samplers(l - 1, 0)),
            ),
            (
                "a conjunct names attribute 4 of a 4-attribute schema",
                Box::new(|p| p.structures[1].conjuncts[0].attr = 4),
            ),
            (
                "cannot flip 11 bits of a 10-bit key",
                Box::new(|p| p.structures[0].probe_flips = 11),
            ),
            (
                "the candidate expression names a structure beyond the plan's 2",
                Box::new(|p| p.expr = PlanExpr::Leaf(2)),
            ),
        ];
        for (expected, edit) in edits {
            let mut edited = plan.clone();
            edit(&mut edited);
            let err = edited.compile_kernels(&schema).unwrap_err();
            assert!(matches!(err, Error::InvalidParameter(_)), "{err}");
            assert!(err.to_string().contains(expected), "{err}");
        }
        let mut flips = plan.clone();
        flips.structures[0].probe_flips = 10;
        flips.compile_kernels(&schema).unwrap();
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

    /// `distinct_ascending` on `ids` with the bitmap `seen`: the sorted,
    /// de-duplicated multiset, and whether the bitmap was used (it grows
    /// only then). The bitmap is all zero again afterwards.
    fn distinct(ids: &[u64], seen: &mut Vec<u64>) -> (Vec<u64>, bool) {
        let before = seen.len();
        let mut out = ids.to_vec();
        distinct_ascending(&mut out, seen);
        assert!(seen.iter().all(|&w| w == 0), "the bitmap was left dirty");
        (out, seen.len() > before)
    }

    fn sorted_distinct(ids: &[u64]) -> Vec<u64> {
        let mut out = ids.to_vec();
        out.sort_unstable();
        out.dedup();
        out
    }

    proptest! {
        /// Multisets of at least `DENSE_MIN` values over a range of at most
        /// one 64-value word per value go through the bitmap; sparse ones,
        /// small ones and the empty one are sorted; a one-value range takes
        /// either side by its size. Each gives what sorting and
        /// de-duplicating does, ids up to 2³² − 1, one bitmap reused
        /// throughout.
        #[test]
        fn the_bitmap_unique_collection_is_sort_and_dedup(
            n in 1usize..400,
            span_words in 1u64..400,
            base in 0u64..1 << 32,
            picks in proptest::collection::vec(any::<u64>(), 400),
            sparse in proptest::collection::vec(0u64..1 << 32, 0..60),
        ) {
            let mut seen = Vec::new();
            // Dense: `n` values within `min(span_words, n)` words of `base`.
            let span = span_words.min(n as u64) * 64;
            let base = base.min((1 << 32) - span);
            let dense: Vec<u64> = picks[..n].iter().map(|p| base + p % span).collect();
            let (got, bitmap) = distinct(&dense, &mut seen);
            prop_assert_eq!(bitmap, n >= DENSE_MIN);
            prop_assert_eq!(got, sorted_distinct(&dense));
            // Sparse: the ends of the 32-bit range and what lies between.
            let mut sparse: Vec<u64> = [0, u64::from(u32::MAX)].into_iter().chain(sparse).collect();
            sparse.extend(picks.iter().take(n).map(|p| p % (1 << 32)));
            let (got, bitmap) = distinct(&sparse, &mut seen);
            prop_assert!(!bitmap);
            prop_assert_eq!(got, sorted_distinct(&sparse));
            // One value, `n` and `DENSE_MIN` times, at the top of the range
            // and at `base`.
            for v in [u64::from(u32::MAX), base] {
                for copies in [n, DENSE_MIN] {
                    let (got, _) = distinct(&vec![v; copies], &mut seen);
                    prop_assert_eq!(got, vec![v]);
                }
            }
            let (got, _) = distinct(&[], &mut seen);
            prop_assert!(got.is_empty());
        }
    }
}
