//! The matching step (Section 5.3, Algorithm 2).
//!
//! Candidate c-vector pairs formulated by the blocking step are compared
//! and classified. Because the blocking model is redundant (`L` tables),
//! the same pair can be formulated repeatedly; Algorithm 2 interposes a
//! collection of unique ids so each pair's distance is computed once. The
//! [`BlockingPlan`] candidate sets embody
//! the same de-duplication; [`match_structure_literal`] is the verbatim
//! Algorithm 2 loop over a single structure, with a switch to disable the
//! de-dup collection for the ablation bench.
//!
//! **Records are rows in slots.** The paper's `retrieve(Id)` is a
//! [`RecordSlab`]: fixed chunks of cells, a cell a slot's id beside its
//! packed record-level c-vector (two words for the 120-bit NCVR record), one
//! slot per record, freed slots reused. The blocking tables hold slots, so a candidate is one row read by
//! direct index ([`RecordSlab::row_at`]) — no map probe — classified by
//! the rule compiled against the slab's [`RowLayout`] ([`RowClassifier`]:
//! each predicate's popcounts, then a small rule's truth table); a match's
//! id is read from the slab's slot → id column. [`index_row`] and
//! [`unindex`] are the two mutations every engine applies — tables and slab
//! together, the tables under the record's slot — and `index_row` is where
//! a re-indexed id learns its old row, so its stale table entries leave
//! instead of piling up.
//!
//! [`match_batch`] is the probe loop and allocates nothing in steady
//! state: candidates are formulated in the caller's [`ProbeScratch`], each
//! is classified against its row, and matches go to the caller. It works in
//! groups of probes whose candidate rows it asks of the cache before it
//! classifies them, so row reads overlap key and table work instead of
//! stalling the probe; [`match_record`] is its one-probe case.
//!
//! **The references.** [`Classifier::matches_rows`] walks the rule's tree
//! over two rows and [`Classifier::matches`] over the distances of two
//! [`EmbeddedRecord`]s, and [`RecordStore`] is
//! the `id → EmbeddedRecord` map the slab replaced. No engine path holds
//! either; they are what the row path is tested against, what a slab writes
//! and reads as its serialized document, and what the benchmark's replay
//! times.

use crate::blocking::{BlockingPlan, BlockingStructure, ProbeScratch};
use crate::error::{Error, Result};
use crate::rule::Rule;
use crate::schema::{EmbeddedRecord, RecordSchema, RowLayout};
use rl_blockstore::hash::WordState;
use rl_blockstore::{prefetch, WordMap};
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::borrow::Cow;
use std::collections::HashSet;
use std::hash::BuildHasher;

/// How candidate pairs are classified after blocking: a classification
/// rule over the per-attribute distances.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Classifier {
    /// Apply a classification rule to the per-attribute distances.
    Rule(Rule),
}

impl Classifier {
    /// Classifies a candidate pair of rows laid out by `layout`.
    #[inline]
    pub fn matches_rows(&self, layout: &RowLayout, a: &[u64], b: &[u64]) -> bool {
        let Classifier::Rule(rule) = self;
        rule.evaluate_with(&|attr| layout.distance(a, b, attr))
    }

    /// Classifies a candidate pair of unpacked records (the reference:
    /// [`EmbeddedRecord::attr_distance`] per attribute).
    pub fn matches(&self, a: &EmbeddedRecord, b: &EmbeddedRecord) -> bool {
        let Classifier::Rule(rule) = self;
        rule.evaluate_with(&|attr| a.attr_distance(b, attr))
    }

    /// Compiles the rule against `layout` into the program the engines
    /// classify rows with.
    ///
    /// # Errors
    /// [`Error::AttributeOutOfRange`] for a predicate on an attribute the
    /// layout does not have.
    pub fn compile(&self, layout: &RowLayout) -> Result<RowClassifier> {
        let Classifier::Rule(rule) = self;
        let preds = rule.predicates();
        if let Some(p) = preds.iter().find(|p| p.attr >= layout.arity()) {
            return Err(Error::AttributeOutOfRange {
                attr: p.attr,
                num_attributes: layout.arity(),
            });
        }
        let program = if preds.len() > TABULATED {
            Program::Tree(rule.clone())
        } else {
            let mut pieces = Vec::new();
            let tests = (preds.iter())
                .map(|p| {
                    let first = pieces.len() as u32;
                    pieces.extend_from_slice(layout.pieces(p.attr));
                    Test {
                        pieces: (first, pieces.len() as u32),
                        theta: p.theta,
                    }
                })
                .collect();
            let table = (0..1u64 << preds.len())
                .filter(|&holds| verdict(rule, holds, &mut 0))
                .fold(0, |table, holds| table | 1 << holds);
            Program::Table {
                tests,
                pieces,
                table,
            }
        };
        Ok(RowClassifier {
            layout: layout.clone(),
            program,
        })
    }
}

/// The most predicates a [`RowClassifier`] tabulates: its truth table is
/// one `u64`. The paper's rules have two to four.
const TABULATED: usize = 6;

/// `rule`'s verdict when its predicate `i`, counted in syntax order from
/// `*leaf`, holds iff bit `i` of `holds` is set. Every leaf is visited, so
/// that the count stays in step.
fn verdict(rule: &Rule, holds: u64, leaf: &mut u32) -> bool {
    match rule {
        Rule::Pred(_) => {
            *leaf += 1;
            holds >> (*leaf - 1) & 1 == 1
        }
        Rule::And(rs) => (rs.iter()).fold(true, |all, r| verdict(r, holds, leaf) & all),
        Rule::Or(rs) => (rs.iter()).fold(false, |any, r| verdict(r, holds, leaf) | any),
        Rule::Not(r) => !verdict(r, holds, leaf),
    }
}

/// One predicate of a tabulated [`RowClassifier`]: the attribute's distance
/// is the popcount of its `pieces` of the two rows XORed, and the predicate
/// holds when that is within `theta`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Test {
    /// `Program::Table::pieces[pieces.0..pieces.1]`.
    pieces: (u32, u32),
    theta: u32,
}

/// How a [`RowClassifier`] reaches its verdict.
#[derive(Debug, Clone, PartialEq)]
enum Program {
    /// A rule of at most [`TABULATED`] predicates: each `tests[i]` sets bit
    /// `i` of a word when it holds, and bit `word` of `table` is the
    /// rule's verdict.
    Table {
        tests: Vec<Test>,
        /// Every test's `(word, mask)` pieces, test after test.
        pieces: Vec<(u32, u64)>,
        table: u64,
    },
    /// A larger rule, its tree walked over the rows as
    /// [`Classifier::matches_rows`] walks it.
    Tree(Rule),
}

/// A [`Classifier`] compiled against a [`RowLayout`]
/// ([`Classifier::compile`]). A rule of at most six predicates — every rule
/// of the paper — becomes its truth table: a pair costs each predicate's
/// `(word, mask)` popcounts, a bit set without a branch, and one read of
/// the table. Short-circuiting saves popcounts but costs a branch on
/// each verdict of a predicate, which candidates that share a rule's keys
/// make hard to predict; without it the row reads of consecutive
/// candidates overlap. A larger rule walks its tree, short-circuited.
#[derive(Debug, Clone, PartialEq)]
pub struct RowClassifier {
    layout: RowLayout,
    program: Program,
}

impl RowClassifier {
    /// The layout the program was compiled against.
    pub fn layout(&self) -> &RowLayout {
        &self.layout
    }

    /// Classifies a candidate pair of rows of [`Self::layout`].
    #[inline]
    pub fn matches(&self, a: &[u64], b: &[u64]) -> bool {
        match &self.program {
            Program::Table {
                tests,
                pieces,
                table,
            } => {
                let mut holds = 0;
                for (i, test) in tests.iter().enumerate() {
                    let pieces = &pieces[test.pieces.0 as usize..test.pieces.1 as usize];
                    let distance: u32 = (pieces.iter())
                        .map(|&(w, mask)| ((a[w as usize] ^ b[w as usize]) & mask).count_ones())
                        .sum();
                    holds |= u64::from(distance <= test.theta) << i;
                }
                table >> holds & 1 == 1
            }
            Program::Tree(rule) => rule.evaluate_with(&|attr| self.layout.distance(a, b, attr)),
        }
    }
}

/// What the probe loop ([`match_batch`], [`match_record`]) classifies
/// candidate pairs with: a [`RowClassifier`] as it is, or a
/// [`Classifier`], compiled for the call.
pub trait Classify {
    /// This classifier as a program over rows of `layout`.
    ///
    /// # Panics
    /// Panics if it does not fit `layout`: a program compiled for another
    /// layout, or a rule on an attribute beyond it.
    fn program(&self, layout: &RowLayout) -> Cow<'_, RowClassifier>;
}

impl Classify for RowClassifier {
    fn program(&self, layout: &RowLayout) -> Cow<'_, RowClassifier> {
        assert_eq!(&self.layout, layout, "a classifier of another row layout");
        Cow::Borrowed(self)
    }
}

impl Classify for Classifier {
    fn program(&self, layout: &RowLayout) -> Cow<'_, RowClassifier> {
        let program = self.compile(layout);
        Cow::Owned(program.expect("a rule on the attributes of the layout"))
    }
}

/// Counters collected while matching.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatchStats {
    /// Unique candidate pairs formulated (`|CR|`).
    pub candidates: u64,
    /// Distance computations actually performed (equals `candidates` when
    /// de-duplication is on; larger when off).
    pub distance_computations: u64,
    /// Pairs classified as matches (`|M̂|`).
    pub matched: u64,
    /// Probes whose candidate set was cut short by the per-probe top-k
    /// bound (`probe_top_k`): recall may be reduced for these probes.
    /// Absent (zero) in stats from before the bounded-probe knob.
    #[serde(default)]
    pub truncated: u64,
}

/// The unpacked reference store: embedded records of data set A by id, one
/// [`EmbeddedRecord`] (a `Vec<BitVec>`) each. The engine holds a
/// [`RecordSlab`]; this type is the slab's serialized document
/// (`{"records": {id: {id, attrs}}}`) and what the benchmark's layer replay
/// retrieves from.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RecordStore {
    records: WordMap<u64, EmbeddedRecord>,
}

impl RecordStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a record, replacing any previous record with the same id.
    pub fn insert(&mut self, rec: EmbeddedRecord) {
        self.records.insert(rec.id, rec);
    }

    /// Retrieves a record by id.
    pub fn get(&self, id: u64) -> Option<&EmbeddedRecord> {
        self.records.get(&id)
    }
}

/// Slots to a chunk of a [`RecordSlab`], as a power of two.
const CHUNK_BITS: u32 = 8;
const CHUNK_SLOTS: usize = 1 << CHUNK_BITS;

/// The slot a slab hands out after `handed_out` of them. Slot `u32::MAX`
/// names no record (it marks a vacant bucket of the id index), so a slab
/// holds at most 2³² − 1.
fn fresh_slot(handed_out: u32) -> Result<u32> {
    if handed_out == u32::MAX {
        return Err(Error::InvalidParameter(format!(
            "a record store holds at most {} records",
            u32::MAX
        )));
    }
    Ok(handed_out)
}

/// A slab's cells: slot `s`'s cell is its id word and then its row, `stride
/// = W + 1` words, in chunk `s / CHUNK_SLOTS`. A chunk is one allocation
/// that never moves: growth appends a chunk and copies nothing.
#[derive(Debug, Clone)]
struct Cells {
    stride: usize,
    chunks: Vec<Box<[u64]>>,
    /// Slots handed out: `0..len` have cells.
    len: u32,
}

impl Cells {
    fn new(words: usize) -> Self {
        Self {
            stride: words + 1,
            chunks: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    fn cell(&self, slot: u32) -> &[u64] {
        let s = slot as usize;
        &self.chunks[s >> CHUNK_BITS][(s & (CHUNK_SLOTS - 1)) * self.stride..][..self.stride]
    }

    #[inline]
    fn cell_mut(&mut self, slot: u32) -> &mut [u64] {
        let s = slot as usize;
        &mut self.chunks[s >> CHUNK_BITS][(s & (CHUNK_SLOTS - 1)) * self.stride..][..self.stride]
    }

    #[inline]
    fn id(&self, slot: u32) -> u64 {
        self.cell(slot)[0]
    }

    #[inline]
    fn row(&self, slot: u32) -> &[u64] {
        &self.cell(slot)[1..]
    }

    /// Hands out the next slot, holding `id` and a zero row.
    fn push(&mut self, id: u64) -> Result<u32> {
        let slot = fresh_slot(self.len)?;
        if slot as usize >> CHUNK_BITS == self.chunks.len() {
            self.chunks
                .push(vec![0; CHUNK_SLOTS * self.stride].into_boxed_slice());
        }
        self.len += 1;
        self.cell_mut(slot)[0] = id;
        Ok(slot)
    }

    fn heap_bytes(&self) -> usize {
        self.chunks.len() * CHUNK_SLOTS * self.stride * 8
            + self.chunks.capacity() * std::mem::size_of::<Box<[u64]>>()
    }
}

/// A vacant bucket of an [`IdIndex`]: its slot half is `u32::MAX`, which
/// no record holds ([`fresh_slot`]).
const VACANT: u64 = u64::MAX;

/// A slab's id → slot index: a power-of-two number of `u64` buckets at a
/// load of at most 7/8, each `tag << 32 | slot`, where `tag` is the top half
/// of the id's hash under the process's key (ids are the clients':
/// [`rl_blockstore::hash`]). An id's home bucket is its tag's low bits, and
/// it sits in the first bucket from there that was vacant when it came
/// (linear probing). A probe compares tags before it reads an id from its
/// cell. A bucket's home follows from the bucket alone, so growth moves
/// buckets without reading a cell, and a removal shifts the buckets after
/// it back instead of leaving a tombstone.
#[derive(Debug, Clone, Default)]
struct IdIndex {
    buckets: Vec<u64>,
    len: usize,
}

/// Where [`IdIndex::entry`] found an id: in a slot, or not, with the vacant
/// bucket it would take and its tag.
enum Entry {
    Occupied(u32),
    Vacant(usize, u64),
}

impl IdIndex {
    #[inline]
    fn tag(&self, id: u64) -> u64 {
        WordState::default().hash_one(id) >> 32
    }

    #[inline]
    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    /// The bucket holding `id`, else the vacant bucket that ends its probe.
    #[inline]
    fn search(&self, id: u64, tag: u64, cells: &Cells) -> std::result::Result<usize, usize> {
        let mask = self.mask();
        let mut i = tag as usize & mask;
        loop {
            let bucket = self.buckets[i];
            if bucket == VACANT {
                return Err(i);
            }
            if bucket >> 32 == tag && cells.id(bucket as u32) == id {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    fn get(&self, id: u64, cells: &Cells) -> Option<u32> {
        if self.buckets.is_empty() {
            return None;
        }
        let at = self.search(id, self.tag(id), cells).ok()?;
        Some(self.buckets[at] as u32)
    }

    /// `id`'s slot, else where it would go — growing first if one more id
    /// would pass the load.
    fn entry(&mut self, id: u64, cells: &Cells) -> Entry {
        let tag = self.tag(id);
        if !self.buckets.is_empty() {
            match self.search(id, tag, cells) {
                Ok(at) => return Entry::Occupied(self.buckets[at] as u32),
                Err(at) if (self.len + 1) * 8 <= self.buckets.len() * 7 => {
                    return Entry::Vacant(at, tag)
                }
                Err(_) => {}
            }
        }
        self.grow();
        Entry::Vacant(self.vacancy(tag), tag)
    }

    /// Puts `slot` in the bucket [`IdIndex::entry`] found vacant.
    fn fill(&mut self, at: usize, tag: u64, slot: u32) {
        self.buckets[at] = tag << 32 | u64::from(slot);
        self.len += 1;
    }

    /// The first vacant bucket from `tag`'s home.
    fn vacancy(&self, tag: u64) -> usize {
        let mask = self.mask();
        let mut i = tag as usize & mask;
        while self.buckets[i] != VACANT {
            i = (i + 1) & mask;
        }
        i
    }

    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let capacity = (self.buckets.len() * 2).max(8);
        let old = std::mem::replace(&mut self.buckets, vec![VACANT; capacity]);
        for bucket in old.into_iter().filter(|&b| b != VACANT) {
            let at = self.vacancy(bucket >> 32);
            self.buckets[at] = bucket;
        }
    }

    /// Takes `id` out, returning its slot: every bucket after it up to the
    /// next vacant one moves back into the hole if its home does not lie
    /// between the hole and itself.
    fn remove(&mut self, id: u64, cells: &Cells) -> Option<u32> {
        if self.buckets.is_empty() {
            return None;
        }
        let mut hole = self.search(id, self.tag(id), cells).ok()?;
        let slot = self.buckets[hole] as u32;
        let mask = self.mask();
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let bucket = self.buckets[i];
            if bucket == VACANT {
                break;
            }
            // How far `bucket` sits from its home, and from the hole.
            let displaced = i.wrapping_sub((bucket >> 32) as usize) & mask;
            if displaced >= (i.wrapping_sub(hole) & mask) {
                self.buckets[hole] = bucket;
                hole = i;
            }
        }
        self.buckets[hole] = VACANT;
        self.len -= 1;
        Some(slot)
    }

    /// The slots of the indexed ids, in bucket order.
    fn slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.buckets
            .iter()
            .filter(|&&b| b != VACANT)
            .map(|&b| b as u32)
    }
}

/// The records of data set A — the paper's `retrieve(Id)` primitive
/// (Table 2) — as one packed record-level c-vector each, in *slots*. Slot
/// `s` is a cell of `W + 1` words, `W = ⌈m̄/64⌉`: the client id of its
/// record, then the row. Cells sit in fixed chunks of 256 that never move,
/// so growth appends a chunk and copies no row. A record keeps its slot
/// until it is removed; the freed slot goes on `free` and is the next one
/// an insert takes, and keeps its last id and row until then.
///
/// The blocking tables beside a slab hold slots, not ids ([`index_row`]), so
/// a candidate is read by direct index — [`RecordSlab::row_at`],
/// [`RecordSlab::id_at`] — and the id → slot index serves only the by-id
/// operations: index, delete and get. That index is one `u64` a bucket, a
/// tag of the id's keyed hash beside the slot, linear probing with no
/// tombstones (`IdIndex`): with the cells, ~35 B a two-word record, against
/// a floor of 24.
///
/// Serialized as the [`RecordStore`] document plus the slot order, so a
/// restored slab puts every id back in its slot and the tables saved beside
/// it stay valid. A document without the slot order (written before tables
/// held slots) restores with fresh slots and [`RecordSlab::needs_rekey`]
/// set: its tables hold ids, and whoever restores it re-keys them
/// ([`rekey`]). A deserialized slab knows its layout from its first record;
/// an empty one does not, so whoever restores one calls
/// [`RecordSlab::bind`] with the schema's layout before using it (as
/// `BlockingPlan::compile_kernels` for the plan beside it).
#[derive(Debug, Clone)]
pub struct RecordSlab {
    layout: RowLayout,
    cells: Cells,
    index: IdIndex,
    free: Vec<u32>,
    needs_rekey: bool,
}

impl Default for RecordSlab {
    fn default() -> Self {
        Self::new(RowLayout::default())
    }
}

impl RecordSlab {
    /// An empty slab for rows laid out by `layout`.
    pub fn new(layout: RowLayout) -> Self {
        Self {
            cells: Cells::new(layout.words()),
            layout,
            index: IdIndex::default(),
            free: Vec::new(),
            needs_rekey: false,
        }
    }

    /// Sets the layout of a deserialized slab to the restoring schema's.
    ///
    /// # Errors
    /// Returns [`Error::InvalidParameter`] when the slab holds records of
    /// other attribute widths: the document is of another schema.
    pub fn bind(&mut self, layout: RowLayout) -> Result<()> {
        if !self.is_empty() && self.layout != layout {
            return Err(Error::InvalidParameter(format!(
                "stored records have attribute widths {:?}, the schema {:?}",
                self.layout.widths(),
                layout.widths()
            )));
        }
        if layout.words() != self.layout.words() {
            // An empty slab's document did not say how wide its free slots'
            // rows are; now they are this wide, and keep their ids.
            let mut cells = Cells::new(layout.words());
            for slot in 0..self.cells.len {
                cells.push(self.cells.id(slot))?;
            }
            self.cells = cells;
        }
        self.layout = layout;
        Ok(())
    }

    /// Where each attribute sits in this slab's rows.
    pub fn layout(&self) -> &RowLayout {
        &self.layout
    }

    /// Stores `row` as record `id`'s, in place of any row it had, and
    /// returns the record's slot: the one it had, else a freed one, else a
    /// new one.
    ///
    /// # Errors
    /// Returns [`Error::InvalidParameter`] when `id` is new, no slot is
    /// free and the slab has handed out all 2³² − 1 of its slots; the slab
    /// is unchanged.
    ///
    /// # Panics
    /// Panics if `row` is not of this slab's layout.
    pub fn insert(&mut self, id: u64, row: &[u64]) -> Result<u32> {
        assert_eq!(row.len(), self.layout.words(), "row of another layout");
        let (slot, _) = self.claim(id)?;
        self.cells.cell_mut(slot)[1..].copy_from_slice(row);
        Ok(slot)
    }

    /// Record `id`'s slot and whether the id is new to it: the slot it had,
    /// else a freed one, else a new one, holding `id` and the row it held.
    fn claim(&mut self, id: u64) -> Result<(u32, bool)> {
        match self.index.entry(id, &self.cells) {
            Entry::Occupied(slot) => Ok((slot, false)),
            Entry::Vacant(at, tag) => {
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.cells.cell_mut(slot)[0] = id;
                        slot
                    }
                    None => self.cells.push(id)?,
                };
                self.index.fill(at, tag, slot);
                Ok((slot, true))
            }
        }
    }

    /// Record `id`'s slot.
    #[inline]
    pub fn slot(&self, id: u64) -> Option<u32> {
        self.index.get(id, &self.cells)
    }

    /// Retrieves a record's row by id.
    #[inline]
    pub fn get(&self, id: u64) -> Option<&[u64]> {
        self.slot(id).map(|slot| self.cells.row(slot))
    }

    /// Record `id`'s slot — as the table value it is indexed under — and
    /// row.
    #[inline]
    pub fn find(&self, id: u64) -> Option<(u64, &[u64])> {
        self.slot(id)
            .map(|slot| (u64::from(slot), self.cells.row(slot)))
    }

    /// The row in `slot` — a blocking table's value — read by direct index.
    /// `None` past the slab's slots; a free slot still holds its last row,
    /// which no table names ([`RecordSlab::remove`]).
    #[inline]
    pub fn row_at(&self, slot: u64) -> Option<&[u64]> {
        (slot < u64::from(self.cells.len)).then(|| self.cells.row(slot as u32))
    }

    /// The id of the record in `slot`, one [`RecordSlab::row_at`] found.
    #[inline]
    pub fn id_at(&self, slot: u64) -> u64 {
        self.cells.id(slot as u32)
    }

    /// Asks the cache for `slot`'s cell ahead of [`Self::row_at`] and
    /// [`Self::id_at`]: its first and last word, since a cell of three
    /// words can straddle a line. Nothing past the slab's slots.
    #[inline]
    fn prefetch(&self, slot: u64) {
        if slot < u64::from(self.cells.len) {
            let cell = self.cells.cell(slot as u32);
            prefetch(cell.as_ptr());
            prefetch(std::ptr::from_ref(&cell[cell.len() - 1]));
        }
    }

    /// Removes a record by id, returning whether it was present; its slot
    /// is free for the next insert. Blocking tables are not touched —
    /// [`unindex`] does both. A caller that removes a record here must have
    /// evicted its slot from every table keyed on this slab: once reused,
    /// the slot answers for another record.
    pub fn remove(&mut self, id: u64) -> bool {
        let slot = self.index.remove(id, &self.cells);
        self.free.extend(slot);
        slot.is_some()
    }

    /// Iterates over all stored `(id, row)`s, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u64])> {
        self.index
            .slots()
            .map(|slot| (self.cells.id(slot), self.cells.row(slot)))
    }

    /// Iterates over all stored `(slot, row)`s, slots ascending.
    pub fn iter_slots(&self) -> impl Iterator<Item = (u32, &[u64])> {
        let mut slots: Vec<u32> = self.index.slots().collect();
        slots.sort_unstable();
        slots.into_iter().map(|slot| (slot, self.cells.row(slot)))
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.index.len
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.index.len == 0
    }

    /// True for a slab restored from a document without its slot order:
    /// the tables saved beside it hold ids, not this slab's slots, and must
    /// be re-keyed ([`rekey`]) before the pair serves a probe.
    pub fn needs_rekey(&self) -> bool {
        self.needs_rekey
    }

    /// Heap bytes held — the chunks of cells, the chunk list, the id index,
    /// the free list — from capacities.
    pub fn heap_bytes(&self) -> u64 {
        (self.cells.heap_bytes() + self.index.buckets.capacity() * 8 + self.free.capacity() * 4)
            as u64
    }
}

/// A slab's document: the [`RecordStore`] document, then the id in every
/// slot (a free slot's last one) and the free slots, next-taken last.
/// `order` is absent from documents written before tables held slots.
#[derive(Serialize, Deserialize)]
struct SlabDoc {
    records: WordMap<u64, EmbeddedRecord>,
    #[serde(default)]
    order: Option<Vec<u64>>,
    #[serde(default)]
    free: Vec<u32>,
}

impl Serialize for RecordSlab {
    fn serialize<S: Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
        let records = self
            .iter()
            .map(|(id, row)| (id, self.layout.unpack(id, row)))
            .collect();
        SlabDoc {
            records,
            order: Some(
                (0..self.cells.len)
                    .map(|slot| self.cells.id(slot))
                    .collect(),
            ),
            free: self.free.clone(),
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for RecordSlab {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> std::result::Result<Self, D::Error> {
        use serde::de::Error as _;
        let SlabDoc {
            records,
            order,
            free,
        } = SlabDoc::deserialize(deserializer)?;
        fn widths(rec: &EmbeddedRecord) -> impl Iterator<Item = usize> + '_ {
            rec.attrs.iter().map(|v| v.len())
        }
        let first = records.values().next();
        let layout = first.map(|rec| RowLayout::from_widths(widths(rec)));
        let mut slab = RecordSlab::new(layout.unwrap_or_default());
        for (id, rec) in &records {
            if *id != rec.id || !widths(rec).eq(slab.layout.widths().iter().copied()) {
                return Err(D::Error::custom(format!(
                    "record {id} does not have the id and attribute widths of its store"
                )));
            }
        }
        let Some(order) = order else {
            // Fresh slots, ascending by id, and tables still to re-key.
            let mut ids: Vec<u64> = records.keys().copied().collect();
            ids.sort_unstable();
            for id in ids {
                slab.insert(id, records[&id].packed().as_ref())
                    .map_err(D::Error::custom)?;
            }
            slab.needs_rekey = true;
            return Ok(slab);
        };
        // Every slot is free or holds one record, and every record a slot.
        let mut is_free = vec![false; order.len()];
        for &slot in &free {
            match is_free.get_mut(slot as usize) {
                Some(f) if !*f => *f = true,
                _ => return Err(D::Error::custom(format!("free slot {slot} is not a slot"))),
            }
        }
        for (&id, is_free) in order.iter().zip(is_free) {
            let slot = slab.cells.push(id).map_err(D::Error::custom)?;
            if is_free {
                continue;
            }
            let rec = records
                .get(&id)
                .ok_or_else(|| D::Error::custom(format!("slot {slot} names no record ({id})")))?;
            let Entry::Vacant(at, tag) = slab.index.entry(id, &slab.cells) else {
                return Err(D::Error::custom(format!("record {id} holds two slots")));
            };
            slab.index.fill(at, tag, slot);
            slab.cells.cell_mut(slot)[1..].copy_from_slice(rec.packed().as_ref());
        }
        if slab.len() != records.len() {
            return Err(D::Error::custom("a record holds no slot"));
        }
        slab.free = free;
        Ok(slab)
    }
}

/// Indexes record `id` with row `row` into the slab and, under its slot,
/// the tables. An id the slab already holds keeps its slot and is re-keyed
/// from its old row ([`BlockingPlan::reindex_row`]) instead of inserted
/// again. Returns whether the id is new.
///
/// # Errors
/// Returns [`Error::InvalidParameter`] when the id is new and the slab is
/// full ([`RecordSlab::insert`]); nothing is indexed.
///
/// # Panics
/// Panics if `row` is not of the slab's layout.
pub fn index_row(
    plan: &mut BlockingPlan,
    store: &mut RecordSlab,
    id: u64,
    row: &[u64],
) -> Result<bool> {
    assert_eq!(row.len(), store.layout.words(), "row of another layout");
    let (slot, new) = store.claim(id)?;
    let held = &mut store.cells.cell_mut(slot)[1..];
    if new {
        plan.insert_row(u64::from(slot), row);
    } else {
        plan.reindex_row(u64::from(slot), held, row);
    }
    held.copy_from_slice(row);
    Ok(new)
}

/// Takes record `id`'s slot out of its bucket in every table
/// ([`BlockingPlan::evict_row`], keyed from the row the slab still holds)
/// and the record out of the slab. Returns whether it was present.
pub fn unindex(plan: &mut BlockingPlan, store: &mut RecordSlab, id: u64) -> bool {
    let Some((slot, row)) = store.find(id) else {
        return false;
    };
    plan.evict_row(slot, row);
    store.remove(id)
}

/// Re-keys `plan`'s tables from `store`'s rows: every bucket is emptied
/// (hash draws are kept, so keys land in the same buckets), every record
/// inserted under its slot, slots ascending, and a disk store's result
/// written as its next generation. The one load path for tables that
/// cannot be trusted — a disk store that lost its generation file
/// ([`BlockingPlan::needs_rebuild`]), or tables saved beside a slab without
/// its slot order ([`RecordSlab::needs_rekey`]).
///
/// # Errors
/// Returns [`Error::Store`] when a disk store cannot be rewritten.
pub fn rekey(plan: &mut BlockingPlan, store: &mut RecordSlab) -> Result<()> {
    plan.clear_for_rebuild();
    for (slot, row) in store.iter_slots() {
        plan.insert_row(u64::from(slot), row);
    }
    store.needs_rekey = false;
    // Persist the rebuilt tables so the next open maps a fresh generation
    // instead of replaying the rebuild.
    plan.compact()
}

/// Readies a deserialized plan and slab to serve records of `schema` under
/// the classifier `rule`: the one restore routine of
/// [`crate::pipeline::LinkagePipeline::load`] and
/// [`crate::sharded::ShardedPipeline::from_state`]. The rule is validated
/// against the schema's attribute sizes, the plan's kernels compiled
/// ([`BlockingPlan::compile_kernels`], which refuses a plan no constructor
/// writes), the slab bound to the schema's layout, and the tables re-keyed
/// from the slab ([`rekey`]) when they cannot be trusted.
///
/// # Errors
/// The rule's validation error, and the refusals of `compile_kernels`,
/// [`RecordSlab::bind`] and `rekey`: a document whose probes would panic
/// is refused here.
pub(crate) fn restore(
    schema: &RecordSchema,
    rule: &Rule,
    plan: &mut BlockingPlan,
    store: &mut RecordSlab,
) -> Result<()> {
    let layout = schema.layout();
    rule.validate(layout.widths())?;
    plan.compile_kernels(schema)?;
    store.bind(layout)?;
    if plan.needs_rebuild() || store.needs_rekey() {
        rekey(plan, store)?;
    }
    Ok(())
}

/// Probes a [`match_batch`] group holds: their candidate sets are formed,
/// and their rows asked of the cache, before the first of them is
/// classified.
pub const GROUP: usize = 16;

/// Candidate rows asked of the cache ahead of the one being classified. A
/// group closes once its candidates reach this many, so a probe of ~500
/// candidates (`batch_rule`) is a group of one whose rows come in this far
/// ahead instead of evicting one another.
pub const ROWS_IN_FLIGHT: usize = 64;

/// Matches one probe row against an indexed plan: formulates the
/// candidate set per the rule's blocking logic (in `scratch`), reads each
/// candidate slot's row, classifies the pair, and hands every matched
/// A-side id to `on_match`, ascending. The matched ids take the candidates'
/// place in `scratch`, so nothing is allocated for them. The one-probe
/// case of [`match_batch`].
pub fn match_record(
    plan: &BlockingPlan,
    store: &RecordSlab,
    probe: &[u64],
    classifier: &impl Classify,
    scratch: &mut ProbeScratch,
    stats: &mut MatchStats,
    mut on_match: impl FnMut(u64),
) {
    match_grouped(
        plan,
        store,
        std::iter::once((0, probe)),
        &classifier.program(store.layout()),
        scratch,
        stats,
        |a, _| on_match(a),
    );
}

/// [`match_record`] over a batch of `(id_B, row)` probes, appending the
/// matched `(id_A, id_B)` pairs to `matches`: probe after probe, each
/// probe's A-side ids ascending, with the counts of one [`match_record`]
/// a probe.
///
/// The batch is matched in groups of up to [`GROUP`] probes, closed early
/// at [`ROWS_IN_FLIGHT`] candidates (group prefetching, Chen et al., ICDE
/// 2004): the group's candidate sets are formed first and each candidate's
/// cell is asked of the cache as it is met, then the group is classified
/// in order, the cache asked for the row [`ROWS_IN_FLIGHT`] candidates
/// ahead of each one read. The row reads of a probe thus overlap the key
/// and table work of the probes after it instead of stalling on it. The
/// group's buffers live in `scratch`.
pub fn match_batch<'a>(
    plan: &BlockingPlan,
    store: &RecordSlab,
    probes: impl IntoIterator<Item = (u64, &'a [u64])>,
    classifier: &impl Classify,
    scratch: &mut ProbeScratch,
    stats: &mut MatchStats,
    matches: &mut Vec<(u64, u64)>,
) {
    let classifier = classifier.program(store.layout());
    match_grouped(plan, store, probes, &classifier, scratch, stats, |a, b| {
        matches.push((a, b))
    });
}

/// The probe loop of [`match_batch`], handing each matched `(id_A, id_B)`
/// to `emit`.
fn match_grouped<'a>(
    plan: &BlockingPlan,
    store: &RecordSlab,
    probes: impl IntoIterator<Item = (u64, &'a [u64])>,
    classifier: &RowClassifier,
    scratch: &mut ProbeScratch,
    stats: &mut MatchStats,
    mut emit: impl FnMut(u64, u64),
) {
    let mut probes = probes.into_iter();
    // A group's probes: id, row, and the end of its slots in `scratch.slots`.
    let mut group: [(u64, &[u64], usize); GROUP] = [(0, &[], 0); GROUP];
    let mut exhausted = false;
    while !exhausted {
        // Phase 1: the candidate sets, one after the other in `slots`. The
        // first probe's candidate buffer becomes `slots`, and goes back at
        // the end of the group: a group of one copies nothing and grows no
        // buffer a lone probe would not.
        scratch.slots.clear();
        let mut n = 0;
        while n < GROUP && scratch.slots.len() < ROWS_IN_FLIGHT {
            let Some((id, probe)) = probes.next() else {
                exhausted = true;
                break;
            };
            let truncated = plan.candidates_into_row(probe, |slot| store.row_at(slot), scratch);
            stats.candidates += scratch.candidates.len() as u64;
            stats.truncated += u64::from(truncated);
            let start = scratch.slots.len();
            if n == 0 {
                std::mem::swap(&mut scratch.slots, &mut scratch.candidates);
            } else {
                scratch.slots.extend_from_slice(&scratch.candidates);
            }
            for &slot in scratch.slots[start..].iter().take(ROWS_IN_FLIGHT - start) {
                store.prefetch(slot);
            }
            group[n] = (id, probe, scratch.slots.len());
            n += 1;
        }
        // Phase 2: classify in order. A probe's matched ids take its
        // candidates' place (a slot is read before an id lands on it) and
        // go out ascending: slots ascend, ids need not.
        let slots = &mut scratch.slots;
        let mut start = 0;
        for &(id, probe, end) in &group[..n] {
            let mut matched = start;
            for at in start..end {
                if let Some(&ahead) = slots.get(at + ROWS_IN_FLIGHT) {
                    store.prefetch(ahead);
                }
                let slot = slots[at];
                let Some(a) = store.row_at(slot) else {
                    continue;
                };
                stats.distance_computations += 1;
                if classifier.matches(a, probe) {
                    slots[matched] = store.id_at(slot);
                    matched += 1;
                }
            }
            let matched = &mut slots[start..matched];
            stats.matched += matched.len() as u64;
            matched.sort_unstable();
            matched.iter().for_each(|&a| emit(a, id));
            start = end;
        }
        if n > 0 {
            std::mem::swap(&mut scratch.slots, &mut scratch.candidates);
        }
    }
}

/// Verbatim Algorithm 2 over a single blocking structure: scans the buckets
/// (slots of `store`) of each `T_l` in turn, returning matched ids in the
/// order they were met, de-duplicating via a unique-id collection when
/// `dedup` is true. With `dedup = false` every bucket occurrence triggers a
/// distance computation (the redundancy the paper's de-dup mechanism
/// removes) — kept for the tests and `experiments ablations`, which
/// compare the two.
pub fn match_structure_literal(
    structure: &BlockingStructure,
    store: &RecordSlab,
    probe: &[u64],
    classifier: &Classifier,
    dedup: bool,
    stats: &mut MatchStats,
) -> Vec<u64> {
    let mut seen: HashSet<u64> = HashSet::new(); // the paper's UniqueCollection C
    let mut out = Vec::new();
    let mut computations = 0u64;
    let mut keys = Vec::new();
    structure.keys_into_row(probe, &mut keys);
    let mut bucket = Vec::new();
    for (l, &key) in keys.iter().enumerate() {
        bucket.clear();
        structure.probe_key_into(l, key, &mut bucket);
        for &slot in &bucket {
            if dedup && !seen.insert(slot) {
                continue;
            }
            let Some(a) = store.row_at(slot) else {
                continue;
            };
            computations += 1;
            let id = store.id_at(slot);
            if classifier.matches_rows(store.layout(), a, probe) && (dedup || !out.contains(&id)) {
                out.push(id);
            }
        }
    }
    stats.distance_computations += computations;
    stats.candidates += if dedup {
        seen.len() as u64
    } else {
        // Without de-dup the candidate multiset size equals the number of
        // computations performed for *this* probe.
        computations
    };
    stats.matched += out.len() as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::BlockingPlan;
    use crate::schema::{AttributeSpec, RecordSchema};
    use crate::Record;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use textdist::Alphabet;

    fn setup(seed: u64) -> (RecordSchema, BlockingPlan, RecordSlab) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = RecordSchema::build(
            Alphabet::linkage(),
            vec![
                AttributeSpec::new("FirstName", 2, 15, false, 5),
                AttributeSpec::new("LastName", 2, 15, false, 5),
            ],
            &mut rng,
        );
        let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
        let config = crate::LinkageConfig::rule_aware(rule);
        let plan = BlockingPlan::from_config(&schema, &config, &mut rng).unwrap();
        let store = RecordSlab::new(schema.layout());
        (schema, plan, store)
    }

    fn embed(s: &RecordSchema, id: u64, f: [&str; 2]) -> EmbeddedRecord {
        s.embed(&Record::new(id, f)).unwrap()
    }

    fn row(s: &RecordSchema, f: [&str; 2]) -> Vec<u64> {
        let mut row = vec![0; s.row_words()];
        s.embed_row(&Record::new(0, f), &mut row).unwrap();
        row
    }

    fn matched(
        plan: &BlockingPlan,
        store: &RecordSlab,
        probe: &[u64],
        classifier: &Classifier,
        stats: &mut MatchStats,
    ) -> Vec<u64> {
        let mut out = Vec::new();
        let mut scratch = ProbeScratch::default();
        match_record(plan, store, probe, classifier, &mut scratch, stats, |id| {
            out.push(id)
        });
        out
    }

    #[test]
    fn match_record_finds_perturbed_copy() {
        let (schema, mut plan, mut store) = setup(1);
        index_row(&mut plan, &mut store, 1, &row(&schema, ["JONES", "MARTHA"])).unwrap();
        let probe = row(&schema, ["JONAS", "MARTHA"]); // 1 substitute
        let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
        let mut stats = MatchStats::default();
        let matches = matched(&plan, &store, &probe, &Classifier::Rule(rule), &mut stats);
        assert_eq!(matches, vec![1]);
        assert_eq!(stats.matched, 1);
        assert!(stats.candidates >= 1);
        assert_eq!(stats.candidates, stats.distance_computations);
    }

    #[test]
    fn non_matching_candidates_are_rejected() {
        let (schema, mut plan, mut store) = setup(2);
        index_row(&mut plan, &mut store, 1, &row(&schema, ["JONES", "MARTHA"])).unwrap();
        let probe = row(&schema, ["WILLOUGHBY", "KATHERINE"]);
        let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
        let mut stats = MatchStats::default();
        let matches = matched(&plan, &store, &probe, &Classifier::Rule(rule), &mut stats);
        assert!(matches.is_empty());
    }

    #[test]
    fn an_unindexed_record_is_neither_retrieved_nor_matched() {
        let (schema, mut plan, mut store) = setup(10);
        let a = row(&schema, ["JONES", "MARTHA"]);
        assert!(index_row(&mut plan, &mut store, 1, &a).unwrap());
        assert!(
            !index_row(&mut plan, &mut store, 1, &a).unwrap(),
            "the id is known"
        );
        assert!(unindex(&mut plan, &mut store, 1));
        assert!(!unindex(&mut plan, &mut store, 1));
        assert_eq!(store.get(1), None);
        let classifier = Classifier::Rule(Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]));
        let mut stats = MatchStats::default();
        assert!(matched(&plan, &store, &a, &classifier, &mut stats).is_empty());
    }

    #[test]
    fn literal_algorithm2_dedup_reduces_computations() {
        let (schema, _, mut store) = setup(4);
        let mut rng = StdRng::seed_from_u64(99);
        // Single-structure plan via a conjunction rule.
        let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
        let config = crate::LinkageConfig {
            delta: 0.01,
            ..crate::LinkageConfig::rule_aware(rule.clone())
        };
        let mut plan = BlockingPlan::from_config(&schema, &config, &mut rng).unwrap();
        let probe = row(&schema, ["JONES", "MARTHA"]); // identical → in every table
        index_row(&mut plan, &mut store, 1, &probe).unwrap();
        let structure = &plan.structures()[0];
        let classifier = Classifier::Rule(rule);
        let mut with = MatchStats::default();
        let m1 = match_structure_literal(structure, &store, &probe, &classifier, true, &mut with);
        let mut without = MatchStats::default();
        let m2 =
            match_structure_literal(structure, &store, &probe, &classifier, false, &mut without);
        assert_eq!(m1, vec![1]);
        assert_eq!(m2, vec![1]);
        assert_eq!(with.distance_computations, 1);
        // The identical pair collides in all L tables; without dedup each
        // occurrence costs a computation.
        assert_eq!(without.distance_computations, structure.l() as u64);
    }

    #[test]
    fn literal_algorithm2_counts_each_probe_once_in_a_reused_stats() {
        let (schema, _, mut store) = setup(8);
        let mut rng = StdRng::seed_from_u64(98);
        let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
        let config = crate::LinkageConfig {
            delta: 0.01,
            ..crate::LinkageConfig::rule_aware(rule.clone())
        };
        let mut plan = BlockingPlan::from_config(&schema, &config, &mut rng).unwrap();
        let probe = row(&schema, ["JONES", "MARTHA"]);
        index_row(&mut plan, &mut store, 1, &probe).unwrap();
        let structure = &plan.structures()[0];
        let l = structure.l() as u64;
        let classifier = Classifier::Rule(rule);
        // Two probes through one `MatchStats`: without de-dup each adds its
        // own L computations to the candidates, not the running total.
        let mut stats = MatchStats::default();
        for probes in 1..=2 {
            match_structure_literal(structure, &store, &probe, &classifier, false, &mut stats);
            assert_eq!(stats.distance_computations, probes * l);
            assert_eq!(stats.candidates, probes * l);
            assert_eq!(stats.matched, probes);
        }
    }

    #[test]
    fn scratch_carries_nothing_from_probe_to_probe() {
        let (schema, mut plan, mut store) = setup(9);
        for (id, first) in [(1, "JONES"), (2, "WILLOUGHBY")] {
            index_row(&mut plan, &mut store, id, &row(&schema, [first, "MARTHA"])).unwrap();
        }
        let classifier = Classifier::Rule(Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]));
        let mut scratch = ProbeScratch::default();
        let mut stats = MatchStats::default();
        for (probe, expect) in [("JONES", 1), ("WILLOUGHBY", 2), ("JONES", 1)] {
            let probe = row(&schema, [probe, "MARTHA"]);
            let mut out = Vec::new();
            match_record(
                &plan,
                &store,
                &probe,
                &classifier,
                &mut scratch,
                &mut stats,
                |id| out.push(id),
            );
            assert_eq!(out, vec![expect]);
        }
        assert_eq!(stats.matched, 3);
    }

    #[test]
    fn store_roundtrip() {
        let (schema, _, _) = setup(5);
        let mut store = RecordStore::new();
        let a = embed(&schema, 42, ["A", "B"]);
        store.insert(a.clone());
        assert_eq!(store.get(42), Some(&a));
        assert_eq!(store.get(7), None);
    }

    #[test]
    fn a_slab_document_is_the_reference_stores_with_the_slot_order() {
        let (schema, _, mut slab) = setup(11);
        let mut reference = RecordStore::new();
        for (id, f) in [
            (42, ["ANNA", "LEE"]),
            (9, ["MARY", "JONES"]),
            (7, ["JOHN", "SMITH"]),
        ] {
            slab.insert(id, &row(&schema, f)).unwrap();
            if id != 9 {
                reference.insert(embed(&schema, id, f));
            }
        }
        assert!(slab.remove(9), "slot 1 is free");
        let doc = serde::to_value(&slab).unwrap();
        let records: RecordStore = serde::from_value(doc.clone()).unwrap();
        assert_eq!(
            serde::to_value(&records).unwrap(),
            serde::to_value(&reference).unwrap()
        );
        let mut back: RecordSlab = serde::from_value(doc.clone()).unwrap();
        back.bind(schema.layout()).unwrap();
        assert!(!back.needs_rekey());
        for id in [42, 7] {
            assert_eq!(back.slot(id), slab.slot(id), "id {id} keeps its slot");
            assert_eq!(back.get(id), slab.get(id));
        }
        assert_eq!(back.slot(9), None);
        assert_eq!(serde::to_value(&back).unwrap(), doc);
        let other = RowLayout::from_widths([15, 16]);
        assert!(
            back.bind(other.clone()).is_err(),
            "records of another schema"
        );
        // The freed slot is the next one taken, as in the original.
        assert_eq!(back.insert(5, slab.get(7).unwrap()).unwrap(), 1);
        // An empty document says nothing of its layout: the binder does.
        let mut empty: RecordSlab =
            serde::from_value(serde::to_value(&RecordStore::new()).unwrap()).unwrap();
        empty.bind(other).unwrap();
        assert_eq!(empty.insert(1, &[0]).unwrap(), 0);
    }

    #[test]
    fn an_emptied_slab_restores_its_free_slots_with_rows() {
        let (schema, _, mut slab) = setup(14);
        for (id, f) in [(42, ["ANNA", "LEE"]), (7, ["JOHN", "SMITH"])] {
            slab.insert(id, &row(&schema, f)).unwrap();
        }
        assert!(slab.remove(42) && slab.remove(7));
        let doc = serde::to_value(&slab).unwrap();
        let mut back: RecordSlab = serde::from_value(doc).unwrap();
        back.bind(schema.layout()).unwrap();
        let anna = row(&schema, ["ANNA", "LEE"]);
        assert_eq!(back.insert(5, &anna).unwrap(), 1, "42's slot, freed last");
        assert_eq!(back.insert(6, &anna).unwrap(), 0);
        assert_eq!(back.insert(8, &anna).unwrap(), 2, "a new slot");
        assert_eq!(back.row_at(1), Some(&anna[..]));
    }

    #[test]
    fn a_document_without_slots_takes_slots_by_id_and_asks_for_a_rekey() {
        let (schema, _, _) = setup(12);
        let mut reference = RecordStore::new();
        for (id, f) in [(42, ["ANNA", "LEE"]), (7, ["JOHN", "SMITH"])] {
            reference.insert(embed(&schema, id, f));
        }
        let slab: RecordSlab = serde::from_value(serde::to_value(&reference).unwrap()).unwrap();
        assert!(slab.needs_rekey());
        assert_eq!((slab.slot(7), slab.slot(42)), (Some(0), Some(1)));
        assert_eq!(slab.id_at(1), 42);
        assert_eq!(
            slab.get(42),
            Some(reference.get(42).unwrap().packed().as_ref())
        );
    }

    #[test]
    fn a_slot_order_that_does_not_fit_its_records_is_refused() {
        let (schema, _, mut slab) = setup(13);
        for (id, f) in [(42, ["ANNA", "LEE"]), (7, ["JOHN", "SMITH"])] {
            slab.insert(id, &row(&schema, f)).unwrap();
        }
        let doc = serde::to_value(&slab).unwrap();
        let text = serde_json::to_string(&doc).unwrap();
        assert!(text.contains(r#""order":[42,7],"free":[]"#), "{text}");
        for (bad, why) in [
            (r#""order":[42,42],"free":[]"#, "two slots"),
            (r#""order":[42],"free":[]"#, "no slot"),
            (r#""order":[42,7],"free":[2]"#, "not a slot"),
            (r#""order":[42,7,3],"free":[]"#, "names no record"),
        ] {
            let text = text.replace(r#""order":[42,7],"free":[]"#, bad);
            let err = serde_json::from_str::<RecordSlab>(&text).unwrap_err();
            assert!(err.to_string().contains(why), "{bad}: {err}");
        }
    }

    #[test]
    fn a_record_vector_without_its_words_is_refused() {
        // Regression: `{"len":15,"words":[]}` used to load and then panic
        // when the slab packed the record.
        let (schema, _, mut slab) = setup(15);
        slab.insert(42, &row(&schema, ["ANNA", "LEE"])).unwrap();
        let text = serde_json::to_string(&slab).unwrap();
        let words = text.find(r#""words":["#).unwrap() + r#""words":["#.len();
        let end = words + text[words..].find(']').unwrap();
        let text = format!("{}{}", &text[..words], &text[end..]);
        let err = serde_json::from_str::<RecordSlab>(&text).unwrap_err();
        assert!(err.to_string().contains("words, not 0"), "{err}");
    }

    /// The slot policy in plain vectors: a known id keeps its slot, a new
    /// one takes the last freed slot, else the next; a free slot keeps its
    /// last id and row.
    #[derive(Default)]
    struct Model {
        slots: std::collections::HashMap<u64, u32>,
        cells: Vec<(u64, Vec<u64>)>,
        free: Vec<u32>,
    }

    impl Model {
        fn insert(&mut self, id: u64, row: &[u64]) -> u32 {
            let slot = match self.slots.get(&id) {
                Some(&slot) => slot,
                None => {
                    let slot = self.free.pop().unwrap_or_else(|| {
                        self.cells.push((id, Vec::new()));
                        self.cells.len() as u32 - 1
                    });
                    self.slots.insert(id, slot);
                    slot
                }
            };
            self.cells[slot as usize] = (id, row.to_vec());
            slot
        }

        fn remove(&mut self, id: u64) -> bool {
            let slot = self.slots.remove(&id);
            self.free.extend(slot);
            slot.is_some()
        }
    }

    fn assert_agrees(slab: &RecordSlab, model: &Model) {
        assert_eq!(slab.len(), model.slots.len());
        assert_eq!(slab.is_empty(), model.slots.is_empty());
        let row_of = |slot: u32| model.cells[slot as usize].1.clone();
        let mut iter: Vec<(u64, Vec<u64>)> = slab.iter().map(|(id, r)| (id, r.to_vec())).collect();
        iter.sort_unstable();
        let mut want: Vec<(u64, Vec<u64>)> = model
            .slots
            .iter()
            .map(|(&id, &slot)| (id, row_of(slot)))
            .collect();
        want.sort_unstable();
        assert_eq!(iter, want, "iter");
        let slots: Vec<(u32, Vec<u64>)> = slab.iter_slots().map(|(s, r)| (s, r.to_vec())).collect();
        let mut want: Vec<(u32, Vec<u64>)> = model
            .slots
            .values()
            .map(|&slot| (slot, row_of(slot)))
            .collect();
        want.sort_unstable();
        assert_eq!(slots, want, "iter_slots");
        for (&id, &slot) in &model.slots {
            assert_eq!(slab.slot(id), Some(slot), "id {id}");
            assert_eq!(slab.find(id), Some((u64::from(slot), &row_of(slot)[..])));
        }
        // Free slots too: every cell keeps its last id and row.
        for (slot, (id, row)) in model.cells.iter().enumerate() {
            assert_eq!(slab.row_at(slot as u64), Some(&row[..]), "slot {slot}");
            assert_eq!(slab.id_at(slot as u64), *id, "slot {slot}");
        }
        assert_eq!(slab.row_at(model.cells.len() as u64), None);
    }

    #[test]
    fn the_slab_follows_a_model_of_its_slot_policy_through_growth_and_churn() {
        let mut rng = StdRng::seed_from_u64(31);
        let layout = RowLayout::from_widths([70, 50]);
        let (mut slab, mut model) = (RecordSlab::new(layout), Model::default());
        let mut capacities = std::collections::BTreeSet::new();
        // Grow to ~1 500 live ids (past 8 index growths and 5 chunks), churn,
        // drain to nothing, then fill freed slots again.
        for (steps, insert_share, pool) in [
            (3_000u32, 0.8, 2_000u64),
            (3_000, 0.5, 2_000),
            (4_000, 0.1, 2_000),
            (1_000, 0.9, 4_000),
        ] {
            for step in 0..steps {
                // Spread ids over the word: the pool's numbers, scrambled.
                let id = rng
                    .random_range(0..pool)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                if rng.random_bool(insert_share) {
                    let row = [rng.random::<u64>(), rng.random::<u64>() >> 14];
                    assert_eq!(slab.insert(id, &row).unwrap(), model.insert(id, &row));
                } else {
                    assert_eq!(slab.remove(id), model.remove(id), "remove {id}");
                }
                let other = rng
                    .random_range(0..pool)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                assert_eq!(slab.slot(other), model.slots.get(&other).copied());
                capacities.insert(slab.index.buckets.len());
                if step % 250 == 0 {
                    assert_agrees(&slab, &model);
                }
            }
            assert_agrees(&slab, &model);
        }
        assert!(capacities.len() >= 9, "index capacities {capacities:?}");
        assert!(slab.cells.chunks.len() >= 5);
    }

    /// Ids whose home bucket is `home` in an index of 8 buckets, under the
    /// process's key.
    fn homed_at(slab: &RecordSlab, home: usize, n: usize) -> Vec<u64> {
        (1u64..)
            .filter(|&id| slab.index.tag(id) as usize & 7 == home)
            .take(n)
            .collect()
    }

    #[test]
    fn a_removal_shifts_its_cluster_back_across_the_end_of_the_index() {
        let layout = RowLayout::from_widths([64]);
        let empty = RecordSlab::new(layout);
        // Seven ids (the most 8 buckets hold) homed at 6, 7, 7, 7, 0, 0, 1:
        // one cluster that wraps round the end, from bucket 6 to 4.
        let ids: Vec<u64> = [(6, 1), (7, 3), (0, 2), (1, 1)]
            .into_iter()
            .flat_map(|(home, n)| homed_at(&empty, home, n))
            .collect();
        for order in [ids.clone(), ids.iter().rev().copied().collect()] {
            for &first in &ids {
                for &second in ids.iter().filter(|&&id| id != first) {
                    let (mut slab, mut model) = (empty.clone(), Model::default());
                    for &id in &order {
                        assert_eq!(slab.insert(id, &[id]).unwrap(), model.insert(id, &[id]));
                    }
                    assert_eq!(slab.index.buckets.len(), 8);
                    let wrapped = slab
                        .index
                        .buckets
                        .iter()
                        .enumerate()
                        .filter(|&(at, &b)| b != VACANT && at < (b >> 32) as usize & 7);
                    assert!(wrapped.count() >= 2, "the cluster wraps");
                    for gone in [first, second] {
                        assert!(slab.remove(gone) && model.remove(gone));
                        assert_agrees(&slab, &model);
                        assert_eq!(slab.get(gone), None);
                    }
                    // Back in, into the slots they left, last freed first.
                    for id in [first, second] {
                        assert_eq!(slab.insert(id, &[!id]).unwrap(), model.insert(id, &[!id]));
                    }
                    assert_agrees(&slab, &model);
                }
            }
        }
    }

    #[test]
    fn a_document_of_free_slots_takes_the_binders_stride() {
        let layout = RowLayout::from_widths([70, 50]);
        let mut slab = RecordSlab::new(layout.clone());
        // Past one chunk, then every record gone, in an order of its own.
        for id in 0..300u64 {
            slab.insert(id * 7, &[id, !id >> 14]).unwrap();
        }
        for id in (0..300u64).rev().step_by(2).chain((0..300).step_by(2)) {
            assert!(slab.remove(id * 7));
        }
        let doc = serde_json::to_string(&slab).unwrap();
        let mut back: RecordSlab = serde_json::from_str(&doc).unwrap();
        assert_eq!(back.cells.stride, 1, "the document names no widths");
        back.bind(layout).unwrap();
        assert_eq!(back.cells.stride, 3);
        for slot in 0..300u64 {
            assert_eq!(back.id_at(slot), slab.id_at(slot), "slot {slot}");
            assert_eq!(back.row_at(slot), Some(&[0, 0][..]));
        }
        assert_eq!(back.row_at(300), None);
        // The freed slots are taken in the original's order, then new ones.
        for id in 1_000..1_301u64 {
            let row = [id, id + 1];
            assert_eq!(
                back.insert(id, &row).unwrap(),
                slab.insert(id, &row).unwrap()
            );
            assert_eq!(back.get(id), Some(&row[..]));
        }
        assert_eq!(back.slot(1_300), Some(300));
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&slab).unwrap()
        );
    }

    #[test]
    fn a_full_slab_refuses_a_new_id_and_is_left_as_it_was() {
        assert_eq!(fresh_slot(u32::MAX - 1).unwrap(), u32::MAX - 1);
        assert!(matches!(
            fresh_slot(u32::MAX),
            Err(Error::InvalidParameter(_))
        ));
        let (schema, mut plan, mut slab) = setup(16);
        let (jones, smith) = (
            row(&schema, ["JONES", "MARTHA"]),
            row(&schema, ["SMITH", "JOHN"]),
        );
        assert!(index_row(&mut plan, &mut slab, 1, &jones).unwrap());
        let entries = |plan: &BlockingPlan| plan.stats().iter().map(|s| s.entries).sum::<usize>();
        let before = entries(&plan);
        // Every slot handed out (their cells need not exist to be refused).
        slab.cells.len = u32::MAX;
        let err = index_row(&mut plan, &mut slab, 2, &smith).unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)), "{err}");
        assert!(
            err.to_string().contains("at most 4294967295 records"),
            "{err}"
        );
        assert_eq!(
            (slab.len(), slab.slot(2), entries(&plan)),
            (1, None, before)
        );
        // A known id keeps its slot, and a freed slot is still taken.
        assert!(!index_row(&mut plan, &mut slab, 1, &smith).unwrap());
        assert_eq!(slab.get(1), Some(&smith[..]));
        assert!(unindex(&mut plan, &mut slab, 1));
        assert!(index_row(&mut plan, &mut slab, 2, &jones).unwrap());
        assert_eq!(slab.slot(2), Some(0));
    }
}
