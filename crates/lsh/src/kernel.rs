//! Compiled key kernels: all `L` blocking keys of a record from its packed
//! words.
//!
//! [`BitSampler::key_concat`] and [`CoveringGroup::key_concat`] define what
//! a key *is*, one bounds-checked bit read at a time over a list of
//! attribute vectors. A [`KeyKernel`] is the same function compiled once per
//! blocking structure against a fixed record layout — the attribute vectors
//! concatenated bit-contiguously into `u64` words — so that a record's keys
//! cost word operations:
//!
//! * a **bit-sampling** key is a *gather program*: one packed
//!   `(word, shift)` address per key bit, assembled 64 bits at a time;
//! * a **covering** key is a handful of *extract steps*: one
//!   `(word, mask)` pair per record word the group keeps bits of, each a
//!   single BMI2 `pext` where the CPU has it (checked once, when the kernel
//!   is compiled) and a portable bit loop otherwise.
//!
//! The kernels are bit-identical to the reference functions, including the
//! [`KeyAccumulator`] fold of keys wider than 128 bits; property tests in
//! this module and in `cbv-hb` hold them to that.
//!
//! Fast CoveringLSH (Pham & Pagh) computes all `2^{θ+1} − 1` group keys from
//! `2^{θ+1}` label-class hashes with a Walsh–Hadamard butterfly, `O(m + L·θ)`
//! instead of `O(L·m/2)`. It pays off when `m` is thousands of bits. At the
//! 112 to 267 bits of this repository's schemas a record is two to five
//! words, a group key is two to five `pext`s, and the exact masks keep every
//! key — and so every bucket and fingerprint — what it was; the butterfly
//! would replace keys by hashes of keys to save nothing measurable.

use crate::backend::Backend;
use crate::covering::CoveringGroup;
use crate::hamming::BitSampler;
use crate::hashfn::KeyAccumulator;
use std::ops::Range;

/// One covering extract step: the bits of `mask` in record word `word`,
/// appended low to high to the key being built.
#[derive(Debug, Clone, Copy)]
struct ExtractStep {
    word: u32,
    /// `mask.count_ones()`.
    bits: u32,
    mask: u64,
}

/// How one family's key for one table is computed.
#[derive(Debug, Clone)]
enum SubKey {
    /// Bit `i` of the key is the record bit at packed address `taps[i]`
    /// (`word << 6 | shift`). At most 128 taps.
    Gather { taps: Range<usize> },
    /// The kept bits in step order: packed into the key when they fit 128
    /// bits, folded 64 at a time through a [`KeyAccumulator`] otherwise.
    Extract { steps: Range<usize>, fold: bool },
}

/// How a table's composite key is assembled from its families' keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Assembly {
    /// Sub-keys shifted into place low to high (one sub-key: itself).
    Concat,
    /// More than 128 key bits in all: both halves of every sub-key folded
    /// through a [`KeyAccumulator`].
    Fold,
}

/// One table's key: its families' sub-keys (a range of
/// [`KeyKernel::subs`]) and how they combine.
#[derive(Debug, Clone)]
struct TableKey {
    subs: Range<usize>,
    assembly: Assembly,
}

/// The compiled form of one blocking structure's hash families. Built by
/// [`KeyKernel::compile`]; the default value is the kernel of no tables.
#[derive(Debug, Clone, Default)]
pub struct KeyKernel {
    taps: Vec<u32>,
    steps: Vec<ExtractStep>,
    /// `(sub-key, its width in key bits)`, table-major.
    subs: Vec<(SubKey, u32)>,
    tables: Vec<TableKey>,
    /// Set only by [`KeyKernel::compile`], and only when this CPU reports
    /// BMI2: it licenses the `pext` instruction in [`KeyKernel::keys_into`].
    bmi2: bool,
}

/// Software `pext`: the bits of `word` selected by `mask`, packed low to
/// high.
#[inline]
fn pext_portable(word: u64, mut mask: u64) -> u64 {
    let (mut out, mut i) = (0u64, 0u32);
    while mask != 0 {
        let lowest = mask & mask.wrapping_neg();
        out |= u64::from(word & lowest != 0) << i;
        i += 1;
        mask &= mask - 1;
    }
    out
}

/// The record bits at `taps`, packed low to high. At most 64 taps.
#[inline]
fn gather64(words: &[u64], taps: &[u32]) -> u64 {
    let mut key = 0u64;
    for (i, &t) in taps.iter().enumerate() {
        key |= ((words[(t >> 6) as usize] >> (t & 63)) & 1) << i;
    }
    key
}

impl KeyKernel {
    /// Compiles the families of one structure. `families[j]` is family
    /// `j`'s backend with its *position map*: `map[p]` is the bit offset, in
    /// the packed record, of position `p` of the vector the family hashes
    /// (the identity for a family over the whole record, `offset + p` for a
    /// family over one attribute). All families key the same `L` tables.
    ///
    /// # Panics
    /// Panics if the families disagree on `L`, or a family addresses a
    /// position beyond its map — neither can come out of the constructors
    /// of the families and the blocking structures, and
    /// `cbv_hb::blocking::BlockingPlan::compile_kernels` refuses a document
    /// with either before it compiles.
    pub fn compile(families: &[(&Backend, &[u32])]) -> Self {
        let mut k = KeyKernel {
            #[cfg(target_arch = "x86_64")]
            bmi2: std::arch::is_x86_feature_detected!("bmi2"),
            ..KeyKernel::default()
        };
        let l = families.first().map_or(0, |(b, _)| b.l());
        // Cannot fire: a structure's constructor draws all its families
        // with one `L`, and a deserialized structure whose families disagree
        // is refused by `BlockingPlan::compile_kernels` before this runs.
        assert!(
            families.iter().all(|(b, _)| b.l() == l),
            "fused families must key the same number of tables"
        );
        for table in 0..l {
            let first = k.subs.len();
            let mut total_bits = 0u32;
            for (backend, map) in families {
                let sub = match backend {
                    Backend::RandomSampling(f) => k.gather(&f.samplers()[table], map),
                    Backend::Covering(f) => k.extract(&f.groups()[table], map),
                };
                total_bits += sub.1;
                k.subs.push(sub);
            }
            let assembly = if families.len() > 1 && total_bits > 128 {
                Assembly::Fold
            } else {
                Assembly::Concat
            };
            k.tables.push(TableKey {
                subs: first..k.subs.len(),
                assembly,
            });
        }
        k
    }

    fn gather(&mut self, sampler: &BitSampler, map: &[u32]) -> (SubKey, u32) {
        let first = self.taps.len();
        self.taps
            .extend(sampler.positions().iter().map(|&p| map[p as usize]));
        let taps = first..self.taps.len();
        let bits = taps.len() as u32;
        (SubKey::Gather { taps }, bits)
    }

    fn extract(&mut self, group: &CoveringGroup, map: &[u32]) -> (SubKey, u32) {
        let first = self.steps.len();
        let mut previous: Option<u32> = None;
        for &p in group.kept() {
            let at = map[p as usize];
            // A step takes its bits in ascending order out of one word; a
            // position that breaks either (possible when fused attributes
            // are not in schema order) begins the next step.
            let continues = previous.is_some_and(|prev| prev >> 6 == at >> 6 && prev < at);
            if !continues {
                self.steps.push(ExtractStep {
                    word: at >> 6,
                    bits: 0,
                    mask: 0,
                });
            }
            let step = self.steps.last_mut().expect("a step was just begun");
            step.mask |= 1 << (at & 63);
            step.bits += 1;
            previous = Some(at);
        }
        let sub = SubKey::Extract {
            steps: first..self.steps.len(),
            fold: group.width() > 128,
        };
        (sub, group.width().min(128) as u32)
    }

    /// Number of tables `L` the kernel keys.
    pub fn tables(&self) -> usize {
        self.tables.len()
    }

    /// Replaces `out` by the `L` keys of the record packed in `words`, with
    /// `pext` where the CPU has it.
    ///
    /// # Panics
    /// Panics if `words` is shorter than the layout the kernel was
    /// compiled against.
    pub fn keys_into(&self, words: &[u64], out: &mut Vec<u128>) {
        if self.bmi2 {
            // SAFETY: `bmi2` is private to this module and set only in
            // `compile`, from `is_x86_feature_detected!("bmi2")` on the CPU
            // this process runs on, which is all `keys_bmi2` requires.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                self.keys_bmi2(words, out)
            };
        } else {
            self.keys_into_portable(words, out);
        }
    }

    /// As [`Self::keys_into`], never using `pext`: what runs on a CPU
    /// without BMI2, callable everywhere so that tests can hold the two
    /// extractors against each other.
    pub fn keys_into_portable(&self, words: &[u64], out: &mut Vec<u128>) {
        self.keys_with(words, out, pext_portable);
    }

    /// # Safety
    /// The CPU must support BMI2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "bmi2")]
    unsafe fn keys_bmi2(&self, words: &[u64], out: &mut Vec<u128>) {
        self.keys_with(words, out, |word, mask| {
            std::arch::x86_64::_pext_u64(word, mask)
        });
    }

    #[inline(always)]
    fn keys_with(&self, words: &[u64], out: &mut Vec<u128>, pext: impl Fn(u64, u64) -> u64) {
        out.clear();
        out.reserve(self.tables.len());
        for table in &self.tables {
            let subs = &self.subs[table.subs.clone()];
            let key = match table.assembly {
                Assembly::Concat => {
                    let (mut key, mut shift) = (0u128, 0u32);
                    for (sub, bits) in subs {
                        key |= self.sub_key(sub, words, &pext) << shift;
                        shift += bits;
                    }
                    key
                }
                Assembly::Fold => {
                    let mut acc = KeyAccumulator::new();
                    for (sub, _) in subs {
                        let k = self.sub_key(sub, words, &pext);
                        acc.push(k as u64);
                        acc.push((k >> 64) as u64);
                    }
                    acc.finish()
                }
            };
            out.push(key);
        }
    }

    #[inline(always)]
    fn sub_key(&self, sub: &SubKey, words: &[u64], pext: &impl Fn(u64, u64) -> u64) -> u128 {
        match sub {
            SubKey::Gather { taps } => {
                let taps = &self.taps[taps.clone()];
                let (low, high) = taps.split_at(taps.len().min(64));
                u128::from(gather64(words, low)) | u128::from(gather64(words, high)) << 64
            }
            SubKey::Extract { steps, fold: false } => {
                let (mut key, mut filled) = (0u128, 0u32);
                for s in &self.steps[steps.clone()] {
                    key |= u128::from(pext(words[s.word as usize], s.mask)) << filled;
                    filled += s.bits;
                }
                key
            }
            SubKey::Extract { steps, fold: true } => {
                // The reference pushes a word each time 64 kept bits have
                // been collected, then the remainder.
                let mut acc = KeyAccumulator::new();
                let (mut stage, mut filled) = (0u128, 0u32);
                for s in &self.steps[steps.clone()] {
                    stage |= u128::from(pext(words[s.word as usize], s.mask)) << filled;
                    filled += s.bits;
                    if filled >= 64 {
                        acc.push(stage as u64);
                        stage >>= 64;
                        filled -= 64;
                    }
                }
                if filled > 0 {
                    acc.push(stage as u64);
                }
                acc.finish()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitSampleFamily, CoveringFamily};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rl_bitvec::BitVec;

    /// Packs `v` the way the kernels expect a one-vector record.
    fn identity(m: usize) -> Vec<u32> {
        (0..m as u32).collect()
    }

    fn reference(backend: &Backend, v: &BitVec) -> Vec<u128> {
        match backend {
            Backend::RandomSampling(f) => f.samplers().iter().map(|s| s.key(v)).collect(),
            Backend::Covering(f) => f.groups().iter().map(|g| g.key(v)).collect(),
        }
    }

    #[test]
    fn portable_pext_packs_selected_bits() {
        assert_eq!(pext_portable(0b1011_0110, 0b1111_0000), 0b1011);
        assert_eq!(pext_portable(0b1011_0110, 0b0101_0101), 0b0110);
        assert_eq!(pext_portable(u64::MAX, u64::MAX), u64::MAX);
        assert_eq!(pext_portable(u64::MAX, 0), 0);
        assert_eq!(pext_portable(1 << 63, 1 << 63), 1);
    }

    #[test]
    fn default_kernel_keys_nothing() {
        let mut out = vec![7];
        KeyKernel::default().keys_into(&[], &mut out);
        assert!(out.is_empty());
    }

    proptest! {
        #[test]
        fn sampling_kernel_equals_reference_keys(
            m in 1usize..=600,
            k in 1usize..=128,
            ones in proptest::collection::btree_set(0usize..600, 0..200),
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let v = BitVec::from_positions(m, ones.into_iter().filter(|&p| p < m));
            let backend =
                Backend::RandomSampling(BitSampleFamily::random(m, k, 5, &mut rng).unwrap());
            let kernel = KeyKernel::compile(&[(&backend, &identity(m))]);
            let mut keys = Vec::new();
            kernel.keys_into(v.words(), &mut keys);
            prop_assert_eq!(keys, reference(&backend, &v));
        }

        #[test]
        fn covering_kernel_equals_reference_keys_with_either_extractor(
            m in 1usize..=600,
            theta in 0u32..=3,
            ones in proptest::collection::btree_set(0usize..600, 0..300),
            seed in any::<u64>(),
        ) {
            // Widths up to 600 cross the 128-bit line: both the packed and
            // the folded form are exercised.
            let mut rng = StdRng::seed_from_u64(seed);
            let v = BitVec::from_positions(m, ones.into_iter().filter(|&p| p < m));
            let backend = Backend::Covering(CoveringFamily::random(m, theta, &mut rng).unwrap());
            let kernel = KeyKernel::compile(&[(&backend, &identity(m))]);
            let (mut auto, mut portable) = (Vec::new(), Vec::new());
            kernel.keys_into(v.words(), &mut auto);
            kernel.keys_into_portable(v.words(), &mut portable);
            prop_assert_eq!(&auto, &portable);
            prop_assert_eq!(auto, reference(&backend, &v));
        }
    }
}
