//! The windowed subscription engine.
//!
//! A [`WindowedEngine`] keeps the rows of the records its live windows
//! hold in one [`RecordSlab`] and, per subscription, a compiled plan
//! ([`CompiledRule`]) and a window ([`WindowState`]). Observing a record
//! embeds it once, then for every subscription applies the late-arrival
//! policy, probes the subscription's plan, emits a [`SubMatch`] event,
//! admits the record and evicts whatever the admission pushed out.
//!
//! A subscription's plan holds exactly its window: an id enters it on
//! admission, is re-keyed when re-admitted, and leaves its buckets
//! ([`CompiledRule::evict`], no tombstone) when the window evicts or
//! forgets it. The slab holds the union of the windows: a row leaves it
//! with the last window holding it. With zero subscriptions nothing is
//! retained, so memory is bounded by the windows, not the stream length.

use crate::compiler::{CompiledRule, SubscriptionSpec};
use crate::window::WindowState;
use cbv_hb::error::Result;
use cbv_hb::matcher::{MatchStats, RecordSlab};
use cbv_hb::schema::RecordSchema;
use cbv_hb::Record;
use parking_lot::Mutex;
use rand::Rng;

/// One subscription's matches for one observed record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubMatch {
    /// The subscription that matched.
    pub sub: u64,
    /// The record that was observed.
    pub record_id: u64,
    /// Window records satisfying the subscription's rule, ascending.
    pub matched: Vec<u64>,
}

/// What one `observe` call produced.
#[derive(Debug, Clone, Default)]
pub struct ObserveOutcome {
    /// Per-subscription match events (only subscriptions with at least one
    /// match appear).
    pub events: Vec<SubMatch>,
    /// Records that left the engine by window expiry during this
    /// observation.
    pub evicted: u64,
    /// Subscriptions that refused the record under their late-arrival
    /// policy.
    pub late_drops: u64,
}

struct SubEntry {
    id: u64,
    compiled: CompiledRule,
    window: WindowState,
    stats: MatchStats,
}

impl SubEntry {
    /// Takes what the window expired at `watermark` out of the plan and
    /// appends the ids to `gone`.
    fn expire(&mut self, watermark: u64, slab: &RecordSlab, gone: &mut Vec<u64>) {
        for id in self.window.evict(watermark) {
            let (slot, row) = slab.find(id).expect("a windowed id has a row");
            self.compiled.evict(slot, row);
            gone.push(id);
        }
    }
}

struct State {
    /// The row of every id some live window holds.
    slab: RecordSlab,
    entries: Vec<SubEntry>,
    next_id: u64,
    /// Monotone admission stamp shared by all windows.
    stamp: u64,
    /// Highest event time observed (drives lateness and time eviction).
    watermark_ms: u64,
}

impl State {
    fn held(&self, id: u64) -> bool {
        self.entries.iter().any(|e| e.window.contains(id))
    }

    /// Takes the rows of the `gone` ids no window holds any more out of the
    /// slab; returns how many left.
    fn release(&mut self, gone: impl IntoIterator<Item = u64>) -> u64 {
        let mut released = 0;
        for id in gone {
            if !self.held(id) {
                released += u64::from(self.slab.remove(id));
            }
        }
        released
    }
}

/// The failure budget δ every subscription's plan is compiled for: the
/// probability of missing a true match per probe.
const DELTA: f64 = 0.1;

/// The windowed subscription engine. All methods take `&self`; the state
/// is behind one mutex.
pub struct WindowedEngine {
    schema: RecordSchema,
    state: Mutex<State>,
}

impl WindowedEngine {
    /// An engine with no subscriptions over records of `schema`.
    pub fn new(schema: RecordSchema) -> Self {
        Self {
            state: Mutex::new(State {
                slab: RecordSlab::new(schema.layout()),
                entries: Vec::new(),
                next_id: 1,
                stamp: 0,
                watermark_ms: 0,
            }),
            schema,
        }
    }

    /// Registers a subscription: validates the window, compiles the rule
    /// into its pruned plan, and returns the subscription id.
    ///
    /// # Errors
    /// Propagates window validation and rule compilation errors.
    pub fn subscribe<R: Rng + ?Sized>(&self, spec: SubscriptionSpec, rng: &mut R) -> Result<u64> {
        spec.window.validate()?;
        // Compile outside the lock: plan construction is the expensive
        // part and needs no engine state.
        let compiled = CompiledRule::compile(&self.schema, spec.rule, DELTA, spec.cap, rng)?;
        let mut state = self.state.lock();
        let id = state.next_id;
        state.next_id += 1;
        state.entries.push(SubEntry {
            id,
            compiled,
            window: WindowState::new(spec.window, spec.late),
            stats: MatchStats::default(),
        });
        Ok(id)
    }

    /// Removes a subscription and the records only its window held.
    /// Returns whether the subscription existed.
    pub fn unsubscribe(&self, sub: u64) -> bool {
        let mut state = self.state.lock();
        let Some(idx) = state.entries.iter().position(|e| e.id == sub) else {
            return false;
        };
        let entry = state.entries.swap_remove(idx);
        state.release(entry.window.live_ids());
        true
    }

    /// Number of live subscriptions.
    pub fn subscriptions(&self) -> usize {
        self.state.lock().entries.len()
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.state.lock().slab.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn entry<T>(&self, sub: u64, f: impl FnOnce(&SubEntry) -> T) -> Option<T> {
        self.state
            .lock()
            .entries
            .iter()
            .find(|e| e.id == sub)
            .map(f)
    }

    /// Accumulated matching counters for a subscription's probes.
    pub fn sub_stats(&self, sub: u64) -> Option<MatchStats> {
        self.entry(sub, |e| e.stats)
    }

    /// Total LSH tables a subscription's compiled plan probes per record
    /// (`Σ L` over the structures its rule requires).
    pub fn sub_tables(&self, sub: u64) -> Option<usize> {
        self.entry(sub, |e| e.compiled.tables())
    }

    /// Observes one record with event time `event_ms` and fans it out to
    /// every subscription. Streams legitimately re-send ids: a record
    /// replaces the one with its id, which a window that refuses the new
    /// version stops holding.
    ///
    /// # Errors
    /// Returns [`cbv_hb::Error::FieldCountMismatch`] on malformed records,
    /// and the refusal of a full slab ([`RecordSlab::insert`]), which
    /// leaves the engine as it was.
    pub fn observe(&self, record: &Record, event_ms: u64) -> Result<ObserveOutcome> {
        let mut state = self.state.lock();
        let state = &mut *state;
        let mut out = ObserveOutcome::default();
        if state.entries.is_empty() {
            return Ok(out);
        }
        let mut row = vec![0; self.schema.row_words()];
        self.schema.embed_row(record, &mut row)?;
        let id = record.id;
        // Every plan indexes the record under one slot: the one it holds,
        // else a fresh one. A held row stays until every window has seen the
        // record (re-keying needs it); rows leave afterwards, once no window
        // holds them.
        let slot = match state.slab.find(id) {
            Some((slot, _)) => slot,
            None => u64::from(state.slab.insert(id, &row)?),
        };
        state.stamp += 1;
        let prior_watermark = state.watermark_ms;
        state.watermark_ms = prior_watermark.max(event_ms);
        let (stamp, watermark) = (state.stamp, state.watermark_ms);
        let slab = &state.slab;
        let mut gone = Vec::new();
        for entry in &mut state.entries {
            // The row this window indexed `id` with, if it holds `id`.
            let held = slab.get(id).filter(|_| entry.window.contains(id));
            // Late-arrival policy first: a refused record must not evict.
            if !entry.window.admits(event_ms, prior_watermark) {
                out.late_drops += 1;
                if let Some(old) = held {
                    // What the window held is replaced by what it refuses.
                    entry.compiled.evict(slot, old);
                    entry.window.forget(id);
                }
                continue;
            }
            let lookup = |c: u64| {
                if c == slot {
                    return None; // the record's own (old) row
                }
                Some((slab.id_at(c), slab.row_at(c)?))
            };
            let matched = entry.compiled.probe(&row, lookup, &mut entry.stats);
            if !matched.is_empty() {
                out.events.push(SubMatch {
                    sub: entry.id,
                    record_id: id,
                    matched,
                });
            }
            match held {
                Some(old) => entry.compiled.reindex(slot, old, &row),
                None => entry.compiled.index(slot, &row),
            }
            entry.window.push(id, stamp, event_ms);
            entry.expire(watermark, slab, &mut gone);
        }
        if state.held(id) {
            // The id holds its slot: the insert replaces the row.
            state.slab.insert(id, &row)?;
        } else {
            state.slab.remove(id);
        }
        out.evicted = state.release(gone);
        Ok(out)
    }

    /// Time-based eviction tick: advances the watermark to `now_ms` and
    /// expires time windows, so an idle stream still sheds old records.
    /// Returns how many records left the engine.
    pub fn evict_due(&self, now_ms: u64) -> u64 {
        let mut state = self.state.lock();
        let state = &mut *state;
        state.watermark_ms = state.watermark_ms.max(now_ms);
        let mut gone = Vec::new();
        for entry in &mut state.entries {
            entry.expire(state.watermark_ms, &state.slab, &mut gone);
        }
        state.release(gone)
    }

    /// Deletes a record from every window and plan. Returns whether any
    /// window held it.
    pub fn remove(&self, id: u64) -> bool {
        let mut state = self.state.lock();
        let state = &mut *state;
        let Some((slot, row)) = state.slab.find(id) else {
            return false;
        };
        for entry in &mut state.entries {
            if entry.window.forget(id) {
                entry.compiled.evict(slot, row);
            }
        }
        state.slab.remove(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{LateArrival, WindowSpec};
    use cbv_hb::schema::AttributeSpec;
    use cbv_hb::Rule;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::{BTreeSet, HashMap, HashSet};
    use textdist::Alphabet;

    fn engine(seed: u64) -> (WindowedEngine, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = RecordSchema::build(
            Alphabet::linkage(),
            vec![
                AttributeSpec::new("FirstName", 2, 64, false, 5),
                AttributeSpec::new("LastName", 2, 64, false, 5),
            ],
            &mut rng,
        );
        (WindowedEngine::new(schema), rng)
    }

    fn spec(rule: Rule, window: WindowSpec) -> SubscriptionSpec {
        SubscriptionSpec::new(rule, window)
    }

    #[test]
    fn zero_subscriptions_retain_nothing() {
        let (e, _) = engine(1);
        let out = e.observe(&Record::new(1, ["JOHN", "SMITH"]), 0).unwrap();
        assert!(out.events.is_empty());
        assert_eq!(e.len(), 0, "no subscription retains the record");
    }

    #[test]
    fn count_window_eviction_stops_matching() {
        let (e, mut rng) = engine(2);
        let sub = e
            .subscribe(spec(Rule::pred(0, 4), WindowSpec::Count(2)), &mut rng)
            .unwrap();
        e.observe(&Record::new(1, ["JOHN", "AAA"]), 0).unwrap();
        e.observe(&Record::new(2, ["MARY", "BBB"]), 0).unwrap();
        // Window full: id 1 is evicted by the next admission.
        let out = e.observe(&Record::new(3, ["PETER", "CCC"]), 0).unwrap();
        assert_eq!(out.evicted, 1);
        assert_eq!(e.len(), 2);
        // A twin of the evicted record no longer matches it.
        let out = e.observe(&Record::new(4, ["JOHN", "DDD"]), 0).unwrap();
        assert!(
            out.events.is_empty(),
            "evicted record must not match: {:?}",
            out.events
        );
        // But a twin of a still-windowed record does.
        let out = e.observe(&Record::new(5, ["PETER", "EEE"]), 0).unwrap();
        assert_eq!(out.events.len(), 1);
        assert_eq!(out.events[0].sub, sub);
        assert_eq!(out.events[0].matched, vec![3]);
    }

    #[test]
    fn two_subscriptions_receive_disjoint_events() {
        let (e, mut rng) = engine(3);
        let first = e
            .subscribe(spec(Rule::pred(0, 4), WindowSpec::Count(100)), &mut rng)
            .unwrap();
        let last = e
            .subscribe(spec(Rule::pred(1, 4), WindowSpec::Count(100)), &mut rng)
            .unwrap();
        e.observe(&Record::new(1, ["JOHN", "SMITH"]), 0).unwrap();
        // Same first name, unrelated last name → only `first` fires.
        let out = e
            .observe(&Record::new(2, ["JOHN", "WILLOUGHBY"]), 0)
            .unwrap();
        let subs: Vec<u64> = out.events.iter().map(|ev| ev.sub).collect();
        assert_eq!(subs, vec![first]);
        // Same last name, unrelated first name → only `last` fires.
        let out = e
            .observe(&Record::new(3, ["BARTHOLOMEW", "SMITH"]), 0)
            .unwrap();
        let subs: Vec<u64> = out.events.iter().map(|ev| ev.sub).collect();
        assert_eq!(subs, vec![last]);
        assert_eq!(out.events[0].matched, vec![1]);
    }

    #[test]
    fn time_window_and_late_arrival_policies() {
        let (e, mut rng) = engine(4);
        let mut drop_spec = spec(Rule::pred(0, 4), WindowSpec::TimeMs(100));
        drop_spec.late = LateArrival::Drop;
        let strict = e.subscribe(drop_spec, &mut rng).unwrap();
        let lenient = e
            .subscribe(spec(Rule::pred(0, 4), WindowSpec::TimeMs(100)), &mut rng)
            .unwrap();
        e.observe(&Record::new(1, ["JOHN", "AAA"]), 1000).unwrap();
        // A late twin (event time 950 < watermark 1000) still inside the
        // window span: Drop refuses it, ApplyIfInWindow matches it.
        let out = e.observe(&Record::new(2, ["JOHN", "BBB"]), 950).unwrap();
        assert_eq!(out.late_drops, 1);
        let subs: Vec<u64> = out.events.iter().map(|ev| ev.sub).collect();
        assert_eq!(subs, vec![lenient]);
        // Far past the span: both refuse (Drop by policy, lenient because
        // the record falls outside the window).
        let out = e.observe(&Record::new(3, ["JOHN", "CCC"]), 10).unwrap();
        assert_eq!(out.late_drops, 2);
        assert!(out.events.is_empty());
        // Idle-stream tick expires the whole window.
        let evicted = e.evict_due(5000);
        assert!(evicted >= 2, "tick evicted {evicted}");
        let out = e.observe(&Record::new(4, ["JOHN", "DDD"]), 5000).unwrap();
        assert!(out.events.is_empty(), "expired records must not match");
        let _ = (strict, lenient);
    }

    #[test]
    fn a_time_window_keeps_what_it_admits_at_event_time_zero() {
        let (e, mut rng) = engine(7);
        let sub = e
            .subscribe(spec(Rule::pred(0, 4), WindowSpec::TimeMs(100)), &mut rng)
            .unwrap();
        // Admitted at watermark 0, so inside the window (0 - 100, 0].
        e.observe(&Record::new(1, ["JOHN", "AAA"]), 0).unwrap();
        assert_eq!(e.len(), 1);
        // A re-send of the same id at 0 is re-keyed, not a second record.
        e.observe(&Record::new(1, ["MARY", "AAA"]), 0).unwrap();
        assert_eq!(e.len(), 1);
        let out = e.observe(&Record::new(2, ["MARY", "BBB"]), 0).unwrap();
        assert_eq!(out.events.len(), 1);
        assert_eq!(
            (out.events[0].sub, &out.events[0].matched[..]),
            (sub, &[1][..])
        );
        let out = e.observe(&Record::new(3, ["JOHN", "CCC"]), 0).unwrap();
        assert!(out.events.is_empty(), "the replaced row matched");
        check_invariants(&e, 0);
        // The window is (watermark - 100, watermark]: at 100 all of it goes.
        assert_eq!(e.evict_due(99), 0);
        assert_eq!(e.evict_due(100), 3);
        check_invariants(&e, 1);
    }

    #[test]
    fn upsert_and_remove_flow_through_windows() {
        let (e, mut rng) = engine(5);
        e.subscribe(spec(Rule::pred(0, 4), WindowSpec::Count(10)), &mut rng)
            .unwrap();
        e.observe(&Record::new(1, ["JOHN", "AAA"]), 0).unwrap();
        // Re-observing the same id is an upsert, not an error, and must
        // not self-match.
        let out = e.observe(&Record::new(1, ["JOHN", "AAA"]), 1).unwrap();
        assert!(out.events.is_empty(), "no self-match on upsert");
        assert_eq!(e.len(), 1);
        // External delete: the record stops matching everywhere.
        assert!(e.remove(1));
        let out = e.observe(&Record::new(2, ["JOHN", "BBB"]), 2).unwrap();
        assert!(out.events.is_empty());
    }

    #[test]
    fn unsubscribe_releases_retained_records() {
        let (e, mut rng) = engine(6);
        let a = e
            .subscribe(spec(Rule::pred(0, 4), WindowSpec::Count(10)), &mut rng)
            .unwrap();
        let b = e
            .subscribe(spec(Rule::pred(1, 4), WindowSpec::Count(10)), &mut rng)
            .unwrap();
        e.observe(&Record::new(1, ["JOHN", "SMITH"]), 0).unwrap();
        assert_eq!(e.len(), 1);
        assert!(e.unsubscribe(a));
        assert_eq!(e.len(), 1, "still retained by the other window");
        assert!(e.unsubscribe(b));
        assert_eq!(e.len(), 0, "last hold released evicts the record");
        assert!(!e.unsubscribe(b), "double unsubscribe is a no-op");
        assert_eq!(e.subscriptions(), 0);
    }

    /// The engine's invariants after any step: the slab holds exactly the
    /// union of the live windows, and each subscription's plan holds the
    /// slot of each live id of its window once per table, in the bucket its
    /// row keys to, and nothing else.
    fn check_invariants(e: &WindowedEngine, step: usize) {
        let state = e.state.lock();
        let slab_ids: BTreeSet<u64> = state.slab.iter().map(|(id, _)| id).collect();
        let union: BTreeSet<u64> = state
            .entries
            .iter()
            .flat_map(|entry| entry.window.live_ids())
            .collect();
        assert_eq!(slab_ids, union, "step {step}: slab ≠ ∪ windows");
        let mut keys = Vec::new();
        for entry in &state.entries {
            let mut want = Vec::new();
            let mut have = Vec::new();
            for (s, structure) in entry.compiled.plan().structures().iter().enumerate() {
                for id in entry.window.live_ids() {
                    let (slot, row) = state.slab.find(id).unwrap();
                    structure.keys_into_row(row, &mut keys);
                    want.extend(keys.iter().enumerate().map(|(l, &k)| (s, l, k, slot)));
                }
                structure.for_each_entry(|l, k, ids| {
                    have.extend(ids.iter().map(|&id| (s, l, k, id)));
                });
                let live = entry.window.live_ids().count();
                assert_eq!(
                    structure.stats().entries,
                    live * structure.l(),
                    "step {step}"
                );
            }
            want.sort_unstable();
            have.sort_unstable();
            assert_eq!(have, want, "step {step}: sub {} plan ≠ window", entry.id);
        }
    }

    /// A seeded schedule of observe / remove / evict_due / subscribe /
    /// unsubscribe over count and time windows under both late-arrival
    /// policies, with re-sent ids and exact twins, checked after every step.
    #[test]
    fn model_schedule_keeps_plans_equal_to_windows() {
        use rand::RngExt;
        let (e, mut rng) = engine(20);
        let firsts = ["JOHN", "MARY", "PETER", "LUCY", "MARK", "SARAH"];
        let lasts = ["SMITH", "JONES", "BROWN", "TAYLOR"];
        let windows = [
            WindowSpec::Count(3),
            WindowSpec::Count(8),
            WindowSpec::Count(20),
            WindowSpec::TimeMs(5),
            WindowSpec::TimeMs(30),
        ];
        let rules = [
            Rule::pred(0, 4),
            Rule::pred(1, 4),
            Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]),
            Rule::or([Rule::pred(0, 2), Rule::pred(1, 2)]),
            Rule::and([Rule::pred(0, 4), Rule::not(Rule::pred(1, 4))]),
        ];
        let mut fields: HashMap<u64, [&str; 2]> = HashMap::new();
        let mut deleted = HashSet::new();
        // (id, rule holds at distance 0); one time window sees event time 0.
        let first = spec(rules[0].clone(), WindowSpec::TimeMs(5));
        let mut subs = vec![(e.subscribe(first, &mut rng).unwrap(), true)];
        let mut clock = 0u64;
        let (mut events, mut twins, mut late) = (0usize, 0usize, 0u64);
        for step in 0..3000 {
            match rng.random_range(0..100u32) {
                0..=69 => {
                    let id = rng.random_range(0..60u64);
                    let rec = [
                        firsts[rng.random_range(0..firsts.len())],
                        lasts[rng.random_range(0..lasts.len())],
                    ];
                    clock += rng.random_range(0..3u64);
                    let event_ms = if rng.random_range(0..10u32) == 0 {
                        clock.saturating_sub(rng.random_range(0..40u64))
                    } else {
                        clock
                    };
                    // Each admitting subscription's window as the probe
                    // sees it.
                    let before: HashMap<u64, Vec<u64>> = {
                        let state = e.state.lock();
                        state
                            .entries
                            .iter()
                            .filter(|s| s.window.admits(event_ms, state.watermark_ms))
                            .map(|s| (s.id, s.window.live_ids().filter(|&x| x != id).collect()))
                            .collect()
                    };
                    let out = e.observe(&Record::new(id, rec), event_ms).unwrap();
                    late += out.late_drops;
                    for ev in &out.events {
                        let window = &before[&ev.sub];
                        for m in &ev.matched {
                            assert!(window.contains(m), "step {step}: {m} outside the window");
                            assert!(!deleted.contains(m), "step {step}: deleted {m} matched");
                        }
                        assert!(!ev.matched.contains(&id), "step {step}: self-match");
                    }
                    for &(sub, zero_holds) in &subs {
                        let Some(window) = before.get(&sub).filter(|_| zero_holds) else {
                            continue;
                        };
                        let matched = out
                            .events
                            .iter()
                            .find(|ev| ev.sub == sub)
                            .map_or(&[][..], |ev| &ev.matched[..]);
                        for x in window.iter().filter(|x| fields[x] == rec) {
                            assert!(matched.contains(x), "step {step}: twin {x} of {id} missed");
                            twins += 1;
                        }
                    }
                    events += out.events.len();
                    fields.insert(id, rec);
                    deleted.remove(&id);
                }
                70..=77 => {
                    let id = rng.random_range(0..60u64);
                    e.remove(id);
                    deleted.insert(id);
                }
                78..=84 => {
                    clock += rng.random_range(0..20u64);
                    e.evict_due(clock);
                }
                85..=92 if subs.len() < 6 => {
                    let rule = rules[rng.random_range(0..rules.len())].clone();
                    let zero_holds = rule.evaluate(&[0, 0]);
                    let mut spec = spec(rule, windows[rng.random_range(0..windows.len())]);
                    if rng.random_range(0..2u32) == 0 {
                        spec.late = LateArrival::Drop;
                    }
                    subs.push((e.subscribe(spec, &mut rng).unwrap(), zero_holds));
                }
                _ if !subs.is_empty() => {
                    let (sub, _) = subs.swap_remove(rng.random_range(0..subs.len()));
                    assert!(e.unsubscribe(sub));
                }
                _ => {}
            }
            check_invariants(&e, step);
        }
        // The schedule reached the paths it is meant to cover.
        assert!(
            events > 100 && twins > 100 && late > 10,
            "{events} {twins} {late}"
        );
    }

    /// Both plans hold slots of the one slab, and a slot a record left —
    /// deleted, or evicted by every window — is the next one a new record
    /// takes. Seeded churn over two subscriptions whose count windows evict
    /// at different rates: new records, re-sends with a new row, deletes
    /// and re-sends of deleted ids. Every event must be what an oracle keyed
    /// by id says: the window's other ids whose latest record the rule
    /// accepts against the new one ([`Classifier::matches`]). The long names
    /// are far apart, so the rule accepts twins only, which share every key.
    #[test]
    fn a_reused_slot_never_answers_for_its_last_record() {
        use cbv_hb::matcher::Classifier;
        use cbv_hb::EmbeddedRecord;
        use rand::RngExt;
        let (e, mut rng) = engine(22);
        let firsts = ["JONATHAN", "MARGARET", "PERCIVAL", "LUCINDA", "OSWALDO"];
        let lasts = ["SMITHERS", "JOHANSSON", "BROWNLOW", "KOWALCZYK"];
        let rules = [Rule::pred(0, 4), Rule::pred(1, 4)];
        let sizes = [5usize, 12];
        let subs: Vec<u64> = (0..2)
            .map(|i| {
                let window = WindowSpec::Count(sizes[i] as u64);
                e.subscribe(spec(rules[i].clone(), window), &mut rng)
                    .unwrap()
            })
            .collect();
        // Each window's ids, oldest first, and every id's latest record.
        let mut windows: [Vec<u64>; 2] = Default::default();
        let mut records: HashMap<u64, EmbeddedRecord> = HashMap::new();
        let (mut resent, mut revived, mut matched) = (0, 0, 0);
        let mut deleted = HashSet::new();
        for step in 0..2000 {
            let id = rng.random_range(0..30u64);
            if rng.random_range(0..5u32) == 0 {
                let held = windows.iter().any(|w| w.contains(&id));
                assert_eq!(e.remove(id), held, "step {step}");
                windows.iter_mut().for_each(|w| w.retain(|&x| x != id));
                if held {
                    deleted.insert(id);
                }
            } else {
                let rec = Record::new(
                    id,
                    [
                        firsts[rng.random_range(0..firsts.len())],
                        lasts[rng.random_range(0..lasts.len())],
                    ],
                );
                let b = e.schema.embed(&rec).unwrap();
                resent += usize::from(windows.iter().any(|w| w.contains(&id)));
                revived += usize::from(deleted.remove(&id));
                let out = e.observe(&rec, step).unwrap();
                for (i, window) in windows.iter_mut().enumerate() {
                    let classifier = Classifier::Rule(rules[i].clone());
                    let mut want: Vec<u64> = (window.iter().copied())
                        .filter(|&x| x != id && classifier.matches(&records[&x], &b))
                        .collect();
                    want.sort_unstable();
                    let got = (out.events.iter().find(|ev| ev.sub == subs[i]))
                        .map_or(&[][..], |ev| &ev.matched[..]);
                    assert_eq!(got, want, "step {step}, sub {i}");
                    matched += want.len();
                    window.retain(|&x| x != id);
                    window.push(id);
                    if window.len() > sizes[i] {
                        window.remove(0);
                    }
                }
                records.insert(id, b);
            }
            check_invariants(&e, step as usize);
        }
        assert!(
            resent > 200 && revived > 100 && matched > 500,
            "{resent} {revived} {matched}"
        );
    }

    /// A count window's plan stays at the window's size however long the
    /// stream runs: evicted ids leave their buckets, not just the slab.
    #[test]
    fn a_count_window_plan_does_not_grow_with_the_stream() {
        let (e, mut rng) = engine(21);
        let sub = e
            .subscribe(spec(Rule::pred(0, 4), WindowSpec::Count(8)), &mut rng)
            .unwrap();
        let l = e.sub_tables(sub).unwrap();
        let plan_stats = || {
            let state = e.state.lock();
            let stats = state.entries[0].compiled.plan().stats();
            let entries: usize = stats.iter().map(|s| s.entries).sum();
            let heap: u64 = stats.iter().map(|s| s.heap_bytes).sum();
            (entries, heap)
        };
        let name = |i: u64| format!("N{:X}", i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40);
        // Tables and arenas reach their working size a few windows in; from
        // then on evictions free what admissions take.
        let mut settled = 0;
        for i in 0..20_000u64 {
            e.observe(&Record::new(i, [name(i), name(i + 1)]), i)
                .unwrap();
            if i == 4_999 {
                settled = plan_stats().1;
            }
        }
        assert_eq!(e.len(), 8);
        let (entries, heap) = plan_stats();
        assert_eq!(entries, 8 * l);
        assert_eq!(heap, settled, "plan heap grew with the stream");
    }
}
