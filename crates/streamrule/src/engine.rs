//! The windowed subscription engine.
//!
//! A [`WindowedEngine`] wraps a [`SharedStreamMatcher`]: one shared
//! record slab and base blocking plan, plus any number of live
//! subscriptions, each with its own compiled plan ([`CompiledRule`]) and
//! window ([`WindowState`]). Observing a record:
//!
//! 1. upserts it into the shared matcher (base matches come back, same
//!    semantics as the plain streaming path);
//! 2. for every subscription — advances the window (evictions flow through
//!    the existing tombstone delete path, [`SharedStreamMatcher::remove`],
//!    once **no** subscription retains the record), applies the
//!    late-arrival policy, probes the subscription's plan against its
//!    window, emits a [`SubMatch`] event, and admits the record.
//!
//! Retention is the union of the live windows: with zero subscriptions
//! nothing is retained, so the engine's memory is bounded by the windows
//! rather than the stream length.

use cbv_hb::error::Result;
use cbv_hb::matcher::MatchStats;
use cbv_hb::pipeline::LinkageConfig;
use cbv_hb::schema::RecordSchema;
use cbv_hb::{Record, SharedStreamMatcher};
use parking_lot::Mutex;
use rand::Rng;
use std::collections::HashMap;

use crate::compiler::{CompiledRule, SubscriptionSpec};
use crate::window::WindowState;

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
    /// Matches against the engine's base rule (the wrapped matcher's
    /// normal streaming semantics).
    pub base_matches: Vec<u64>,
    /// Per-subscription match events (only subscriptions with at least one
    /// match appear).
    pub events: Vec<SubMatch>,
    /// Records evicted from the shared store by window expiry during this
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

struct Subs {
    next_id: u64,
    /// Monotone admission stamp shared by all windows.
    stamp: u64,
    /// Highest event time observed (drives lateness and time eviction).
    watermark_ms: u64,
    entries: Vec<SubEntry>,
    /// How many live windows hold each record; at zero the record leaves
    /// the shared store through the delete path.
    retain: HashMap<u64, usize>,
}

/// The windowed subscription engine. All methods take `&self`; internal
/// state is a single mutex (subscription bookkeeping) over the shared
/// matcher's own lock, in that order.
pub struct WindowedEngine {
    matcher: SharedStreamMatcher,
    subs: Mutex<Subs>,
    delta: f64,
    schema: RecordSchema,
}

impl WindowedEngine {
    /// Builds an engine over a fresh shared matcher. `config.delta` also
    /// becomes the failure budget for each subscription's compiled plan.
    ///
    /// # Errors
    /// Propagates schema/rule validation and plan compilation errors.
    pub fn new<R: Rng + ?Sized>(
        schema: RecordSchema,
        config: LinkageConfig,
        rng: &mut R,
    ) -> Result<Self> {
        let delta = config.delta;
        let matcher = SharedStreamMatcher::new(schema.clone(), config, rng)?;
        Ok(Self {
            matcher,
            subs: Mutex::new(Subs {
                next_id: 1,
                stamp: 0,
                watermark_ms: 0,
                entries: Vec::new(),
                retain: HashMap::new(),
            }),
            delta,
            schema,
        })
    }

    /// Registers a subscription: validates the window, compiles the rule
    /// into its pruned plan, and returns the subscription id.
    ///
    /// # Errors
    /// Propagates window validation and rule compilation errors.
    pub fn subscribe<R: Rng + ?Sized>(&self, spec: SubscriptionSpec, rng: &mut R) -> Result<u64> {
        spec.window.validate()?;
        // Compile outside the subscription lock: plan construction is the
        // expensive part and needs no engine state.
        let compiled = CompiledRule::compile(&self.schema, spec.rule, self.delta, spec.cap, rng)?;
        let mut subs = self.subs.lock();
        let id = subs.next_id;
        subs.next_id += 1;
        subs.entries.push(SubEntry {
            id,
            compiled,
            window: WindowState::new(spec.window, spec.late),
            stats: MatchStats::default(),
        });
        Ok(id)
    }

    /// The schema records are embedded against.
    pub fn schema(&self) -> &RecordSchema {
        &self.schema
    }

    /// Removes a subscription, releasing its window holds. Records no
    /// other subscription retains are evicted through the delete path.
    /// Returns whether the subscription existed.
    pub fn unsubscribe(&self, sub: u64) -> bool {
        let mut subs = self.subs.lock();
        let Some(idx) = subs.entries.iter().position(|e| e.id == sub) else {
            return false;
        };
        let entry = subs.entries.swap_remove(idx);
        let ids: Vec<u64> = entry.window.live_ids().collect();
        for id in ids {
            Self::release(&mut subs.retain, &self.matcher, id);
        }
        true
    }

    fn release(retain: &mut HashMap<u64, usize>, matcher: &SharedStreamMatcher, id: u64) -> bool {
        match retain.get_mut(&id) {
            Some(n) if *n > 1 => {
                *n -= 1;
                false
            }
            Some(_) => {
                retain.remove(&id);
                matcher.remove(id);
                true
            }
            None => false,
        }
    }

    /// Number of live subscriptions.
    pub fn subscriptions(&self) -> usize {
        self.subs.lock().entries.len()
    }

    /// Records currently retained in the shared store.
    pub fn len(&self) -> usize {
        self.matcher.len()
    }

    /// True when the shared store holds no records.
    pub fn is_empty(&self) -> bool {
        self.matcher.is_empty()
    }

    /// Accumulated matching counters for a subscription's probes.
    pub fn sub_stats(&self, sub: u64) -> Option<MatchStats> {
        self.subs
            .lock()
            .entries
            .iter()
            .find(|e| e.id == sub)
            .map(|e| e.stats)
    }

    /// Total LSH tables a subscription's compiled plan probes per record
    /// (`Σ L` over the structures its rule requires).
    pub fn sub_tables(&self, sub: u64) -> Option<usize> {
        self.subs
            .lock()
            .entries
            .iter()
            .find(|e| e.id == sub)
            .map(|e| e.compiled.tables())
    }

    /// Observes one record with event time `event_ms`: base-matches and
    /// indexes it (upsert semantics — streams legitimately re-send ids),
    /// then fans out to every subscription.
    ///
    /// # Errors
    /// Returns [`cbv_hb::Error::FieldCountMismatch`] on malformed records.
    pub fn observe(&self, record: &Record, event_ms: u64) -> Result<ObserveOutcome> {
        let mut subs = self.subs.lock();
        let subs = &mut *subs;
        let row = self.matcher.embed_row(record)?;
        let base_matches = self.matcher.observe_upsert(record)?;
        subs.stamp += 1;
        let stamp = subs.stamp;
        let prior_watermark = subs.watermark_ms;
        subs.watermark_ms = prior_watermark.max(event_ms);
        let watermark = subs.watermark_ms;

        let mut out = ObserveOutcome {
            base_matches,
            ..ObserveOutcome::default()
        };
        let mut admitted = false;
        for entry in &mut subs.entries {
            // Late-arrival policy first: a refused record must not evict.
            if !entry.window.admits(event_ms, prior_watermark) {
                out.late_drops += 1;
                continue;
            }
            // Probe this subscription's plan against its current window.
            let window = &entry.window;
            let compiled = &entry.compiled;
            let matched = self.matcher.with_store(|store| {
                compiled.probe(
                    &row,
                    |id| {
                        if id != record.id && window.contains(id) {
                            store.get(id)
                        } else {
                            None
                        }
                    },
                    &mut entry.stats,
                )
            });
            if !matched.is_empty() {
                out.events.push(SubMatch {
                    sub: entry.id,
                    record_id: record.id,
                    matched,
                });
            }
            // Admit, then evict whatever the admission pushed out.
            entry.compiled.index(record.id, &row);
            if entry.window.push(record.id, stamp, event_ms) {
                *subs.retain.entry(record.id).or_insert(0) += 1;
            }
            admitted = true;
            for id in entry.window.evict(watermark) {
                if Self::release(&mut subs.retain, &self.matcher, id) {
                    out.evicted += 1;
                }
            }
        }
        // Retained by nobody (zero subscriptions, or every policy refused
        // it): take it straight back out of the shared store.
        if !admitted && !subs.retain.contains_key(&record.id) {
            self.matcher.remove(record.id);
        }
        Ok(out)
    }

    /// Time-based eviction tick: advances the watermark to `now_ms` and
    /// expires time windows, so an idle stream still sheds old records.
    /// Returns how many records left the shared store.
    pub fn evict_due(&self, now_ms: u64) -> u64 {
        let mut subs = self.subs.lock();
        let subs = &mut *subs;
        subs.watermark_ms = subs.watermark_ms.max(now_ms);
        let watermark = subs.watermark_ms;
        let mut evicted = 0;
        for entry in &mut subs.entries {
            for id in entry.window.evict(watermark) {
                if Self::release(&mut subs.retain, &self.matcher, id) {
                    evicted += 1;
                }
            }
        }
        evicted
    }

    /// Deletes a record everywhere: shared store (tombstone) and every
    /// subscription window. Returns whether any state changed.
    pub fn remove(&self, id: u64) -> bool {
        let mut subs = self.subs.lock();
        let mut any = false;
        for entry in &mut subs.entries {
            any |= entry.window.forget(id);
        }
        subs.retain.remove(&id);
        self.matcher.remove(id) || any
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
        let rule = Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]);
        let e = WindowedEngine::new(schema, LinkageConfig::rule_aware(rule), &mut rng).unwrap();
        (e, rng)
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

    #[test]
    fn base_matches_mirror_plain_streaming() {
        let (e, mut rng) = engine(7);
        e.subscribe(
            spec(
                Rule::and([Rule::pred(0, 4), Rule::pred(1, 4)]),
                WindowSpec::Count(10),
            ),
            &mut rng,
        )
        .unwrap();
        e.observe(&Record::new(1, ["JOHN", "SMITH"]), 0).unwrap();
        let out = e.observe(&Record::new(2, ["JON", "SMITH"]), 1).unwrap();
        assert_eq!(out.base_matches, vec![1], "engine base rule fires");
        assert_eq!(out.events.len(), 1, "subscription fires too");
        assert!(e.sub_stats(out.events[0].sub).unwrap().matched >= 1);
    }
}
