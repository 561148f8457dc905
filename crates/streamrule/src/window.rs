//! Window specifications and per-subscription window bookkeeping.
//!
//! A subscription scopes matching to a sliding window over the stream:
//! either the last `n` admitted records ([`WindowSpec::Count`]) or the
//! records whose event time falls within the trailing `w` milliseconds of
//! the subscription's watermark ([`WindowSpec::TimeMs`]). Records that
//! leave the window are *evicted*: the engine takes them out of the
//! subscription's plan, so they can never match again.
//!
//! Late arrivals (event time behind the watermark) are handled per the
//! subscription's [`LateArrival`] policy: `Drop` refuses them outright,
//! `ApplyIfInWindow` admits them as long as they would still fall inside
//! the current window span.

use cbv_hb::error::{Error, Result};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// The wire-level window description carried by a subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WindowSpec {
    /// Keep the last `n` admitted records.
    Count(u64),
    /// Keep records whose event time is within the trailing `w`
    /// milliseconds of the subscription's watermark (the maximum event
    /// time admitted so far).
    TimeMs(u64),
}

impl WindowSpec {
    /// Rejects zero-sized windows, which could never hold the record that
    /// just arrived.
    ///
    /// # Errors
    /// Returns [`Error::InvalidParameter`] for `Count(0)` / `TimeMs(0)`.
    pub fn validate(&self) -> Result<()> {
        match self {
            WindowSpec::Count(0) => Err(Error::InvalidParameter(
                "count window must hold at least one record".into(),
            )),
            WindowSpec::TimeMs(0) => Err(Error::InvalidParameter(
                "time window must span at least one millisecond".into(),
            )),
            _ => Ok(()),
        }
    }
}

/// What to do with a record whose event time is behind the watermark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum LateArrival {
    /// Refuse any out-of-order record.
    Drop,
    /// Admit an out-of-order record as long as it still falls inside the
    /// current window span (time windows; for count windows every arrival
    /// is in order by definition).
    #[default]
    ApplyIfInWindow,
}

/// Per-subscription window bookkeeping: which record ids are currently
/// *live* (matchable) for this subscription, in admission order.
///
/// Re-admitting an id refreshes its stamp; the superseded queue entry is
/// skipped lazily at eviction time.
#[derive(Debug)]
pub struct WindowState {
    spec: WindowSpec,
    late: LateArrival,
    /// Admission log: `(id, stamp, event_ms)`. May contain superseded
    /// entries for re-admitted ids.
    entries: VecDeque<(u64, u64, u64)>,
    /// Current stamp per live id; the authority on membership.
    live: HashMap<u64, u64>,
}

impl WindowState {
    /// Creates an empty window.
    pub fn new(spec: WindowSpec, late: LateArrival) -> Self {
        Self {
            spec,
            late,
            entries: VecDeque::new(),
            live: HashMap::new(),
        }
    }

    /// The window specification.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// Whether a record with `event_ms` is admitted given the watermark
    /// *before* this arrival.
    pub fn admits(&self, event_ms: u64, watermark_ms: u64) -> bool {
        if event_ms >= watermark_ms {
            return true;
        }
        match (self.late, self.spec) {
            // Count windows have no event-time semantics: arrival order is
            // the only order, so nothing is ever late.
            (_, WindowSpec::Count(_)) => true,
            (LateArrival::Drop, WindowSpec::TimeMs(_)) => false,
            (LateArrival::ApplyIfInWindow, WindowSpec::TimeMs(w)) => {
                event_ms > watermark_ms.saturating_sub(w)
            }
        }
    }

    /// Admits a record, refreshing the stamp when the id is already live.
    pub fn push(&mut self, id: u64, stamp: u64, event_ms: u64) {
        self.entries.push_back((id, stamp, event_ms));
        self.live.insert(id, stamp);
    }

    /// True when the id is currently live in this window.
    pub fn contains(&self, id: u64) -> bool {
        self.live.contains_key(&id)
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when no records are live.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Evicts records that have left the window given the current
    /// watermark, returning the ids that stopped being live. Superseded
    /// entries (a re-admitted id's old stamp) are discarded silently. A
    /// record just admitted is never among them.
    pub fn evict(&mut self, watermark_ms: u64) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(&(id, stamp, event_ms)) = self.entries.front() {
            // Skip entries superseded by a re-admission.
            if self.live.get(&id) != Some(&stamp) {
                self.entries.pop_front();
                continue;
            }
            let expired = match self.spec {
                WindowSpec::Count(n) => self.live.len() as u64 > n,
                // The window is (watermark - w, watermark]; below `w` it
                // reaches back to 0, so nothing `admits` took expires here.
                WindowSpec::TimeMs(w) => watermark_ms
                    .checked_sub(w)
                    .is_some_and(|edge| event_ms <= edge),
            };
            if !expired {
                break;
            }
            self.entries.pop_front();
            self.live.remove(&id);
            out.push(id);
        }
        out
    }

    /// Drops an id from the window without waiting for expiry (external
    /// delete). Returns whether it was live.
    pub fn forget(&mut self, id: u64) -> bool {
        self.live.remove(&id).is_some()
    }

    /// All currently live ids (order unspecified).
    pub fn live_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.live.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_windows_are_invalid() {
        assert!(WindowSpec::Count(0).validate().is_err());
        assert!(WindowSpec::TimeMs(0).validate().is_err());
        assert!(WindowSpec::Count(1).validate().is_ok());
        assert!(WindowSpec::TimeMs(1).validate().is_ok());
    }

    #[test]
    fn count_window_keeps_last_n() {
        let mut w = WindowState::new(WindowSpec::Count(2), LateArrival::Drop);
        for (i, id) in [10u64, 11, 12].iter().enumerate() {
            w.push(*id, i as u64, 0);
        }
        assert_eq!(w.evict(0), vec![10]);
        assert!(w.contains(11) && w.contains(12) && !w.contains(10));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn time_window_evicts_by_watermark() {
        let mut w = WindowState::new(WindowSpec::TimeMs(100), LateArrival::ApplyIfInWindow);
        w.push(1, 0, 1000);
        w.push(2, 1, 1050);
        // Watermark 1100: the 100ms window is (1000, 1100] — id 1 expires.
        assert_eq!(w.evict(1100), vec![1]);
        assert!(w.contains(2));
    }

    #[test]
    fn what_a_time_window_admits_it_does_not_expire_at_once() {
        // Before the watermark reaches `w` the window reaches back to 0.
        let mut w = WindowState::new(WindowSpec::TimeMs(100), LateArrival::ApplyIfInWindow);
        assert!(w.admits(0, 0));
        w.push(1, 0, 0);
        assert_eq!(w.evict(0), Vec::<u64>::new());
        assert_eq!(w.evict(99), Vec::<u64>::new());
        assert_eq!(w.evict(100), vec![1]);
        // A late record admitted inside the span survives the same watermark.
        assert!(w.admits(101, 150));
        w.push(2, 1, 101);
        assert_eq!(w.evict(150), Vec::<u64>::new());
    }

    #[test]
    fn late_arrival_policies() {
        let drop = WindowState::new(WindowSpec::TimeMs(100), LateArrival::Drop);
        assert!(drop.admits(1000, 900), "in-order is always admitted");
        assert!(!drop.admits(899, 900), "Drop refuses any late record");
        let lenient = WindowState::new(WindowSpec::TimeMs(100), LateArrival::ApplyIfInWindow);
        assert!(lenient.admits(850, 900), "still inside the window span");
        assert!(!lenient.admits(800, 900), "outside the window span");
        // Count windows have no lateness.
        let count = WindowState::new(WindowSpec::Count(5), LateArrival::Drop);
        assert!(count.admits(0, u64::MAX));
    }

    #[test]
    fn readmission_refreshes_stamp() {
        let mut w = WindowState::new(WindowSpec::Count(2), LateArrival::Drop);
        w.push(1, 0, 0);
        w.push(2, 1, 0);
        w.push(1, 2, 0);
        assert_eq!(w.len(), 2, "re-admission is not a second record");
        // id 1 was refreshed, so the count-2 window evicts id 2 first.
        w.push(3, 3, 0);
        assert_eq!(w.evict(0), vec![2]);
        assert!(w.contains(1) && w.contains(3));
    }

    #[test]
    fn forget_removes_immediately() {
        let mut w = WindowState::new(WindowSpec::Count(10), LateArrival::Drop);
        w.push(1, 0, 0);
        assert!(w.forget(1));
        assert!(!w.forget(1));
        assert!(w.is_empty());
        assert_eq!(w.evict(0), Vec::<u64>::new());
    }

    #[test]
    fn specs_serialize_for_the_wire() {
        let w: WindowSpec =
            serde_json::from_str(&serde_json::to_string(&WindowSpec::Count(64)).unwrap()).unwrap();
        assert_eq!(w, WindowSpec::Count(64));
        let l: LateArrival =
            serde_json::from_str(&serde_json::to_string(&LateArrival::Drop).unwrap()).unwrap();
        assert_eq!(l, LateArrival::Drop);
    }
}
