//! The buffers a probing thread carries from call to call.
//!
//! Every engine call that probes — [`crate::LinkagePipeline::link`],
//! [`crate::ShardedPipeline::link`], [`crate::dedup::deduplicate`], a
//! stream subscription's compiled rule — takes the calling thread's
//! [`ProbeBuffers`] for the call ([`with_probe_buffers`]) and puts them
//! back when it returns. So a probe of the same shape as the last one grows
//! nothing: no pool, no lock, and no wiring — a server's reactor and worker
//! threads hold their buffers because they are threads. A call made from
//! inside another (re-entry) gets a fresh, empty set, never a panic, and
//! the outer call's set wins the slot back. Any buffer larger than
//! [`RETAIN_BYTES`] is dropped when the call returns, so a one-off huge
//! batch does not stay pinned on a long-lived thread: a thread keeps at
//! most [`RETAIN_BYTES`] in each of its buffers.

use crate::blocking::ProbeScratch;
use std::cell::Cell;

/// The most bytes one buffer keeps between calls. A single-record probe's
/// buffers are a few kilobytes (`batch_rule`'s 278 keys are 4.4 KB, its
/// candidate buffers ~6 KB) and a 250-record slice's rows 4 KB; a buffer
/// past this bound was grown by a batch the thread is unlikely to see
/// again.
pub const RETAIN_BYTES: usize = 1 << 20;

/// One probing thread's reusable buffers.
#[derive(Debug, Default)]
pub struct ProbeBuffers {
    /// The batch's packed rows, one after the other
    /// ([`crate::RecordSchema::embed_rows`]).
    pub rows: Vec<u64>,
    /// The blocking and grouping buffers.
    pub scratch: ProbeScratch,
    /// The matched `(id_A, id_B)` pairs of the call.
    pub matches: Vec<(u64, u64)>,
}

impl ProbeBuffers {
    /// Empties the buffers and drops every one above [`RETAIN_BYTES`].
    fn trim(&mut self) {
        self.rows.clear();
        self.matches.clear();
        retain_at_most(&mut self.rows);
        retain_at_most(&mut self.matches);
        self.scratch.trim();
    }

    /// The capacity, in bytes, of the largest buffer.
    fn largest_bytes(&self) -> usize {
        (bytes(&self.rows))
            .max(bytes(&self.matches))
            .max(self.scratch.largest_bytes())
    }
}

/// The heap bytes `v` holds.
pub(crate) fn bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Drops `v`'s heap buffer if it holds more than [`RETAIN_BYTES`].
pub(crate) fn retain_at_most<T>(v: &mut Vec<T>) {
    if bytes(v) > RETAIN_BYTES {
        *v = Vec::new();
    }
}

thread_local! {
    /// Boxed, so taking the set out and putting it back moves a pointer.
    /// Moving the seven-`Vec` struct itself cost 45–70 ns a call, against
    /// 5–7 ns boxed, in a standalone loop on a 2-vCPU x86-64 VM.
    static BUFFERS: Cell<Option<Box<ProbeBuffers>>> = const { Cell::new(None) };
}

/// Runs `f` with the calling thread's probe buffers, empty, and keeps them
/// for the thread's next call. The thread's first call, re-entry and a
/// thread being torn down get a fresh set; the last drops it after the
/// call.
pub fn with_probe_buffers<T>(f: impl FnOnce(&mut ProbeBuffers) -> T) -> T {
    let mut buffers = BUFFERS
        .try_with(Cell::take)
        .ok()
        .flatten()
        .unwrap_or_default();
    let out = f(&mut buffers);
    buffers.trim();
    // No slot left (thread teardown): the buffers drop with the closure.
    let _ = BUFFERS.try_with(move |slot| slot.set(Some(buffers)));
    out
}

/// The capacity, in bytes, of the largest probe buffer the calling thread
/// keeps between calls: at most [`RETAIN_BYTES`].
pub fn largest_retained_bytes() -> usize {
    BUFFERS
        .try_with(|slot| {
            let buffers = slot.take();
            let largest = buffers.as_ref().map_or(0, |b| b.largest_bytes());
            slot.set(buffers);
            largest
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn re_entry_gets_a_fresh_set_and_the_outer_set_is_kept() {
        with_probe_buffers(|outer| outer.rows.reserve(100));
        with_probe_buffers(|outer| {
            assert!(outer.rows.capacity() >= 100, "kept from the last call");
            with_probe_buffers(|inner| {
                assert_eq!(inner.rows.capacity(), 0, "a fresh set");
                inner.rows.reserve(10);
            });
        });
        with_probe_buffers(|again| assert!(again.rows.capacity() >= 100));
    }

    #[test]
    fn a_buffer_past_the_bound_is_dropped_and_the_rest_kept() {
        with_probe_buffers(|b| {
            b.rows.resize(RETAIN_BYTES / 8 + 1, 7);
            b.matches.push((1, 2));
        });
        assert!(largest_retained_bytes() <= RETAIN_BYTES);
        with_probe_buffers(|b| {
            assert_eq!(b.rows.capacity(), 0);
            assert!(b.matches.capacity() > 0);
            assert!(b.matches.is_empty(), "handed out empty");
        });
    }

    #[test]
    fn a_panicking_call_leaves_a_usable_slot() {
        let caught = std::panic::catch_unwind(|| {
            with_probe_buffers(|b| {
                b.rows.push(1);
                panic!("boom");
            })
        });
        assert!(caught.is_err());
        with_probe_buffers(|b| assert!(b.rows.is_empty()));
    }
}
