//! Online event streaming: incremental drains while producers emit.
//!
//! An [`EventStream`] wraps a shared [`Recorder`] and re-exposes its
//! event flow as an *ordered, resumable* stream. The recorder's own
//! `drain()` hands back whatever happens to be published, sorted — fine
//! at quiescence, but a live consumer polling mid-run would see gaps
//! (a lane's pop stalls at a slot another producer has claimed but not
//! yet published) and would have no way to know whether a missing
//! sequence number is *late* or *lost*. The stream resolves that with
//! two pieces of bookkeeping:
//!
//! - **A sequence watermark.** Because the recorder allocates the
//!   global sequence number inside the ring's slot claim, a dropped
//!   event never consumes one: the published sequence space is dense.
//!   The stream buffers out-of-order arrivals in a heap and releases
//!   exactly the contiguous run starting at its watermark — a missing
//!   number is always *late*, never lost, so strict `seq` order can be
//!   guaranteed without timeouts or generation tags.
//! - **A per-subscriber cursor.** Released events land in a bounded
//!   history window; each [`Subscriber`] remembers how far it has
//!   read. A subscriber that polls too rarely and falls out of the
//!   window doesn't corrupt anyone else's view — its next poll skips
//!   ahead and the skipped count is attributed to that subscriber's
//!   [`missed`](Subscriber::missed) counter, mirroring how the rings
//!   attribute producer-side drops.
//!
//! Producers are never blocked or slowed by any of this: the stream
//! only ever touches the consumer side of the rings (under the
//! recorder's existing drain mutex) and its own mutex, which no
//! emitting thread takes.
//!
//! The stream is the recorder's sole consumer from its first poll
//! onwards — it takes over `drain()`. Mixing direct `Recorder::drain`
//! calls with a live stream on the same recorder splits events
//! between the two consumers.

use crate::event::Event;
use crate::recorder::Recorder;
use crate::sync::lock_unpoisoned;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Arc, Mutex};

/// Default number of released events kept for lagging subscribers.
pub(crate) const DEFAULT_HISTORY: usize = 1 << 16;

/// Heap entry ordered by sequence number alone.
struct BySeq(Event);

impl PartialEq for BySeq {
    fn eq(&self, other: &BySeq) -> bool {
        self.0.seq == other.0.seq
    }
}
impl Eq for BySeq {}
impl PartialOrd for BySeq {
    fn partial_cmp(&self, other: &BySeq) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for BySeq {
    fn cmp(&self, other: &BySeq) -> std::cmp::Ordering {
        self.0.seq.cmp(&other.0.seq)
    }
}

struct SubSlot {
    /// Next global release index this subscriber will read.
    cursor: u64,
    /// Released events this subscriber skipped because it lagged out
    /// of the history window.
    missed: u64,
}

struct StreamState {
    /// Out-of-order arrivals waiting for the watermark to reach them.
    pending: BinaryHeap<Reverse<BySeq>>,
    /// The next sequence number eligible for release.
    next_seq: u64,
    /// Released events, oldest first; index 0 is release number
    /// `released - history.len()`.
    history: VecDeque<Event>,
    history_cap: usize,
    /// Total events released into the history window, ever.
    released: u64,
    subs: Vec<Option<SubSlot>>,
}

/// A seq-ordered, multi-subscriber view over a [`Recorder`]'s lanes.
///
/// Cloning is cheap (the state is shared); independent consumers
/// should instead call [`subscribe`](EventStream::subscribe) so each
/// gets its own cursor.
#[derive(Clone)]
pub struct EventStream {
    rec: Arc<Recorder>,
    state: Arc<Mutex<StreamState>>,
}

/// A point-in-time summary of a stream's progress.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Events released in strict sequence order so far.
    pub released: u64,
    /// Out-of-order arrivals buffered, waiting for earlier sequence
    /// numbers still in flight.
    pub pending: u64,
    /// Events the recorder's rings accepted (includes not-yet-drained).
    pub recorded: u64,
    /// Events the recorder's rings rejected (full lane).
    pub dropped: u64,
    /// Released events currently held for lagging subscribers.
    pub history_len: u64,
}

impl std::fmt::Debug for EventStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("EventStream")
            .field("released", &s.released)
            .field("pending", &s.pending)
            .finish()
    }
}

impl EventStream {
    /// A stream over `rec` keeping 2^16 released events
    /// for lagging subscribers.
    pub fn new(rec: Arc<Recorder>) -> EventStream {
        EventStream::with_history(rec, DEFAULT_HISTORY)
    }

    /// A stream with an explicit history window (minimum 1). A tiny
    /// window exercises the lag-attribution path.
    pub fn with_history(rec: Arc<Recorder>, history: usize) -> EventStream {
        EventStream {
            rec,
            state: Arc::new(Mutex::new(StreamState {
                pending: BinaryHeap::new(),
                next_seq: 0,
                history: VecDeque::new(),
                history_cap: history.max(1),
                released: 0,
                subs: Vec::new(),
            })),
        }
    }

    /// The recorder this stream consumes.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.rec
    }

    /// Register a new subscriber, positioned at the current release
    /// point (it will see only events released after this call).
    pub fn subscribe(&self) -> Subscriber {
        let mut st = lock_unpoisoned(&self.state);
        let cursor = st.released;
        let id = st.subs.iter().position(Option::is_none).unwrap_or_else(|| {
            st.subs.push(None);
            st.subs.len() - 1
        });
        st.subs[id] = Some(SubSlot { cursor, missed: 0 });
        Subscriber {
            stream: self.clone(),
            id,
        }
    }

    /// Drain the rings once and advance the watermark, releasing every
    /// newly contiguous event into the history window. Returns the
    /// number of events released by this call.
    pub fn pump(&self) -> usize {
        let batch = self.rec.drain();
        let mut st = lock_unpoisoned(&self.state);
        for ev in batch {
            st.pending.push(Reverse(BySeq(ev)));
        }
        let mut released = 0usize;
        while let Some(Reverse(BySeq(top))) = st.pending.peek() {
            if top.seq != st.next_seq {
                debug_assert!(
                    top.seq > st.next_seq,
                    "seq {} released twice (watermark {})",
                    top.seq,
                    st.next_seq
                );
                break;
            }
            let Reverse(BySeq(ev)) = st.pending.pop().unwrap();
            st.history.push_back(ev);
            st.next_seq += 1;
            st.released += 1;
            released += 1;
            while st.history.len() > st.history_cap {
                st.history.pop_front();
            }
        }
        released
    }

    /// Current stream progress (does not pump).
    pub fn stats(&self) -> StreamStats {
        let st = lock_unpoisoned(&self.state);
        StreamStats {
            released: st.released,
            pending: st.pending.len() as u64,
            recorded: self.rec.recorded(),
            dropped: self.rec.dropped(),
            history_len: st.history.len() as u64,
        }
    }
}

/// One consumer's cursor into an [`EventStream`].
///
/// Dropping a subscriber releases its slot; the stream and other
/// subscribers are unaffected.
pub struct Subscriber {
    stream: EventStream,
    id: usize,
}

impl std::fmt::Debug for Subscriber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscriber")
            .field("id", &self.id)
            .field("missed", &self.missed())
            .finish()
    }
}

impl Subscriber {
    /// Pump the stream, then return every event released since this
    /// subscriber's last poll, in strict sequence order. If the
    /// subscriber lagged out of the history window, the skipped events
    /// are added to [`missed`](Subscriber::missed) and the poll
    /// resumes from the oldest retained event.
    pub fn poll(&mut self) -> Vec<Event> {
        self.stream.pump();
        let mut st = lock_unpoisoned(&self.stream.state);
        let history_start = st.released - st.history.len() as u64;
        let released = st.released;
        let slot = st.subs[self.id].as_mut().expect("live subscriber slot");
        if slot.cursor < history_start {
            slot.missed += history_start - slot.cursor;
            slot.cursor = history_start;
        }
        let offset = (slot.cursor - history_start) as usize;
        slot.cursor = released;
        let out: Vec<Event> = st.history.iter().skip(offset).copied().collect();
        out
    }

    /// Released events this subscriber never saw because it polled too
    /// rarely for the stream's history window.
    pub fn missed(&self) -> u64 {
        let st = lock_unpoisoned(&self.stream.state);
        st.subs[self.id].as_ref().map_or(0, |s| s.missed)
    }

    /// The stream this subscriber reads from.
    pub fn stream(&self) -> &EventStream {
        &self.stream
    }
}

impl Drop for Subscriber {
    fn drop(&mut self) {
        if let Ok(mut st) = self.stream.state.lock() {
            st.subs[self.id] = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, NO_SHARD};

    #[test]
    fn single_subscriber_sees_everything_in_order() {
        let rec = Arc::new(Recorder::with_capacity(2, 64));
        let stream = EventStream::new(Arc::clone(&rec));
        let mut sub = stream.subscribe();
        for t in 0..10 {
            rec.emit(EventKind::Submitted, t, NO_SHARD);
        }
        let a = sub.poll();
        for t in 10..20 {
            rec.emit(EventKind::Submitted, t, NO_SHARD);
        }
        let b = sub.poll();
        let all: Vec<u64> = a.iter().chain(b.iter()).map(|e| e.seq).collect();
        assert_eq!(all, (0..20).collect::<Vec<u64>>());
        assert_eq!(sub.missed(), 0);
        assert!(sub.poll().is_empty());
    }

    #[test]
    fn two_subscribers_have_independent_cursors() {
        let rec = Arc::new(Recorder::with_capacity(2, 64));
        let stream = EventStream::new(Arc::clone(&rec));
        let mut fast = stream.subscribe();
        let mut slow = stream.subscribe();
        for t in 0..5 {
            rec.emit(EventKind::Ready, t, NO_SHARD);
        }
        assert_eq!(fast.poll().len(), 5);
        for t in 5..8 {
            rec.emit(EventKind::Ready, t, NO_SHARD);
        }
        assert_eq!(fast.poll().len(), 3);
        // The slow subscriber still gets the full run.
        assert_eq!(slow.poll().len(), 8);
    }

    #[test]
    fn lagging_subscriber_gets_missed_attribution() {
        let rec = Arc::new(Recorder::with_capacity(1, 1024));
        let stream = EventStream::with_history(Arc::clone(&rec), 4);
        let mut lagger = stream.subscribe();
        for t in 0..20 {
            rec.emit(EventKind::Ready, t, NO_SHARD);
        }
        stream.pump();
        let got = lagger.poll();
        // Only the window survives; the rest is attributed, not silent.
        assert_eq!(got.len(), 4);
        assert_eq!(got[0].seq, 16);
        assert_eq!(lagger.missed(), 16);
        assert_eq!(got.len() as u64 + lagger.missed(), 20);
    }

    #[test]
    fn late_subscriber_starts_at_the_release_point() {
        let rec = Arc::new(Recorder::with_capacity(1, 64));
        let stream = EventStream::new(Arc::clone(&rec));
        for t in 0..6 {
            rec.emit(EventKind::Ready, t, NO_SHARD);
        }
        stream.pump();
        let mut late = stream.subscribe();
        assert!(late.poll().is_empty());
        rec.emit(EventKind::Ready, 6, NO_SHARD);
        let got = late.poll();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 6);
    }

    #[test]
    fn dropped_events_do_not_stall_the_watermark() {
        // One tiny lane: pushes past capacity are dropped. With
        // seq-after-claim the drops consume no sequence numbers, so
        // the stream still releases a dense prefix.
        let rec = Arc::new(Recorder::with_capacity(1, 8));
        let stream = EventStream::new(Arc::clone(&rec));
        let mut sub = stream.subscribe();
        for t in 0..50 {
            rec.emit(EventKind::Ready, t, NO_SHARD);
        }
        let first = sub.poll();
        assert_eq!(first.len(), 8);
        assert_eq!(
            first.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (0..8).collect::<Vec<u64>>()
        );
        assert_eq!(rec.dropped(), 42);
        // The ring drained: new emissions flow and stay contiguous.
        for t in 50..55 {
            rec.emit(EventKind::Ready, t, NO_SHARD);
        }
        let second = sub.poll();
        assert_eq!(
            second.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (8..13).collect::<Vec<u64>>()
        );
        let stats = stream.stats();
        assert_eq!(stats.released, 13);
        assert_eq!(stats.pending, 0);
        assert_eq!(stats.recorded, 13);
    }

    #[test]
    fn subscriber_drop_frees_its_slot() {
        let rec = Arc::new(Recorder::with_capacity(1, 64));
        let stream = EventStream::new(Arc::clone(&rec));
        let a = stream.subscribe();
        drop(a);
        let b = stream.subscribe();
        // Slot is recycled, not leaked.
        assert_eq!(b.id, 0);
    }
}
