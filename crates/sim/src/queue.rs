//! The typed event queue under the request-timing engines.
//!
//! [`EventQueue`] is a min-heap of small `Copy` entries keyed
//! `(at, lane, seq)`: time first, then a lane (a session/actor
//! identifier, 0 when unused), then a push sequence number. Events at the
//! same instant therefore fire in `(lane, push order)` order, which is
//! the deterministic tiebreak the client-scaling experiments and their
//! determinism gates rely on. An event is a plain value of the engine's
//! own enum; whatever state it refers to lives in the engine, usually in
//! a [`Slab`] indexed by the event's payload.
//!
//! An open-loop engine also replays a schedule of external arrivals.
//! Rather than pushing every arrival up front, it walks the schedule with
//! an [`Arrivals`] cursor and [`EventQueue::pop_or_arrival`] merges the
//! two: the next arrival fires first whenever it is due at or before the
//! earliest queued event. That is exactly the order a heap would give if
//! the arrivals had been pushed before the run (they would hold the
//! lowest sequence numbers), without the heap ever holding them.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

struct Entry<E> {
    at: SimTime,
    lane: u64,
    seq: u64,
    ev: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64, u64) {
        (self.at, self.lane, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest
        // (time, lane, seq) pops first.
        other.key().cmp(&self.key())
    }
}

/// A deterministic queue of typed events.
///
/// # Examples
///
/// ```
/// use sim::queue::EventQueue;
/// use sim::time::SimTime;
///
/// let mut q: EventQueue<char> = EventQueue::new();
/// q.push(SimTime::from_nanos(5), 0, 'b');
/// q.push(SimTime::from_nanos(5), 0, 'c');
/// q.push(SimTime::from_nanos(1), 7, 'a');
/// let mut fired = Vec::new();
/// while let Some(ev) = q.pop() {
///     fired.push((q.now().as_nanos(), ev));
/// }
/// assert_eq!(fired, vec![(1, 'a'), (5, 'b'), (5, 'c')]);
/// assert_eq!(q.dispatched(), 3);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    seq: u64,
    dispatched: u64,
}

/// What [`EventQueue::pop_or_arrival`] hands back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Next<E> {
    /// Arrival `k` of the schedule is due.
    Arrival(usize),
    /// A queued event is due.
    Event(E),
}

impl<E: Copy> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            dispatched: 0,
        }
    }

    /// Current simulated time: the instant of the last dispatched event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Queues `ev` at instant `at` on `lane`. Among events at the same
    /// instant, lower lanes fire first; within a lane, push order wins.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn push(&mut self, at: SimTime, lane: u64, ev: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, lane, seq, ev });
    }

    /// Dispatches the earliest queued event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<E> {
        let e = self.heap.pop()?;
        debug_assert!(e.at >= self.now, "event queue went backwards");
        self.now = e.at;
        self.dispatched += 1;
        Some(e.ev)
    }

    /// Dispatches whichever comes first: the cursor's next arrival or the
    /// earliest queued event. An arrival due at exactly the instant of a
    /// queued event fires first.
    pub fn pop_or_arrival(&mut self, arrivals: &mut Arrivals<'_>) -> Option<Next<E>> {
        match (arrivals.peek(), self.heap.peek()) {
            (Some(at), queued) if queued.is_none_or(|e| at <= e.at) => {
                debug_assert!(at >= self.now, "arrival schedule went backwards");
                self.now = at;
                self.dispatched += 1;
                let k = arrivals.next;
                arrivals.next += 1;
                Some(Next::Arrival(k))
            }
            _ => self.pop().map(Next::Event),
        }
    }

    /// Events dispatched so far, arrivals included.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("dispatched", &self.dispatched)
            .finish()
    }
}

/// A cursor over a non-decreasing schedule of arrival instants; arrival
/// `k` is due at `schedule[k]`.
#[derive(Clone, Debug)]
pub struct Arrivals<'a> {
    schedule: &'a [SimTime],
    next: usize,
}

impl<'a> Arrivals<'a> {
    /// A cursor at the first arrival of `schedule`.
    ///
    /// # Panics
    ///
    /// Panics if `schedule` is not non-decreasing.
    pub fn new(schedule: &'a [SimTime]) -> Self {
        assert!(
            schedule.is_sorted(),
            "arrival schedule must be non-decreasing"
        );
        Arrivals { schedule, next: 0 }
    }

    /// The instant of the next arrival, if any remain.
    fn peek(&self) -> Option<SimTime> {
        self.schedule.get(self.next).copied()
    }
}

/// A vector of reusable slots with a free list.
///
/// A freed slot keeps its value, so buffers inside it keep their
/// capacity; [`Slab::alloc`] hands a recycled slot back exactly as it was
/// left and the caller resets what it needs.
///
/// # Examples
///
/// ```
/// use sim::queue::Slab;
///
/// let mut slab: Slab<Vec<u8>> = Slab::new();
/// let a = slab.alloc();
/// slab[a].extend_from_slice(b"abc");
/// slab.free(a);
/// let b = slab.alloc();
/// assert_eq!(a, b, "freed slots are reused");
/// assert!(slab[b].capacity() >= 3, "with their buffers");
/// ```
#[derive(Clone, Debug)]
pub struct Slab<T> {
    slots: Vec<T>,
    free: Vec<u32>,
}

impl<T: Default> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// A slot index, recycled if one is free.
    pub fn alloc(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.slots.push(T::default());
            (self.slots.len() - 1) as u32
        })
    }

    /// Returns slot `i` to the free list.
    pub fn free(&mut self, i: u32) {
        debug_assert!(!self.free.contains(&i), "slot freed twice");
        self.free.push(i);
    }
}

impl<T: Default> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::ops::Index<u32> for Slab<T> {
    type Output = T;
    fn index(&self, i: u32) -> &T {
        &self.slots[i as usize]
    }
}

impl<T> std::ops::IndexMut<u32> for Slab<T> {
    fn index_mut(&mut self, i: u32) -> &mut T {
        &mut self.slots[i as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn drain<E: Copy>(q: &mut EventQueue<E>) -> Vec<(u64, E)> {
        let mut out = Vec::new();
        while let Some(ev) = q.pop() {
            out.push((q.now().as_nanos(), ev));
        }
        out
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        for d in [5u64, 1, 3, 2, 4] {
            q.push(t(d), 0, d);
        }
        let fired: Vec<u64> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(fired, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn ties_fire_in_push_order() {
        let mut q = EventQueue::new();
        for i in 0..10u32 {
            q.push(t(7), 0, i);
        }
        let fired: Vec<u32> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(fired, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn same_instant_ties_break_by_lane_then_seq() {
        let mut q = EventQueue::new();
        for (lane, tag) in [(3u64, 0u32), (1, 1), (2, 2), (1, 3), (0, 4)] {
            q.push(t(5), lane, (lane, tag));
        }
        let fired: Vec<(u64, u32)> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(
            fired,
            vec![(0, 4), (1, 1), (1, 3), (2, 2), (3, 0)],
            "lanes ascending; push order within a lane"
        );
    }

    #[test]
    fn time_dominates_lane() {
        let mut q = EventQueue::new();
        q.push(t(10), 0, 0u64);
        q.push(t(2), 7, 7u64);
        assert_eq!(drain(&mut q), vec![(2, 7), (10, 0)]);
    }

    #[test]
    fn handlers_can_chain_events() {
        let mut q = EventQueue::new();
        q.push(t(1), 0, 1u32);
        let mut world = 0;
        while let Some(ev) = q.pop() {
            world += ev;
            if ev < 100 {
                let at = q.now() + crate::Duration::from_nanos(1);
                q.push(at, 0, ev * 10);
            }
        }
        assert_eq!(world, 111);
        assert_eq!(q.now(), t(3));
        assert_eq!(q.dispatched(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(t(10), 0, ());
        q.pop();
        q.push(t(5), 0, ());
    }

    #[test]
    fn empty_queue_leaves_clock_at_zero() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.dispatched(), 0);
    }

    #[test]
    fn arrival_at_a_queued_instant_fires_first() {
        let schedule = [t(5), t(5), t(9)];
        let mut arrivals = Arrivals::new(&schedule);
        let mut q = EventQueue::new();
        q.push(t(5), 0, 'x');
        q.push(t(3), 0, 'w');
        let mut fired = Vec::new();
        while let Some(next) = q.pop_or_arrival(&mut arrivals) {
            fired.push((q.now().as_nanos(), next));
        }
        assert_eq!(
            fired,
            vec![
                (3, Next::Event('w')),
                (5, Next::Arrival(0)),
                (5, Next::Arrival(1)),
                (5, Next::Event('x')),
                (9, Next::Arrival(2)),
            ]
        );
        assert_eq!(q.dispatched(), 5, "arrivals count as dispatched");
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn unsorted_schedule_panics() {
        let _ = Arrivals::new(&[t(2), t(1)]);
    }

    /// The reference model: every entry in a `Vec`, sorted by the full
    /// key, with the arrivals entered first on lane 0 (so they hold the
    /// lowest sequence numbers, as if pushed before the run).
    #[test]
    fn matches_a_sorted_vec_model() {
        let mut rng = SplitMix64::new(0x5EED);
        for _ in 0..200 {
            let mut schedule: Vec<SimTime> = (0..rng.next_below(6))
                .map(|_| t(rng.next_below(8)))
                .collect();
            schedule.sort();
            let mut model: Vec<((u64, u64, u64), Next<u32>)> = schedule
                .iter()
                .enumerate()
                .map(|(k, at)| ((at.as_nanos(), 0, k as u64), Next::Arrival(k)))
                .collect();
            let mut q = EventQueue::new();
            for i in 0..rng.next_below(12) as u32 {
                let (at, lane) = (rng.next_below(8), rng.next_below(3));
                q.push(t(at), lane, i);
                model.push(((at, lane, model.len() as u64), Next::Event(i)));
            }
            model.sort_by_key(|&(key, _)| key);
            let mut arrivals = Arrivals::new(&schedule);
            let mut got = Vec::new();
            while let Some(next) = q.pop_or_arrival(&mut arrivals) {
                got.push((q.now().as_nanos(), next));
            }
            let want: Vec<(u64, Next<u32>)> =
                model.iter().map(|&((at, _, _), e)| (at, e)).collect();
            assert_eq!(got, want);
            assert_eq!(q.dispatched(), want.len() as u64);
        }
    }

    #[test]
    fn slab_recycles_freed_slots_as_they_were_left() {
        let mut s: Slab<u64> = Slab::new();
        let a = s.alloc();
        let b = s.alloc();
        s[a] = 1;
        s[b] = 2;
        assert_ne!(a, b);
        s.free(a);
        let c = s.alloc();
        assert_eq!(c, a);
        assert_eq!(s[c], 1, "a recycled slot comes back as it was left");
        assert_eq!(s.alloc(), 2, "a fresh slot once none is free");
    }
}
