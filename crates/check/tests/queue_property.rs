//! The typed event queue against a sorted-`Vec` reference model.
//!
//! Every timing engine's determinism rests on the dispatch order of
//! `sim::queue::EventQueue`, so the properties here replay arbitrary
//! workloads through the queue and through the plainest possible model —
//! every pending entry in a `Vec`, the minimum taken by its full key —
//! and demand the same dispatch sequence:
//!
//! * events pushed at the same instants on several lanes, with handlers
//!   pushing follow-ups (including zero-delay ones), fire by
//!   `(time, lane, push order)`;
//! * an arrival cursor merged into the queue behaves as if every arrival
//!   had been pushed before the run on lane 0, so an arrival due at the
//!   instant of a queued stage completion fires first;
//! * the closed-loop runner's tie-break: a chain's lane is its id, fixed
//!   when it was issued, so same-instant steps fire in issue order however
//!   the pushes interleave.

use check::gen::*;
use check::{prop_assert_eq, property};

use sim::queue::{Arrivals, EventQueue, Next};
use sim::{Duration, SimTime};

/// A model entry: `(at, lane, seq)` key and the event it carries.
type Entry = ((u64, u64, u64), Next<usize>);

/// Removes and returns the minimum-key entry.
fn pop_min(model: &mut Vec<Entry>) -> Option<Entry> {
    let i = (0..model.len()).min_by_key(|&i| model[i].0)?;
    Some(model.swap_remove(i))
}

property! {
    #![cases(96)]

    /// Seeded events at colliding instants on a few lanes, each with a
    /// chain of follow-up delays its handler pushes in turn, merged with
    /// an arrival schedule whose instants collide with theirs.
    fn prop_queue_matches_the_sorted_vec_model(
        arrivals in vec_of(ints(0u64..8), 0..10),
        events in vec_of((ints(0u64..8), ints(0u64..3), vec_of(ints(0u64..4), 0..4)), 0..12),
    ) {
        let mut schedule: Vec<SimTime> = arrivals.iter().map(|&t| SimTime::from_nanos(t)).collect();
        schedule.sort();
        let n_arr = schedule.len() as u64;

        // The model: arrivals first, on lane 0, holding the lowest seqs.
        let mut model: Vec<Entry> = schedule
            .iter()
            .enumerate()
            .map(|(k, at)| ((at.as_nanos(), 0, k as u64), Next::Arrival(k)))
            .collect();
        let mut seq = n_arr;
        let mut q: EventQueue<usize> = EventQueue::new();
        for (i, (at, lane, _)) in events.iter().enumerate() {
            q.push(SimTime::from_nanos(*at), *lane, i);
            model.push(((*at, *lane, seq), Next::Event(i)));
            seq += 1;
        }

        // Both sides run the same handler: event `i` pushes its next
        // follow-up on its own lane until its delays run out.
        let mut q_step = vec![0usize; events.len()];
        let mut m_step = vec![0usize; events.len()];
        let mut cursor = Arrivals::new(&schedule);
        let mut got = Vec::new();
        while let Some(next) = q.pop_or_arrival(&mut cursor) {
            got.push((q.now().as_nanos(), next));
            if let Next::Event(i) = next {
                let (_, lane, delays) = &events[i];
                if let Some(&d) = delays.get(q_step[i]) {
                    q_step[i] += 1;
                    q.push(q.now() + Duration::from_nanos(d), *lane, i);
                }
            }
        }
        let mut want = Vec::new();
        while let Some(((at, _, _), next)) = pop_min(&mut model) {
            want.push((at, next));
            if let Next::Event(i) = next {
                let (_, lane, delays) = &events[i];
                if let Some(&d) = delays.get(m_step[i]) {
                    m_step[i] += 1;
                    model.push(((at + d, *lane, seq), Next::Event(i)));
                    seq += 1;
                }
            }
        }
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(q.dispatched(), want.len() as u64, "every dispatch is counted");
    }

    /// Runner-style chains: chain `id` is issued at `issue` and walks its
    /// stage demands one step at a time, each step pushed on lane `id`.
    /// The reference orders pending steps by `(time, id)` alone.
    fn prop_chain_id_breaks_same_instant_ties(
        chains in vec_of((ints(0u64..6), vec_of(ints(0u64..3), 0..5)), 1..10),
    ) {
        let mut issue_order: Vec<usize> = (0..chains.len()).collect();
        issue_order.sort_by_key(|&id| chains[id].0);

        let mut q: EventQueue<usize> = EventQueue::new();
        // Push later ids first where instants tie, so push order and id
        // order disagree.
        for &id in issue_order.iter().rev() {
            q.push(SimTime::from_nanos(chains[id].0), id as u64, id);
        }
        let mut step = vec![0usize; chains.len()];
        let mut got = Vec::new();
        while let Some(id) = q.pop() {
            got.push((q.now().as_nanos(), id));
            if let Some(&d) = chains[id].1.get(step[id]) {
                step[id] += 1;
                q.push(q.now() + Duration::from_nanos(d), id as u64, id);
            }
        }

        let mut pending: Vec<(u64, usize)> = chains.iter().enumerate().map(|(id, c)| (c.0, id)).collect();
        let mut m_step = vec![0usize; chains.len()];
        let mut want = Vec::new();
        while let Some(i) = (0..pending.len()).min_by_key(|&i| pending[i]) {
            let (at, id) = pending.swap_remove(i);
            want.push((at, id));
            if let Some(&d) = chains[id].1.get(m_step[id]) {
                m_step[id] += 1;
                pending.push((at + d, id));
            }
        }
        prop_assert_eq!(got, want);
    }
}
