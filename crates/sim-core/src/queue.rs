//! Deterministic discrete-event queue.
//!
//! Internally a bucketed calendar queue: a time wheel of `N_BUCKETS`
//! buckets of `1 << DAY_SHIFT` picoseconds each, an occupancy bitmap to
//! jump to the next non-empty bucket in a few word scans, and a sorted
//! overflow heap for events beyond the wheel's window. The bucket under
//! the cursor is kept staged in a vector sorted descending by
//! `(time, seq)`, so `peek_time` is a field read and `pop` is a
//! `Vec::pop`. Pushes behind the cursor rewind it; pushes before the
//! window (possible only through deliberately out-of-order use) trigger
//! a full rebuild. The observable contract is identical to a binary
//! heap ordered by `(time, seq)`.
//!
//! Bucket vectors are recycled through a spare stack: a drained vector
//! goes back to the stack with its capacity, and a bucket that receives
//! its first event takes one from it. So the vectors allocated at once
//! are bounded by the buckets occupied at once, not by every bucket the
//! cursor has ever crossed. The stack itself holds at most
//! `len + SPARE_FLOOR` entries of capacity: a vector that would push it
//! past that is dropped, and a pop that leaves it past that drops spares,
//! so after a burst drains the queue keeps memory for what is pending,
//! not for the burst.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// log2 of the bucket width in picoseconds (8.192 ns per bucket).
const DAY_SHIFT: u32 = 13;
/// Number of wheel buckets; the window spans ~17 us. Sized so the
/// wheel covers the event horizon of a busy run (the 32-GPU fabric
/// queue peaks near 23,000 pending events, clustered near the cursor)
/// while keeping construction and teardown of per-component queues
/// cheap; rarer far-future events (timers) ride the overflow heap.
const N_BUCKETS: usize = 1 << 11;
const DAY_MASK: u64 = N_BUCKETS as u64 - 1;
/// Spare capacity, in entries, kept beyond the pending events, so a
/// queue that holds little still recycles its vectors instead of
/// reallocating them.
const SPARE_FLOOR: usize = 1024;

fn day_of(t: SimTime) -> u64 {
    t.as_ps() >> DAY_SHIFT
}

/// A priority queue of `(SimTime, E)` events with deterministic FIFO
/// ordering among events scheduled for the same instant.
///
/// ```
/// use sim_core::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ns(5), 'x');
/// q.push(SimTime::from_ns(5), 'y');
/// assert_eq!(q.pop(), Some((SimTime::from_ns(5), 'x')));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(5), 'y')));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Entries of the cursor day, sorted descending by `(time, seq)`:
    /// the earliest event is last. Non-empty whenever `len > 0`.
    staged: Vec<Entry<E>>,
    /// Day the staged entries belong to.
    cur_day: u64,
    /// Buckets hold days `[win_lo, win_lo + N_BUCKETS)`, at index
    /// `day & DAY_MASK`.
    win_lo: u64,
    buckets: Vec<Vec<Entry<E>>>,
    /// Emptied bucket vectors, kept with their capacity for the next
    /// bucket that receives an event.
    spare: Vec<Vec<Entry<E>>>,
    /// Total capacity of `spare`, in entries; at most
    /// `len + SPARE_FLOOR`.
    spare_cap: usize,
    /// One bit per bucket; set iff the bucket is non-empty.
    occ: Vec<u64>,
    /// Events at days `>= win_lo + N_BUCKETS`, earliest first.
    overflow: BinaryHeap<Entry<E>>,
    /// The same-instant lane: pushes at the time of the last pop, all at
    /// one time, in push (so sequence) order.
    lane: VecDeque<Entry<E>>,
    /// Entries in the calendar (staged, buckets and overflow); the lane
    /// is counted apart.
    len: usize,
    seq: u64,
    /// `(time, seq)` of the last popped event.
    last: (SimTime, u64),
    pops: u64,
    peak: usize,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        // BinaryHeap is a max-heap; reverse so the earliest time (then the
        // lowest sequence number) surfaces first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            staged: Vec::new(),
            cur_day: 0,
            win_lo: 0,
            buckets: (0..N_BUCKETS).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            spare_cap: 0,
            occ: vec![0u64; N_BUCKETS / 64],
            overflow: BinaryHeap::new(),
            lane: VecDeque::new(),
            len: 0,
            seq: 0,
            last: (SimTime::ZERO, 0),
            pops: 0,
            peak: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.reserve();
        let e = Entry { time, seq, event };
        if time == self.last.0 && self.lane.front().is_none_or(|f| f.time == time) {
            self.lane.push_back(e);
            self.note_peak();
            return;
        }
        self.insert(e);
    }

    /// Consumes the sequence number a [`push`](Self::push) made now would
    /// take, and schedules nothing. [`push_reserved`](Self::push_reserved)
    /// can later schedule an event at exactly that position.
    pub fn reserve(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedules `event` at `(time, seq)`, a position taken by
    /// [`reserve`](Self::reserve) and not yet used.
    pub fn push_reserved(&mut self, time: SimTime, seq: u64, event: E) {
        debug_assert!(seq < self.seq, "sequence number {seq} was never reserved");
        self.insert(Entry { time, seq, event });
    }

    /// Sequence number of the last popped event: inside the handling of
    /// an event, the position the queue has been processed through.
    pub fn last_seq(&self) -> u64 {
        self.last.1
    }

    fn note_peak(&mut self) {
        self.peak = self.peak.max(self.len + self.lane.len());
    }

    /// Puts `e` into the calendar.
    fn insert(&mut self, e: Entry<E>) {
        let (time, seq) = (e.time, e.seq);
        self.len += 1;
        self.note_peak();
        if self.len == 1 {
            // Empty queue: re-anchor the window on this event.
            self.win_lo = day_of(time);
            self.cur_day = self.win_lo;
            self.staged.push(e);
            return;
        }
        let day = day_of(time);
        if day == self.cur_day {
            let i = self
                .staged
                .partition_point(|x| (x.time, x.seq) > (time, seq));
            self.staged.insert(i, e);
        } else if day >= self.win_lo + N_BUCKETS as u64 {
            self.overflow.push(e);
        } else if day > self.cur_day {
            self.bucket_insert(e, day);
        } else if day >= self.win_lo {
            // Rewind: the event precedes the staged day. Unstage it and
            // restart the cursor on the new day.
            let prev = self.cur_day;
            let b = (prev & DAY_MASK) as usize;
            std::mem::swap(&mut self.buckets[b], &mut self.staged);
            self.occ[b / 64] |= 1 << (b % 64);
            self.cur_day = day;
            self.bucket_insert(e, day);
            self.restage();
        } else {
            // Before the window entirely: rebuild around the new minimum.
            self.rebuild(e);
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let from_lane = match (self.lane.front(), self.staged.last()) {
            (Some(l), Some(s)) => (l.time, l.seq) < (s.time, s.seq),
            (lane, _) => lane.is_some(),
        };
        let e = if from_lane {
            self.lane.pop_front().expect("lane front checked")
        } else {
            let e = self.staged.pop()?;
            self.len -= 1;
            if self.staged.is_empty() && self.len > 0 {
                self.restage();
            }
            if self.spare_cap > self.len + SPARE_FLOOR {
                self.trim_spare();
            }
            e
        };
        self.pops += 1;
        self.last = (e.time, e.seq);
        Some((e.time, e.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let staged = self.staged.last().map(|e| e.time);
        match self.lane.front() {
            Some(l) => Some(staged.map_or(l.time, |t| t.min(l.time))),
            None => staged,
        }
    }

    /// Removes the earliest event only if it is scheduled at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= now => self.pop(),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len + self.lane.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every pending event.
    pub fn clear(&mut self) {
        self.len = 0;
        self.lane.clear();
        self.staged.clear();
        for w in 0..self.occ.len() {
            let mut word = self.occ[w];
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                let mut v = std::mem::take(&mut self.buckets[w * 64 + bit]);
                v.clear();
                self.recycle(v);
                word &= word - 1;
            }
            self.occ[w] = 0;
        }
        self.overflow.clear();
        self.trim_spare();
    }

    /// Total events popped over the queue's lifetime (perf accounting).
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// High-water mark of pending events (perf accounting).
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    fn bucket_insert(&mut self, e: Entry<E>, day: u64) {
        debug_assert!(day >= self.cur_day && day < self.win_lo + N_BUCKETS as u64);
        let b = (day & DAY_MASK) as usize;
        let bucket = &mut self.buckets[b];
        if bucket.capacity() == 0 {
            if let Some(v) = self.spare.pop() {
                self.spare_cap -= v.capacity();
                *bucket = v;
            }
        }
        bucket.push(e);
        self.occ[b / 64] |= 1 << (b % 64);
    }

    /// Returns an emptied bucket vector to the spare stack, or drops it
    /// if the stack would exceed its budget.
    fn recycle(&mut self, v: Vec<Entry<E>>) {
        debug_assert!(v.is_empty());
        let cap = v.capacity();
        if cap > 0 && self.spare_cap + cap <= self.len + SPARE_FLOOR {
            self.spare_cap += cap;
            self.spare.push(v);
        }
    }

    /// Drops spare vectors until the stack is within its budget again.
    fn trim_spare(&mut self) {
        while self.spare_cap > self.len + SPARE_FLOOR {
            let v = self.spare.pop().expect("spare capacity without spares");
            self.spare_cap -= v.capacity();
        }
    }

    /// Re-establishes the staged-day invariant after the cursor day ran
    /// dry (or moved): finds the next non-empty bucket — sliding the
    /// window over the overflow heap if the wheel is exhausted — and
    /// stages it, sorted.
    fn restage(&mut self) {
        debug_assert!(self.staged.is_empty() && self.len > 0);
        loop {
            if let Some(day) = self.next_occupied_day() {
                self.cur_day = day;
                let b = (day & DAY_MASK) as usize;
                let drained =
                    std::mem::replace(&mut self.staged, std::mem::take(&mut self.buckets[b]));
                self.recycle(drained);
                self.occ[b / 64] &= !(1 << (b % 64));
                self.staged
                    .sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
                return;
            }
            // Wheel exhausted: everything pending is in the overflow.
            // Slide the window to start at its earliest day.
            let top = self.overflow.peek().expect("len > 0 but nothing pending");
            self.win_lo = day_of(top.time);
            self.cur_day = self.win_lo;
            let win_end = self.win_lo + N_BUCKETS as u64;
            while let Some(e) = self.overflow.peek() {
                if day_of(e.time) >= win_end {
                    break;
                }
                let e = self.overflow.pop().expect("peeked");
                let day = day_of(e.time);
                self.bucket_insert(e, day);
            }
        }
    }

    /// First day in `[cur_day, win_lo + N_BUCKETS)` whose bucket is
    /// non-empty, via the occupancy bitmap.
    fn next_occupied_day(&self) -> Option<u64> {
        let win_end = self.win_lo + N_BUCKETS as u64;
        let mut day = self.cur_day;
        while day < win_end {
            let b = (day & DAY_MASK) as usize;
            let bit = (b % 64) as u32;
            let word = self.occ[b / 64] >> bit;
            if word != 0 {
                let cand = day + word.trailing_zeros() as u64;
                return (cand < win_end).then_some(cand);
            }
            day += 64 - bit as u64;
        }
        None
    }

    /// Re-anchors the whole structure on a push before the window (only
    /// reachable by popping forward and then pushing into the past).
    fn rebuild(&mut self, e: Entry<E>) {
        let mut all: Vec<Entry<E>> = Vec::with_capacity(self.len);
        all.push(e);
        all.append(&mut self.staged);
        for w in 0..self.occ.len() {
            let mut word = self.occ[w];
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                let mut v = std::mem::take(&mut self.buckets[w * 64 + bit]);
                all.append(&mut v);
                self.recycle(v);
                word &= word - 1;
            }
            self.occ[w] = 0;
        }
        all.extend(self.overflow.drain());
        let min_day = all
            .iter()
            .map(|x| day_of(x.time))
            .min()
            .expect("rebuild with at least one entry");
        self.win_lo = min_day;
        self.cur_day = min_day;
        let win_end = min_day + N_BUCKETS as u64;
        for x in all {
            let day = day_of(x.time);
            if day == min_day {
                self.staged.push(x);
            } else if day < win_end {
                self.bucket_insert(x, day);
            } else {
                self.overflow.push(x);
            }
        }
        self.staged
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30), 3);
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_ns(1), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), 'a');
        q.push(SimTime::from_ns(20), 'b');
        assert_eq!(q.pop_due(SimTime::from_ns(5)), None);
        assert_eq!(
            q.pop_due(SimTime::from_ns(10)),
            Some((SimTime::from_ns(10), 'a'))
        );
        assert_eq!(q.pop_due(SimTime::from_ns(15)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_ns(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(7)));
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn events_beyond_window_slide_in_order() {
        // Spread events over many windows (the wheel covers ~67 us) and
        // mix in same-bucket neighbours; pops must be globally sorted.
        let mut q = EventQueue::new();
        let times: Vec<u64> = (0..500)
            .map(|i: u64| (i * 7_919_333) % 10_000_000) // up to 10 ms, in ps
            .collect();
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime::from_ps(*t), i);
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t.as_ps())).collect();
        assert_eq!(popped, sorted);
        assert_eq!(q.pops(), 500);
        assert_eq!(q.peak_len(), 500);
    }

    #[test]
    fn push_into_the_past_after_pops_still_orders() {
        // Exercises the rewind and rebuild paths: pop far forward, then
        // push behind the cursor (and before the window).
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(500), 'z');
        q.push(SimTime::from_ns(10), 'a');
        assert_eq!(q.pop().map(|(_, e)| e), Some('a'));
        // Behind the cursor but inside the window.
        q.push(SimTime::from_us(499), 'y');
        // Far before the window start.
        q.push(SimTime::from_ns(20), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['b', 'y', 'z']);
    }

    /// The original binary-heap implementation, kept as the ordering
    /// oracle for the calendar queue. Like the queue it hands out
    /// sequence numbers, and it also takes them explicitly, for reserved
    /// positions.
    struct ReferenceQueue {
        heap: BinaryHeap<std::cmp::Reverse<(u64, u64, u32)>>,
        seq: u64,
    }

    impl ReferenceQueue {
        fn new() -> Self {
            ReferenceQueue {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }
        fn reserve(&mut self) -> u64 {
            self.seq += 1;
            self.seq - 1
        }
        fn push(&mut self, t: SimTime, v: u32) {
            let seq = self.reserve();
            self.push_at(t, seq, v);
        }
        fn push_at(&mut self, t: SimTime, seq: u64, v: u32) {
            self.heap.push(std::cmp::Reverse((t.as_ps(), seq, v)));
        }
        fn pop(&mut self) -> Option<(u64, u64, u32)> {
            self.heap.pop().map(|std::cmp::Reverse(x)| x)
        }
    }

    /// The lane's invariant: one time, ascending sequence numbers.
    fn check_lane<E>(q: &EventQueue<E>) {
        let mut it = q.lane.iter();
        if let Some(first) = it.next() {
            let mut prev = first.seq;
            for e in it {
                assert_eq!(e.time, first.time, "the lane holds two times");
                assert!(e.seq > prev, "the lane is out of sequence order");
                prev = e.seq;
            }
        }
    }

    #[test]
    fn reserved_position_orders_before_later_pushes() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        q.push(SimTime::ZERO, 'a');
        assert_eq!(q.pop().map(|(_, e)| e), Some('a'));
        let seq = q.reserve();
        // Same-instant pushes enter the lane behind the reservation.
        q.push(SimTime::ZERO, 'c');
        q.push(t, 'd');
        q.push_reserved(SimTime::ZERO, seq, 'b');
        assert_eq!(q.len(), 3);
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['b', 'c', 'd']);
        assert_eq!(q.last_seq(), seq + 2);
    }

    #[test]
    fn lane_takes_only_the_last_popped_instant() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), 0);
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), 0)));
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(20), 2);
        assert_eq!(q.lane.len(), 1);
        // Into the past while the lane holds 10 ns: the calendar takes it,
        // and after it pops, a push at its time must not join the lane.
        q.push(SimTime::from_ns(5), 3);
        assert_eq!(q.pop(), Some((SimTime::from_ns(5), 3)));
        q.push(SimTime::from_ns(5), 4);
        assert_eq!(q.lane.len(), 1);
        check_lane(&q);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(5)));
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![4, 1, 2]);
    }

    /// Capacity, in entries, held by the staged vector, every bucket and
    /// the spare stack.
    fn retained<E>(q: &EventQueue<E>) -> usize {
        q.staged.capacity()
            + q.buckets.iter().map(Vec::capacity).sum::<usize>()
            + q.spare.iter().map(Vec::capacity).sum::<usize>()
    }

    /// The spare budget, checked after every operation of the lockstep
    /// test: the spare stack holds at most `SPARE_FLOOR` entries of
    /// capacity beyond the pending events.
    fn check_spare_budget<E>(q: &EventQueue<E>) {
        assert!(
            q.spare_cap <= q.len + SPARE_FLOOR,
            "spare stack holds {} entries for {} pending",
            q.spare_cap,
            q.len
        );
    }

    /// Structural invariants of the recycling: occupancy bits match the
    /// buckets, an unoccupied bucket holds no allocation, every spare is
    /// empty with some capacity to offer, and the stack's tracked
    /// capacity is its real one and within budget.
    fn check_recycling<E>(q: &EventQueue<E>) {
        for (b, bucket) in q.buckets.iter().enumerate() {
            let occupied = q.occ[b / 64] >> (b % 64) & 1 == 1;
            assert_eq!(occupied, !bucket.is_empty(), "bucket {b} occupancy bit");
            assert!(
                occupied || bucket.capacity() == 0,
                "bucket {b} kept capacity"
            );
        }
        assert!(q.spare.iter().all(|v| v.is_empty() && v.capacity() > 0));
        assert_eq!(
            q.spare_cap,
            q.spare.iter().map(Vec::capacity).sum::<usize>(),
            "tracked spare capacity"
        );
        check_spare_budget(q);
    }

    #[test]
    fn sliding_burst_does_not_retain_a_vector_per_bucket() {
        // Each round stages day `r` (one event) with a 512-event burst
        // queued on day `r + 1`, then drains day `r` and the burst. The
        // cursor crosses every bucket twice over; memory must follow the
        // one burst in flight, not every bucket the burst has visited.
        const BURST: u64 = 512;
        let day_ps = 1u64 << DAY_SHIFT;
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 0u64);
        for r in 0..4_096u64 {
            let next = (r + 1) * day_ps;
            for i in 0..BURST {
                q.push(SimTime::from_ps(next + i % day_ps), i);
            }
            // Drain day `r` and all of the burst except its last event,
            // which carries the next round's staged day.
            for _ in 0..BURST {
                q.pop().expect("burst pending");
            }
            assert_eq!(q.len(), 1);
        }
        let peak = q.peak_len();
        assert_eq!(peak, BURST as usize + 1);
        let kept = retained(&q);
        assert!(
            kept <= 4 * peak,
            "queue retains {kept} entries of capacity for a peak of {peak}"
        );
        check_recycling(&q);
    }

    #[test]
    fn drained_burst_leaves_capacity_for_the_pending_events_only() {
        // A burst of 16 events in each of 2,000 buckets, plus a far event
        // that stays pending; the burst then drains. The spare stack
        // would otherwise keep a vector per drained bucket, 2,000 of
        // them, whatever is still pending.
        const BUCKETS: u64 = 2_000;
        const PER_BUCKET: u64 = 16;
        let day_ps = 1u64 << DAY_SHIFT;
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(1_000), u64::MAX);
        for b in 0..BUCKETS {
            for i in 0..PER_BUCKET {
                q.push(SimTime::from_ps(b * day_ps + i), b);
            }
        }
        assert_eq!(q.len(), (BUCKETS * PER_BUCKET) as usize + 1);
        for _ in 0..BUCKETS * PER_BUCKET {
            q.pop().expect("burst pending");
        }
        assert_eq!(q.len(), 1);
        let kept = retained(&q);
        assert!(
            kept <= SPARE_FLOOR + 64,
            "queue retains {kept} entries of capacity for one pending event"
        );
        check_recycling(&q);
        // The pending event still pops, and a later burst still recycles.
        assert_eq!(q.pop().map(|(_, e)| e), Some(u64::MAX));
        check_recycling(&q);
    }

    /// Drives the calendar queue and the reference heap in lockstep over
    /// `steps` seeded operations per seed: pushes near the cursor, at the
    /// last popped instant (the lane), far ahead, behind it (rewinds) and
    /// before the window (rebuilds), bursts into one day, reservations
    /// redeemed later (into the staged day, a rewound day or the
    /// overflow, and below sequence numbers already in the lane) or never,
    /// pops, and occasional clears. Recycled bucket vectors are reused by
    /// every later insert, so any stale entry left in one would surface as
    /// a mismatch.
    fn lockstep_with_reference(seeds: std::ops::Range<u64>, steps: u32) {
        use crate::rng::JitterRng;
        use crate::time::SimDuration;
        for seed in seeds {
            let mut rng = JitterRng::seed_from(0xCA15 ^ seed);
            let mut q = EventQueue::new();
            let mut r = ReferenceQueue::new();
            let mut last = SimTime::ZERO;
            // Reservations not yet redeemed: (time, seq), the time chosen
            // when reserving, as an owner does.
            let mut held: Vec<(SimTime, u64)> = Vec::new();
            let mut step = 0u32;
            while step < steps {
                match rng.next_below(24) {
                    0..=11 => {
                        // Push: cluster near the last popped time, with
                        // same-instant repeats (the lane), far-future
                        // outliers to cross the wheel window, and pushes
                        // into the past (rewind inside the window, or a
                        // rebuild before it), also while the lane holds
                        // entries.
                        let t = match rng.next_below(14) {
                            0..=2 => last,
                            3..=8 => last + SimDuration::from_ps(rng.next_below(50_000)),
                            9 | 10 => last + SimDuration::from_ps(rng.next_below(500_000_000)),
                            11 => SimTime::from_ps(
                                last.as_ps().saturating_sub(rng.next_below(100_000)),
                            ),
                            12 => SimTime::from_ps(
                                last.as_ps().saturating_sub(rng.next_below(100_000_000)),
                            ),
                            _ => SimTime::from_ps(rng.next_below(1_000_000_000)),
                        };
                        q.push(t, step);
                        r.push(t, step);
                    }
                    12 => {
                        // Burst: fill one day a little ahead of the cursor.
                        let day = last + SimDuration::from_ps(rng.next_below(200_000));
                        for _ in 0..rng.next_below(64) {
                            let t = day + SimDuration::from_ps(rng.next_below(1 << DAY_SHIFT));
                            q.push(t, step);
                            r.push(t, step);
                        }
                    }
                    13 if rng.next_below(50) == 0 => {
                        q.clear();
                        r.heap.clear();
                        held.clear();
                    }
                    14 | 15 => {
                        // Reserve at the last popped instant (a later
                        // redemption lands below the lane's sequence
                        // numbers, or in a rewound day once the cursor
                        // moves on), a little ahead, or past the window.
                        let t = match rng.next_below(4) {
                            0 | 1 => last,
                            2 => last + SimDuration::from_ps(rng.next_below(100_000)),
                            _ => last + SimDuration::from_ps(rng.next_below(500_000_000)),
                        };
                        let seq = q.reserve();
                        assert_eq!(seq, r.reserve(), "seed {seed} step {step}");
                        held.push((t, seq));
                    }
                    16 | 17 if !held.is_empty() => {
                        let (t, seq) = held.swap_remove(rng.next_below(held.len() as u64) as usize);
                        // Some reservations are abandoned, as a passed
                        // position is.
                        if rng.next_below(4) != 0 {
                            q.push_reserved(t, seq, step);
                            r.push_at(t, seq, step);
                        }
                    }
                    _ => {
                        let got = q.pop();
                        let want = r.pop();
                        assert_eq!(
                            got.map(|(t, v)| (t.as_ps(), v)),
                            want.map(|(t, _, v)| (t, v)),
                            "seed {seed} step {step}"
                        );
                        if let Some((t, seq, _)) = want {
                            assert_eq!(q.last_seq(), seq, "seed {seed} step {step}");
                            last = SimTime::from_ps(t);
                        }
                    }
                }
                assert_eq!(q.len(), r.heap.len(), "seed {seed} step {step}");
                check_spare_budget(&q);
                check_lane(&q);
                assert_eq!(
                    q.peek_time().map(|t| t.as_ps()),
                    r.heap.peek().map(|e| e.0 .0),
                    "seed {seed} step {step}"
                );
                step += 1;
            }
            check_recycling(&q);
            // Drain both; the full streams must agree.
            while let Some(want) = r.pop() {
                let got = q.pop().expect("calendar queue ran dry early");
                assert_eq!((got.0.as_ps(), got.1), (want.0, want.2), "seed {seed}");
            }
            assert!(q.pop().is_none());
            check_recycling(&q);
        }
    }

    #[test]
    fn matches_reference_heap_under_random_interleavings() {
        lockstep_with_reference(0..8, 4_000);
    }

    /// The long sweep of the lockstep test; CI runs it in release.
    #[test]
    #[ignore = "long seed sweep; run with --ignored in release"]
    fn matches_reference_heap_long_sweep() {
        lockstep_with_reference(0..4_000, 20_000);
    }
}
