//! The ready-time calendar of `ExecMode::Fast`: the running cores that
//! wait on their `ready_at` (a branch penalty, a divide, or a superblock
//! that ran ahead of the clock) and are therefore not walked by Phase 4
//! until they come due.
//!
//! Most waits are short — a few cycles of branch penalty or run-ahead
//! between two memory operations — so the calendar is a bucket ring over
//! the next [`NEAR`] cycles, threaded through one link per core (push and
//! pop are O(1) and never allocate), with a min-heap keyed `(ready_at,
//! core id)` for the long waits (LR/SC backoff windows run thousands of
//! cycles ahead). Pre-sized to the core count: a running core is filed at
//! most once.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cycles ahead of the clock the bucket ring covers (one bit per bucket
/// in `Calendar::occupied`).
const NEAR: u64 = 64;

/// End-of-list marker in `Calendar::head` / `Calendar::link`.
const NONE: u32 = u32::MAX;

/// Running cores keyed by the cycle they come due.
///
/// The caller drains the calendar with [`Calendar::pop_due`] at every
/// cycle it steps, and only skips cycles in which nothing is due (the
/// fast-forward stops before [`Calendar::next`]). Under that contract a
/// core filed at the end of cycle `now` with `ready_at <= now + NEAR`
/// sits in bucket `ready_at % NEAR`, which is next drained exactly at
/// `ready_at`.
#[derive(Debug)]
pub(crate) struct Calendar {
    /// First core of each bucket, or [`NONE`].
    head: [u32; NEAR as usize],
    /// Next core in the same bucket, per core.
    link: Vec<u32>,
    /// Bit `b` is set iff bucket `b` is non-empty.
    occupied: u64,
    /// Cores due more than [`NEAR`] cycles after they were filed.
    far: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Calendar {
    /// An empty calendar for `num_cores` cores.
    pub fn new(num_cores: usize) -> Calendar {
        Calendar {
            head: [NONE; NEAR as usize],
            link: vec![NONE; num_cores],
            occupied: 0,
            far: BinaryHeap::with_capacity(num_cores),
        }
    }

    /// Files core `c`, due at `ready_at`, at the end of cycle `now`.
    pub fn push(&mut self, ready_at: u64, c: u32, now: u64) {
        debug_assert!(ready_at > now, "a filed core is not due yet");
        if ready_at - now <= NEAR {
            let b = (ready_at % NEAR) as usize;
            self.link[c as usize] = self.head[b];
            self.head[b] = c;
            self.occupied |= 1 << b;
        } else {
            self.far.push(Reverse((ready_at, c)));
        }
    }

    /// Moves every core due at `now` into `due`, in no particular order.
    pub fn pop_due(&mut self, now: u64, due: &mut Vec<u32>) {
        let b = (now % NEAR) as usize;
        let mut c = std::mem::replace(&mut self.head[b], NONE);
        self.occupied &= !(1 << b);
        while c != NONE {
            due.push(c);
            c = self.link[c as usize];
        }
        while let Some(&Reverse((ready_at, c))) = self.far.peek() {
            if ready_at > now {
                break;
            }
            self.far.pop();
            due.push(c);
        }
    }

    /// The earliest `ready_at` filed, as seen at the end of cycle `now`.
    pub fn next(&self, now: u64) -> Option<u64> {
        let near = (self.occupied != 0).then(|| {
            let first = (now + 1) % NEAR;
            let ahead = self.occupied.rotate_right(first as u32).trailing_zeros();
            now + 1 + u64::from(ahead)
        });
        let far = self.far.peek().map(|e| e.0 .0);
        match (near, far) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Removes every core.
    pub fn clear(&mut self) {
        self.head = [NONE; NEAR as usize];
        self.occupied = 0;
        self.far.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Steps a calendar cycle by cycle, returning `(cycle, sorted due
    /// cores)` for every cycle with something due.
    fn drain(cal: &mut Calendar, from: u64, to: u64) -> Vec<(u64, Vec<u32>)> {
        let mut out = Vec::new();
        for now in from..=to {
            let mut due = Vec::new();
            cal.pop_due(now, &mut due);
            if !due.is_empty() {
                due.sort_unstable();
                out.push((now, due));
            }
        }
        out
    }

    #[test]
    fn cores_come_due_exactly_at_ready_at() {
        let mut cal = Calendar::new(8);
        let now = 100;
        for (c, ready_at) in [(3, 102), (1, 102), (5, 164), (0, 165), (7, 5_000), (2, 130)] {
            cal.push(ready_at, c, now);
        }
        assert_eq!(cal.next(now), Some(102));
        assert_eq!(
            drain(&mut cal, now + 1, 200),
            vec![
                (102, vec![1, 3]),
                (130, vec![2]),
                (164, vec![5]),
                (165, vec![0])
            ]
        );
        assert_eq!(cal.next(200), Some(5_000));
        assert_eq!(drain(&mut cal, 201, 5_000), vec![(5_000, vec![7])]);
        assert_eq!(cal.next(5_000), None);
    }

    #[test]
    fn next_wraps_around_the_ring() {
        let mut cal = Calendar::new(4);
        // Bucket 1 (cycle 129) lies behind bucket 62 (cycle 126) in index
        // order but after it in time.
        cal.push(129, 0, 124);
        cal.push(126, 1, 124);
        assert_eq!(cal.next(124), Some(126));
        let mut due = Vec::new();
        cal.pop_due(125, &mut due);
        cal.pop_due(126, &mut due);
        assert_eq!(due, vec![1]);
        assert_eq!(cal.next(126), Some(129));
    }

    #[test]
    fn a_jump_to_just_before_the_next_entry_loses_nothing() {
        let mut cal = Calendar::new(4);
        cal.push(1_000, 0, 10);
        cal.push(60, 1, 10);
        let next = cal.next(10).expect("filed");
        assert_eq!(next, 60);
        // Skip straight to the cycle before it, as the fast-forward does.
        assert_eq!(drain(&mut cal, next, next), vec![(60, vec![1])]);
        // File a near core after the jump, then skip again.
        cal.push(100, 2, 60);
        let next = cal.next(60).expect("filed");
        assert_eq!(next, 100);
        assert_eq!(drain(&mut cal, next, next), vec![(100, vec![2])]);
        assert_eq!(cal.next(100), Some(1_000));
        assert_eq!(drain(&mut cal, 1_000, 1_000), vec![(1_000, vec![0])]);
    }

    #[test]
    fn clear_empties_both_levels() {
        let mut cal = Calendar::new(4);
        cal.push(20, 0, 10);
        cal.push(2_000, 1, 10);
        cal.clear();
        assert_eq!(cal.next(10), None);
        assert!(drain(&mut cal, 11, 2_000).is_empty());
    }
}
