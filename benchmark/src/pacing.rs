//! Open-loop pacing: requests are due on a fixed schedule whatever the
//! system under test does, and each is timed from when it was *due*, so a
//! stall charges its delay to every request it held up. How late the
//! generator itself ran is reported beside the latencies.

/// A fixed-rate schedule of `len` operations: operation `i` is due at
/// `i / rate` seconds into the phase.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    interval_ns: f64,
    len: usize,
    next: usize,
}

/// One operation handed out by [`Pacer::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Due {
    /// Position in the schedule.
    pub index: usize,
    /// When the operation was due, in ns into the phase.
    pub due_ns: u64,
    /// How long after its due time the generator got to it.
    pub late_ns: u64,
}

impl Pacer {
    /// `rate_per_s` operations per second for `duration_s` seconds.
    pub fn new(rate_per_s: f64, duration_s: f64) -> Self {
        assert!(rate_per_s > 0.0, "pacing rate must be positive");
        Pacer {
            interval_ns: 1e9 / rate_per_s,
            len: (rate_per_s * duration_s).round().max(1.0) as usize,
            next: 0,
        }
    }

    /// Operations on the schedule.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether every operation has been handed out.
    pub fn is_done(&self) -> bool {
        self.next >= self.len
    }

    /// When operation `index` is due, in ns into the phase.
    pub fn due_ns(&self, index: usize) -> u64 {
        (index as f64 * self.interval_ns) as u64
    }

    /// The end of the schedule, in ns into the phase.
    pub fn phase_ns(&self) -> u64 {
        self.due_ns(self.len)
    }

    /// The next operation if it is due at `now_ns`. After a stall the
    /// backlog comes out one call at a time, each operation keeping its
    /// original due time.
    pub fn poll(&mut self, now_ns: u64) -> Option<Due> {
        if self.is_done() {
            return None;
        }
        let due_ns = self.due_ns(self.next);
        if now_ns < due_ns {
            return None;
        }
        let index = self.next;
        self.next += 1;
        Some(Due {
            index,
            due_ns,
            late_ns: now_ns - due_ns,
        })
    }
}

/// Latency of an open-loop operation: completion minus *due* time, never
/// less than zero.
pub fn latency_from_due(due_ns: u64, done_ns: u64) -> u64 {
    done_ns.saturating_sub(due_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operations_come_due_on_schedule() {
        // 1000/s for 10 ms: ten operations, one every millisecond.
        let mut p = Pacer::new(1000.0, 0.01);
        assert_eq!(p.len(), 10);
        assert_eq!(p.phase_ns(), 10_000_000);
        let first = p.poll(0).expect("operation 0 is due at once");
        assert_eq!((first.index, first.due_ns, first.late_ns), (0, 0, 0));
        assert_eq!(p.poll(999_999), None, "operation 1 is not due yet");
        let second = p.poll(1_000_250).expect("operation 1 is due");
        assert_eq!(second.index, 1);
        assert_eq!(second.due_ns, 1_000_000);
        assert_eq!(second.late_ns, 250);
    }

    #[test]
    fn a_stall_is_charged_to_every_operation_it_held_up() {
        let mut p = Pacer::new(1000.0, 0.005);
        // The generator stalls until 3.5 ms: operations 0..=3 are overdue.
        let late: Vec<u64> = std::iter::from_fn(|| p.poll(3_500_000))
            .map(|d| d.late_ns)
            .collect();
        assert_eq!(late, vec![3_500_000, 2_500_000, 1_500_000, 500_000]);
        assert!(!p.is_done());
        // Answered at 4 ms, operation 0 took 4 ms from its due time even
        // though it was only submitted at 3.5 ms.
        assert_eq!(latency_from_due(0, 4_000_000), 4_000_000);
        assert_eq!(p.poll(4_000_000).map(|d| d.index), Some(4));
        assert!(p.is_done());
        assert_eq!(p.poll(9_000_000), None);
    }

    #[test]
    fn latency_never_goes_negative() {
        assert_eq!(latency_from_due(10, 5), 0);
    }
}
