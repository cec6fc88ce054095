//! Ordered schedule-event streams.
//!
//! A [`ScheduleLog`] is the scheduling-plane counterpart of a memory
//! trace: an ordered list of [`SchedEvent`]s naming which *actor* (a
//! sequential execution lane — the serial drain loop, one replayed
//! `ParScheduler` worker, one serving lane) did what, and where work
//! moved between actors. Emitters:
//!
//! * the serial `BinEngine` drain (fork / drain-unit begin-end /
//!   dispatch, all on actor 0), recorded by [`SchedLogSink`];
//! * `ParScheduler::replay`'s virtual-time workers (drain-unit
//!   begin/end per worker, plus [`Steal`](SchedEvent::Steal) provenance
//!   when half a deque moves);
//! * the serving simulation (grant [`Handoff`](SchedEvent::Handoff)s to
//!   lanes).
//!
//! The log carries *order*, not timing. Actor 0 is by convention the
//! serial/coordinating lane; further actors are numbered from 1.

/// One mark of the *schedule* half of a trace, as a scheduler emits it
/// into a [`TraceSink`](crate::TraceSink) between the memory references
/// it orders. This is the one spelling of those facts from the engine's
/// drain loop to the trace file (which stores marks verbatim, see
/// [`TraceFileWriter`](crate::TraceFileWriter)); [`SchedLogSink`] lifts
/// them onto actor 0 of a [`ScheduleLog`].
///
/// A *drain unit* is the contiguous block of dispatches the serial
/// drain hands out together: one bin for flat policies, one parent
/// group's sub-bins for nested ones. It is not what work stealing
/// moves: `ParScheduler`'s deques hold tour positions (bins), so under
/// a nested policy a steal can split a parent group between workers —
/// which is why the analyzer's stealing model orders bodies by *fine*
/// bin, not by drain unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedMark<'a> {
    /// A thread was forked with these hint addresses (empty for an
    /// unhinted thread). Marks arrive in fork order.
    Fork(&'a [crate::Addr]),
    /// Drain unit `n` (0-based within the current run) begins.
    DrainBegin(u64),
    /// The `n`-th thread (0-based) of the current run is dispatched:
    /// every reference up to the next `Dispatch` or [`RunEnd`] belongs
    /// to its body.
    ///
    /// [`RunEnd`]: SchedMark::RunEnd
    Dispatch(u64),
    /// Drain unit `n` ends.
    DrainEnd(u64),
    /// The scheduler run (one *phase* of forked threads) is over;
    /// references after it are ambient until the next run starts.
    RunEnd,
}

/// One schedule event. `actor`, `thief`, `victim`, `from`, and `to`
/// are actor ids; `fork` is a fork index (program order); `unit` is a
/// drain-unit ordinal (one bin for flat policies, one parent group's
/// sub-bins for nested policies).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedEvent {
    /// `actor` forked (published) thread `fork`.
    Fork { actor: u32, fork: u32 },
    /// `actor` started draining unit `unit`.
    DrainBegin { actor: u32, unit: u32 },
    /// `actor` ran the body of thread `fork` (inside the actor's
    /// currently open drain unit, if any). Recording sinks that cannot
    /// resolve fork indices store the dispatch sequence number here.
    Dispatch { actor: u32, fork: u32 },
    /// `actor` finished draining unit `unit`.
    DrainEnd { actor: u32, unit: u32 },
    /// `thief` moved `units` drain units from `victim`'s deque.
    /// Provenance only: a steal moves unexecuted work, not history, so
    /// it orders no body against another.
    Steal { thief: u32, victim: u32, units: u32 },
    /// `from` handed its work (and its history: a synchronizing edge)
    /// to `to` — a partition hand-off, a lane grant.
    Handoff { from: u32, to: u32 },
    /// Full join: every actor synchronizes with every other (the final
    /// join of a run).
    Barrier,
}

/// An ordered schedule-event stream over a fixed set of actors.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScheduleLog {
    /// Number of actors; actor ids in `events` are `< actors`.
    pub actors: u32,
    /// The events, in observation order.
    pub events: Vec<SchedEvent>,
}

impl ScheduleLog {
    /// Creates an empty log over `actors` actors.
    pub fn new(actors: u32) -> Self {
        ScheduleLog {
            actors,
            events: Vec::new(),
        }
    }

    /// Appends one event.
    #[inline]
    pub fn push(&mut self, event: SchedEvent) {
        self.events.push(event);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// FNV-1a digest over the event stream — a cheap fingerprint for
    /// byte-reproducibility checks.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(u64::from(self.actors));
        for &event in &self.events {
            let (tag, a, b, c) = match event {
                SchedEvent::Fork { actor, fork } => (1u64, actor, fork, 0),
                SchedEvent::DrainBegin { actor, unit } => (2, actor, unit, 0),
                SchedEvent::Dispatch { actor, fork } => (3, actor, fork, 0),
                SchedEvent::DrainEnd { actor, unit } => (4, actor, unit, 0),
                SchedEvent::Steal {
                    thief,
                    victim,
                    units,
                } => (5, thief, victim, units),
                SchedEvent::Handoff { from, to } => (6, from, to, 0),
                SchedEvent::Barrier => (7, 0, 0, 0),
            };
            eat(tag);
            eat(u64::from(a));
            eat(u64::from(b));
            eat(u64::from(c));
        }
        h
    }
}

/// A [`TraceSink`](crate::TraceSink) that records the schedule events
/// of one serial scheduler run as a [`ScheduleLog`] on actor 0.
///
/// Memory references and instruction counts are discarded; only the
/// scheduling plane is kept. [`Dispatch`](SchedEvent::Dispatch) events
/// store the dispatch sequence number in the `fork` field (the sink
/// cannot see fork identity).
///
/// # Examples
///
/// ```
/// use memtrace::{Addr, SchedEvent, SchedLogSink, SchedMark, TraceSink};
///
/// let mut sink = SchedLogSink::new();
/// sink.mark(SchedMark::Fork(&[Addr::new(0x100)])); // fork 0
/// sink.mark(SchedMark::DrainBegin(0));
/// sink.mark(SchedMark::Dispatch(0));
/// sink.mark(SchedMark::DrainEnd(0));
/// sink.mark(SchedMark::RunEnd);
/// let log = sink.into_log();
/// assert_eq!(log.events[0], SchedEvent::Fork { actor: 0, fork: 0 });
/// assert_eq!(log.events.last(), Some(&SchedEvent::Barrier));
/// ```
#[derive(Clone, Debug, Default)]
pub struct SchedLogSink {
    log: ScheduleLog,
    forks: u64,
}

impl SchedLogSink {
    /// Creates an empty recording sink.
    pub fn new() -> Self {
        SchedLogSink {
            log: ScheduleLog::new(1),
            forks: 0,
        }
    }

    /// A sink that has already counted `forks` forks.
    #[cfg(test)]
    fn with_forks(forks: u64) -> Self {
        SchedLogSink {
            forks,
            ..SchedLogSink::new()
        }
    }

    /// The log recorded so far.
    pub fn log(&self) -> &ScheduleLog {
        &self.log
    }

    /// Consumes the sink, returning the recorded log.
    pub fn into_log(self) -> ScheduleLog {
        self.log
    }
}

impl crate::TraceSink for SchedLogSink {
    #[inline]
    fn access(&mut self, _access: crate::Access) {}

    #[inline]
    fn instructions(&mut self, _count: u64) {}

    /// A live engine never produces an ordinal that does not fit the
    /// log's `u32`; one read from a trace file can, and is dropped — as
    /// is every fork after the 2³²-th, whose ordinal this sink counts.
    fn mark(&mut self, mark: SchedMark<'_>) {
        let narrow = |ordinal: u64| u32::try_from(ordinal).ok();
        let event = match mark {
            SchedMark::Fork(_) => {
                let fork = self.forks;
                self.forks += 1;
                narrow(fork).map(|fork| SchedEvent::Fork { actor: 0, fork })
            }
            SchedMark::DrainBegin(unit) => {
                narrow(unit).map(|unit| SchedEvent::DrainBegin { actor: 0, unit })
            }
            SchedMark::Dispatch(seq) => {
                narrow(seq).map(|fork| SchedEvent::Dispatch { actor: 0, fork })
            }
            SchedMark::DrainEnd(unit) => {
                narrow(unit).map(|unit| SchedEvent::DrainEnd { actor: 0, unit })
            }
            SchedMark::RunEnd => Some(SchedEvent::Barrier),
        };
        self.log.events.extend(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Addr, TraceSink};

    #[test]
    fn sink_records_the_full_event_vocabulary_in_order() {
        let mut sink = SchedLogSink::new();
        sink.mark(SchedMark::Fork(&[Addr::new(0x100)]));
        sink.mark(SchedMark::Fork(&[]));
        sink.mark(SchedMark::DrainBegin(0));
        sink.mark(SchedMark::Dispatch(0));
        sink.mark(SchedMark::Dispatch(1));
        sink.mark(SchedMark::DrainEnd(0));
        sink.mark(SchedMark::RunEnd);
        let log = sink.into_log();
        assert_eq!(log.actors, 1);
        assert_eq!(
            log.events,
            vec![
                SchedEvent::Fork { actor: 0, fork: 0 },
                SchedEvent::Fork { actor: 0, fork: 1 },
                SchedEvent::DrainBegin { actor: 0, unit: 0 },
                SchedEvent::Dispatch { actor: 0, fork: 0 },
                SchedEvent::Dispatch { actor: 0, fork: 1 },
                SchedEvent::DrainEnd { actor: 0, unit: 0 },
                SchedEvent::Barrier,
            ]
        );
    }

    #[test]
    fn marks_whose_ordinal_does_not_fit_the_log_are_dropped() {
        let mut sink = SchedLogSink::new();
        let wide = u64::from(u32::MAX) + 1;
        sink.mark(SchedMark::DrainBegin(wide));
        sink.mark(SchedMark::Dispatch(u64::MAX));
        sink.mark(SchedMark::DrainEnd(wide));
        assert!(sink.log().is_empty());
        sink.mark(SchedMark::Dispatch(u64::from(u32::MAX)));
        assert_eq!(
            sink.into_log().events,
            vec![SchedEvent::Dispatch {
                actor: 0,
                fork: u32::MAX
            }]
        );
    }

    #[test]
    fn forks_past_the_last_u32_ordinal_are_dropped_not_renumbered() {
        let mut sink = SchedLogSink::with_forks(u64::from(u32::MAX) - 1);
        for _ in 0..4 {
            sink.mark(SchedMark::Fork(&[]));
        }
        sink.mark(SchedMark::RunEnd);
        assert_eq!(
            sink.into_log().events,
            vec![
                SchedEvent::Fork {
                    actor: 0,
                    fork: u32::MAX - 1
                },
                SchedEvent::Fork {
                    actor: 0,
                    fork: u32::MAX
                },
                SchedEvent::Barrier,
            ]
        );
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let mut a = ScheduleLog::new(2);
        a.push(SchedEvent::Handoff { from: 0, to: 1 });
        a.push(SchedEvent::Barrier);
        let mut b = ScheduleLog::new(2);
        b.push(SchedEvent::Barrier);
        b.push(SchedEvent::Handoff { from: 0, to: 1 });
        assert_eq!(a.digest(), a.clone().digest());
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), ScheduleLog::new(2).digest());
    }
}
