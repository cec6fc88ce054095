//! Online serving simulation over the locality-scheduled bin engine.
//!
//! The paper schedules a *batch* of fine-grained threads for cache
//! locality. This crate asks the serving-system question: does the
//! same bin machinery help when work arrives *continuously* — a stream
//! of timestamped requests, each tagged with the data it touches,
//! admitted into a bounded queue and drained concurrently with
//! arrivals?
//!
//! Three pieces:
//!
//! * [`event`] — a deterministic discrete-event core (virtual clock,
//!   FIFO tie-breaking at equal timestamps).
//! * [`trace`] — a seeded synthetic trace generator in the style of
//!   public cloud serving traces: Zipf-skewed object popularity,
//!   bursty Poisson-modulated arrivals, streamed without
//!   materialization.
//! * [`sim`] — the serving loop itself: admission, online drain via
//!   [`Scheduler::drain_next`](locality_sched::Scheduler::drain_next),
//!   modeled service times from the paper's timing model, and
//!   cold/warm-hit accounting ([`metrics`]).
//!
//! Everything is deterministic by construction: same trace config +
//! serve config + policy ⇒ byte-identical [`ServeReport`]s, a property
//! the golden and CI reproducibility tests pin down. With all arrivals
//! at t=0 and an unbounded queue, the online run executes requests in
//! exactly the offline batch scheduler's order — the equivalence suite
//! in `tests/` proves it for every policy and lane count.

pub mod detmath;
pub mod event;
pub mod metrics;
pub mod sim;
pub mod trace;

pub use detmath::{det_exp, det_ln, det_powf};
pub use event::{Event, EventHeap};
pub use metrics::{percentile, ServeReport};
pub use sim::{
    run_offline, run_serve, ExecRecord, ServeConfig, ServeError, ServeOutcome, ServePolicy,
};
pub use trace::{cdf_digest, trace_digest, Request, TraceConfig, TraceGen};
