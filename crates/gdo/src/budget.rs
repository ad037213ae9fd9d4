//! The fail-safe execution layer: a shared run [`Budget`] (wall-clock
//! deadline, work-unit ceiling, external cancellation) checked
//! cooperatively by every stage of the pipeline, plus the
//! [`VerifyPolicy`] selecting how often the optimizer re-proves
//! equivalence against its last checkpoint.
//!
//! GDO is an anytime optimizer: every applied rewrite is individually
//! permissible, so stopping *between* rewrites always leaves a valid,
//! equivalent netlist. The budget exploits exactly that property — on
//! exhaustion the BPFS workers stop claiming sites, the prove loop stops
//! issuing queries (an in-flight SAT search is interrupted through the
//! solver's interrupt flag), both optimizer phases unwind, and the run
//! returns the best netlist accepted so far. Exhaustion is *latched*:
//! once any observer sees the deadline passed, the cancel flag is raised
//! so that every other thread (including a SAT search that never looks
//! at the clock) observes it on its next check.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pipeline phases, reported as `budget.cancelled_at_phase.<name>` when a
/// run is cut short.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Initial analysis before the first delay round.
    Setup = 1,
    /// The delay-reduction phase (BPFS, ranking, prove/apply).
    Delay = 2,
    /// The area-recovery phase.
    Area = 3,
    /// Final checkpoint verification.
    Verify = 4,
    /// The simulation-guided resubstitution engine.
    Resub = 5,
}

impl Phase {
    /// Stable lower-case name used in telemetry counter keys.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Delay => "delay",
            Phase::Area => "area",
            Phase::Verify => "verify",
            Phase::Resub => "resub",
        }
    }

    fn from_u8(v: u8) -> Option<Phase> {
        match v {
            1 => Some(Phase::Setup),
            2 => Some(Phase::Delay),
            3 => Some(Phase::Area),
            4 => Some(Phase::Verify),
            5 => Some(Phase::Resub),
            _ => None,
        }
    }
}

/// A cloneable handle that cancels the run it was taken from.
///
/// The handle shares the budget's cancel flag, so it keeps working from
/// any thread and any point in the run; the pipeline observes the flag
/// at its next cooperative check (or at the SAT solver's next conflict).
#[derive(Debug, Clone)]
pub struct CancelHandle {
    flag: Arc<AtomicBool>,
}

impl CancelHandle {
    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }
}

/// A cooperative run budget: optional wall-clock deadline, optional
/// work-unit ceiling, and an externally settable cancel flag.
///
/// All checks are cheap and thread-safe (`&Budget` is shared across the
/// BPFS worker threads). Exhaustion latches: the first observation
/// raises the shared cancel flag and records the [`Phase`] the pipeline
/// was in, so reports can state *where* the run was cut short.
#[derive(Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    work_limit: Option<u64>,
    /// Shared with every [`relimited`](Budget::relimited) view, as are
    /// `cancel` and `phase`.
    work_done: Arc<AtomicU64>,
    cancel: Arc<AtomicBool>,
    externally_cancelled: AtomicBool,
    phase: Arc<AtomicU8>,
    tripped_phase: AtomicU8,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget that never runs out (cancellation still works).
    #[must_use]
    pub fn unlimited() -> Self {
        Budget::new(None, None)
    }

    /// A budget with an optional wall-clock `deadline` (measured from
    /// now) and an optional ceiling on charged work units.
    #[must_use]
    pub fn new(deadline: Option<Duration>, work_limit: Option<u64>) -> Self {
        Budget {
            deadline: deadline.map(|d| Instant::now() + d),
            work_limit,
            work_done: Arc::new(AtomicU64::new(0)),
            cancel: Arc::new(AtomicBool::new(false)),
            externally_cancelled: AtomicBool::new(false),
            phase: Arc::new(AtomicU8::new(Phase::Setup as u8)),
            tripped_phase: AtomicU8::new(0),
        }
    }

    /// A view of this budget with limits of its own — `deadline` from
    /// now, `work_limit` units beyond the work charged so far — that
    /// shares its cancel flag, work tally and phase: a [`CancelHandle`]
    /// taken from either stops both, and [`work_done`](Self::work_done)
    /// and [`phase`](Self::phase) read the same on both. A view that
    /// trips raises the shared flag, so `self` counts as spent too.
    #[must_use]
    pub fn relimited(&self, deadline: Option<Duration>, work_limit: Option<u64>) -> Budget {
        Budget {
            deadline: deadline.map(|d| Instant::now() + d),
            work_limit: work_limit.map(|w| self.work_done().saturating_add(w)),
            work_done: Arc::clone(&self.work_done),
            cancel: Arc::clone(&self.cancel),
            externally_cancelled: AtomicBool::new(false),
            phase: Arc::clone(&self.phase),
            tripped_phase: AtomicU8::new(0),
        }
    }

    /// A handle that cancels this budget's run from anywhere.
    #[must_use]
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle {
            flag: Arc::clone(&self.cancel),
        }
    }

    /// The shared flag a long-running search (the SAT solver) polls; it
    /// is raised by [`CancelHandle::cancel`] and latched by the first
    /// deadline / work-ceiling observation.
    #[must_use]
    pub fn interrupt_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    /// The absolute deadline, for layers that watch the clock directly.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Wall-clock time left before the deadline (`None` when no deadline
    /// is set; zero once it passed). Snapshots store this so a resumed
    /// run continues with the *remaining* time, not the original —
    /// already expired — absolute deadline.
    #[must_use]
    pub fn remaining_time(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Work units left under the ceiling (`None` when unlimited; zero
    /// once exhausted). The resumed-run analogue of
    /// [`remaining_time`](Self::remaining_time).
    #[must_use]
    pub fn remaining_work(&self) -> Option<u64> {
        self.work_limit
            .map(|limit| limit.saturating_sub(self.work_done.load(Ordering::Relaxed)))
    }

    /// Charges `units` of abstract work (sites surveyed, proofs issued)
    /// against the ceiling. Work is tallied even without a ceiling so
    /// callers (the serving layer's aggregate work accounting) can read
    /// back what a run consumed via [`work_done`](Self::work_done).
    pub fn charge(&self, units: u64) {
        self.work_done.fetch_add(units, Ordering::Relaxed);
    }

    /// Abstract work units charged so far — what the run has consumed,
    /// whether or not a ceiling is set.
    #[must_use]
    pub fn work_done(&self) -> u64 {
        self.work_done.load(Ordering::Relaxed)
    }

    /// Records the phase the pipeline is entering, so a later trip can
    /// name it.
    pub fn enter_phase(&self, phase: Phase) {
        self.phase.store(phase as u8, Ordering::Relaxed);
    }

    /// The phase the pipeline last entered ([`Phase::Setup`] until it
    /// enters another).
    #[must_use]
    pub fn phase(&self) -> Phase {
        Phase::from_u8(self.phase.load(Ordering::Relaxed)).unwrap_or(Phase::Setup)
    }

    /// The cooperative check: `true` once the deadline passed, the work
    /// ceiling was reached, or the run was cancelled. The first `true`
    /// latches the cancel flag and the tripping phase.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        if self.cancel.load(Ordering::Acquire) {
            self.latch();
            return true;
        }
        let over_deadline = self.deadline.is_some_and(|d| Instant::now() >= d);
        let over_work = self
            .work_limit
            .is_some_and(|limit| self.work_done.load(Ordering::Relaxed) >= limit);
        if over_deadline || over_work {
            self.cancel.store(true, Ordering::Release);
            self.latch();
            return true;
        }
        false
    }

    /// `true` when [`CancelHandle::cancel`] was called before the budget
    /// itself ran out (distinguishes user cancellation from exhaustion).
    #[must_use]
    pub fn was_cancelled_externally(&self) -> bool {
        self.externally_cancelled.load(Ordering::Relaxed)
    }

    /// The phase the run was in when the budget first tripped, if it did.
    #[must_use]
    pub fn tripped_phase(&self) -> Option<Phase> {
        Phase::from_u8(self.tripped_phase.load(Ordering::Relaxed))
    }

    fn latch(&self) {
        // Record the phase only on the first observation; later checks
        // in later phases must not overwrite where the trip happened.
        let current = self.phase.load(Ordering::Relaxed);
        let _ =
            self.tripped_phase
                .compare_exchange(0, current, Ordering::Relaxed, Ordering::Relaxed);
        // A cancel flag raised while neither limit is reached can only
        // come from a CancelHandle.
        let over_deadline = self.deadline.is_some_and(|d| Instant::now() >= d);
        let over_work = self
            .work_limit
            .is_some_and(|limit| self.work_done.load(Ordering::Relaxed) >= limit);
        if !over_deadline && !over_work {
            self.externally_cancelled.store(true, Ordering::Relaxed);
        }
    }
}

/// How often the optimizer re-proves equivalence of the working netlist
/// against its last verified checkpoint (SAT miter; exhaustive
/// simulation on tiny circuits), rolling back to the checkpoint and
/// quarantining the offending rewrite kind on a failed check.
///
/// Verification is a *safety net* against transform bugs: every rewrite
/// is already individually proved permissible before it is applied, so
/// the default is [`VerifyPolicy::Off`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyPolicy {
    /// No checkpoint verification (the default).
    #[default]
    Off,
    /// One verification at the end of the run, against the input.
    Final,
    /// Verify after every `k` applied substitutions (and once at the
    /// end for the remaining tail).
    EveryN(usize),
    /// Verify after every applied substitution — pinpoints the exact
    /// offending rewrite at the highest cost.
    EachSubstitution,
}

impl VerifyPolicy {
    /// Whether any checkpointing is active.
    #[must_use]
    pub fn is_active(self) -> bool {
        self != VerifyPolicy::Off
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        b.charge(1_000_000);
        assert!(!b.is_exhausted());
        assert!(b.tripped_phase().is_none());
    }

    #[test]
    fn zero_deadline_trips_immediately_and_latches_phase() {
        let b = Budget::new(Some(Duration::ZERO), None);
        assert_eq!(b.phase(), Phase::Setup);
        b.enter_phase(Phase::Delay);
        assert_eq!(b.phase(), Phase::Delay);
        assert!(b.is_exhausted());
        assert_eq!(b.tripped_phase(), Some(Phase::Delay));
        // Later phases do not overwrite the tripping phase.
        b.enter_phase(Phase::Area);
        assert!(b.is_exhausted());
        assert_eq!(b.tripped_phase(), Some(Phase::Delay));
        assert!(!b.was_cancelled_externally());
    }

    #[test]
    fn work_is_tallied_without_a_ceiling() {
        let b = Budget::unlimited();
        b.charge(7);
        b.charge(3);
        assert_eq!(b.work_done(), 10);
        assert!(!b.is_exhausted());
    }

    #[test]
    fn work_ceiling_trips_after_enough_charges() {
        let b = Budget::new(None, Some(10));
        b.charge(9);
        assert!(!b.is_exhausted());
        b.charge(1);
        assert!(b.is_exhausted());
        assert!(!b.was_cancelled_externally());
    }

    #[test]
    fn cancel_handle_trips_from_anywhere() {
        let b = Budget::unlimited();
        let handle = b.cancel_handle();
        assert!(!b.is_exhausted());
        let t = std::thread::spawn(move || handle.cancel());
        t.join().unwrap();
        assert!(b.is_exhausted());
        assert!(b.was_cancelled_externally());
    }

    #[test]
    fn exhaustion_raises_the_interrupt_flag() {
        let b = Budget::new(None, Some(0));
        let flag = b.interrupt_flag();
        assert!(!flag.load(Ordering::Acquire));
        assert!(b.is_exhausted());
        assert!(flag.load(Ordering::Acquire), "exhaustion must latch");
    }

    #[test]
    fn a_relimited_view_shares_cancel_work_and_phase() {
        let job = Budget::new(None, Some(100));
        job.charge(5);
        let view = job.relimited(None, Some(3));
        assert_eq!(view.remaining_work(), Some(3), "counts from the work done");
        view.charge(2);
        view.enter_phase(Phase::Area);
        assert_eq!((job.work_done(), job.phase()), (7, Phase::Area));
        assert!(!view.is_exhausted());
        job.cancel_handle().cancel();
        assert!(view.is_exhausted());
        assert!(view.was_cancelled_externally());

        let view = Budget::unlimited().relimited(None, Some(1));
        view.charge(1);
        assert!(view.is_exhausted());
        assert!(!view.was_cancelled_externally());
    }

    #[test]
    fn verify_policy_activity() {
        assert!(!VerifyPolicy::Off.is_active());
        assert!(VerifyPolicy::Final.is_active());
        assert!(VerifyPolicy::EveryN(4).is_active());
        assert!(VerifyPolicy::EachSubstitution.is_active());
    }
}
