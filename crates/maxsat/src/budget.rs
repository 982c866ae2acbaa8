//! Solve budgets: wall-clock deadlines and conflict caps.
//!
//! BugAssist-style whole-program MAX-SAT has unbounded worst-case solve
//! time, so every solve in this crate can be bounded by a [`Budget`]: an
//! absolute wall-clock deadline and/or a cap on the number of SAT-solver
//! conflicts the strategy may spend. Both limits are polled at the SAT
//! solver's restart boundaries via [`sat::Solver::solve_assuming_budgeted`].
//!
//! A budgeted solve never turns expiry into an error: if an incumbent model
//! exists when the budget runs out, the solver returns it as an **anytime
//! result** ([`crate::MaxSatResult::Anytime`]) whose cost is an upper bound
//! on the true optimum; with no incumbent it returns
//! [`crate::MaxSatResult::Expired`].

use std::time::{Duration, Instant};

/// Resource limits for one MAX-SAT solve (and everything stacked on top of
/// it — the localizer threads one budget through its whole suspect
/// enumeration). The default budget is unlimited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Absolute wall-clock deadline; the solve gives up at the next restart
    /// boundary once it has passed.
    pub deadline: Option<Instant>,
    /// Maximum number of SAT conflicts one MAX-SAT solve may accumulate
    /// over its run (each solve owns one incremental SAT solver, so the cap
    /// is per solve).
    pub conflict_cap: Option<u64>,
}

impl Budget {
    /// The unlimited budget: no deadline, no conflict cap.
    pub const UNLIMITED: Budget = Budget {
        deadline: None,
        conflict_cap: None,
    };

    /// A budget with only a wall-clock deadline.
    pub fn with_deadline(deadline: Instant) -> Budget {
        Budget {
            deadline: Some(deadline),
            conflict_cap: None,
        }
    }

    /// A budget whose deadline is `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Budget {
        Budget::with_deadline(Instant::now() + timeout)
    }

    /// `true` once the wall-clock deadline (if any) has passed.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_expires() {
        let budget = Budget::default();
        assert!(!budget.deadline_expired());
        assert_eq!(budget, Budget::UNLIMITED);
    }

    #[test]
    fn deadline_expiry_tracks_the_clock() {
        let expired = Budget::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(expired.deadline_expired());
        let generous = Budget::with_timeout(Duration::from_secs(3600));
        assert!(!generous.deadline_expired());
    }
}
