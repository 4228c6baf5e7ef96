//! Three-valued verdicts for budgeted homomorphism decisions.
//!
//! Deciding `I₁ → I₂` is NP-complete, so every caller that cares about
//! latency runs the search under a resource budget. A budgeted decision
//! has three outcomes, not two: the search may prove the homomorphism,
//! refute it, or run out of budget first. [`Verdict`] makes the third
//! outcome a first-class value instead of a panic or an error the
//! unbounded paths must pretend to handle — `rde-chase` and `rde-core`
//! propagate `Unknown` up to their own reports so a too-hard instance
//! degrades gracefully.

use std::fmt;
use std::time::Duration;

/// The resource that cut a search short.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exhausted {
    /// The node budget ran out: the configured number of candidate-tuple
    /// unification attempts (see
    /// [`HomConfig::node_budget`](crate::HomConfig::node_budget)) were
    /// spent without completing the search.
    Nodes(u64),
    /// The wall-clock budget ran out (see
    /// [`HomConfig::time_budget`](crate::HomConfig::time_budget)).
    Time(Duration),
    /// The search was cooperatively cancelled (see
    /// [`HomConfig::ctx`](crate::HomConfig::ctx)) — by an explicit
    /// request, an elapsed external deadline, or Ctrl-C.
    Cancelled,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exhausted::Nodes(n) => write!(f, "node budget of {n} exhausted"),
            Exhausted::Time(d) => write!(f, "time budget of {d:?} exhausted"),
            Exhausted::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Outcome of a budgeted three-valued decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The property definitely holds (a witness was found).
    Holds,
    /// The property definitely fails (the search space was exhausted).
    Fails,
    /// The budget ran out before the search could decide either way.
    Unknown {
        /// The resource that ran out.
        budget: Exhausted,
    },
}

impl Verdict {
    /// Lift a definite boolean into a verdict.
    pub fn from_bool(b: bool) -> Self {
        if b {
            Verdict::Holds
        } else {
            Verdict::Fails
        }
    }

    /// Does the property definitely hold?
    pub fn holds(self) -> bool {
        self == Verdict::Holds
    }

    /// Does the property definitely fail?
    pub fn fails(self) -> bool {
        self == Verdict::Fails
    }

    /// Did the budget run out before a decision?
    pub fn is_unknown(self) -> bool {
        matches!(self, Verdict::Unknown { .. })
    }

    /// Three-valued (Kleene) conjunction: a definite `Fails` dominates,
    /// otherwise any `Unknown` taints the result.
    pub fn and(self, other: Verdict) -> Verdict {
        match (self, other) {
            (Verdict::Fails, _) | (_, Verdict::Fails) => Verdict::Fails,
            (u @ Verdict::Unknown { .. }, _) | (_, u @ Verdict::Unknown { .. }) => u,
            (Verdict::Holds, Verdict::Holds) => Verdict::Holds,
        }
    }

    /// Three-valued (Kleene) disjunction: a definite `Holds` dominates,
    /// otherwise any `Unknown` taints the result.
    pub fn or(self, other: Verdict) -> Verdict {
        !(!self).and(!other)
    }
}

/// Three-valued negation: swaps `Holds` and `Fails`, keeps `Unknown`.
impl std::ops::Not for Verdict {
    type Output = Verdict;

    fn not(self) -> Verdict {
        match self {
            Verdict::Holds => Verdict::Fails,
            Verdict::Fails => Verdict::Holds,
            unknown => unknown,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Holds => write!(f, "holds"),
            Verdict::Fails => write!(f, "fails"),
            Verdict::Unknown { budget } => write!(f, "unknown ({budget})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_budget() {
        let v = Verdict::Unknown { budget: Exhausted::Nodes(42) };
        assert!(v.to_string().contains("42"));
        let t = Verdict::Unknown { budget: Exhausted::Time(Duration::from_millis(7)) };
        assert!(t.to_string().contains("unknown"));
        assert_eq!(Verdict::Holds.to_string(), "holds");
        assert_eq!(Verdict::Fails.to_string(), "fails");
    }

    #[test]
    fn kleene_conjunction() {
        let u = Verdict::Unknown { budget: Exhausted::Nodes(1) };
        assert_eq!(Verdict::Holds.and(Verdict::Holds), Verdict::Holds);
        assert_eq!(Verdict::Holds.and(Verdict::Fails), Verdict::Fails);
        assert_eq!(u.and(Verdict::Fails), Verdict::Fails, "a definite no beats unknown");
        assert_eq!(u.and(Verdict::Holds), u);
        assert_eq!(Verdict::Holds.and(u), u);
        assert!(u.is_unknown() && !u.holds() && !u.fails());
        assert!(Verdict::from_bool(true).holds());
        assert!(Verdict::from_bool(false).fails());
    }

    #[test]
    fn kleene_disjunction_and_negation() {
        let u = Verdict::Unknown { budget: Exhausted::Nodes(1) };
        assert_eq!(Verdict::Fails.or(Verdict::Fails), Verdict::Fails);
        assert_eq!(u.or(Verdict::Holds), Verdict::Holds, "a definite yes beats unknown");
        assert_eq!(Verdict::Fails.or(u), u);
        assert_eq!(!Verdict::Holds, Verdict::Fails);
        assert_eq!(!u, u);
    }
}
