//! The Farron workflow state machine (Figure 10).
//!
//! A processor is in one of three states: **pre-production** (adequate
//! testing before deployment), **online** (application running on proven
//! cores under triggering-condition control, with regular tests), or
//! **suspected** (a regular test failed; targeted in-depth testing and a
//! decommission decision follow).

use crate::decommission::{decide, DecommissionDecision};
use sdc_model::CoreId;

/// The three workflow states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FarronState {
    /// Adequate pre-production testing.
    PreProduction,
    /// Serving applications; regular tests run for long-term protection.
    Online,
    /// A test failed; in-depth targeted testing in progress.
    Suspected,
}

/// Events that drive transitions.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Pre-production testing completed clean.
    PreProductionPassed,
    /// Pre-production testing detected SDCs on these cores.
    PreProductionFailed(Vec<CoreId>),
    /// A regular (online) test detected SDCs.
    RegularTestFailed,
    /// Targeted testing finished; these cores are confirmed defective.
    TargetedTestCompleted(Vec<CoreId>),
}

/// Result of a transition.
#[derive(Debug, Clone, PartialEq)]
pub enum Transition {
    /// Moved to a new state.
    Moved(FarronState),
    /// Terminal: the processor is deprecated.
    Deprecated,
    /// The event is invalid in the current state.
    Invalid,
}

/// The per-processor state machine.
#[derive(Debug, Clone)]
pub struct StateMachine {
    state: FarronState,
    masked_cores: Vec<CoreId>,
}

impl Default for StateMachine {
    fn default() -> Self {
        StateMachine::new()
    }
}

impl StateMachine {
    /// A new processor entering the workflow.
    pub fn new() -> StateMachine {
        StateMachine {
            state: FarronState::PreProduction,
            masked_cores: Vec::new(),
        }
    }

    /// Current state.
    pub fn state(&self) -> FarronState {
        self.state
    }

    /// Cores masked so far.
    pub fn masked_cores(&self) -> &[CoreId] {
        &self.masked_cores
    }

    /// Applies an event.
    pub fn handle(&mut self, event: Event) -> Transition {
        match (self.state, event) {
            (FarronState::PreProduction, Event::PreProductionPassed) => {
                self.state = FarronState::Online;
                Transition::Moved(FarronState::Online)
            }
            (FarronState::PreProduction, Event::PreProductionFailed(cores)) => {
                self.resolve_defects(cores)
            }
            (FarronState::Online, Event::RegularTestFailed) => {
                self.state = FarronState::Suspected;
                Transition::Moved(FarronState::Suspected)
            }
            (FarronState::Suspected, Event::TargetedTestCompleted(cores)) => {
                self.resolve_defects(cores)
            }
            _ => Transition::Invalid,
        }
    }

    /// Applies the decommission rule and returns to Online (or deprecates).
    fn resolve_defects(&mut self, mut cores: Vec<CoreId>) -> Transition {
        cores.extend(self.masked_cores.iter().copied());
        match decide(&cores) {
            DecommissionDecision::MaskCores(masked) => {
                self.masked_cores = masked;
                self.state = FarronState::Online;
                Transition::Moved(FarronState::Online)
            }
            DecommissionDecision::DeprecateProcessor => Transition::Deprecated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_lifecycle() {
        let mut sm = StateMachine::new();
        assert_eq!(sm.state(), FarronState::PreProduction);
        assert_eq!(
            sm.handle(Event::PreProductionPassed),
            Transition::Moved(FarronState::Online)
        );
        assert_eq!(sm.state(), FarronState::Online);
    }

    #[test]
    fn regular_failure_leads_to_targeted_testing_and_masking() {
        let mut sm = StateMachine::new();
        sm.handle(Event::PreProductionPassed);
        assert_eq!(
            sm.handle(Event::RegularTestFailed),
            Transition::Moved(FarronState::Suspected)
        );
        assert_eq!(
            sm.handle(Event::TargetedTestCompleted(vec![CoreId(5)])),
            Transition::Moved(FarronState::Online)
        );
        assert_eq!(sm.masked_cores(), &[CoreId(5)]);
    }

    #[test]
    fn accumulated_defects_deprecate() {
        let mut sm = StateMachine::new();
        sm.handle(Event::PreProductionPassed);
        sm.handle(Event::RegularTestFailed);
        sm.handle(Event::TargetedTestCompleted(vec![CoreId(1), CoreId(2)]));
        assert_eq!(sm.masked_cores().len(), 2);
        // A third defective core crosses the >2 rule.
        sm.handle(Event::RegularTestFailed);
        assert_eq!(
            sm.handle(Event::TargetedTestCompleted(vec![CoreId(3)])),
            Transition::Deprecated
        );
    }

    #[test]
    fn pre_production_failure_can_mask_and_go_online() {
        let mut sm = StateMachine::new();
        assert_eq!(
            sm.handle(Event::PreProductionFailed(vec![CoreId(0)])),
            Transition::Moved(FarronState::Online)
        );
        assert_eq!(sm.masked_cores(), &[CoreId(0)]);
    }

    #[test]
    fn invalid_events_are_rejected() {
        let mut sm = StateMachine::new();
        assert_eq!(sm.handle(Event::RegularTestFailed), Transition::Invalid);
        sm.handle(Event::PreProductionPassed);
        assert_eq!(sm.handle(Event::PreProductionPassed), Transition::Invalid);
        assert_eq!(
            sm.handle(Event::TargetedTestCompleted(vec![])),
            Transition::Invalid
        );
    }
}
