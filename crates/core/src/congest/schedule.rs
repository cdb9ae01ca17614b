//! The global phase/iteration/round clock of Algorithm 2.
//!
//! All nodes start simultaneously (synchronous model), so the mapping from
//! absolute round numbers to `(phase, iteration, offset)` positions is a
//! shared, message-free convention — this is also how a decided node "can
//! keep track of the number of rounds since starting" to rejoin at the
//! current phase value (pseudocode Line 44). Each node walks it with a
//! [`PhaseClock`], a cursor on the current phase: rounds arrive in order,
//! so the phase length is computed once per phase, not once per round.

use serde::{Deserialize, Serialize};

use super::params::CongestParams;

/// Where an absolute round falls within the phase/iteration structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundPosition {
    /// Phase number `i` (also the candidate estimate of `log n`).
    pub phase: u32,
    /// Iteration index within the phase, starting at 0 (the paper's `j−1`).
    pub iteration: u64,
    /// Round offset within the iteration, `0 .. 2·phase+5`.
    pub offset: u64,
}

impl RoundPosition {
    /// Whether this round is inside the beacon window (first `i+2` rounds
    /// of the iteration).
    pub fn in_beacon_window(&self) -> bool {
        self.offset < u64::from(self.phase) + 2
    }

    /// Whether this is the very first round of the iteration (when nodes
    /// roll their activation coin).
    pub fn is_iteration_start(&self) -> bool {
        self.offset == 0
    }

    /// Whether beacons may still be *forwarded* this round (the paper
    /// forwards only "within the first `i` rounds" after the origination
    /// round; the final beacon round only receives). Origination happens
    /// at offset 0, forwarding on receipts at offsets `1..=i`, so the last
    /// arrival lands at offset `i+1` — still inside the beacon window.
    pub fn can_forward_beacon(&self) -> bool {
        self.offset <= u64::from(self.phase)
    }

    /// Whether this is the first round of the continue window (when
    /// undecided nodes originate `⟨continue⟩`).
    pub fn is_continue_start(&self) -> bool {
        self.offset == u64::from(self.phase) + 2
    }

    /// Whether continues may be forwarded this round (the window spans
    /// `i+3` rounds; the final round only receives).
    pub fn can_forward_continue(&self) -> bool {
        let cont_start = u64::from(self.phase) + 2;
        self.offset >= cont_start && self.offset < cont_start + u64::from(self.phase) + 2
    }

    /// Whether this is the last round of the iteration.
    pub fn is_iteration_end(&self, params: &CongestParams) -> bool {
        self.offset + 1 == params.rounds_per_iteration(self.phase)
    }

    /// Whether this is also the last iteration of the phase.
    pub fn is_phase_end(&self, params: &CongestParams) -> bool {
        self.is_iteration_end(params)
            && self.iteration + 1 == params.iterations_in_phase(self.phase)
    }
}

/// A cursor from absolute rounds to [`RoundPosition`]s: it sits on one
/// phase and knows that phase's round range, moves forward one phase at a
/// time (the only place a phase length, one `exp()`, is computed), and
/// rewinds to the first phase for a round before its own.
#[derive(Debug, Clone)]
pub struct PhaseClock {
    params: CongestParams,
    /// The phase the cursor is on.
    phase: u32,
    /// First absolute round (1-based) of `phase`.
    start: u64,
    /// First absolute round after `phase`.
    end: u64,
    /// `params.rounds_per_iteration(phase)`.
    rounds_per_iteration: u64,
}

impl PhaseClock {
    /// Creates a clock for the given parameters.
    pub fn new(params: CongestParams) -> Self {
        Self::at(params, params.first_phase(), 1)
    }

    /// A cursor on `phase`, which starts at round `start`.
    fn at(params: CongestParams, phase: u32, start: u64) -> Self {
        let rounds_per_iteration = params.rounds_per_iteration(phase);
        PhaseClock {
            params,
            phase,
            start,
            end: start + params.iterations_in_phase(phase) * rounds_per_iteration,
            rounds_per_iteration,
        }
    }

    /// Locates an absolute round (1-based, as produced by the engine).
    ///
    /// # Panics
    ///
    /// Panics if `round == 0`.
    #[inline]
    pub fn locate(&mut self, round: u64) -> RoundPosition {
        assert!(round >= 1, "rounds are 1-based");
        if round < self.start {
            *self = Self::new(self.params);
        }
        while round >= self.end {
            *self = Self::at(self.params, self.phase + 1, self.end);
        }
        let within = round - self.start;
        RoundPosition {
            phase: self.phase,
            iteration: within / self.rounds_per_iteration,
            offset: within % self.rounds_per_iteration,
        }
    }

    /// First absolute round of the given phase (must be ⩾ the starting
    /// phase).
    pub fn phase_start(&self, phase: u32) -> u64 {
        let first = self.params.first_phase();
        assert!(phase >= first, "phase {phase} precedes start {first}");
        (first..phase).fold(1, |start, p| {
            start + self.params.iterations_in_phase(p) * self.params.rounds_per_iteration(p)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock() -> PhaseClock {
        PhaseClock::new(CongestParams::default())
    }

    #[test]
    fn locate_round_one_is_phase_start() {
        let mut c = clock();
        let pos = c.locate(1);
        assert_eq!(pos.phase, 2);
        assert_eq!(pos.iteration, 0);
        assert_eq!(pos.offset, 0);
        assert!(pos.is_iteration_start());
        assert!(pos.in_beacon_window());
    }

    #[test]
    fn locate_is_a_bijection_over_a_long_prefix() {
        let mut c = clock();
        let p = CongestParams::default();
        let mut expected_phase = p.first_phase();
        let mut expected_iter = 0u64;
        let mut expected_off = 0u64;
        for round in 1..5000u64 {
            let pos = c.locate(round);
            assert_eq!(
                (pos.phase, pos.iteration, pos.offset),
                (expected_phase, expected_iter, expected_off),
                "round {round}"
            );
            // Advance the reference counters.
            expected_off += 1;
            if expected_off == p.rounds_per_iteration(expected_phase) {
                expected_off = 0;
                expected_iter += 1;
                if expected_iter == p.iterations_in_phase(expected_phase) {
                    expected_iter = 0;
                    expected_phase += 1;
                }
            }
        }
    }

    #[test]
    fn windows_partition_the_iteration() {
        let mut c = clock();
        let p = CongestParams::default();
        // Walk one whole iteration of phase 2 (rounds 1..=9).
        let mut beacon_rounds = 0;
        let mut continue_forward_rounds = 0;
        for round in 1..=p.rounds_per_iteration(2) {
            let pos = c.locate(round);
            assert_eq!(pos.phase, 2);
            assert_eq!(pos.iteration, 0);
            if pos.in_beacon_window() {
                beacon_rounds += 1;
            }
            if pos.can_forward_continue() {
                continue_forward_rounds += 1;
            }
        }
        assert_eq!(beacon_rounds, 4); // i + 2
        assert_eq!(continue_forward_rounds, 4); // i + 2 forwarding rounds within the i+3 window
        let last = c.locate(p.rounds_per_iteration(2));
        assert!(last.is_iteration_end(&p));
    }

    #[test]
    fn phase_boundaries_line_up() {
        let mut c = clock();
        let p = CongestParams::default();
        let start3 = c.phase_start(3);
        assert_eq!(c.phase_start(2), 1);
        let len2 = p.iterations_in_phase(2) * p.rounds_per_iteration(2);
        assert_eq!(start3, 1 + len2);
        let pos = c.locate(start3);
        assert_eq!(pos.phase, 3);
        assert_eq!(pos.iteration, 0);
        assert_eq!(pos.offset, 0);
        let pos_prev = c.locate(start3 - 1);
        assert_eq!(pos_prev.phase, 2);
        assert!(pos_prev.is_phase_end(&p));
    }

    #[test]
    fn forwarding_window_is_strictly_inside_beacon_window() {
        let mut c = clock();
        for round in 1..2000 {
            let pos = c.locate(round);
            if pos.can_forward_beacon() {
                assert!(pos.in_beacon_window());
            }
            if pos.is_continue_start() {
                assert!(!pos.in_beacon_window());
            }
        }
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn round_zero_rejected() {
        clock().locate(0);
    }
}
