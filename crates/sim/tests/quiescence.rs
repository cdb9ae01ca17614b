//! Debug-build verification of the [`Protocol::QUIESCENT_ON_SILENCE`]
//! promise.
//!
//! The promise licenses the sparse (active-set) schedule: the engine may
//! skip a silent node entirely because the protocol swears the round
//! would have been a no-op. Since PR 8 debug builds *check* that oath
//! whenever a silent round actually runs (the dense schedule drives
//! every node every round): a declared-quiescent protocol that sends,
//! draws randomness, or changes decision state on a silent round panics
//! instead of silently diverging from the sparse transcript.

use bcount_graph::gen::cycle;
use bcount_sim::prelude::*;
use rand::Rng;

/// Declares quiescence and honours it: sends only in round 1 and when
/// the inbox is non-empty.
struct HonestToken {
    relayed: bool,
}

impl Protocol for HonestToken {
    type Message = Pid;
    type Output = u32;
    const QUIESCENT_ON_SILENCE: bool = true;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
        if ctx.round() == 1 {
            if ctx.my_id().0.is_multiple_of(7) {
                ctx.broadcast(ctx.my_id());
            }
            return;
        }
        if !ctx.inbox().is_empty() && !self.relayed {
            self.relayed = true;
            ctx.broadcast(ctx.my_id());
        }
    }

    fn output(&self) -> Option<u32> {
        Some(u32::from(self.relayed))
    }

    fn has_halted(&self) -> bool {
        self.relayed
    }
}

/// Declares quiescence but lies in a different way per `MODE`:
/// 0 = sends on silent rounds, 1 = draws randomness, 2 = flips its
/// halted state.
struct Liar<const MODE: u8> {
    halted: bool,
}

impl<const MODE: u8> Protocol for Liar<MODE> {
    type Message = Pid;
    type Output = u32;
    const QUIESCENT_ON_SILENCE: bool = true;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Pid>) {
        if ctx.round() == 1 {
            return; // Nobody sends: every later round is silent.
        }
        match MODE {
            0 => ctx.broadcast(ctx.my_id()),
            1 => {
                let _: u64 = ctx.rng().gen();
            }
            _ => self.halted = !self.halted,
        }
    }

    fn output(&self) -> Option<u32> {
        None
    }

    fn has_halted(&self) -> bool {
        self.halted
    }
}

/// An adversary that does nothing but keeps the default
/// `observes_traffic() == true`: the engine then runs its flat feed and
/// with it the dense schedule, so silent rounds are actually driven (the
/// sparse schedule would skip them and the probe would never run).
struct Watcher;

impl<P: Protocol> Adversary<P> for Watcher {
    fn on_round(
        &mut self,
        _view: &FullInfoView<'_, P>,
        _ctx: &mut ByzantineContext<'_, P::Message>,
    ) {
    }
}

fn dense_config(rounds: u64) -> SimConfig {
    SimConfig::builder()
        .max_rounds(rounds)
        .stop_when(StopWhen::MaxRoundsOnly)
        .build()
        .unwrap()
}

fn run_liar<const MODE: u8>() {
    let g = cycle(16).unwrap();
    let mut sim = Simulation::new(
        &g,
        &[],
        |_, _| Liar::<MODE> { halted: false },
        Watcher,
        dense_config(3),
    );
    assert!(!sim.sparse_schedule_active());
    sim.run();
}

#[test]
fn honest_quiescent_protocol_passes_the_probe() {
    let g = cycle(64).unwrap();
    let mut sim = Simulation::new(
        &g,
        &[],
        |_, _| HonestToken { relayed: false },
        Watcher,
        dense_config(50),
    );
    assert!(!sim.sparse_schedule_active());
    // Dense schedule drives every node's silent rounds through the
    // debug probe; an honest protocol sails through.
    sim.run();
}

#[test]
#[cfg_attr(debug_assertions, should_panic(expected = "QUIESCENT_ON_SILENCE"))]
fn sending_on_a_silent_round_panics_in_debug() {
    run_liar::<0>();
}

#[test]
#[cfg_attr(debug_assertions, should_panic(expected = "QUIESCENT_ON_SILENCE"))]
fn drawing_randomness_on_a_silent_round_panics_in_debug() {
    run_liar::<1>();
}

#[test]
#[cfg_attr(debug_assertions, should_panic(expected = "QUIESCENT_ON_SILENCE"))]
fn changing_state_on_a_silent_round_panics_in_debug() {
    run_liar::<2>();
}
