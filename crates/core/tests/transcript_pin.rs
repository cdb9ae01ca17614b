//! Pins the transcripts of the paper's two algorithms under attack.
//!
//! Each case runs one seeded execution through the `Execution` facade,
//! taking an `ExecutionSnapshot` after every round, and folds the whole
//! snapshot chain and every node's final typed output into FNV-1a
//! digests. The constants below were recorded before the message
//! payloads became shared (`Arc`) values; a change to how payloads are
//! represented, cloned or forwarded must leave every digest unchanged.
//! A change that shifts a digest changes what the protocols do, and has
//! to say so by updating the constant deliberately.

use bcount_core::adversary::{BeaconSpamAdversary, EdgeInjectorAdversary, PathTamperAdversary};
use bcount_core::congest::{CongestCounting, CongestEstimate, CongestParams, CongestTrigger};
use bcount_core::local::{LocalConfig, LocalCounting, LocalEstimate, LocalTrigger};
use bcount_graph::gen::hnd;
use bcount_graph::{Graph, NodeId};
use bcount_sim::prelude::*;
use bcount_sim::{CrashEvent, FaultPlan};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// CONGEST + beacon spam on H(1024, 8), clean.
const CONGEST_SPAM: Pin = Pin {
    snapshots: 0x8cae_0de5_070b_a3c5,
    outputs: 0xdf61_1d21_f0f1_7dec,
};
/// CONGEST + beacon spam on H(1024, 8) under a drop/dup/delay/crash plan.
const CONGEST_FAULTY: Pin = Pin {
    snapshots: 0x4245_ad14_c3cf_a271,
    outputs: 0x0cd4_d29e_9ca6_d61f,
};
/// CONGEST + path tampering on H(256, 8).
const CONGEST_TAMPER: Pin = Pin {
    snapshots: 0x597f_f06c_0b94_85fe,
    outputs: 0x65e9_13c6_83b2_d49d,
};
/// LOCAL + edge injection on H(512, 8).
const LOCAL_INJECT: Pin = Pin {
    snapshots: 0x8e7b_5ed1_3d1b_7df5,
    outputs: 0xffbc_6422_35e4_d014,
};

/// Degree of every test network.
const D: usize = 8;
/// Round cap of the CONGEST runs: long enough for several phases of
/// beacon floods, blacklisting and decisions under spam.
const CONGEST_ROUNDS: u64 = 400;

/// The two digests of one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    /// FNV-1a over the per-round snapshot chain.
    snapshots: u64,
    /// FNV-1a over every node's final output.
    outputs: u64,
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

fn fold_snapshot(h: &mut Fnv, s: &ExecutionSnapshot) {
    for x in [
        s.round,
        s.n as u64,
        s.honest as u64,
        s.byzantine as u64,
        s.decided as u64,
        s.halted as u64,
        match s.stop {
            None => 0,
            Some(StopReason::AllHalted) => 1,
            Some(StopReason::AllDecided) => 2,
            Some(StopReason::MaxRounds) => 3,
        },
        s.estimate.count as u64,
        s.messages_total,
        s.bits_total,
        s.dropped,
        s.duplicated,
        s.delayed,
        s.crashed,
    ] {
        h.u64(x);
    }
    for x in [
        s.estimate.min,
        s.estimate.max,
        s.estimate.mean,
        s.estimate.median,
    ] {
        h.f64(x);
    }
}

fn fold_congest(h: &mut Fnv, out: &CongestEstimate) {
    h.u64(u64::from(out.estimate));
    h.u64(out.iteration);
    h.u64(match out.trigger {
        CongestTrigger::NoBeacon => 0,
        CongestTrigger::Horizon => 1,
    });
}

fn fold_local(h: &mut Fnv, out: &LocalEstimate) {
    h.u64(u64::from(out.radius));
    match out.trigger {
        LocalTrigger::MuteNeighbor => h.u64(0),
        LocalTrigger::Inconsistency => h.u64(1),
        LocalTrigger::ExpansionFailure { witness } => {
            h.u64(2);
            h.f64(witness);
        }
        LocalTrigger::Horizon => h.u64(3),
    }
}

/// Steps `exec` to its stop, snapshotting after every round, and digests
/// the snapshot chain and the final per-node outputs (with each node's
/// decision round and halt flag).
fn transcript<P, A>(
    mut exec: Execution<Graph, P, A>,
    raw: fn(&P::Output) -> f64,
    fold_out: fn(&mut Fnv, &P::Output),
) -> (Pin, ExecutionSnapshot)
where
    P: Protocol + PhaseSend,
    P::Message: PhaseShared,
    A: Adversary<P>,
{
    let mut snapshots = Fnv::new();
    while exec.finished().is_none() {
        exec.step();
        fold_snapshot(&mut snapshots, &exec.snapshot_with(raw));
    }
    let mut outputs = Fnv::new();
    let states = exec.node_states_with(raw);
    for (u, state) in states.iter().enumerate() {
        outputs.u64(u64::from(state.byzantine));
        outputs.u64(u64::from(state.halted));
        outputs.u64(state.decided_round.unwrap_or(u64::MAX));
        match exec.protocol(NodeId(u as u32)).and_then(|p| p.output()) {
            Some(out) => {
                outputs.u64(1);
                fold_out(&mut outputs, &out);
            }
            None => outputs.u64(0),
        }
    }
    let last = exec.snapshot_with(raw);
    (
        Pin {
            snapshots: snapshots.0,
            outputs: outputs.0,
        },
        last,
    )
}

/// `count` Byzantine nodes at an even stride over `0..n`.
fn spread(n: usize, count: usize) -> Vec<NodeId> {
    let stride = n / count;
    (0..count).map(|k| NodeId((k * stride) as u32)).collect()
}

fn network(n: usize, seed: u64) -> Graph {
    hnd(n, D, &mut ChaCha8Rng::seed_from_u64(seed)).expect("valid H(n, d)")
}

fn congest_config(seed: u64, fault: Option<FaultPlan>) -> SimConfig {
    let mut b = SimConfig::builder()
        .seed(seed)
        .max_rounds(CONGEST_ROUNDS)
        .stop_when(StopWhen::AllHonestDecided);
    if let Some(plan) = fault {
        b = b.fault_plan(plan);
    }
    b.build().expect("valid config")
}

fn congest_raw(out: &CongestEstimate) -> f64 {
    f64::from(out.estimate)
}

fn local_raw(out: &LocalEstimate) -> f64 {
    f64::from(out.radius)
}

fn congest_spam(fault: Option<FaultPlan>) -> (Pin, ExecutionSnapshot) {
    let n = 1024;
    let params = CongestParams::default();
    // Theorem 2's budget at ξ = 0.05: ⌊1024^0.45⌋ = 22.
    let byz = spread(n, 22);
    let exec = Execution::new(
        network(n, 0xC0DE),
        &byz,
        |_, init| CongestCounting::new(params, init),
        BeaconSpamAdversary::new(params),
        congest_config(0x5EED, fault),
    );
    transcript(exec, congest_raw, fold_congest)
}

fn check(case: &str, got: Pin, want: Pin) {
    assert_eq!(
        got, want,
        "{case}: transcript digest moved (got snapshots: {:#018x}, outputs: {:#018x})",
        got.snapshots, got.outputs
    );
}

#[test]
fn congest_beacon_spam_transcript_is_pinned() {
    let (pin, last) = congest_spam(None);
    assert!(last.messages_total > 0 && last.decided > 0);
    check("congest spam", pin, CONGEST_SPAM);
}

#[test]
fn congest_faulty_transcript_is_pinned() {
    let plan = FaultPlan {
        seed: 0xFA17,
        crashes: vec![
            CrashEvent { round: 40, node: 5 },
            CrashEvent {
                round: 150,
                node: 301,
            },
            CrashEvent {
                round: 260,
                node: 777,
            },
        ],
        drop_per_mille: 20,
        dup_per_mille: 10,
        delay_per_mille: 20,
        delay_rounds: 2,
    };
    let (pin, last) = congest_spam(Some(plan));
    assert!(last.dropped > 0 && last.duplicated > 0 && last.delayed > 0);
    assert_eq!(last.crashed, 3);
    check("congest faulty", pin, CONGEST_FAULTY);
}

#[test]
fn congest_path_tamper_transcript_is_pinned() {
    let n = 256;
    let params = CongestParams::default();
    let exec = Execution::new(
        network(n, 0x7A3),
        &spread(n, 8),
        |_, init| CongestCounting::new(params, init),
        PathTamperAdversary::new(params),
        congest_config(0x7A4, None),
    );
    let (pin, last) = transcript(exec, congest_raw, fold_congest);
    assert!(last.decided > 0);
    check("congest path tamper", pin, CONGEST_TAMPER);
}

#[test]
fn local_edge_injection_transcript_is_pinned() {
    let n = 512;
    let cfg = LocalConfig {
        max_degree: D + 2,
        ..LocalConfig::default()
    };
    // Theorem 1's budget at γ = 0.7: ⌊512^0.3⌋ = 6.
    let exec = Execution::new(
        network(n, 0x10CA1),
        &spread(n, 6),
        |_, init| LocalCounting::new(cfg, init),
        EdgeInjectorAdversary::new(0x1D),
        SimConfig::builder()
            .seed(0x10CA2)
            .max_rounds(200)
            .stop_when(StopWhen::AllHonestHalted)
            .build()
            .expect("valid config"),
    );
    let (pin, last) = transcript(exec, local_raw, fold_local);
    assert_eq!(last.stop, Some(StopReason::AllHalted));
    check("local edge injection", pin, LOCAL_INJECT);
}
