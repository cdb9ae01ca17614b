//! Census oracle: the engine serves [`Execution::snapshot_with`],
//! [`Execution::node_states_with`], [`Execution::finished`] and
//! [`Execution::report`] from tallies it keeps where the state changes and
//! from its own record of each node's decision. This suite recounts all of
//! it literally, at every round, from what the protocol instances report
//! ([`Protocol::output`], [`Protocol::has_halted`]), the Byzantine and
//! crash flags, and [`Metrics::per_node`] — under a fault plan that crashes
//! decided, halted, undecided, decided-before-round-1 and Byzantine nodes,
//! with the round trace on, in pools of 1 and 4 workers (the second forks
//! the compute with the `parallel` feature).

use bcount_graph::gen::hnd;
use bcount_graph::{Graph, NodeId};
use bcount_sim::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A message whose size varies with its content, so bit totals are not a
/// multiple of message counts.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Tag(u64);

impl MessageSize for Tag {
    fn size_bits(&self, _id_bits: u32) -> u64 {
        16 + self.0 % 48
    }
}

/// Decides in round `decide_at` (0: before its first round) on a value
/// fixed at that point, and halts in round `halt_at`, decided or not.
struct Staged {
    pid: u64,
    decide_at: u64,
    halt_at: Option<u64>,
    heard: u64,
    round: u64,
    value: Option<u64>,
}

impl Protocol for Staged {
    type Message = Tag;
    type Output = u64;

    fn on_round(&mut self, ctx: &mut NodeContext<'_, Tag>) {
        self.round = ctx.round();
        self.heard = ctx.inbox().iter().fold(self.heard, |h, env| {
            h.wrapping_mul(31).wrapping_add(env.msg.0)
        });
        if self.value.is_none() && self.round >= self.decide_at {
            self.value = Some(self.heard ^ self.pid);
        }
        if !self.round.is_multiple_of(3) || self.pid.is_multiple_of(2) {
            ctx.broadcast(Tag(self.heard ^ self.round));
        }
    }

    fn output(&self) -> Option<u64> {
        self.value
    }

    fn has_halted(&self) -> bool {
        self.halt_at.is_some_and(|h| self.round >= h)
    }
}

/// Every Byzantine node broadcasts on odd rounds.
struct Chatter;

impl<P: Protocol<Message = Tag>> Adversary<P> for Chatter {
    fn on_round(&mut self, view: &FullInfoView<'_, P>, ctx: &mut ByzantineContext<'_, Tag>) {
        if view.round().is_multiple_of(2) {
            return;
        }
        for b in view.byzantine_nodes() {
            ctx.broadcast(b, Tag(view.round() * 7 + u64::from(b.0)));
        }
    }
}

const N: usize = 160;
const BYZANTINE: [u32; 3] = [5, 17, 29];

fn decide_at(u: usize) -> u64 {
    2 * (u % 6) as u64
}

/// `settle`: every node eventually halts (so an all-halted or
/// all-decided stop can hold); otherwise every fifth node never halts,
/// and a sixth of the rest halt in round 3, before some of them decide.
fn halt_at(u: usize, settle: bool) -> Option<u64> {
    match u % 5 {
        _ if settle => Some(decide_at(u) + 1 + (u % 3) as u64),
        0 => None,
        1 => Some(3),
        k => Some(decide_at(u) + k as u64),
    }
}

fn is_byzantine(u: usize) -> bool {
    BYZANTINE.contains(&(u as u32))
}

/// Crashes a node of each kind: decided before round 1 (in round 1),
/// undecided, decided but running, halted, and Byzantine — five distinct
/// nodes.
fn crash_plan(settle: bool) -> FaultPlan {
    let mut taken: Vec<u32> = BYZANTINE.to_vec();
    let mut pick = |what: &str, pred: &dyn Fn(usize) -> bool| {
        let u = (0..N as u32)
            .find(|&u| !taken.contains(&u) && pred(u as usize))
            .unwrap_or_else(|| panic!("no {what} node to crash"));
        taken.push(u);
        u
    };
    let crashes = vec![
        CrashEvent {
            round: 1,
            node: pick("pre-decided", &|u| decide_at(u) == 0),
        },
        CrashEvent {
            round: 3,
            node: pick("undecided", &|u| decide_at(u) >= 8),
        },
        CrashEvent {
            round: 3,
            node: pick("decided, running", &|u| {
                decide_at(u) == 2 && halt_at(u, settle).is_none_or(|h| h > 2)
            }),
        },
        CrashEvent {
            round: 6,
            node: pick("halted", &|u| halt_at(u, settle).is_some_and(|h| h <= 4)),
        },
        CrashEvent {
            round: 4,
            node: BYZANTINE[0],
        },
    ];
    FaultPlan {
        seed: 9,
        crashes,
        drop_per_mille: 50,
        dup_per_mille: 30,
        delay_per_mille: 40,
        delay_rounds: 2,
    }
}

fn raw(out: &u64) -> f64 {
    (*out % 1000) as f64
}

/// The literal census, advanced one round at a time from the protocols.
struct Recount {
    plan: FaultPlan,
    stop_when: StopWhen,
    max_rounds: u64,
    decided_round: Vec<Option<u64>>,
    halted: Vec<bool>,
}

impl Recount {
    fn crashed(&self, u: usize, round: u64) -> bool {
        self.plan
            .crashes
            .iter()
            .any(|ev| ev.node as usize == u && ev.round <= round)
    }

    fn live(&self, u: usize, round: u64) -> bool {
        !is_byzantine(u) && !self.crashed(u, round)
    }

    /// Folds in round `round`: the nodes it drove are the honest ones not
    /// crashed by then and not halted before it.
    fn advance<A: Adversary<Staged>>(&mut self, exec: &Execution<&Graph, Staged, A>, round: u64) {
        for u in 0..N {
            if !self.live(u, round) || self.halted[u] {
                continue;
            }
            let proto = exec.protocol(NodeId(u as u32)).expect("honest");
            if self.decided_round[u].is_none() && proto.output().is_some() {
                self.decided_round[u] = Some(round);
            }
            self.halted[u] = proto.has_halted();
        }
    }

    /// `(decided, halted)` over the live honest nodes.
    fn census(&self, round: u64) -> (usize, usize) {
        let live = || (0..N).filter(move |&u| self.live(u, round));
        (
            live().filter(|&u| self.decided_round[u].is_some()).count(),
            live().filter(|&u| self.halted[u]).count(),
        )
    }

    fn stop(&self, round: u64) -> Option<StopReason> {
        let mut live = (0..N).filter(|&u| self.live(u, round));
        match self.stop_when {
            StopWhen::AllHonestHalted if live.all(|u| self.halted[u]) => {
                Some(StopReason::AllHalted)
            }
            StopWhen::AllHonestDecided if live.all(|u| self.decided_round[u].is_some()) => {
                Some(StopReason::AllDecided)
            }
            _ if round >= self.max_rounds => Some(StopReason::MaxRounds),
            _ => None,
        }
    }

    fn snapshot<A: Adversary<Staged>>(
        &self,
        exec: &Execution<&Graph, Staged, A>,
    ) -> ExecutionSnapshot {
        let round = exec.round();
        let output = |u: usize| exec.protocol(NodeId(u as u32)).and_then(|p| p.output());
        let mut estimates: Vec<f64> = (0..N)
            .filter(|&u| self.live(u, round))
            .filter_map(|u| output(u).map(|o| raw(&o)))
            .collect();
        let per_node = &exec.metrics().per_node;
        let honest = || (0..N).filter(|&u| !is_byzantine(u)).map(|u| per_node[u]);
        let (decided, halted) = self.census(round);
        let metrics = exec.metrics();
        ExecutionSnapshot {
            round,
            n: N,
            honest: N - BYZANTINE.len(),
            byzantine: BYZANTINE.len(),
            decided,
            halted,
            stop: self.stop(round),
            estimate: EstimateSummary::from_values(&mut estimates),
            messages_total: honest().map(|m| m.messages_sent).sum(),
            bits_total: honest().map(|m| m.bits_sent).sum(),
            dropped: metrics.dropped,
            duplicated: metrics.duplicated,
            delayed: metrics.delayed,
            crashed: metrics.crashed,
        }
    }

    fn node_states<A: Adversary<Staged>>(
        &self,
        exec: &Execution<&Graph, Staged, A>,
    ) -> Vec<NodeState> {
        (0..N)
            .map(|u| NodeState {
                byzantine: is_byzantine(u),
                halted: self.halted[u],
                decided_round: self.decided_round[u],
                estimate: exec
                    .protocol(NodeId(u as u32))
                    .and_then(|p| p.output())
                    .map(|o| raw(&o)),
            })
            .collect()
    }
}

/// Runs one execution to its stop condition, checking every census read
/// against the recount before the first round and after every round.
/// Returns the final report and the rounds run.
fn check(graph: &Graph, settle: bool, stop_when: StopWhen) -> (SimReport<u64>, u64) {
    let byz: Vec<NodeId> = BYZANTINE.iter().map(|&b| NodeId(b)).collect();
    let plan = crash_plan(settle);
    let config = SimConfig {
        seed: 41,
        max_rounds: 24,
        stop_when,
        record_round_stats: true,
        fault: plan.clone(),
    };
    let mut exec = Execution::new(
        graph,
        &byz,
        |u, init| Staged {
            pid: init.pid.0,
            decide_at: decide_at(u.index()),
            halt_at: halt_at(u.index(), settle),
            heard: 0,
            round: 0,
            value: (decide_at(u.index()) == 0).then_some(init.pid.0),
        },
        Chatter,
        config,
    );
    let mut recount = Recount {
        plan,
        stop_when,
        max_rounds: 24,
        decided_round: vec![None; N],
        halted: vec![false; N],
    };
    loop {
        let round = exec.round();
        let want = recount.snapshot(&exec);
        assert_eq!(exec.snapshot_with(raw), want, "snapshot, round {round}");
        assert_eq!(exec.finished(), want.stop, "finished, round {round}");
        assert_eq!(
            exec.node_states_with(raw),
            recount.node_states(&exec),
            "node states, round {round}"
        );
        if round > 0 {
            let trace = exec.metrics().round_trace.last().expect("trace on");
            assert_eq!(trace.round, round);
            assert_eq!(
                (trace.decided, trace.halted),
                recount.census(round),
                "trace census, round {round}"
            );
        }
        if want.stop.is_some() {
            break;
        }
        exec.step();
        recount.advance(&exec, exec.round());
    }
    let report = exec.report().expect("finished");
    let outputs: Vec<Option<u64>> = (0..N)
        .map(|u| exec.protocol(NodeId(u as u32)).and_then(|p| p.output()))
        .collect();
    assert_eq!(report.outputs, outputs, "report outputs");
    (report, exec.round())
}

fn graph() -> Graph {
    hnd(N, 4, &mut ChaCha8Rng::seed_from_u64(3)).unwrap()
}

/// Runs `body` inside a fresh pool of `threads` workers.
fn in_pool<R: Send>(threads: usize, body: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds")
        .install(body)
}

#[test]
fn census_matches_a_literal_recount_at_every_round() {
    let g = graph();
    for threads in [1, 4] {
        let cases = [
            (false, StopWhen::AllHonestHalted, StopReason::MaxRounds),
            (true, StopWhen::AllHonestHalted, StopReason::AllHalted),
            (true, StopWhen::AllHonestDecided, StopReason::AllDecided),
        ];
        for (settle, stop_when, want) in cases {
            let (report, rounds) = in_pool(threads, || check(&g, settle, stop_when));
            assert_eq!(report.stop_reason, want, "{stop_when:?}, pool {threads}");
            assert!(rounds > 6, "every crash lands before the stop");
            assert_eq!(report.metrics.crashed, 5);
        }
    }
}

/// A node decided before its first round shows in a round-0 snapshot's
/// estimates (it has no decided round yet) and in its node state.
#[test]
fn decisions_made_at_construction_show_before_round_one() {
    let g = graph();
    let exec = Execution::new(
        &g,
        &[],
        |u, init| Staged {
            pid: init.pid.0,
            decide_at: decide_at(u.index()),
            halt_at: None,
            heard: 0,
            round: 0,
            value: (decide_at(u.index()) == 0).then_some(init.pid.0),
        },
        NullAdversary,
        SimConfig::default(),
    );
    let pre_decided = (0..N).filter(|&u| decide_at(u) == 0).count();
    let snapshot = exec.snapshot_with(raw);
    assert_eq!((snapshot.round, snapshot.decided), (0, 0));
    assert_eq!(snapshot.estimate.count, pre_decided);
    let states = exec.node_states_with(raw);
    assert_eq!(states.iter().flat_map(|s| s.estimate).count(), pre_decided);
}
