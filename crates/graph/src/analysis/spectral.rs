//! Spectral toolkit: power iteration, spectral gap, Fiedler vectors, and
//! Cheeger sweep cuts.
//!
//! This module is the tractable stand-in for Algorithm 1's exponential
//! "check every vertex subset" expansion test (see `bcount-core`'s
//! `local::checks` for the substitution): if *any* subset of a graph has
//! small vertex expansion, the graph has a sparse cut, the spectral gap
//! of the lazy random walk is small (Cheeger), and a sweep over the
//! Fiedler embedding finds a certifiably sparse cut. The
//! deterministic counting protocol uses [`min_sweep_expansion`] on its
//! local view, and the unit tests cross-validate the sweep against
//! [`crate::analysis::expansion::vertex_expansion_exact`] on small graphs.
//!
//! All spectral quantities refer to the **lazy normalized adjacency**
//! `M = (I + D^{-1/2} A D^{-1/2}) / 2`, whose spectrum lies in `[0, 1]`
//! with top eigenvalue exactly 1 (eigenvector `∝ √deg`). The *spectral
//! gap* reported is `1 − λ₂(M)`; it is 0 for disconnected graphs and
//! bounded away from 0 for expanders (≈ 0.17 for Ramanujan 8-regular
//! graphs).

use crate::{Graph, NodeId};

/// A cut discovered by the Fiedler sweep, with its vertex expansion.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCut {
    /// The side of the cut with at most `n/2` nodes.
    pub set: Vec<NodeId>,
    /// `|Out(set)| / |set|`.
    pub expansion: f64,
}

/// Deterministic pseudo-random initial vector (splitmix64 per index), so
/// spectral routines need no RNG argument and are reproducible.
fn seed_vector(n: usize) -> Vec<f64> {
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
    (0..n)
        .map(|i| {
            let r = splitmix64(0xB5_C0_FF_EE ^ (i as u64));
            // Map to (-1, 1).
            (r as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
        .collect()
}

/// One multiply by the lazy normalized adjacency
/// `M = (I + D^{-1/2} A D^{-1/2}) / 2`; zero-degree nodes act as fixed
/// points of the `I` part only.
fn lazy_matvec(g: &Graph, deg_isqrt: &[f64], x: &[f64], y: &mut [f64]) {
    for u in g.nodes() {
        let ui = u.index();
        let mut acc = 0.0;
        for v in g.neighbors(u) {
            acc += x[v.index()] * deg_isqrt[v.index()];
        }
        y[ui] = 0.5 * x[ui] + 0.5 * deg_isqrt[ui] * acc;
    }
}

fn norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

fn project_off(x: &mut [f64], dir: &[f64]) {
    let dot: f64 = x.iter().zip(dir).map(|(a, b)| a * b).sum();
    for (xi, di) in x.iter_mut().zip(dir) {
        *xi -= dot * di;
    }
}

/// Power iteration for the second eigenpair of the lazy normalized
/// adjacency. Returns `(λ₂(M), fiedler embedding)` where the embedding is
/// the eigenvector rescaled by `D^{-1/2}` (the harmonic coordinates used
/// for sweep ordering).
fn second_eigenpair(g: &Graph, iters: usize) -> (f64, Vec<f64>) {
    let n = g.len();
    if n == 0 {
        return (0.0, Vec::new());
    }
    let deg_isqrt: Vec<f64> = g
        .nodes()
        .map(|u| {
            let d = g.degree(u);
            if d == 0 {
                0.0
            } else {
                1.0 / (d as f64).sqrt()
            }
        })
        .collect();
    // Known top eigenvector: phi_u ∝ sqrt(deg u).
    let mut phi: Vec<f64> = g.nodes().map(|u| (g.degree(u) as f64).sqrt()).collect();
    let phi_norm = norm(&phi);
    if phi_norm > 0.0 {
        for v in &mut phi {
            *v /= phi_norm;
        }
    }
    let mut x = seed_vector(n);
    project_off(&mut x, &phi);
    let mut y = vec![0.0; n];
    let mut lambda = 0.0;
    for _ in 0..iters.max(1) {
        lazy_matvec(g, &deg_isqrt, &x, &mut y);
        project_off(&mut y, &phi);
        let ny = norm(&y);
        if ny < 1e-300 {
            // x was (numerically) in the span of phi: no second direction.
            return (0.0, vec![0.0; n]);
        }
        for v in &mut y {
            *v /= ny;
        }
        std::mem::swap(&mut x, &mut y);
        lambda = ny;
    }
    // Rayleigh quotient for a final, more accurate eigenvalue estimate.
    lazy_matvec(g, &deg_isqrt, &x, &mut y);
    let rq: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
    lambda = if rq.is_finite() { rq } else { lambda };
    let embedding: Vec<f64> = x.iter().zip(&deg_isqrt).map(|(v, s)| v * s).collect();
    (lambda.clamp(0.0, 1.0), embedding)
}

/// The spectral gap `1 − λ₂` of the lazy normalized adjacency.
///
/// Returns a value in `[0, 1]`: 0 for disconnected graphs, and bounded
/// away from 0 for expanders. `iters` controls power-iteration length; 200
/// is ample for graphs up to ~10⁵ nodes.
pub fn spectral_gap(g: &Graph, iters: usize) -> f64 {
    if g.len() < 2 {
        // A single node (or empty graph) is trivially "fully connected".
        return 1.0;
    }
    let (lambda2, _) = second_eigenpair(g, iters);
    1.0 - lambda2
}

/// The Fiedler embedding: second eigenvector of the lazy normalized
/// adjacency, rescaled by `D^{-1/2}`.
///
/// Sorting nodes by this embedding and sweeping prefixes yields sparse
/// cuts (Cheeger); see [`min_sweep_expansion`].
pub fn fiedler_vector(g: &Graph, iters: usize) -> Vec<f64> {
    second_eigenpair(g, iters).1
}

/// Sweeps prefixes of the Fiedler order and returns the prefix (or
/// complement) with at most `n/2` nodes minimizing vertex expansion.
///
/// Runs in `O(m + n log n)` after the power iteration thanks to
/// incremental boundary maintenance. Returns `None` for graphs with fewer
/// than 2 nodes.
pub fn min_sweep_expansion(g: &Graph, iters: usize) -> Option<SweepCut> {
    let n = g.len();
    if n < 2 {
        return None;
    }
    let embedding = fiedler_vector(g, iters);
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.sort_by(|a, b| {
        embedding[a.index()]
            .partial_cmp(&embedding[b.index()])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(b))
    });
    sweep_over_order(g, &order)
}

/// Sweeps prefixes of an explicit node order (used directly by Algorithm 1
/// on BFS orders, and by [`min_sweep_expansion`] on the Fiedler order).
///
/// For each prefix `S` of the order, evaluates the vertex expansion of the
/// smaller of `S` and its complement, and returns the minimizer. Returns
/// `None` if `order` covers fewer than 2 nodes.
pub fn sweep_over_order(g: &Graph, order: &[NodeId]) -> Option<SweepCut> {
    let n = g.len();
    if n < 2 || order.len() < 2 {
        return None;
    }
    debug_assert_eq!(order.len(), n, "order must cover every node");
    let mut in_set = vec![false; n];
    // in_cnt[v]: # of v's adjacency slots pointing into S.
    let mut in_cnt = vec![0usize; n];
    // out_cnt[v]: # of v's adjacency slots pointing out of S.
    let mut out_cnt: Vec<usize> = g.nodes().map(|u| g.degree(u)).collect();
    let mut out_size = 0usize; // |Out(S)| = #{v ∉ S : in_cnt[v] > 0}
    let mut boundary_in = 0usize; // #{u ∈ S : out_cnt[u] > 0}
    let mut best: Option<(f64, usize, bool)> = None; // (expansion, prefix len, use_prefix)
    for (k, &u) in order.iter().enumerate().take(n - 1) {
        // Move u into S.
        let ui = u.index();
        in_set[ui] = true;
        if in_cnt[ui] > 0 {
            out_size -= 1; // u no longer counts toward Out(S)
        }
        if out_cnt[ui] > 0 {
            boundary_in += 1;
        }
        for v in g.neighbors(u) {
            let vi = v.index();
            if vi == ui {
                // Self-loop slots point into S now; they never affect cuts.
                in_cnt[ui] += 1;
                out_cnt[ui] -= 1;
                if out_cnt[ui] == 0 && in_set[ui] && boundary_in > 0 {
                    // Recheck u's boundary membership.
                    boundary_in -= 1;
                }
                continue;
            }
            in_cnt[vi] += 1;
            if !in_set[vi] && in_cnt[vi] == 1 {
                out_size += 1;
            }
            out_cnt[vi] -= 1;
            if in_set[vi] && out_cnt[vi] == 0 {
                boundary_in -= 1;
            }
        }
        let prefix_len = k + 1;
        let (h, use_prefix) = if prefix_len <= n / 2 {
            (out_size as f64 / prefix_len as f64, true)
        } else {
            (boundary_in as f64 / (n - prefix_len) as f64, false)
        };
        if best.is_none_or(|(bh, _, _)| h < bh) {
            best = Some((h, prefix_len, use_prefix));
        }
    }
    let (expansion, prefix_len, use_prefix) = best?;
    let set: Vec<NodeId> = if use_prefix {
        order[..prefix_len].to_vec()
    } else {
        order[prefix_len..].to_vec()
    };
    Some(SweepCut { set, expansion })
}

/// Sweeps prefixes of a *partial* node order (a subset of the graph's
/// nodes), measuring each prefix's vertex expansion in the **full** graph,
/// and returns the minimizing prefix.
///
/// Unlike [`sweep_over_order`] this takes no complements and imposes no
/// `n/2` cap — it mirrors Algorithm 1's check family, where candidate sets
/// range over all subsets of the *previous* view (the announced nodes)
/// while `Out(S)` is evaluated in the grown view. Returns `None` if
/// `order` is empty.
pub fn sweep_prefix_expansion(g: &Graph, order: &[NodeId]) -> Option<SweepCut> {
    if order.is_empty() {
        return None;
    }
    let n = g.len();
    let mut in_set = vec![false; n];
    let mut in_cnt = vec![0usize; n];
    let mut out_size = 0usize;
    let mut best: Option<(f64, usize)> = None;
    for (k, &u) in order.iter().enumerate() {
        let ui = u.index();
        debug_assert!(!in_set[ui], "order must not repeat nodes");
        in_set[ui] = true;
        if in_cnt[ui] > 0 {
            out_size -= 1;
        }
        for v in g.neighbors(u) {
            let vi = v.index();
            if vi == ui {
                continue; // self-loops never contribute to Out
            }
            in_cnt[vi] += 1;
            if !in_set[vi] && in_cnt[vi] == 1 {
                out_size += 1;
            }
        }
        let h = out_size as f64 / (k + 1) as f64;
        if best.is_none_or(|(bh, _)| h < bh) {
            best = Some((h, k + 1));
        }
    }
    let (expansion, len) = best?;
    Some(SweepCut {
        set: order[..len].to_vec(),
        expansion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::expansion::{set_vertex_expansion, vertex_expansion_exact};
    use crate::gen::{barbell, complete, cycle, hnd};
    use crate::GraphBuilder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn gap_of_complete_graph() {
        // K_n: λ₂(A/d) = -1/(n-1) so λ₂(lazy) = (1 - 1/(n-1))/2.
        let n = 20.0;
        let g = complete(20).unwrap();
        let expected = 1.0 - (1.0 - 1.0 / (n - 1.0)) / 2.0;
        let gap = spectral_gap(&g, 300);
        assert!((gap - expected).abs() < 1e-6, "gap {gap} vs {expected}");
    }

    #[test]
    fn gap_of_cycle_matches_closed_form() {
        // C_n: λ₂(A/2) = cos(2π/n) so gap = (1 - cos(2π/n)) / 2.
        let n = 24usize;
        let g = cycle(n).unwrap();
        let expected = (1.0 - (2.0 * std::f64::consts::PI / n as f64).cos()) / 2.0;
        let gap = spectral_gap(&g, 3000);
        assert!((gap - expected).abs() < 1e-4, "gap {gap} vs {expected}");
    }

    #[test]
    fn gap_of_disconnected_graph_is_zero() {
        let mut b = GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            b.add_edge(NodeId(u), NodeId(v));
        }
        let g = b.build();
        let gap = spectral_gap(&g, 500);
        assert!(gap < 1e-9, "disconnected graph gap {gap}");
    }

    #[test]
    fn expander_has_large_gap() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let g = hnd(400, 8, &mut rng).unwrap();
        let gap = spectral_gap(&g, 300);
        assert!(gap > 0.1, "H(400,8) gap {gap} should be expander-sized");
        // And far larger than a cycle of the same size.
        let c = cycle(400).unwrap();
        assert!(spectral_gap(&c, 300) < 0.01);
    }

    #[test]
    fn sweep_finds_the_barbell_bottleneck() {
        let g = barbell(10, 0).unwrap();
        let cut = min_sweep_expansion(&g, 500).unwrap();
        // The true sparsest cut is one clique: expansion 1/10.
        assert!(
            cut.expansion <= 0.11,
            "sweep expansion {} should find the clique cut",
            cut.expansion
        );
        assert_eq!(cut.set.len(), 10);
    }

    #[test]
    fn sweep_is_consistent_with_reported_expansion() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = hnd(64, 4, &mut rng).unwrap();
        let cut = min_sweep_expansion(&g, 400).unwrap();
        let recomputed = set_vertex_expansion(&g, &cut.set);
        assert!(
            (cut.expansion - recomputed).abs() < 1e-9,
            "incremental sweep {} vs recomputed {}",
            cut.expansion,
            recomputed
        );
        assert!(cut.set.len() <= g.len() / 2);
    }

    #[test]
    fn sweep_upper_bounds_exact_expansion_on_small_graphs() {
        // The sweep expansion is an upper bound on h(G) (it is the
        // expansion of *a* set), and for graphs with sparse cuts it should
        // be close to exact.
        for (name, g) in [
            ("cycle12", cycle(12).unwrap()),
            ("barbell5", barbell(5, 0).unwrap()),
            ("complete8", complete(8).unwrap()),
        ] {
            let exact = vertex_expansion_exact(&g).unwrap();
            let sweep = min_sweep_expansion(&g, 2000).unwrap().expansion;
            assert!(
                sweep + 1e-9 >= exact,
                "{name}: sweep {sweep} below exact {exact}"
            );
            assert!(
                sweep <= 3.0 * exact + 1e-9,
                "{name}: sweep {sweep} far from exact {exact}"
            );
        }
    }

    #[test]
    fn sweep_over_custom_order_detects_planted_cut() {
        // Order that puts one triangle of a two-triangle graph first.
        let mut b = GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)] {
            b.add_edge(NodeId(u), NodeId(v));
        }
        let g = b.build();
        let order: Vec<NodeId> = (0..6u32).map(NodeId).collect();
        let cut = sweep_over_order(&g, &order).unwrap();
        assert!((cut.expansion - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(cut.set.len(), 3);
    }

    #[test]
    fn degenerate_graphs() {
        assert!(min_sweep_expansion(&crate::Graph::empty(1), 10).is_none());
        assert_eq!(spectral_gap(&crate::Graph::empty(1), 10), 1.0);
        assert_eq!(spectral_gap(&crate::Graph::empty(0), 10), 1.0);
    }

    #[test]
    fn prefix_sweep_measures_in_full_graph() {
        // Path 0-1-2-3-4; sweep the order [1, 2] only.
        let g = crate::gen::path(5).unwrap();
        let order = [NodeId(1), NodeId(2)];
        let cut = sweep_prefix_expansion(&g, &order).unwrap();
        // Prefix {1}: Out = {0, 2} → 2.0. Prefix {1,2}: Out = {0,3} → 1.0.
        assert!((cut.expansion - 1.0).abs() < 1e-12);
        assert_eq!(cut.set, vec![NodeId(1), NodeId(2)]);
        assert!(sweep_prefix_expansion(&g, &[]).is_none());
    }

    #[test]
    fn prefix_sweep_detects_stalled_growth() {
        // A triangle with a single pendant frontier node: sweeping the
        // triangle finds expansion 1/3 (only the pendant is outside).
        let mut b = GraphBuilder::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (2, 3)] {
            b.add_edge(NodeId(u), NodeId(v));
        }
        let g = b.build();
        let order = [NodeId(0), NodeId(1), NodeId(2)];
        let cut = sweep_prefix_expansion(&g, &order).unwrap();
        assert!((cut.expansion - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(cut.set.len(), 3);
    }

    #[test]
    fn self_loops_do_not_break_sweep() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(0));
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            b.add_edge(NodeId(u), NodeId(v));
        }
        let g = b.build();
        let cut = min_sweep_expansion(&g, 300).unwrap();
        let recomputed = set_vertex_expansion(&g, &cut.set);
        assert!((cut.expansion - recomputed).abs() < 1e-9);
    }
}
