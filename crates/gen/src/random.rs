//! Seeded random live Timed Signal Graphs.
//!
//! Construction guarantees every structural invariant the builder checks:
//!
//! 1. lay all `n` events on a Hamiltonian ring with `tokens` marked arcs —
//!    this gives strong connectivity and liveness;
//! 2. add random chord arcs: a chord that respects the topological order of
//!    the current unmarked subgraph stays unmarked, any other chord is
//!    added marked (which can never create a token-free cycle);
//! 3. draw integer delays uniformly from `0..=max_delay` (integral values
//!    keep cycle-time comparisons exact in tests);
//! 4. optionally attach a prefix (an initial event with disengageable arcs
//!    into a few border events), exercising the non-repetitive machinery.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tsg_core::SignalGraph;

/// Parameters of [`random_live_tsg`].
#[derive(Clone, Copy, Debug)]
pub struct RandomTsgConfig {
    /// Number of repetitive events (>= 2).
    pub events: usize,
    /// Number of initial tokens on the base ring (1..=events).
    pub tokens: usize,
    /// Number of extra chord arcs.
    pub chords: usize,
    /// Maximum integer delay (inclusive).
    pub max_delay: u32,
    /// Attach an initial event with disengageable arcs into the graph.
    pub with_prefix: bool,
}

impl Default for RandomTsgConfig {
    fn default() -> Self {
        RandomTsgConfig {
            events: 12,
            tokens: 3,
            chords: 10,
            max_delay: 9,
            with_prefix: false,
        }
    }
}

/// Generates a random valid Timed Signal Graph from a seed.
///
/// The same `(seed, config)` pair always yields the same graph.
///
/// # Panics
///
/// Panics if `config.events < 2` or `config.tokens` is not in
/// `1..=config.events`.
///
/// # Examples
///
/// ```
/// use tsg_gen::{random_live_tsg, RandomTsgConfig};
/// use tsg_core::analysis::CycleTimeAnalysis;
///
/// let sg = random_live_tsg(42, RandomTsgConfig::default());
/// assert!(CycleTimeAnalysis::run(&sg).is_ok());
/// ```
pub fn random_live_tsg(seed: u64, config: RandomTsgConfig) -> SignalGraph {
    assert!(config.events >= 2, "need at least two events");
    assert!(
        (1..=config.events).contains(&config.tokens),
        "tokens must be in 1..=events"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = config.events;
    let mut b = SignalGraph::builder();
    let events: Vec<_> = (0..n).map(|i| b.event(&format!("v{i}+"))).collect();

    let delay = |rng: &mut SmallRng| rng.gen_range(0..=config.max_delay) as f64;

    // 1. Hamiltonian ring with evenly spread tokens.
    // `order[v]` is the position of v in the topological order of the
    // unmarked subgraph: cutting the ring at the arc after the last token
    // makes positions 0..n well-defined.
    let mut order = vec![0usize; n];
    let marked_ring: Vec<bool> = (0..n)
        .map(|i| (i + 1) * config.tokens / n != i * config.tokens / n)
        .collect();
    // Rotate so that the ring arc n-1 -> 0 is marked, making 0..n a valid
    // topological position assignment for unmarked ring arcs.
    let last_marked = (0..n)
        .rev()
        .find(|&i| marked_ring[i])
        .expect("tokens >= 1 guarantees a marked arc");
    let start = (last_marked + 1) % n;
    for (pos, off) in (0..n).enumerate() {
        order[(start + off) % n] = pos;
    }
    let d = delay(&mut rng);
    for i in 0..n {
        let next = (i + 1) % n;
        let del = if i == 0 { d } else { delay(&mut rng) };
        if marked_ring[i] {
            b.marked_arc(events[i], events[next], del);
        } else {
            b.arc(events[i], events[next], del);
        }
    }

    // 2. Random chords.
    for _ in 0..config.chords {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            // self-chords must carry a token to stay live
            b.marked_arc(events[u], events[v], delay(&mut rng));
        } else if order[u] < order[v] {
            b.arc(events[u], events[v], delay(&mut rng));
        } else {
            b.marked_arc(events[u], events[v], delay(&mut rng));
        }
    }

    // 3. Optional prefix.
    if config.with_prefix {
        let init = b.initial_event("go");
        let fin = b.finite_event("armed");
        b.arc(init, fin, delay(&mut rng));
        // Disengageable arcs into up to three ring heads of marked arcs
        // (border events), which may legally receive prefix constraints.
        let mut attached = 0;
        for i in 0..n {
            if marked_ring[i] && attached < 3 {
                let head = events[(i + 1) % n];
                b.disengageable_arc(fin, head, delay(&mut rng));
                attached += 1;
            }
        }
    }

    b.build().expect("construction maintains all invariants")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_core::analysis::CycleTimeAnalysis;

    #[test]
    fn deterministic_for_seed() {
        let a = random_live_tsg(7, RandomTsgConfig::default());
        let b = random_live_tsg(7, RandomTsgConfig::default());
        assert_eq!(a.event_count(), b.event_count());
        assert_eq!(a.arc_count(), b.arc_count());
        for (x, y) in a.arc_ids().zip(b.arc_ids()) {
            assert_eq!(a.arc(x).delay(), b.arc(y).delay());
            assert_eq!(a.arc(x).src(), b.arc(y).src());
        }
    }

    #[test]
    fn many_seeds_build_and_analyze() {
        for seed in 0..50 {
            let sg = random_live_tsg(seed, RandomTsgConfig::default());
            let analysis =
                CycleTimeAnalysis::run(&sg).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(analysis.cycle_time().as_f64() >= 0.0);
        }
    }

    #[test]
    fn prefix_variant_builds() {
        for seed in 0..20 {
            let cfg = RandomTsgConfig {
                with_prefix: true,
                ..RandomTsgConfig::default()
            };
            let sg = random_live_tsg(seed, cfg);
            assert!(sg.prefix_events().count() >= 2, "seed {seed}");
            assert!(CycleTimeAnalysis::run(&sg).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn dense_variant_builds() {
        let cfg = RandomTsgConfig {
            events: 30,
            tokens: 7,
            chords: 120,
            max_delay: 20,
            with_prefix: false,
        };
        for seed in 0..10 {
            let sg = random_live_tsg(seed, cfg);
            assert_eq!(sg.event_count(), 30);
            assert_eq!(sg.arc_count(), 30 + 120);
            assert!(CycleTimeAnalysis::run(&sg).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn token_extremes() {
        for tokens in [1, 6, 12] {
            let cfg = RandomTsgConfig {
                tokens,
                ..RandomTsgConfig::default()
            };
            let sg = random_live_tsg(3, cfg);
            assert!(!sg.border_events().is_empty());
        }
    }
}
