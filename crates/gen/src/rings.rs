//! Ring generators.

use tsg_core::SignalGraph;

/// Builds an `n`-event ring with `tokens` initial tokens spread as evenly
/// as possible, every arc carrying `delay`.
///
/// The cycle time is exactly `n * delay / tokens`, which makes rings the
/// calibration workload of the scaling benchmarks: the border set has
/// `tokens` events regardless of `n`, so the paper's algorithm runs in
/// time `O(tokens² · n)` — linear in `n` at fixed token count.
///
/// # Panics
///
/// Panics if `n == 0`, `tokens == 0` or `tokens > n`.
///
/// # Examples
///
/// ```
/// use tsg_core::analysis::CycleTimeAnalysis;
///
/// let sg = tsg_gen::ring(10, 2, 3.0);
/// let analysis = CycleTimeAnalysis::run(&sg).unwrap();
/// assert_eq!(analysis.cycle_time().as_f64(), 15.0); // 10*3/2
/// ```
pub fn ring(n: usize, tokens: usize, delay: f64) -> SignalGraph {
    assert!(n > 0, "ring needs at least one event");
    assert!(tokens > 0, "a live ring needs at least one token");
    assert!(tokens <= n, "at most one token per arc (initial safety)");
    let mut b = SignalGraph::builder();
    let events: Vec<_> = (0..n).map(|i| b.event(&format!("v{i}+"))).collect();
    // Token on arc i -> i+1 when the segment index advances.
    for i in 0..n {
        let next = (i + 1) % n;
        let marked = (i + 1) * tokens / n != i * tokens / n;
        if marked {
            b.marked_arc(events[i], events[next], delay);
        } else {
            b.arc(events[i], events[next], delay);
        }
    }
    b.build().expect("ring construction is always valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_core::analysis::CycleTimeAnalysis;

    #[test]
    fn single_token_ring() {
        let sg = ring(8, 1, 2.0);
        assert_eq!(sg.event_count(), 8);
        assert_eq!(sg.arc_count(), 8);
        assert_eq!(sg.border_events().len(), 1);
        let a = CycleTimeAnalysis::run(&sg).unwrap();
        assert_eq!(a.cycle_time().as_f64(), 16.0);
    }

    #[test]
    fn token_count_matches() {
        for tokens in 1..=6 {
            let sg = ring(6, tokens, 1.0);
            let marked = sg.arc_ids().filter(|&a| sg.arc(a).is_marked()).count();
            assert_eq!(marked, tokens, "tokens={tokens}");
            assert_eq!(sg.border_events().len(), tokens);
        }
    }

    #[test]
    fn cycle_time_formula() {
        for (n, k) in [(5, 1), (12, 3), (9, 2), (7, 7)] {
            let sg = ring(n, k, 4.0);
            let a = CycleTimeAnalysis::run(&sg).unwrap();
            let want = n as f64 * 4.0 / k as f64;
            assert!(
                (a.cycle_time().as_f64() - want).abs() < 1e-9,
                "n={n} k={k}: {} != {want}",
                a.cycle_time().as_f64()
            );
        }
    }

    #[test]
    fn saturated_ring_all_marked() {
        let sg = ring(4, 4, 1.0);
        assert!(sg.arc_ids().all(|a| sg.arc(a).is_marked()));
        let a = CycleTimeAnalysis::run(&sg).unwrap();
        assert_eq!(a.cycle_time().as_f64(), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn zero_tokens_panics() {
        let _ = ring(4, 0, 1.0);
    }
}
