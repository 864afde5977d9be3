//! Two-dimensional torus marked graphs (systolic-array-shaped workloads).
//!
//! An `h × w` torus has an event per grid cell, a rightward arc along each
//! row ring and a downward arc along each column ring, with one token per
//! row ring and one per column ring. Any simple cycle wraps the torus `a`
//! times horizontally and `b` times vertically, giving ratio
//! `(a·w·d_row + b·h·d_col) / (a + b)` — maximised by a pure row or column
//! ring, so the cycle time is exactly `max(w·d_row, h·d_col)`. That closed
//! form makes the torus a self-checking workload for the property tests
//! and a 2-D-structured scaling benchmark (rings and pipelines are 1-D).

use tsg_core::SignalGraph;

/// Builds the `h × w` torus with the given per-arc delays.
///
/// The cycle time is exactly `max(w as f64 * d_row, h as f64 * d_col)`.
///
/// # Panics
///
/// Panics if `h < 2` or `w < 2`.
///
/// # Examples
///
/// ```
/// use tsg_core::analysis::CycleTimeAnalysis;
///
/// let sg = tsg_gen::torus(3, 5, 2.0, 4.0);
/// let tau = CycleTimeAnalysis::run(&sg).unwrap().cycle_time();
/// assert_eq!(tau.as_f64(), 12.0); // max(5*2, 3*4)
/// ```
pub fn torus(h: usize, w: usize, d_row: f64, d_col: f64) -> SignalGraph {
    assert!(h >= 2 && w >= 2, "torus needs at least 2x2 cells");
    let mut b = SignalGraph::builder();
    let mut cells = Vec::with_capacity(h * w);
    for r in 0..h {
        for c in 0..w {
            cells.push(b.event(&format!("x{r}_{c}+")));
        }
    }
    let at = |r: usize, c: usize| cells[r * w + c];
    for r in 0..h {
        for c in 0..w {
            // rightward arc; the wrap-around arc carries the row token
            let dst = at(r, (c + 1) % w);
            if c + 1 == w {
                b.marked_arc(at(r, c), dst, d_row);
            } else {
                b.arc(at(r, c), dst, d_row);
            }
            // downward arc; the wrap-around arc carries the column token
            let dst = at((r + 1) % h, c);
            if r + 1 == h {
                b.marked_arc(at(r, c), dst, d_col);
            } else {
                b.arc(at(r, c), dst, d_col);
            }
        }
    }
    b.build().expect("torus construction is always valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_core::analysis::CycleTimeAnalysis;

    #[test]
    fn closed_form_cycle_time() {
        for (h, w, dr, dc) in [
            (2usize, 2usize, 1.0, 1.0),
            (3, 5, 2.0, 4.0),
            (4, 3, 1.0, 5.0),
            (6, 6, 3.0, 2.0),
        ] {
            let sg = torus(h, w, dr, dc);
            let want = (w as f64 * dr).max(h as f64 * dc);
            let got = CycleTimeAnalysis::run(&sg).unwrap().cycle_time().as_f64();
            assert!(
                (got - want).abs() < 1e-9,
                "torus({h},{w},{dr},{dc}): {got} != {want}"
            );
        }
    }

    #[test]
    fn structure_counts() {
        let sg = torus(3, 4, 1.0, 1.0);
        assert_eq!(sg.event_count(), 12);
        assert_eq!(sg.arc_count(), 24);
        // one token per row ring (3) + one per column ring (4)
        let tokens = sg.arc_ids().filter(|&a| sg.arc(a).is_marked()).count();
        assert_eq!(tokens, 7);
    }

    #[test]
    fn border_set_is_rows_plus_columns() {
        // Heads of row tokens: (r, 0) for each row; heads of column tokens:
        // (0, c) for each column. (0,0) is shared: h + w - 1 borders.
        let sg = torus(4, 5, 1.0, 1.0);
        assert_eq!(sg.border_events().len(), 4 + 5 - 1);
    }

    #[test]
    fn critical_cycle_is_the_slower_ring() {
        let sg = torus(3, 5, 10.0, 1.0); // rows much slower: τ = 50
        let analysis = CycleTimeAnalysis::run(&sg).unwrap();
        assert_eq!(analysis.cycle_time().as_f64(), 50.0);
        // the witness must be a row ring: 5 arcs, 1 token
        assert_eq!(analysis.critical_cycle().len(), 5);
        assert_eq!(analysis.cycle_time().periods(), 1);
    }

    #[test]
    fn baselines_agree_on_torus() {
        let sg = torus(4, 4, 3.0, 2.0);
        let want = CycleTimeAnalysis::run(&sg).unwrap().cycle_time().as_f64();
        assert_eq!(tsg_baselines_check::howard(&sg), want);
    }

    // tiny indirection so the dev-dependency is only named once
    mod tsg_baselines_check {
        pub fn howard(sg: &tsg_core::SignalGraph) -> f64 {
            // tsg-gen cannot depend on tsg-baselines (cycle); emulate via
            // enumeration over the repetitive view instead.
            let view = sg.repetitive_view();
            let cycles = tsg_graph_cycles(&view.graph);
            cycles
                .iter()
                .map(|c| {
                    let len: f64 = c
                        .iter()
                        .map(|e| sg.arc(view.arcs[e.index()]).delay().get())
                        .sum();
                    let eps = c
                        .iter()
                        .filter(|e| sg.arc(view.arcs[e.index()]).is_marked())
                        .count() as f64;
                    len / eps
                })
                .fold(0.0, f64::max)
        }

        fn tsg_graph_cycles(g: &tsg_graph::DiGraph) -> Vec<Vec<tsg_graph::EdgeId>> {
            tsg_graph::cycles::simple_cycles_bounded(g, 1_000_000).unwrap()
        }
    }
}
