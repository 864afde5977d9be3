//! Handshake-pipeline and stack-controller generators.

use tsg_core::{EventId, SignalGraph, SignalGraphBuilder};

/// Delay parameters of a handshake stage.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Delay of request-side logic (C-element-class), default 2.
    pub req_delay: f64,
    /// Delay of acknowledge-side logic (inverter-class), default 1.
    pub ack_delay: f64,
    /// Delay of the inter-stage wiring, default 1.
    pub coupling_delay: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            req_delay: 2.0,
            ack_delay: 1.0,
            coupling_delay: 1.0,
        }
    }
}

struct Stage {
    rp: EventId,
    rm: EventId,
    ap: EventId,
    am: EventId,
}

fn add_stage(b: &mut SignalGraphBuilder, k: usize, cfg: &PipelineConfig) -> Stage {
    let rp = b.event(&format!("r{k}+"));
    let rm = b.event(&format!("r{k}-"));
    let ap = b.event(&format!("a{k}+"));
    let am = b.event(&format!("a{k}-"));
    // Four-phase handshake cycle of the stage, one token on the return arc.
    b.arc(rp, ap, cfg.req_delay);
    b.arc(ap, rm, cfg.ack_delay);
    b.arc(rm, am, cfg.req_delay);
    b.marked_arc(am, rp, cfg.ack_delay);
    Stage { rp, rm, ap, am }
}

fn couple(b: &mut SignalGraphBuilder, k: usize, left: &Stage, right: &Stage, cfg: &PipelineConfig) {
    // Data flows forward on acknowledges. Alternate stage boundaries hold a
    // data token (half-full initialisation, as in a Muller pipeline), which
    // keeps the environment loop's token count proportional to depth and
    // the cycle time constant — the "constant response time" property.
    if k % 2 == 1 {
        b.marked_arc(left.ap, right.rp, cfg.coupling_delay);
    } else {
        b.arc(left.ap, right.rp, cfg.coupling_delay);
    }
    b.marked_arc(right.ap, left.rp, cfg.coupling_delay);
    b.arc(right.am, left.rm, cfg.coupling_delay);
}

/// Builds a linear pipeline of `stages` four-phase handshake stages with a
/// closing environment loop, so the graph is autonomous and strongly
/// connected.
///
/// Event count is `4·stages + 2`; arc count `7·stages`
/// (4 intra-stage arcs, 3 arcs per stage boundary, plus a 3-arc
/// environment loop).
///
/// # Panics
///
/// Panics if `stages == 0`.
///
/// # Examples
///
/// ```
/// use tsg_core::analysis::CycleTimeAnalysis;
/// use tsg_gen::{handshake_pipeline, PipelineConfig};
///
/// let sg = handshake_pipeline(4, PipelineConfig::default());
/// assert_eq!(sg.event_count(), 18);
/// assert!(CycleTimeAnalysis::run(&sg).unwrap().cycle_time().as_f64() > 0.0);
/// ```
pub fn handshake_pipeline(stages: usize, cfg: PipelineConfig) -> SignalGraph {
    assert!(stages > 0, "pipeline needs at least one stage");
    let mut b = SignalGraph::builder();
    let built: Vec<Stage> = (0..stages).map(|k| add_stage(&mut b, k, &cfg)).collect();
    for (k, w) in built.windows(2).enumerate() {
        couple(&mut b, k, &w[0], &w[1], &cfg);
    }
    // Environment: output of the last stage feeds a sink/source pair that
    // restarts the first stage.
    let out = b.event("env+");
    let inp = b.event("env-");
    b.arc(built[stages - 1].ap, out, cfg.coupling_delay);
    b.arc(out, inp, cfg.coupling_delay);
    b.marked_arc(inp, built[0].rp, cfg.coupling_delay);
    b.build().expect("pipeline construction is always valid")
}

/// The "asynchronous stack with constant response time" stand-in of Section
/// VIII.B: a 16-stage handshake ladder with environment loop — exactly
/// **66 events and 112 arcs**, the size the paper reports analysing in
/// 74 ms on a DEC 5000.
///
/// # Examples
///
/// ```
/// let sg = tsg_gen::stack66();
/// assert_eq!(sg.event_count(), 66);
/// assert_eq!(sg.arc_count(), 112);
/// ```
pub fn stack66() -> SignalGraph {
    let sg = handshake_pipeline(16, PipelineConfig::default());
    debug_assert_eq!(sg.event_count(), 66);
    debug_assert_eq!(sg.arc_count(), 112);
    sg
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_core::analysis::CycleTimeAnalysis;

    #[test]
    fn stack66_dimensions_match_the_paper() {
        let sg = stack66();
        assert_eq!(sg.event_count(), 66);
        assert_eq!(sg.arc_count(), 112);
    }

    #[test]
    fn stack66_analyzes() {
        let sg = stack66();
        let a = CycleTimeAnalysis::run(&sg).unwrap();
        assert!(a.cycle_time().as_f64() > 0.0);
        assert!(!a.critical_cycle().is_empty());
    }

    #[test]
    fn pipeline_size_formulas() {
        for stages in 1..10 {
            let sg = handshake_pipeline(stages, PipelineConfig::default());
            assert_eq!(sg.event_count(), 4 * stages + 2);
            assert_eq!(sg.arc_count(), 7 * stages);
        }
    }

    #[test]
    fn border_grows_with_stages() {
        let b4 = handshake_pipeline(4, PipelineConfig::default())
            .border_events()
            .len();
        let b8 = handshake_pipeline(8, PipelineConfig::default())
            .border_events()
            .len();
        assert!(b8 > b4);
    }

    #[test]
    fn constant_response_time() {
        // The defining property of the Section VIII.B stack: cycle time
        // stays bounded as the pipeline deepens.
        let cfg = PipelineConfig::default();
        let taus: Vec<f64> = [1usize, 2, 4, 8, 16, 32]
            .into_iter()
            .map(|s| {
                CycleTimeAnalysis::run(&handshake_pipeline(s, cfg))
                    .unwrap()
                    .cycle_time()
                    .as_f64()
            })
            .collect();
        let stage_cycle = 2.0 * cfg.req_delay + 2.0 * cfg.ack_delay;
        for (i, tau) in taus.iter().enumerate() {
            assert!(*tau >= stage_cycle - 1e-9, "idx {i}: {tau}");
            assert!(*tau <= 2.0 * stage_cycle, "idx {i}: {tau} not constant-ish");
        }
    }
}
