//! STG file format: round-trip properties across generated graphs.

use proptest::prelude::*;

use tsg::core::analysis::CycleTimeAnalysis;
use tsg::core::SignalGraph;
use tsg::gen::{random_live_tsg, RandomTsgConfig};
use tsg::stg::{parse_stg, write_stg, StgOptions};

/// Builds a polarity-labelled ring of `n` signals (each contributing a
/// rise and a fall event) with `tokens` marked arcs — expressible in `.g`.
fn transition_ring(n: usize, tokens: usize, delay: f64) -> SignalGraph {
    let mut b = SignalGraph::builder();
    let mut events = Vec::new();
    for i in 0..n {
        events.push(b.event(&format!("s{i}+")));
        events.push(b.event(&format!("s{i}-")));
    }
    let total = events.len();
    for i in 0..total {
        let next = (i + 1) % total;
        let marked = (i + 1) * tokens / total != i * tokens / total;
        if marked {
            b.marked_arc(events[i], events[next], delay);
        } else {
            b.arc(events[i], events[next], delay);
        }
    }
    b.build().unwrap()
}

/// Every arc as `(src, dst, delay, marked)`, grouped by source label.
///
/// `write_stg` lists arcs by source event, so `parse_stg` reads them back
/// in that order; the stable sort keeps each source's own arc order,
/// parallel arcs included.
fn arc_sequence(sg: &SignalGraph) -> Vec<(String, String, f64, bool)> {
    let mut arcs: Vec<_> = sg
        .arc_ids()
        .map(|a| {
            let arc = sg.arc(a);
            (
                sg.label(arc.src()).to_string(),
                sg.label(arc.dst()).to_string(),
                arc.delay().get(),
                arc.is_marked(),
            )
        })
        .collect();
    arcs.sort_by(|x, y| x.0.cmp(&y.0));
    arcs
}

/// `parse_stg(write_stg(sg))` keeps every arc, parallel arcs' own delays
/// and tokens included, and the cycle time.
fn assert_roundtrip(sg: &SignalGraph) {
    let text = write_stg(sg, "family").unwrap();
    let back = parse_stg(&text, StgOptions::default()).unwrap();
    prop_assert_eq!(arc_sequence(&back), arc_sequence(sg));
    let t1 = CycleTimeAnalysis::run(sg).unwrap().cycle_time();
    let t2 = CycleTimeAnalysis::run(&back).unwrap().cycle_time();
    prop_assert_eq!(t1.as_f64(), t2.as_f64());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn roundtrip_preserves_structure_and_tau(
        n in 1usize..10,
        tokens in 1usize..4,
        delay in 1u32..9,
    ) {
        let sg = transition_ring(n, tokens.min(2 * n), f64::from(delay));
        let text = write_stg(&sg, "ring").unwrap();
        let back = parse_stg(&text, StgOptions::default()).unwrap();
        prop_assert_eq!(back.event_count(), sg.event_count());
        prop_assert_eq!(back.arc_count(), sg.arc_count());
        let t1 = CycleTimeAnalysis::run(&sg).unwrap().cycle_time().as_f64();
        let t2 = CycleTimeAnalysis::run(&back).unwrap().cycle_time().as_f64();
        prop_assert_eq!(t1, t2);
        // writing again is a fixed point
        prop_assert_eq!(write_stg(&back, "ring").unwrap(), text);
    }

    #[test]
    fn handshake_pipelines_roundtrip(stages in 1usize..8) {
        let sg = tsg::gen::handshake_pipeline(stages, tsg::gen::PipelineConfig::default());
        assert_roundtrip(&sg);
    }

    #[test]
    fn ring_family_roundtrips(n in 1usize..40, tokens in 1usize..40, delay in 0u32..9) {
        let sg = tsg::gen::ring(n, tokens.min(n), f64::from(delay));
        assert_roundtrip(&sg);
    }

    #[test]
    fn torus_family_roundtrips(
        h in 2usize..6,
        w in 2usize..6,
        d_row in 0u32..9,
        d_col in 0u32..9,
    ) {
        let sg = tsg::gen::torus(h, w, f64::from(d_row), f64::from(d_col));
        assert_roundtrip(&sg);
    }

    #[test]
    fn random_family_roundtrips(
        seed in any::<u64>(),
        events in 2usize..16,
        tokens in 1usize..16,
        chords in 0usize..40,
    ) {
        // Few events and many chords: duplicate chords (parallel arcs)
        // and self-loops are common.
        let cfg = RandomTsgConfig {
            events,
            tokens: tokens.min(events),
            chords,
            max_delay: 9,
            with_prefix: false,
        };
        assert_roundtrip(&random_live_tsg(seed, cfg));
    }
}
