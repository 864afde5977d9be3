//! Seeded `.g` generator: two timed STG families whose every event is a
//! legal signal transition (`s12+`, `r3-`) and whose every arc carries a
//! `.delay` line, so each graph can be fed to the real `tsg` binary.
//!
//! * **ring with chords** — `n` events on one ring, cut into `b` segments
//!   by `b` marked arcs; every fourth event also has an unmarked forward
//!   chord of 2..=8 events that stays inside its segment;
//! * **handshake pipeline** — `b` segments of four-phase handshake stages
//!   (`r+ → a+ → r- → a-`, plus `a+ → r'+`, `a'+ → r-` and `a- → r'-`
//!   between neighbouring stages), chained into a ring by one marked arc
//!   from each segment's last `a-` to the next segment's first `r+`.
//!
//! Both families have exactly `b` border events, and their `.g` text
//! length depends only on the shape, never on the seed: the seed picks
//! delays (1..=9) and chord spans only. Every graph is self-checked: its
//! text must parse back to the same shape, and Howard's and Karp's
//! cycle times must agree with the scalar oracle, whose τ becomes the
//! answer the benchmark checks served responses against.

use tsg_core::analysis::CycleTimeAnalysis;
use tsg_core::{EventId, SignalGraph};
use tsg_serve::ops::SplitMix64;
use tsg_stg::{parse_stg, write_stg, StgOptions};

/// The two graph families.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    /// One ring cut into `b` segments, with forward chords.
    RingChords,
    /// Four-phase handshake stages chained into `b` segments.
    Handshake,
}

/// One generated, self-checked graph.
pub struct Stg {
    /// File name the requests carry (`.g` selects the STG reader).
    pub name: String,
    /// The `.g` text.
    pub text: String,
    /// The graph as `parse_stg` reads `text` back.
    pub graph: SignalGraph,
    /// The oracle cycle time, rendered the way reports print it.
    pub tau: String,
}

impl Stg {
    /// The first line of an `analyze` report on this graph.
    pub fn graph_line(&self) -> String {
        format!(
            "graph: {} events, {} arcs, {} border event(s)",
            self.graph.event_count(),
            self.graph.arc_count(),
            self.graph.border_events().len()
        )
    }
}

/// Generates a graph of `family` with `events` events and `borders`
/// border events from `seed`, and self-checks it.
///
/// # Errors
///
/// Returns a message when the shape is impossible or a self-check fails.
pub fn generate(family: Family, events: usize, borders: usize, seed: u64) -> Result<Stg, String> {
    let mut rng = SplitMix64(seed);
    let built = match family {
        Family::RingChords => ring_chords(events, borders, &mut rng)?,
        Family::Handshake => handshake(events, borders, &mut rng)?,
    };
    let tag = match family {
        Family::RingChords => "ring",
        Family::Handshake => "hs",
    };
    let name = format!("{tag}{events}b{borders}s{seed}");
    let text = write_stg(&built, &name).map_err(|e| format!("{name}: write_stg: {e}"))?;
    let graph = parse_stg(&text, StgOptions::default()).map_err(|e| format!("{name}: {e}"))?;
    if graph.event_count() != built.event_count()
        || graph.arc_count() != built.arc_count()
        || graph.border_events().len() != borders
    {
        return Err(format!(
            "{name}: the .g text does not read back to its shape"
        ));
    }
    let oracle = CycleTimeAnalysis::run_scalar(&graph).map_err(|e| format!("{name}: {e}"))?;
    let tau = oracle.cycle_time().as_f64();
    let howard = tsg_baselines::howard_cycle_time(&graph).map(|t| t.as_f64());
    let karp = tsg_baselines::karp_cycle_time(&graph).map(|t| t.as_f64());
    let agree = |t: Option<f64>| t.is_some_and(|t| (t - tau).abs() <= 1e-9 * tau.abs().max(1.0));
    if !agree(howard) || !agree(karp) {
        return Err(format!(
            "{name}: baselines disagree: oracle {tau}, howard {howard:?}, karp {karp:?}"
        ));
    }
    Ok(Stg {
        name: format!("{name}.g"),
        text,
        graph,
        tau: oracle.cycle_time().to_string(),
    })
}

fn delay(rng: &mut SplitMix64) -> f64 {
    (1 + rng.below(9)) as f64
}

fn ring_chords(n: usize, b: usize, rng: &mut SplitMix64) -> Result<SignalGraph, String> {
    if b == 0 || !n.is_multiple_of(2 * b) || n / b < 16 {
        return Err(format!(
            "ring: {n} events do not split into {b} even segments of >= 16"
        ));
    }
    let seg = n / b;
    let mut g = SignalGraph::builder();
    let ev: Vec<EventId> = (0..n)
        .map(|i| g.event(&format!("s{}{}", i / 2, if i % 2 == 0 { '+' } else { '-' })))
        .collect();
    for i in 0..n {
        let next = (i + 1) % n;
        if next.is_multiple_of(seg) {
            g.marked_arc(ev[i], ev[next], delay(rng));
        } else {
            g.arc(ev[i], ev[next], delay(rng));
        }
        // Chords start only where the longest span still ends inside
        // the segment, so the chord count is fixed by the shape.
        if i % 4 == 1 && i % seg + 8 < seg {
            let span = 2 + rng.below(7) as usize;
            g.arc(ev[i], ev[i + span], delay(rng));
        }
    }
    g.build().map_err(|e| e.to_string())
}

fn handshake(n: usize, b: usize, rng: &mut SplitMix64) -> Result<SignalGraph, String> {
    if b == 0 || !n.is_multiple_of(4 * b) || n / (4 * b) < 2 {
        return Err(format!(
            "handshake: {n} events do not split into {b} segments of >= 2 stages"
        ));
    }
    let stages = n / (4 * b);
    let mut g = SignalGraph::builder();
    // Per global stage: [r+, a+, r-, a-].
    let ev: Vec<[EventId; 4]> = (0..b * stages)
        .map(|s| {
            [
                g.event(&format!("r{s}+")),
                g.event(&format!("a{s}+")),
                g.event(&format!("r{s}-")),
                g.event(&format!("a{s}-")),
            ]
        })
        .collect();
    for seg in 0..b {
        for k in 0..stages {
            let s = seg * stages + k;
            let [rp, ap, rm, am] = ev[s];
            g.arc(rp, ap, delay(rng));
            g.arc(ap, rm, delay(rng));
            if k + 1 < stages {
                g.arc(ap, ev[s + 1][0], delay(rng));
            }
            if k > 0 {
                g.arc(ap, ev[s - 1][2], delay(rng));
            }
            g.arc(rm, am, delay(rng));
            if k + 1 < stages {
                g.arc(am, ev[s + 1][2], delay(rng));
            } else {
                let head = ((seg + 1) % b) * stages;
                g.marked_arc(am, ev[head][0], delay(rng));
            }
        }
    }
    g.build().map_err(|e| e.to_string())
}
