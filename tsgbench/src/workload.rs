//! The three workloads: their seeded inputs, warm-up requests, request
//! streams and answer checks.

use std::sync::Arc;

use tsg_serve::json::Json;
use tsg_serve::ops::SplitMix64;

use crate::gen::{self, Family, Stg};

/// Client connections, one closed loop each.
pub const CONNECTIONS: usize = 2;

/// The session name every connection uses, as copies of one client
/// would: sessions are scoped to their connection.
const SESSION: &str = "edit";

/// A session edit stream splits an arc once every this many requests
/// and unsplits it in the next one.
const SPLIT_EVERY: u64 = 10;

/// A workload name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Inline `analyze` of large timed STGs at three size rungs.
    AnalyzeLarge,
    /// Streams of `session.edit` requests on one open session per
    /// connection.
    SessionEdit,
    /// `analyze` with sampled or corner scenario lanes on ~1k-event STGs.
    ScenarioSweep,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "analyze_large" => Some(Kind::AnalyzeLarge),
            "session_edit" => Some(Kind::SessionEdit),
            "scenario_sweep" => Some(Kind::ScenarioSweep),
            _ => None,
        }
    }
}

/// A request body (a JSON object without `id`) and the graph it runs on.
#[derive(Clone)]
pub struct Req {
    /// The body text.
    pub body: Arc<str>,
    /// Index into [`Plan::graphs`].
    pub graph: usize,
}

/// Everything one run sends, built from the seed before any timing.
pub struct Plan {
    /// The workload.
    pub kind: Kind,
    /// Generated graphs.
    pub graphs: Vec<Stg>,
    /// Warm-up requests per connection, sent in order during set-up.
    pub warmup: [Vec<Req>; CONNECTIONS],
    /// What the timed window sends, per connection.
    pub streams: [Stream; CONNECTIONS],
    /// Requests per full cycle of request shapes; a connection ends its
    /// window only at a multiple of it.
    pub period: usize,
}

/// The request source of one connection's timed window.
pub enum Stream {
    /// A fixed rotation of prebuilt requests.
    Rotate(Vec<Req>, usize),
    /// A seeded `session.edit` script.
    Edits(EditScript),
}

impl Plan {
    /// Builds the inputs of `kind` from `seed`.
    ///
    /// # Errors
    ///
    /// Returns generator self-check failures.
    pub fn new(kind: Kind, seed: u64) -> Result<Plan, String> {
        let mut rng = SplitMix64(seed);
        let mut graph =
            |family, events, borders| gen::generate(family, events, borders, rng.next());
        match kind {
            Kind::AnalyzeLarge => {
                // Rungs of 2k, 8k and 16k events, b = 8, in a fixed
                // rotation: p50 falls in the 8k rung, p90 in the 16k one.
                let graphs = vec![
                    graph(Family::RingChords, 2048, 8)?,
                    graph(Family::RingChords, 8192, 8)?,
                    graph(Family::RingChords, 16384, 8)?,
                ];
                let reqs: Vec<Req> = (0..graphs.len())
                    .map(|g| analyze(&graphs, g, &[]))
                    .collect();
                Ok(Plan {
                    kind,
                    warmup: [reqs.clone(), Vec::new()],
                    streams: [Stream::Rotate(reqs.clone(), 0), Stream::Rotate(reqs, 1)],
                    period: 3,
                    graphs,
                })
            }
            Kind::ScenarioSweep => {
                let graphs = vec![
                    graph(Family::RingChords, 1024, 8)?,
                    graph(Family::Handshake, 1056, 12)?,
                    graph(Family::RingChords, 1024, 16)?,
                ];
                let corners = [("corners", Json::from("min,typ,max"))];
                let samples =
                    |seed: u64| [("samples", Json::from(64u64)), ("seed", Json::from(seed))];
                // Three request shapes in rotation — 512 sampled lanes,
                // 36 corner lanes, 1024 sampled lanes — with the sample
                // seed rotating over 16 values.
                let reqs: Vec<Req> = (0..48u64)
                    .map(|t| match t % 3 {
                        0 => analyze(&graphs, 0, &samples(t / 3)),
                        1 => analyze(&graphs, 1, &corners),
                        _ => analyze(&graphs, 2, &samples(t / 3)),
                    })
                    .collect();
                Ok(Plan {
                    kind,
                    warmup: [reqs[..3].to_vec(), Vec::new()],
                    streams: [Stream::Rotate(reqs.clone(), 0), Stream::Rotate(reqs, 1)],
                    period: 3,
                    graphs,
                })
            }
            Kind::SessionEdit => {
                let graphs = vec![
                    graph(Family::RingChords, 8192, 8)?,
                    graph(Family::RingChords, 8192, 8)?,
                ];
                let open = |c: usize| Req {
                    body: body(&[
                        ("cmd", Json::from("session.open")),
                        ("session", Json::from(SESSION)),
                        ("name", Json::from(graphs[c].name.as_str())),
                        ("text", Json::from(graphs[c].text.as_str())),
                    ]),
                    graph: c,
                };
                let streams =
                    [0, 1].map(|c| Stream::Edits(EditScript::new(&graphs[c], c, rng.next())));
                Ok(Plan {
                    kind,
                    warmup: [vec![open(0)], vec![open(1)]],
                    streams,
                    period: SPLIT_EVERY as usize,
                    graphs,
                })
            }
        }
    }
}

impl Stream {
    /// The next request of the timed window.
    pub fn next(&mut self) -> Req {
        match self {
            Stream::Rotate(reqs, next) => {
                let req = reqs[*next % reqs.len()].clone();
                *next += 1;
                req
            }
            Stream::Edits(script) => script.next(),
        }
    }
}

fn obj(fields: &[(&str, Json)]) -> Json {
    Json::Obj(
        fields
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect(),
    )
}

fn body(fields: &[(&str, Json)]) -> Arc<str> {
    obj(fields).dump().into()
}

fn analyze(graphs: &[Stg], g: usize, extra: &[(&str, Json)]) -> Req {
    let mut fields = vec![
        ("cmd", Json::from("analyze")),
        ("name", Json::from(graphs[g].name.as_str())),
        ("text", Json::from(graphs[g].text.as_str())),
    ];
    fields.extend(extra.iter().cloned());
    Req {
        body: body(&fields),
        graph: g,
    }
}

/// A seeded `session.edit` stream: single-arc delay edits, and every
/// [`SPLIT_EVERY`] requests one split of an unmarked arc through a new event `x+`
/// followed by its unsplit, so the live graph size stays steady.
pub struct EditScript {
    graph: usize,
    /// `(src, dst)` labels of the original arcs.
    arcs: Vec<(String, String)>,
    /// Indices of the unmarked arcs (split candidates).
    unmarked: Vec<usize>,
    /// Current delay of each original arc.
    delays: Vec<u64>,
    rng: SplitMix64,
    step: u64,
    /// The arc split by the previous request.
    split: Option<usize>,
}

impl EditScript {
    fn new(stg: &Stg, graph: usize, seed: u64) -> Self {
        let sg = &stg.graph;
        let mut arcs = Vec::new();
        let mut unmarked = Vec::new();
        let mut delays = Vec::new();
        for a in sg.arc_ids() {
            let arc = sg.arc(a);
            if !arc.is_marked() {
                unmarked.push(arcs.len());
            }
            arcs.push((
                sg.label(arc.src()).to_string(),
                sg.label(arc.dst()).to_string(),
            ));
            delays.push(arc.delay().get() as u64);
        }
        EditScript {
            graph,
            arcs,
            unmarked,
            delays,
            rng: SplitMix64(seed),
            step: 0,
            split: None,
        }
    }

    fn next(&mut self) -> Req {
        let step = self.step;
        self.step += 1;
        let s = |x: &str| Json::from(x);
        let edits: Vec<Json> = if let Some(a) = self.split.take() {
            let (src, dst) = &self.arcs[a];
            vec![
                obj(&[("op", s("remove_arc")), ("src", s(src)), ("dst", s("x+"))]),
                obj(&[("op", s("remove_arc")), ("src", s("x+")), ("dst", s(dst))]),
                obj(&[("op", s("remove_event")), ("label", s("x+"))]),
                obj(&[
                    ("op", s("add_arc")),
                    ("src", s(src)),
                    ("dst", s(dst)),
                    ("delay", Json::from(self.delays[a])),
                ]),
            ]
        } else if step % SPLIT_EVERY == SPLIT_EVERY - 1 {
            let a = self.unmarked[self.rng.below(self.unmarked.len() as u64) as usize];
            self.split = Some(a);
            let (src, dst) = &self.arcs[a];
            let (d1, d2) = (1 + self.rng.below(9), 1 + self.rng.below(9));
            vec![
                obj(&[("op", s("add_event")), ("label", s("x+"))]),
                obj(&[
                    ("op", s("add_arc")),
                    ("src", s(src)),
                    ("dst", s("x+")),
                    ("delay", Json::from(d1)),
                ]),
                obj(&[
                    ("op", s("add_arc")),
                    ("src", s("x+")),
                    ("dst", s(dst)),
                    ("delay", Json::from(d2)),
                ]),
                obj(&[("op", s("remove_arc")), ("src", s(src)), ("dst", s(dst))]),
            ]
        } else {
            let a = self.rng.below(self.arcs.len() as u64) as usize;
            let d = 1 + self.rng.below(9);
            self.delays[a] = d;
            let (src, dst) = &self.arcs[a];
            vec![obj(&[
                ("src", s(src)),
                ("dst", s(dst)),
                ("delay", Json::from(d)),
            ])]
        };
        Req {
            body: body(&[
                ("cmd", Json::from("session.edit")),
                ("session", Json::from(SESSION)),
                ("edits", Json::Arr(edits)),
            ]),
            graph: self.graph,
        }
    }
}

/// Checks that an `analyze` report on `stg` opens with the graph's
/// shape and the oracle's cycle time.
pub fn check_nominal(stg: &Stg, output: &str) -> Result<(), String> {
    let mut lines = output.lines();
    let graph_line = stg.graph_line();
    let tau_line = format!("cycle time: {}", stg.tau);
    match (lines.next(), lines.next()) {
        (Some(g), Some(t)) if g == graph_line && t == tau_line => Ok(()),
        (g, t) => Err(format!(
            "{}: expected {graph_line:?} / {tau_line:?}, got {g:?} / {t:?}",
            stg.name
        )),
    }
}
