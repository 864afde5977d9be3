//! `.g` parser (marked-graph subclass, with the `.delay` timing extension).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

use tsg_core::{EventId, SignalGraph, SignalGraphBuilder, ValidationError};

/// Parser options.
#[derive(Clone, Copy, Debug)]
pub struct StgOptions {
    /// Delay assigned to arcs without a `.delay` annotation (default 1).
    pub default_delay: f64,
}

impl Default for StgOptions {
    fn default() -> Self {
        StgOptions { default_delay: 1.0 }
    }
}

/// Errors produced while parsing a `.g` file.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum StgError {
    /// A line could not be parsed.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The STG uses explicit places or other non-marked-graph features.
    NotMarkedGraph {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A `.marking`/`.delay` entry references an arc that was never
    /// declared in `.graph`.
    UnknownArc {
        /// Source transition as written.
        src: String,
        /// Destination transition as written.
        dst: String,
    },
    /// The marked graph failed Signal Graph validation (e.g. token-free
    /// cycle, not strongly connected).
    Invalid(ValidationError),
}

impl fmt::Display for StgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StgError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            StgError::NotMarkedGraph { line, token } => {
                write!(f, "line {line}: {token:?} is not a signal transition (explicit places are unsupported)")
            }
            StgError::UnknownArc { src, dst } => {
                write!(f, "marking/delay references unknown arc {src} -> {dst}")
            }
            StgError::Invalid(e) => write!(f, "not a valid live Signal Graph: {e}"),
        }
    }
}

impl std::error::Error for StgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StgError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

fn syntax(line: usize, message: impl Into<String>) -> StgError {
    StgError::Syntax {
        line,
        message: message.into(),
    }
}

/// Normalises an STG transition token (`a+`, `req-`, `a+/1`) to the event
/// label used by `tsg-core` (`a+`, `req-`, `a#1+`).
///
/// Returns `None` for tokens that are not signal transitions.
fn normalize(token: &str) -> Option<String> {
    let (stem, index) = match token.split_once('/') {
        Some((s, i)) => {
            i.parse::<u32>().ok()?;
            (s, Some(i))
        }
        None => (token, None),
    };
    if stem.len() < 2 {
        return None;
    }
    let (name, pol) = stem.split_at(stem.len() - 1);
    if !matches!(pol, "+" | "-") {
        return None;
    }
    Some(match index {
        Some(i) => format!("{name}#{i}{pol}"),
        None => format!("{name}{pol}"),
    })
}

/// Marks "no arc" in [`ArcSpec::next`] and in the [`Pair`] cursors.
const NONE: u32 = u32::MAX;

/// Interns signal transitions: each distinct raw token (borrowed from the
/// text) maps to an event index, and is normalised only the first time it
/// is seen. Events are keyed by their normalised label, so every spelling
/// of one label is one event.
#[derive(Default)]
struct Events<'a> {
    by_token: HashMap<&'a str, u32>,
    by_label: HashMap<String, u32>,
}

impl<'a> Events<'a> {
    /// Resolves `token` to its event index: `None` if it is not a signal
    /// transition, `Some(None)` if its label is not an event and `declare`
    /// is off. With `declare` on, a new label becomes the next event.
    fn resolve(&mut self, token: &'a str, declare: bool) -> Option<Option<u32>> {
        if let Some(&id) = self.by_token.get(token) {
            return Some(Some(id));
        }
        let label = normalize(token)?;
        let id = match self.by_label.get(&label) {
            Some(&id) => id,
            None if declare => {
                let id = self.by_label.len() as u32;
                self.by_label.insert(label, id);
                id
            }
            None => return Some(None),
        };
        self.by_token.insert(token, id);
        Some(Some(id))
    }
}

/// One `.graph` arc between interned events.
struct ArcSpec {
    src: u32,
    dst: u32,
    /// The default delay until a `.delay` entry sets it.
    delay: f64,
    marked: bool,
    /// The next declared arc with the same endpoints, or [`NONE`].
    next: u32,
}

/// The declared arcs of one `(src, dst)` pair, chained through
/// [`ArcSpec::next`], with one cursor per directive. A cursor is the arc
/// the directive's next entry applies to, or [`NONE`] once that
/// directive's entries outnumber the arcs; further entries then apply to
/// `last`.
struct Pair {
    last: u32,
    delay_at: u32,
    mark_at: u32,
}

/// The arcs read so far, indexed by their endpoints.
#[derive(Default)]
struct Arcs {
    specs: Vec<ArcSpec>,
    pairs: HashMap<(u32, u32), Pair>,
}

impl Arcs {
    fn declare(&mut self, src: u32, dst: u32, delay: f64) {
        let id = self.specs.len() as u32;
        self.specs.push(ArcSpec {
            src,
            dst,
            delay,
            marked: false,
            next: NONE,
        });
        match self.pairs.entry((src, dst)) {
            Entry::Vacant(slot) => {
                slot.insert(Pair {
                    last: id,
                    delay_at: id,
                    mark_at: id,
                });
            }
            Entry::Occupied(mut slot) => {
                let pair = slot.get_mut();
                self.specs[pair.last as usize].next = id;
                pair.last = id;
                for at in [&mut pair.delay_at, &mut pair.mark_at] {
                    if *at == NONE {
                        *at = id;
                    }
                }
            }
        }
    }

    /// The arc that the next entry of one directive (picked by `cursor`)
    /// for `src → dst` applies to: the k-th entry for a pair applies to
    /// its k-th declared arc, clamped to the last one. `None` if either
    /// event or the arc is undeclared.
    fn arc_for_entry(
        &mut self,
        src: Option<u32>,
        dst: Option<u32>,
        cursor: fn(&mut Pair) -> &mut u32,
    ) -> Option<&mut ArcSpec> {
        let pair = self.pairs.get_mut(&(src?, dst?))?;
        let last = pair.last;
        let at = cursor(pair);
        let arc = if *at == NONE { last } else { *at } as usize;
        *at = self.specs[arc].next;
        Some(&mut self.specs[arc])
    }
}

fn bad_transition(line: usize, token: &str) -> StgError {
    syntax(line, format!("bad transition {token:?}"))
}

/// The error for an entry whose tokens are transitions but name no arc.
fn unknown_arc(src: &str, dst: &str) -> StgError {
    let label = |t: &str| normalize(t).expect("entry tokens were checked to be transitions");
    StgError::UnknownArc {
        src: label(src),
        dst: label(dst),
    }
}

/// Parses `.g` text into a validated [`SignalGraph`].
///
/// One pass over the text, linear in its size: transitions are interned
/// to event indices and `.marking`/`.delay` entries find their arc through
/// an index on the arc's endpoints.
///
/// # Errors
///
/// Returns [`StgError`] on syntax problems, non-marked-graph features,
/// dangling marking/delay references, or structural invalidity of the
/// resulting graph.
pub fn parse_stg(text: &str, options: StgOptions) -> Result<SignalGraph, StgError> {
    read(text, options)?.build().map_err(StgError::Invalid)
}

/// Reads `text` into a builder holding its events and arcs.
fn read(text: &str, options: StgOptions) -> Result<SignalGraphBuilder, StgError> {
    // Every event and arc takes at least two bytes of text, so below this
    // size their indices fit in a `u32` and never reach `NONE`.
    if u32::try_from(text.len()).is_err() {
        return Err(syntax(1, "file larger than 4 GiB"));
    }
    let mut events = Events::default();
    let mut arcs = Arcs::default();
    let mut in_graph = false;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('.') {
            let mut words = rest.split_whitespace();
            match words.next() {
                Some("graph") => in_graph = true,
                Some("end") => in_graph = false,
                Some("marking") => {
                    let body = rest
                        .strip_prefix("marking")
                        .unwrap_or("")
                        .trim()
                        .trim_start_matches('{')
                        .trim_end_matches('}');
                    for tok in body.split('<') {
                        let tok = tok.trim().trim_end_matches('>').trim();
                        if tok.is_empty() {
                            continue;
                        }
                        let (s, d) = tok
                            .split_once(',')
                            .ok_or_else(|| syntax(lineno, format!("bad marking token {tok:?}")))?;
                        let src = events
                            .resolve(s.trim(), false)
                            .ok_or_else(|| bad_transition(lineno, s))?;
                        let dst = events
                            .resolve(d.trim(), false)
                            .ok_or_else(|| bad_transition(lineno, d))?;
                        let arc = arcs
                            .arc_for_entry(src, dst, |p| &mut p.mark_at)
                            .ok_or_else(|| unknown_arc(s.trim(), d.trim()))?;
                        arc.marked = true;
                    }
                }
                Some("delay") => {
                    let (Some(s), Some(d), Some(v), None) =
                        (words.next(), words.next(), words.next(), words.next())
                    else {
                        return Err(syntax(lineno, "expected `.delay SRC DST VALUE`"));
                    };
                    let src = events
                        .resolve(s, false)
                        .ok_or_else(|| bad_transition(lineno, s))?;
                    let dst = events
                        .resolve(d, false)
                        .ok_or_else(|| bad_transition(lineno, d))?;
                    let v: f64 = v
                        .parse()
                        .map_err(|_| syntax(lineno, format!("bad delay {v:?}")))?;
                    let arc = arcs
                        .arc_for_entry(src, dst, |p| &mut p.delay_at)
                        .ok_or_else(|| unknown_arc(s, d))?;
                    arc.delay = v;
                }
                // interface declarations carry no structure we need
                Some("model") | Some("inputs") | Some("outputs") | Some("internal")
                | Some("dummy") | Some("name") => {}
                Some(other) => return Err(syntax(lineno, format!("unknown directive .{other}"))),
                None => return Err(syntax(lineno, "empty directive")),
            }
            continue;
        }
        if !in_graph {
            return Err(syntax(lineno, "arc outside .graph section"));
        }
        let not_marked = |token: &str| StgError::NotMarkedGraph {
            line: lineno,
            token: token.to_owned(),
        };
        let mut toks = line.split_whitespace();
        let src_tok = toks.next().expect("non-empty line has a token");
        let src = events
            .resolve(src_tok, true)
            .flatten()
            .ok_or_else(|| not_marked(src_tok))?;
        for dst_tok in toks {
            let dst = events
                .resolve(dst_tok, true)
                .flatten()
                .ok_or_else(|| not_marked(dst_tok))?;
            arcs.declare(src, dst, options.default_delay);
        }
    }

    let mut labels = vec![String::new(); events.by_label.len()];
    for (label, id) in events.by_label {
        labels[id as usize] = label;
    }
    let mut b = SignalGraphBuilder::with_capacity(labels.len(), arcs.specs.len());
    let ids: Vec<EventId> = labels.iter().map(|label| b.event(label)).collect();
    for arc in &arcs.specs {
        let (s, d) = (ids[arc.src as usize], ids[arc.dst as usize]);
        if arc.marked {
            b.marked_arc(s, d, arc.delay);
        } else {
            b.arc(s, d, arc.delay);
        }
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_core::analysis::CycleTimeAnalysis;

    #[test]
    fn parses_minimal_toggle() {
        let text = "\
.model toggle
.outputs x
.graph
x+ x-
x- x+
.marking { <x-,x+> }
.end
";
        let sg = parse_stg(text, StgOptions::default()).unwrap();
        assert_eq!(sg.event_count(), 2);
        assert_eq!(sg.arc_count(), 2);
        let tau = CycleTimeAnalysis::run(&sg).unwrap().cycle_time();
        assert_eq!(tau.as_f64(), 2.0); // two unit-delay arcs
    }

    #[test]
    fn delay_extension_applies() {
        let text = "\
.graph
x+ x-
x- x+
.marking { <x-,x+> }
.delay x+ x- 3
.delay x- x+ 2.5
.end
";
        let sg = parse_stg(text, StgOptions::default()).unwrap();
        let tau = CycleTimeAnalysis::run(&sg).unwrap().cycle_time();
        assert_eq!(tau.as_f64(), 5.5);
    }

    #[test]
    fn fanout_lines_expand() {
        let text = "\
.graph
a+ b+ c+
b+ d+
c+ d+
d+ a+
.marking { <d+,a+> }
.end
";
        let sg = parse_stg(text, StgOptions::default()).unwrap();
        assert_eq!(sg.arc_count(), 5);
        assert_eq!(sg.event_count(), 4);
    }

    #[test]
    fn indexed_transitions_normalise() {
        let text = "\
.graph
a+/1 a-/1
a-/1 a+/1
.marking { <a-/1,a+/1> }
.end
";
        let sg = parse_stg(text, StgOptions::default()).unwrap();
        assert!(sg.event_by_label("a#1+").is_some());
    }

    #[test]
    fn explicit_places_rejected() {
        let text = "\
.graph
p0 a+
a+ p0
.end
";
        let err = parse_stg(text, StgOptions::default()).unwrap_err();
        assert!(matches!(err, StgError::NotMarkedGraph { .. }));
    }

    #[test]
    fn unknown_arc_in_marking() {
        let text = "\
.graph
x+ x-
x- x+
.marking { <x+,x+> }
.end
";
        assert!(matches!(
            parse_stg(text, StgOptions::default()),
            Err(StgError::UnknownArc { .. })
        ));
    }

    #[test]
    fn unmarked_stg_is_invalid() {
        let text = "\
.graph
x+ x-
x- x+
.end
";
        assert!(matches!(
            parse_stg(text, StgOptions::default()),
            Err(StgError::Invalid(_))
        ));
    }

    #[test]
    fn syntax_error_line_numbers() {
        let err = parse_stg("x+ x-\n", StgOptions::default()).unwrap_err();
        assert!(matches!(err, StgError::Syntax { line: 1, .. }));
    }

    fn parse(text: &str) -> Result<SignalGraph, StgError> {
        parse_stg(text, StgOptions::default())
    }

    fn tau(sg: &SignalGraph) -> f64 {
        CycleTimeAnalysis::run(sg).unwrap().cycle_time().as_f64()
    }

    /// `(src, dst, delay, marked)` of every arc, in arc order.
    fn arcs(sg: &SignalGraph) -> Vec<(String, String, f64, bool)> {
        sg.arc_ids()
            .map(|a| {
                let arc = sg.arc(a);
                (
                    sg.label(arc.src()).to_string(),
                    sg.label(arc.dst()).to_string(),
                    arc.delay().get(),
                    arc.is_marked(),
                )
            })
            .collect()
    }

    fn unknown(src: &str, dst: &str) -> StgError {
        StgError::UnknownArc {
            src: src.to_owned(),
            dst: dst.to_owned(),
        }
    }

    #[test]
    fn parallel_arc_delays_roundtrip() {
        // x+ -> x- twice (7 and 3), back through a marked arc of delay 1:
        // the slower parallel arc sets tau = 8.
        let mut b = SignalGraph::builder();
        let xp = b.event("x+");
        let xm = b.event("x-");
        b.arc(xp, xm, 7.0);
        b.arc(xp, xm, 3.0);
        b.marked_arc(xm, xp, 1.0);
        let sg = b.build().unwrap();
        let back = parse(&crate::write_stg(&sg, "par").unwrap()).unwrap();
        assert_eq!(arcs(&back), arcs(&sg));
        assert_eq!(tau(&back), 8.0);
        assert_eq!(tau(&back), tau(&sg));
    }

    #[test]
    fn parallel_marked_arcs_roundtrip() {
        let mut b = SignalGraph::builder();
        let xp = b.event("x+");
        let xm = b.event("x-");
        b.arc(xp, xm, 2.0);
        b.marked_arc(xm, xp, 1.0);
        b.marked_arc(xm, xp, 4.0);
        let sg = b.build().unwrap();
        let back = parse(&crate::write_stg(&sg, "par").unwrap()).unwrap();
        assert_eq!(arcs(&back), arcs(&sg));
        assert_eq!(tau(&back), tau(&sg));
    }

    #[test]
    fn extra_entries_apply_to_the_last_parallel_arc() {
        let text = "\
.graph
x+ x- x-
x- x+
.marking { <x-,x+> }
.delay x+ x- 1
.delay x+ x- 2
.delay x+ x- 6
.end
";
        let sg = parse(text).unwrap();
        let delays: Vec<f64> = arcs(&sg).iter().map(|a| a.2).collect();
        assert_eq!(delays, [1.0, 6.0, 1.0]);
    }

    #[test]
    fn repeated_delay_on_one_arc_last_wins() {
        let text = "\
.graph
x+ x-
x- x+
.marking { <x-,x+> }
.delay x+ x- 3
.delay x+ x- 5
.delay x+ x- 4
.end
";
        assert_eq!(tau(&parse(text).unwrap()), 5.0);
    }

    #[test]
    fn unknown_arc_carries_normalised_labels() {
        let graph = "\
.graph
a+/1 a-/1
a-/1 a+/1
.marking { <a-/1,a+/1> }
";
        // both transitions interned, but no such arc
        let text = format!("{graph}.delay a+/1 a+/1 2\n.end\n");
        assert_eq!(parse(&text).unwrap_err(), unknown("a#1+", "a#1+"));
        let text = format!("{graph}.marking {{ <a-/1,a-/1> }}\n.end\n");
        assert_eq!(parse(&text).unwrap_err(), unknown("a#1-", "a#1-"));
        // a transition that was never declared
        let text = format!("{graph}.delay b+/2 a+/1 2\n.end\n");
        assert_eq!(parse(&text).unwrap_err(), unknown("b#2+", "a#1+"));
        let text = format!("{graph}.marking {{ <a+/1, b-/3> }}\n.end\n");
        assert_eq!(parse(&text).unwrap_err(), unknown("a#1+", "b#3-"));
    }

    #[test]
    fn delay_before_its_arc_is_unknown() {
        let text = "\
.delay x+ x- 3
.graph
x+ x-
x- x+
.marking { <x-,x+> }
.end
";
        assert_eq!(parse(text).unwrap_err(), unknown("x+", "x-"));
        // the events exist, but the arc is declared only later
        let text = "\
.graph
x+ x-
.end
.delay x- x+ 3
.graph
x- x+
.marking { <x-,x+> }
.end
";
        assert_eq!(parse(text).unwrap_err(), unknown("x-", "x+"));
    }

    #[test]
    fn error_lines_and_order() {
        let graph = ".model m\n.graph\nx+ x-\nx- x+\n.marking { <x-,x+> }\n";
        let err = |tail: &str| parse(&format!("{graph}{tail}")).unwrap_err();
        let syntax = |line: usize, message: &str| StgError::Syntax {
            line,
            message: message.to_owned(),
        };
        assert_eq!(
            err("# comment\n.delay x+ x-\n"),
            syntax(7, "expected `.delay SRC DST VALUE`")
        );
        assert_eq!(
            err(".delay x+ x- 1 2\n"),
            syntax(6, "expected `.delay SRC DST VALUE`")
        );
        assert_eq!(err(".delay p0 x- 1\n"), syntax(6, "bad transition \"p0\""));
        // a bad value is reported before the unknown arc
        assert_eq!(err(".delay x+ x+ slow\n"), syntax(6, "bad delay \"slow\""));
        assert_eq!(
            err(".marking { <x-,x+> <x+ x-> }\n"),
            syntax(6, "bad marking token \"x+ x-\"")
        );
        assert_eq!(
            err(".marking { <x-, p1> }\n"),
            syntax(6, "bad transition \" p1\"")
        );
        assert_eq!(err(".places p\n"), syntax(6, "unknown directive .places"));
        assert_eq!(
            err(".end\nx+ x-\n"),
            syntax(7, "arc outside .graph section")
        );
        assert_eq!(
            err("\n\nx- p0 x+\n"),
            StgError::NotMarkedGraph {
                line: 8,
                token: "p0".to_owned(),
            }
        );
    }
}
