//! In-process replay of served requests through the public function of
//! each layer, with optional spans.
//!
//! A [`Replayer`] mirrors what one serve worker does for the commands
//! the benchmark sends — `protocol::parse_request`, `ops::load` (the
//! `.g` reader), `ops::report_in`, `AnalysisSession` opens and edits,
//! `ops::session_summary`, `protocol::ok_response` — and returns the
//! response line the server should have sent, so a replay doubles as
//! the answer check.
//!
//! With a recording [`Tracer`] each call is wrapped in a span (name,
//! start, end, parent, request id). Work that happens *inside* a public
//! call with no public hook of its own — the validation pass inside
//! `parse_stg`, and the border pass, wide kernel and scenario lanes
//! inside `report_in` — is timed by calling that layer's public function
//! again on the same input right after the request, and recorded as a
//! *shadow* child of the call that contains it. A span's self time is
//! its duration minus the durations of all its children, shadows
//! included. Spans inside the program itself are left for later.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use tsg_core::analysis::session::AnalysisSession;
use tsg_core::analysis::wide::AnalysisArena;
use tsg_core::analysis::CycleTimeAnalysis;
use tsg_core::SignalGraph;
use tsg_serve::ops::{self, AnalyzeOptions};
use tsg_serve::protocol::{self, Command};

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary name, e.g. `reader.parse`.
    pub name: &'static str,
    /// Request the span belongs to.
    pub req: u64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Re-run of inner work outside the parent's interval (see module
    /// docs).
    pub shadow: bool,
    /// Work counts recorded at this boundary.
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder; a disabled one records nothing and costs
/// one branch per boundary.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    req: u64,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            req: 0,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            req: self.req,
            parent,
            start,
            end: start,
            shadow: false,
            counts: Vec::new(),
        });
        Some(self.spans.len() - 1)
    }

    fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end = self.now();
        }
    }

    fn count(&mut self, span: Option<usize>, key: &'static str, value: f64) {
        if let Some(i) = span {
            self.spans[i].counts.push((key, value));
        }
    }

    fn count_last(&mut self, key: &'static str, value: f64) {
        if self.on {
            let last = self.spans.len() - 1;
            self.spans[last].counts.push((key, value));
        }
    }

    /// Runs `f` as a shadow child of `parent`.
    fn shadow<R>(&mut self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let span = self.open(name, parent);
        let out = std::hint::black_box(f());
        self.close(span);
        if let Some(i) = span {
            self.spans[i].shadow = true;
        }
        out
    }
}

/// Inner work to time after the request (see module docs).
enum Shadow {
    /// Validation inside `reader.parse`; border pass, kernel and
    /// scenario lanes inside `ops.report`.
    Analyze {
        parse: Option<usize>,
        report: Option<usize>,
        sg: Box<SignalGraph>,
        opts: AnalyzeOptions,
    },
    /// Validation of the opened session's graph inside `reader.parse`.
    Open {
        parse: Option<usize>,
        session: String,
    },
}

/// One serve worker's state, replayed in-process.
#[derive(Default)]
pub struct Replayer {
    arena: AnalysisArena,
    sessions: HashMap<String, AnalysisSession>,
}

impl Replayer {
    /// Checks every open session's incremental cycle time against a
    /// from-scratch scalar analysis of its current graph.
    ///
    /// # Errors
    ///
    /// Names the first session whose cycle time differs.
    pub fn check_sessions(&self) -> Result<(), String> {
        for (name, session) in &self.sessions {
            let scratch =
                CycleTimeAnalysis::run_scalar(session.graph()).map_err(|e| e.to_string())?;
            let (got, want) = (session.analysis().cycle_time(), scratch.cycle_time());
            if got.as_f64().to_bits() != want.as_f64().to_bits() {
                return Err(format!(
                    "session {name:?}: incremental {got}, scalar {want}"
                ));
            }
        }
        Ok(())
    }

    /// Serves request `req` (`line` without its newline) and returns the
    /// response line the server should have sent.
    pub fn serve(&mut self, req: u64, line: &str, tr: &mut Tracer) -> String {
        tr.req = req;
        let root = tr.open("request", None);
        let decode = tr.open("protocol.decode", root);
        let parsed = protocol::parse_request(line);
        tr.count(decode, "bytes_in", (line.len() + 1) as f64);
        tr.close(decode);
        let mut shadows = Vec::new();
        let (id, result) = match parsed {
            Ok(request) => {
                let out = self.execute(request.cmd, root, tr, &mut shadows);
                (request.id, out)
            }
            Err((id, msg)) => (id, Err(msg)),
        };
        let encode = tr.open("protocol.encode", root);
        let response = match result {
            Ok(output) => protocol::ok_response(&id, &output),
            Err(error) => protocol::err_response(&id, &error),
        };
        tr.count(encode, "bytes_out", (response.len() + 1) as f64);
        tr.close(encode);
        tr.close(root);
        for shadow in shadows {
            self.run_shadow(shadow, tr);
        }
        response
    }

    fn execute(
        &mut self,
        cmd: Command,
        root: Option<usize>,
        tr: &mut Tracer,
        shadows: &mut Vec<Shadow>,
    ) -> Result<String, String> {
        match cmd {
            Command::Analyze { source, opts } => {
                let (sg, parse) = read(&source, opts.default_delay, root, tr)?;
                let report = tr.open("ops.report", root);
                let out = ops::report_in(&sg, &opts, &mut self.arena);
                tr.count(report, "bytes", out.len() as f64);
                tr.close(report);
                if tr.on {
                    shadows.push(Shadow::Analyze {
                        parse,
                        report,
                        sg: Box::new(sg),
                        opts,
                    });
                }
                Ok(out)
            }
            Command::SessionOpen {
                session,
                source,
                default_delay,
            } => {
                if self.sessions.contains_key(&session) {
                    return Err(format!("session {session:?} is already open"));
                }
                let (sg, parse) = read(&source, default_delay, root, tr)?;
                let open = tr.open("session.open", root);
                let opened = AnalysisSession::open_with_kernel(sg, self.arena.kernel())
                    .map_err(|e| e.to_string())?;
                tr.close(open);
                let mut out = format!(
                    "opened session {session:?}: {} events, {} arcs, {} border event(s)\n",
                    opened.graph().event_count(),
                    opened.graph().arc_count(),
                    opened.analysis().border_events().len()
                );
                out.push_str(&summary(&opened, root, tr));
                if tr.on {
                    shadows.push(Shadow::Open {
                        parse,
                        session: session.clone(),
                    });
                }
                self.sessions.insert(session, opened);
                Ok(out)
            }
            Command::SessionEdit { session, edits } => {
                let open = self
                    .sessions
                    .get_mut(&session)
                    .ok_or_else(|| format!("no open session {session:?}"))?;
                let edit = tr.open("session.edit", root);
                let delta = ops::apply_struct_edits(open, &edits)?;
                tr.count(edit, "rows", delta.rows as f64);
                tr.count(edit, "rows_total", delta.rows_total as f64);
                tr.count(edit, "dirty", delta.dirty as f64);
                tr.count(edit, "borders", delta.borders as f64);
                tr.close(edit);
                let mut out = summary(open, root, tr);
                let _ = writeln!(
                    out,
                    "re-simulated {} of {} border simulation(s) ({} of {} rows)",
                    delta.dirty, delta.borders, delta.rows, delta.rows_total
                );
                Ok(out)
            }
            _ => Err("the replay covers analyze and session requests only".to_owned()),
        }
    }

    fn run_shadow(&mut self, shadow: Shadow, tr: &mut Tracer) {
        match shadow {
            Shadow::Open { parse, session } => {
                let sg = self.sessions[&session].graph();
                let _ = tr.shadow("validate", parse, || sg.validate());
            }
            Shadow::Analyze {
                parse,
                report,
                sg,
                opts,
            } => {
                let _ = tr.shadow("validate", parse, || sg.validate());
                let borders = tr.shadow("graph.border", report, || sg.border_events().len());
                tr.count_last("borders", borders as f64);
                let arena = &mut self.arena;
                let wide = tr.shadow("wide", report, || {
                    CycleTimeAnalysis::run_in(&sg, None, arena)
                });
                let lanes = wide.map_or(0, |a| a.border_events().len());
                tr.count_last("lanes", lanes as f64);
                if let Ok(Some(set)) = ops::scenario_set_for(&opts, sg.arc_count()) {
                    let _ = tr.shadow("scenario", report, || {
                        CycleTimeAnalysis::run_scenarios_in(&sg, &set, None, arena, None)
                    });
                    tr.count_last("lanes", (lanes * set.len()) as f64);
                }
            }
        }
    }
}

/// `ops::load` inside a `reader.parse` span.
fn read(
    source: &ops::Source,
    default_delay: f64,
    root: Option<usize>,
    tr: &mut Tracer,
) -> Result<(SignalGraph, Option<usize>), String> {
    let text = source.read()?;
    let parse = tr.open("reader.parse", root);
    let sg = ops::load(source.name(), &text, default_delay)?;
    tr.close(parse);
    if tr.on {
        tr.count(parse, "lines", text.lines().count() as f64);
    }
    Ok((sg, parse))
}

fn summary(session: &AnalysisSession, root: Option<usize>, tr: &mut Tracer) -> String {
    let span = tr.open("ops.summary", root);
    let out = ops::session_summary(session);
    tr.close(span);
    out
}
