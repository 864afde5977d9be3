//! # tsg-stg — Signal Transition Graph (`.g`) file I/O
//!
//! Readers and writers for the `astg` text format used by petrify, SIS and
//! the asynchronous-synthesis community — the lingua franca for the Signal
//! Graph specifications the paper analyses (its refs \[4, 9, 10, 12\] all
//! speak this language).
//!
//! Supported subclass: **marked graphs** — transition-to-transition arcs
//! with tokens on arcs (`.marking { <a+,b+> }`), which is exactly the
//! Signal Graph model of the paper. Explicit places and choice are
//! rejected with a clear error.
//!
//! Because the classic format carries no timing, the parser accepts an
//! extension directive `.delay <src> <dst> <value>` assigning a delay to an
//! arc, plus a default delay for unannotated arcs. The writer emits the
//! same dialect, so `parse → write → parse` round-trips.
//!
//! A `.delay` line or `.marking` token names its arc by its two
//! transitions, and must come after that arc's `.graph` line. When a pair
//! has parallel arcs, the k-th `.delay` entry for the pair sets the delay
//! of its k-th declared arc and the k-th `.marking` entry marks it; entries
//! beyond the last arc apply to the last arc (so a repeated `.delay` on a
//! single arc lets the last line win). The writer emits one entry per
//! arc in arc order, so parallel arcs keep their own delays and tokens;
//! only a pair whose first arc is unmarked and a later one marked cannot
//! be expressed.
//!
//! Parsing is one pass, linear in the size of the text: transitions are
//! interned to event indices once, and entries find their arc through an
//! index on the arc's endpoints.
//!
//! ```
//! use tsg_stg::{parse_stg, StgOptions};
//!
//! let text = "\
//! .model toggle
//! .outputs x
//! .graph
//! x+ x-
//! x- x+
//! .marking { <x-,x+> }
//! .end
//! ";
//! let sg = parse_stg(text, StgOptions::default())?;
//! assert_eq!(sg.event_count(), 2);
//! # Ok::<(), tsg_stg::StgError>(())
//! ```

mod examples;
mod reader;
mod writer;

pub use examples::{EXAMPLE_MULTI_EVENT, EXAMPLE_OSCILLATOR, EXAMPLE_PIPELINE_2PH, EXAMPLE_RING5};
pub use reader::{parse_stg, StgError, StgOptions};
pub use writer::{write_stg, WriteStgError};
