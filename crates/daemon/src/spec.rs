//! `session.create` specs: a registry cell ([`CellSpec::from_json`], so
//! the matrix's labels, knobs and generation rule, bit for bit) parsed
//! from wire params, or the daemon-local `panic-probe` row.

use std::sync::Arc;

use bcount_json::{Json, ToJson};
use bcount_sim::{DynExecution, ExecutionSnapshot, NodeContext, Protocol};

use crate::cell::{key_or, AdversarySpec, CellSpec, ProtocolSpec, SpecError};

/// The daemon-local protocol label for [`PanicProbe`].
const PANIC_PROBE: &str = "panic-probe";

/// A fully parsed `session.create` spec.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    cell: CellSpec,
    /// `Some(trigger round)` for the `panic-probe` row, whose protocol
    /// replaces the cell's.
    panic_at: Option<u64>,
}

impl SessionSpec {
    /// Parses `session.create` params: a [`CellSpec`], or — checked
    /// before the registry is consulted — `protocol: "panic-probe"` with
    /// its trigger round `panic_at` (default 1) on a silent cell.
    pub fn from_params(params: &Json) -> Result<SessionSpec, SpecError> {
        if params.get("protocol").and_then(Json::as_str) != Some(PANIC_PROBE) {
            return Ok(SessionSpec {
                cell: CellSpec::from_json(params)?,
                panic_at: None,
            });
        }
        // The probe's knob-free stand-in row is never built; it only lets
        // the rest of the cell parse.
        let cell = CellSpec::from_json_with(params, ProtocolSpec::Convergecast)?;
        if cell.adversary != AdversarySpec::Null {
            return Err(SpecError(format!(
                "adversary '{}' is incompatible with protocol '{PANIC_PROBE}'",
                cell.adversary.label()
            )));
        }
        Ok(SessionSpec {
            cell,
            panic_at: Some(key_or(params, "panic_at", 1)?),
        })
    }

    /// The node count the session will have, known before any graph
    /// memory is allocated (the server's `max_n` cap checks this).
    pub fn resolved_n(&self) -> usize {
        self.cell.family.resolved_n(self.cell.n)
    }

    /// Generates the graph and builds the session's execution.
    pub fn build(&self) -> Result<Box<dyn DynExecution>, SpecError> {
        let graph = Arc::new(self.cell.generate()?);
        match self.panic_at {
            None => self.cell.build(graph),
            Some(panic_at) => {
                self.cell
                    .build_silent(graph, move |_, _| PanicProbe { panic_at }, |_: &()| 0.0)
            }
        }
    }

    /// The spec echo attached to `session.create` / `session.list`
    /// replies: canonical labels, the engine seed, the round budget, and
    /// the resolved sizes read from the built execution's `snapshot`.
    pub fn echo(&self, snapshot: &ExecutionSnapshot) -> Json {
        let cell = &self.cell;
        let protocol = match self.panic_at {
            Some(_) => PANIC_PROBE,
            None => cell.protocol.label(),
        };
        Json::obj(vec![
            ("family", cell.family.label().to_json()),
            ("n", snapshot.n.to_json()),
            ("protocol", protocol.to_json()),
            ("adversary", cell.adversary.label().to_json()),
            ("placement", cell.placement.label().to_json()),
            ("byzantine", snapshot.byzantine.to_json()),
            ("seed", cell.engine_seed.to_json()),
            ("max_rounds", cell.max_rounds.to_json()),
        ])
    }
}

/// A protocol that panics on schedule — the daemon's panic-isolation
/// test vehicle (`protocol: "panic-probe"`, trigger round `panic_at`).
struct PanicProbe {
    panic_at: u64,
}

impl Protocol for PanicProbe {
    type Message = ();
    type Output = ();

    fn on_round(&mut self, ctx: &mut NodeContext<'_, ()>) {
        if ctx.round() >= self.panic_at {
            panic!("panic-probe tripped at round {}", ctx.round());
        }
        ctx.broadcast(());
    }

    fn output(&self) -> Option<()> {
        None
    }

    fn has_halted(&self) -> bool {
        false
    }
}
