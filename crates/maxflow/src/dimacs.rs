//! DIMACS max-flow format I/O.
//!
//! The standard interchange format of the max-flow literature (and of the
//! first DIMACS implementation challenge), supported so instances can be
//! cross-checked against external solvers:
//!
//! ```text
//! c comment
//! p max <nodes> <edges>
//! n <node> s
//! n <node> t
//! a <from> <to> <capacity>
//! ```
//!
//! DIMACS node ids are 1-based; [`NodeId`]s are 0-based — conversion is
//! handled here. Capacities are written in full `f64` precision (the
//! format traditionally uses integers; real-valued capacities are a
//! widely used extension and what PPUF instances need).

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::graph::{FlowNetwork, NodeId};

/// Largest node count [`from_dimacs`] accepts in a problem line.
///
/// The network's two adjacency tables are allocated for the declared
/// count before any arc is read, at 48 bytes per node, so an unchecked
/// count in a 22-byte header could ask for terabytes. The cap keeps that
/// allocation under 50 MiB while staying three orders of magnitude above
/// the paper's largest instance (n = 900) and every fixture.
pub const MAX_DIMACS_NODES: usize = 1 << 20;

/// A parsed DIMACS instance: the network plus its designated terminals.
#[derive(Debug, Clone, PartialEq)]
pub struct DimacsInstance {
    /// The flow network.
    pub network: FlowNetwork,
    /// Source terminal.
    pub source: NodeId,
    /// Sink terminal.
    pub sink: NodeId,
}

/// Serializes a network and its terminals to DIMACS text.
///
/// Parallel arcs (which [`FlowNetwork`] permits) are merged into one
/// `a` line with their capacities summed — max-flow-equivalent, and
/// required because DIMACS text cannot distinguish a parallel arc from
/// an accidental duplicate line ([`from_dimacs`] rejects duplicates).
///
/// ```
/// use ppuf_maxflow::{dimacs, FlowNetwork, NodeId};
/// # fn main() -> Result<(), ppuf_maxflow::MaxFlowError> {
/// let net = FlowNetwork::complete(3, |_, _| 1.0)?;
/// let text = dimacs::to_dimacs(&net, NodeId::new(0), NodeId::new(2));
/// assert!(text.starts_with("p max 3 6"));
/// # Ok(())
/// # }
/// ```
pub fn to_dimacs(net: &FlowNetwork, source: NodeId, sink: NodeId) -> String {
    // merge parallel arcs, preserving first-seen order for stable output
    let mut order: Vec<(NodeId, NodeId)> = Vec::new();
    let mut merged: std::collections::HashMap<(NodeId, NodeId), f64> =
        std::collections::HashMap::new();
    for (_, edge) in net.edges() {
        let key = (edge.from, edge.to);
        match merged.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => *e.get_mut() += edge.capacity,
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(edge.capacity);
                order.push(key);
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "p max {} {}", net.node_count(), order.len());
    let _ = writeln!(out, "n {} s", source.index() + 1);
    let _ = writeln!(out, "n {} t", sink.index() + 1);
    for key in order {
        let _ = writeln!(
            out,
            "a {} {} {}",
            key.0.index() + 1,
            key.1.index() + 1,
            // shortest round-trip representation
            format_capacity(merged[&key])
        );
    }
    out
}

fn format_capacity(c: f64) -> String {
    if c == c.trunc() && c.abs() < 1e15 {
        format!("{}", c as i64)
    } else {
        format!("{c:e}")
    }
}

/// Parses DIMACS text into a network plus terminals.
///
/// # Errors
///
/// Returns a [`ParseDimacsError`] naming the offending line for malformed
/// or duplicate problem lines, node counts above [`MAX_DIMACS_NODES`],
/// out-of-range or 0-based node ids,
/// duplicate arcs, coinciding terminals, missing problem/terminal lines,
/// malformed capacities, and unknown line types.
pub fn from_dimacs(text: &str) -> Result<DimacsInstance, ParseDimacsError> {
    let mut network: Option<FlowNetwork> = None;
    let mut source = None;
    let mut sink = None;
    let mut seen_arcs: HashSet<(usize, usize)> = HashSet::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let kind = parts.next().expect("non-empty line");
        match kind {
            "p" => {
                if network.is_some() {
                    return Err(ParseDimacsError::at(lineno, "duplicate problem line"));
                }
                let fmt = parts.next();
                if fmt != Some("max") {
                    return Err(ParseDimacsError::at(lineno, "expected 'p max'"));
                }
                let nodes: usize = parse(parts.next(), lineno, "node count")?;
                let _edges: usize = parse(parts.next(), lineno, "edge count")?;
                if u32::try_from(nodes).is_err() {
                    return Err(ParseDimacsError::at(
                        lineno,
                        &format!("node count {nodes} does not fit a 32-bit node id"),
                    ));
                }
                if nodes > MAX_DIMACS_NODES {
                    return Err(ParseDimacsError::at(
                        lineno,
                        &format!("node count {nodes} exceeds the limit of {MAX_DIMACS_NODES}"),
                    ));
                }
                network = Some(FlowNetwork::new(nodes));
            }
            "n" => {
                let nodes = network
                    .as_ref()
                    .ok_or_else(|| ParseDimacsError::at(lineno, "terminal before problem line"))?
                    .node_count();
                let id = node_id(parts.next(), nodes, lineno, "terminal id")?;
                match parts.next() {
                    Some("s") => source = Some(id),
                    Some("t") => sink = Some(id),
                    _ => return Err(ParseDimacsError::at(lineno, "terminal must be 's' or 't'")),
                }
            }
            "a" => {
                let net = network
                    .as_mut()
                    .ok_or_else(|| ParseDimacsError::at(lineno, "arc before problem line"))?;
                let nodes = net.node_count();
                let from = node_id(parts.next(), nodes, lineno, "arc tail")?;
                let to = node_id(parts.next(), nodes, lineno, "arc head")?;
                let capacity: f64 = parse(parts.next(), lineno, "capacity")?;
                if !seen_arcs.insert((from.index(), to.index())) {
                    return Err(ParseDimacsError::at(
                        lineno,
                        &format!("duplicate arc {} -> {}", from.index() + 1, to.index() + 1),
                    ));
                }
                net.add_edge(from, to, capacity)
                    .map_err(|e| ParseDimacsError::at(lineno, &e.to_string()))?;
            }
            _ => return Err(ParseDimacsError::at(lineno, "unknown line type")),
        }
    }
    let network = network.ok_or_else(|| ParseDimacsError::at(0, "missing problem line"))?;
    let source = source.ok_or_else(|| ParseDimacsError::at(0, "missing source line"))?;
    let sink = sink.ok_or_else(|| ParseDimacsError::at(0, "missing sink line"))?;
    network.check_terminals(source, sink).map_err(|e| ParseDimacsError::at(0, &e.to_string()))?;
    Ok(DimacsInstance { network, source, sink })
}

fn parse<T: std::str::FromStr>(
    token: Option<&str>,
    lineno: usize,
    what: &str,
) -> Result<T, ParseDimacsError> {
    token
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| ParseDimacsError::at(lineno, &format!("missing or malformed {what}")))
}

/// Parses a 1-based DIMACS node id and range-checks it against the
/// declared node count before converting to a 0-based [`NodeId`].
fn node_id(
    token: Option<&str>,
    nodes: usize,
    lineno: usize,
    what: &str,
) -> Result<NodeId, ParseDimacsError> {
    let id: usize = parse(token, lineno, what)?;
    if id == 0 {
        return Err(ParseDimacsError::at(lineno, "node ids are 1-based"));
    }
    if id > nodes {
        return Err(ParseDimacsError::at(
            lineno,
            &format!("{what} {id} out of range (instance has {nodes} nodes)"),
        ));
    }
    Ok(NodeId::new((id - 1) as u32))
}

/// Error describing why DIMACS text failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDimacsError {
    /// 0-based line number of the offending line (0 also covers
    /// whole-file problems).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseDimacsError {
    fn at(line: usize, message: &str) -> Self {
        ParseDimacsError { line, message: message.to_string() }
    }
}

impl std::fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dimacs parse error at line {}: {}", self.line + 1, self.message)
    }
}

impl std::error::Error for ParseDimacsError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic::Dinic;
    use crate::solver::MaxFlowSolver;

    #[test]
    fn roundtrip_preserves_instance() {
        let net =
            FlowNetwork::complete(5, |u, v| 1.0 + ((u.index() * 3 + v.index()) % 4) as f64 * 0.25)
                .unwrap();
        let (s, t) = (NodeId::new(0), NodeId::new(4));
        let text = to_dimacs(&net, s, t);
        let parsed = from_dimacs(&text).unwrap();
        assert_eq!(parsed.source, s);
        assert_eq!(parsed.sink, t);
        assert_eq!(parsed.network.node_count(), 5);
        assert_eq!(parsed.network.edge_count(), 20);
        // same max flow either way
        let before = Dinic::new().max_flow(&net, s, t).unwrap().value();
        let after =
            Dinic::new().max_flow(&parsed.network, parsed.source, parsed.sink).unwrap().value();
        assert!((before - after).abs() < 1e-9);
    }

    #[test]
    fn parses_hand_written_instance() {
        let text = "c tiny instance\n\
                    p max 4 5\n\
                    n 1 s\n\
                    n 4 t\n\
                    a 1 2 3\n\
                    a 1 3 2\n\
                    a 2 4 2\n\
                    a 3 4 3\n\
                    a 2 3 1\n";
        let inst = from_dimacs(text).unwrap();
        let flow = Dinic::new().max_flow(&inst.network, inst.source, inst.sink).unwrap();
        assert!((flow.value() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn fractional_capacities_roundtrip() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(NodeId::new(0), NodeId::new(1), 3.0972e-8).unwrap();
        let text = to_dimacs(&net, NodeId::new(0), NodeId::new(1));
        let parsed = from_dimacs(&text).unwrap();
        let cap = parsed.network.edge(crate::graph::EdgeId::new(0)).unwrap().capacity;
        assert_eq!(cap, 3.0972e-8);
    }

    #[test]
    fn rejects_malformed_input() {
        for (bad, why) in [
            ("p min 2 1\n", "wrong problem kind"),
            ("a 1 2 3\n", "arc before problem"),
            ("p max 2 1\nn 0 s\n", "zero node id"),
            ("p max 2 1\nn 1 s\nn 1 t\na 1 2 1\n", "source equals sink"),
            ("p max 2 1\nn 1 s\nn 2 t\na 1 2 banana\n", "bad capacity"),
            ("p max 2 1\nn 1 s\nn 2 t\nz 1 2 1\n", "unknown line"),
            ("p max 2 1\nn 1 s\na 1 2 1\n", "missing sink"),
        ] {
            assert!(from_dimacs(bad).is_err(), "{why}");
        }
    }

    #[test]
    fn rejects_malformed_headers() {
        for (bad, want) in [
            ("p\n", "expected 'p max'"),
            ("p max\n", "node count"),
            ("p max two 1\n", "node count"),
            ("p max 2\n", "edge count"),
            ("p max 2 -1\n", "edge count"),
            ("p max 2 1\np max 3 1\nn 1 s\nn 2 t\n", "duplicate problem line"),
            ("n 1 s\np max 2 1\nn 2 t\n", "terminal before problem line"),
        ] {
            let err = from_dimacs(bad).expect_err(bad);
            assert!(err.message.contains(want), "input {bad:?}: got {err}");
        }
    }

    /// Each header declares a node count the parser must refuse before
    /// allocating the network's per-node tables for it.
    #[test]
    fn rejects_huge_node_counts_before_allocating() {
        for (bad, want) in [
            ("p max 100000000000 0\n", "does not fit a 32-bit node id"),
            ("p max 4294967297 1\nn 1 s\nn 2 t\n", "does not fit a 32-bit node id"),
            ("p max 1048577 0\n", "exceeds the limit of 1048576"),
        ] {
            let err = from_dimacs(bad).expect_err(bad);
            assert_eq!(err.line, 0, "input {bad:?}");
            assert!(err.message.contains(want), "input {bad:?}: got {err}");
        }
        let at_cap = format!("p max {MAX_DIMACS_NODES} 1\nn 1 s\nn {MAX_DIMACS_NODES} t\n");
        assert_eq!(from_dimacs(&at_cap).unwrap().network.node_count(), MAX_DIMACS_NODES);
    }

    #[test]
    fn rejects_duplicate_arcs() {
        let text = "p max 3 3\nn 1 s\nn 3 t\na 1 2 1\na 2 3 1\na 1 2 5\n";
        let err = from_dimacs(text).unwrap_err();
        assert_eq!(err.line, 5);
        assert!(err.message.contains("duplicate arc 1 -> 2"), "{err}");
        // opposite direction is a different arc, not a duplicate
        let ok = "p max 3 4\nn 1 s\nn 3 t\na 1 2 1\na 2 1 1\na 2 3 1\n";
        assert!(from_dimacs(ok).is_ok());
    }

    #[test]
    fn rejects_out_of_range_node_ids() {
        for (bad, want) in [
            ("p max 3 1\nn 1 s\nn 9 t\na 1 2 1\n", "terminal id 9 out of range"),
            ("p max 3 1\nn 1 s\nn 3 t\na 7 2 1\n", "arc tail 7 out of range"),
            ("p max 3 1\nn 1 s\nn 3 t\na 1 8 1\n", "arc head 8 out of range"),
            // larger than u32 — must error, not silently truncate
            ("p max 3 1\nn 1 s\nn 3 t\na 1 4294967297 1\n", "out of range"),
        ] {
            let err = from_dimacs(bad).expect_err(bad);
            assert!(err.message.contains(want), "input {bad:?}: got {err}");
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "c hello\n\nc world\np max 2 1\nn 1 s\nn 2 t\na 1 2 7\n";
        let inst = from_dimacs(text).unwrap();
        assert_eq!(inst.network.edge_count(), 1);
    }

    #[test]
    fn error_display_mentions_line() {
        let err = from_dimacs("p max 2 1\nn 1 s\nn 2 t\nq\n").unwrap_err();
        assert!(err.to_string().contains("line 4"), "{err}");
    }
}
