//! Plain-text edge-list I/O.
//!
//! Format: one `source target [weight]` triple per line, whitespace
//! separated; lines starting with `#` or `%` are comments. Node ids are
//! non-negative integers; the node count is `max id + 1` unless given.

use crate::{DiGraph, GraphError, Result};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Validation policy for edge-list loading.
///
/// Non-finite and negative weights are always rejected — they corrupt every
/// downstream similarity computation. Self-loops and duplicate edges are
/// rejected by default (a duplicated line usually signals a corrupted file,
/// and a silently accumulated weight is hard to diagnose) but can be opted
/// back in for formats that legitimately carry them.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeListOptions {
    /// Accept `u u` self-loop edges. Default false.
    pub allow_self_loops: bool,
    /// Accept repeated `(u, v)` pairs, accumulating their weights.
    /// Default false.
    pub allow_duplicates: bool,
}

impl EdgeListOptions {
    /// Accepts self-loops and duplicate edges (weights accumulate).
    pub fn permissive() -> Self {
        EdgeListOptions {
            allow_self_loops: true,
            allow_duplicates: true,
        }
    }
}

/// Reads a directed edge list from any reader with default (strict)
/// validation; see [`EdgeListOptions`].
pub fn read_edge_list<R: Read>(reader: R) -> Result<DiGraph> {
    read_edge_list_with(reader, &EdgeListOptions::default())
}

/// Reads a directed edge list from any reader under the given validation
/// policy.
pub fn read_edge_list_with<R: Read>(reader: R, opts: &EdgeListOptions) -> Result<DiGraph> {
    let buf = BufReader::new(reader);
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    let mut max_node = 0usize;
    let mut first_seen: HashMap<(usize, usize), usize> = HashMap::new();
    for (lineno, line) in buf.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let lineno = lineno + 1;
        let mut parts = trimmed.split_whitespace();
        let u: usize = parts
            .next()
            .ok_or_else(|| GraphError::Invalid(format!("line {lineno}: missing source")))?
            .parse()
            .map_err(|e| GraphError::Invalid(format!("line {lineno}: bad source: {e}")))?;
        let v: usize = parts
            .next()
            .ok_or_else(|| GraphError::Invalid(format!("line {lineno}: missing target")))?
            .parse()
            .map_err(|e| GraphError::Invalid(format!("line {lineno}: bad target: {e}")))?;
        // Node ids become u32 CSR column indices downstream; an id at or
        // above u32::MAX would wrap silently in the matrix layer, so
        // reject it here with the offending line.
        const MAX_NODE_ID: usize = u32::MAX as usize - 1;
        for (what, id) in [("source", u), ("target", v)] {
            if id > MAX_NODE_ID {
                return Err(GraphError::BadEdge {
                    line: lineno,
                    reason: format!(
                        "{what} node id {id} exceeds the u32 node-index limit ({MAX_NODE_ID})"
                    ),
                });
            }
        }
        let w: f64 = match parts.next() {
            Some(s) => s
                .parse()
                .map_err(|e| GraphError::Invalid(format!("line {lineno}: bad weight: {e}")))?,
            None => 1.0,
        };
        if !w.is_finite() {
            return Err(GraphError::BadEdge {
                line: lineno,
                reason: format!("non-finite weight {w} on edge {u} -> {v}"),
            });
        }
        if w < 0.0 {
            return Err(GraphError::BadEdge {
                line: lineno,
                reason: format!("negative weight {w} on edge {u} -> {v}"),
            });
        }
        if u == v && !opts.allow_self_loops {
            return Err(GraphError::BadEdge {
                line: lineno,
                reason: format!("self-loop on node {u}"),
            });
        }
        if !opts.allow_duplicates {
            if let Some(&first) = first_seen.get(&(u, v)) {
                return Err(GraphError::BadEdge {
                    line: lineno,
                    reason: format!("duplicate edge {u} -> {v} (first seen at line {first})"),
                });
            }
            first_seen.insert((u, v), lineno);
        }
        max_node = max_node.max(u).max(v);
        edges.push((u, v, w));
    }
    let n = if edges.is_empty() { 0 } else { max_node + 1 };
    DiGraph::from_weighted_edges(n, &edges)
}

/// Reads a directed edge list from a file with default (strict) validation.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<DiGraph> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes a directed graph as an edge list. Weights equal to 1.0 are
/// omitted to keep files compact.
pub fn write_edge_list<W: Write>(g: &DiGraph, writer: W) -> Result<()> {
    let mut buf = BufWriter::new(writer);
    writeln!(buf, "# symclust edge list: {} nodes", g.n_nodes())?;
    for (u, v, w) in g.edges() {
        if w == 1.0 {
            writeln!(buf, "{u} {v}")?;
        } else {
            writeln!(buf, "{u} {v} {w}")?;
        }
    }
    buf.flush()?;
    Ok(())
}

/// Writes a directed graph to a file.
pub fn write_edge_list_file<P: AsRef<Path>>(g: &DiGraph, path: P) -> Result<()> {
    write_edge_list(g, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_basic_edge_list() {
        let input = "# comment\n0 1\n1 2 2.5\n% another comment\n\n2 0\n";
        let g = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(g.n_nodes(), 3);
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.adjacency().get(1, 2), 2.5);
        assert_eq!(g.adjacency().get(0, 1), 1.0);
    }

    #[test]
    fn read_empty_input() {
        let g = read_edge_list("# nothing\n".as_bytes()).unwrap();
        assert_eq!(g.n_nodes(), 0);
        assert_eq!(g.n_edges(), 0);
    }

    #[test]
    fn read_rejects_malformed_lines() {
        assert!(read_edge_list("0\n".as_bytes()).is_err());
        assert!(read_edge_list("a b\n".as_bytes()).is_err());
        assert!(read_edge_list("0 1 notaweight\n".as_bytes()).is_err());
    }

    fn bad_edge_line(err: GraphError) -> usize {
        match err {
            GraphError::BadEdge { line, .. } => line,
            other => panic!("expected BadEdge, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_finite_weights_with_line_number() {
        for bad in ["nan", "inf", "-inf"] {
            let input = format!("0 1\n1 2 {bad}\n");
            let line = bad_edge_line(read_edge_list(input.as_bytes()).unwrap_err());
            assert_eq!(line, 2, "weight {bad}");
        }
        // Non-finite weights are rejected even under the permissive policy.
        let err = read_edge_list_with("0 1 nan\n".as_bytes(), &EdgeListOptions::permissive())
            .unwrap_err();
        assert_eq!(bad_edge_line(err), 1);
    }

    #[test]
    fn rejects_negative_weights_with_line_number() {
        let err = read_edge_list("# header\n0 1\n2 0 -3.5\n".as_bytes()).unwrap_err();
        assert_eq!(bad_edge_line(err), 3);
        let err =
            read_edge_list_with("0 1 -1\n".as_bytes(), &EdgeListOptions::permissive()).unwrap_err();
        assert_eq!(bad_edge_line(err), 1);
    }

    #[test]
    fn rejects_out_of_range_node_ids_with_line_number() {
        // Node ids must fit u32 CSR column indices; anything at or above
        // u32::MAX would wrap in the matrix layer.
        let huge = u32::MAX as u64;
        for (input, line) in [
            (format!("0 1\n{huge} 2\n"), 2),
            (format!("# header\n0 1\n1 {}\n", u64::MAX), 3),
        ] {
            let err = read_edge_list(input.as_bytes()).unwrap_err();
            assert_eq!(bad_edge_line(err), line, "input {input:?}");
        }
        // The permissive policy does not relax the id bound.
        let err = read_edge_list_with(
            format!("{huge} 0\n").as_bytes(),
            &EdgeListOptions::permissive(),
        )
        .unwrap_err();
        match err {
            GraphError::BadEdge { line, ref reason } => {
                assert_eq!(line, 1);
                assert!(reason.contains("node id"), "reason: {reason}");
                assert!(reason.contains("limit"), "reason: {reason}");
            }
            other => panic!("expected BadEdge, got {other:?}"),
        }
    }

    #[test]
    fn rejects_self_loops_by_default_but_allows_opt_in() {
        let input = "0 1\n2 2\n";
        let err = read_edge_list(input.as_bytes()).unwrap_err();
        assert_eq!(bad_edge_line(err), 2);
        let opts = EdgeListOptions {
            allow_self_loops: true,
            ..Default::default()
        };
        let g = read_edge_list_with(input.as_bytes(), &opts).unwrap();
        assert_eq!(g.adjacency().get(2, 2), 1.0);
    }

    #[test]
    fn rejects_duplicate_edges_by_default_but_accumulates_on_opt_in() {
        let input = "0 1 2.0\n1 2\n0 1 3.0\n";
        let err = read_edge_list(input.as_bytes()).unwrap_err();
        match err {
            GraphError::BadEdge { line, ref reason } => {
                assert_eq!(line, 3);
                assert!(
                    reason.contains("line 1"),
                    "reason should name the first occurrence: {reason}"
                );
            }
            other => panic!("expected BadEdge, got {other:?}"),
        }
        let opts = EdgeListOptions {
            allow_duplicates: true,
            ..Default::default()
        };
        let g = read_edge_list_with(input.as_bytes(), &opts).unwrap();
        assert_eq!(g.adjacency().get(0, 1), 5.0);
    }

    #[test]
    fn bad_edge_error_message_names_the_line() {
        let err = read_edge_list("0 0\n".as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 1"), "{msg}");
        assert!(msg.contains("self-loop"), "{msg}");
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let g = DiGraph::from_weighted_edges(4, &[(0, 1, 1.0), (1, 2, 3.5), (3, 0, 1.0)]).unwrap();
        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        let g2 = read_edge_list(out.as_slice()).unwrap();
        assert_eq!(g2.n_nodes(), 4);
        assert_eq!(g2.adjacency(), g.adjacency());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("symclust_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let g = DiGraph::from_edges(3, &[(0, 1), (2, 1)]).unwrap();
        write_edge_list_file(&g, &path).unwrap();
        let g2 = read_edge_list_file(&path).unwrap();
        assert_eq!(g2.adjacency(), g.adjacency());
        std::fs::remove_file(&path).ok();
    }
}
