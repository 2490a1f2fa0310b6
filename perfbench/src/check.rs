//! Output checks, written here from the definitions and not through the
//! program's own `predicates` or `is_legitimate`: a fault shared by the
//! program and its predicates cannot pass both.

use selfstab_core::Pointer;
use selfstab_graph::{Graph, Node};

/// SMM states as plain `Option<partner index>` pointers.
pub fn pointers(states: &[Pointer]) -> Vec<Option<usize>> {
    states.iter().map(|p| p.0.map(Node::index)).collect()
}

fn is_neighbor(g: &Graph, u: usize, v: usize) -> bool {
    g.neighbors(Node(u as u32)).iter().any(|w| w.index() == v)
}

/// SMM's final pointers form a maximal matching of `g`: every pointer runs
/// along an edge to a node pointing back, and no edge joins two nodes that
/// are both unmatched.
pub fn maximal_matching(g: &Graph, ptr: &[Option<usize>]) -> Result<(), String> {
    if ptr.len() != g.n() {
        return Err(format!("{} pointers for {} nodes", ptr.len(), g.n()));
    }
    for (i, p) in ptr.iter().enumerate() {
        if let Some(j) = *p {
            if !is_neighbor(g, i, j) {
                return Err(format!("node {i} points at non-neighbour {j}"));
            }
            if ptr[j] != Some(i) {
                return Err(format!(
                    "node {i} points at {j}, which points at {:?}",
                    ptr[j]
                ));
            }
        }
    }
    for u in 0..g.n() {
        for w in g.neighbors(Node(u as u32)) {
            let v = w.index();
            if u < v && ptr[u].is_none() && ptr[v].is_none() {
                return Err(format!("edge {u}-{v} joins two unmatched nodes"));
            }
        }
    }
    Ok(())
}

/// SMI's final set is independent (no edge inside it) and dominating
/// (every node outside it has a neighbour inside).
pub fn independent_dominating(g: &Graph, member: &[bool]) -> Result<(), String> {
    if member.len() != g.n() {
        return Err(format!("{} flags for {} nodes", member.len(), g.n()));
    }
    for u in 0..g.n() {
        let nbrs = g.neighbors(Node(u as u32));
        if member[u] {
            if let Some(w) = nbrs.iter().find(|w| member[w.index()]) {
                return Err(format!("members {u} and {} are adjacent", w.index()));
            }
        } else if !nbrs.iter().any(|w| member[w.index()]) {
            return Err(format!("node {u} is outside the set and undominated"));
        }
    }
    Ok(())
}

/// Theorem 1: SMM stabilizes within n + 1 rounds.
pub fn theorem1_bound(n: usize, rounds: usize) -> Result<(), String> {
    if rounds > n + 1 {
        return Err(format!(
            "{rounds} rounds exceed the n + 1 = {} bound",
            n + 1
        ));
    }
    Ok(())
}

/// A membership reply's partner must be a neighbour of the queried node
/// in the topology the client knows at that point of the stream
/// (`neighbors`, sorted).
pub fn partner_is_neighbor(
    node: usize,
    partner: Option<usize>,
    neighbors: &[u32],
) -> Result<(), String> {
    match partner {
        Some(p) if neighbors.binary_search(&(p as u32)).is_err() => Err(format!(
            "node {node} reports partner {p}, not a neighbour in the mirror topology"
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p4() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn accepts_a_maximal_matching() {
        assert!(maximal_matching(&p4(), &[Some(1), Some(0), Some(3), Some(2)]).is_ok());
        // {1-2} alone is maximal on P4: 0 and 3 have only matched neighbours.
        assert!(maximal_matching(&p4(), &[None, Some(2), Some(1), None]).is_ok());
    }

    #[test]
    fn rejects_a_non_maximal_matching() {
        let err = maximal_matching(&p4(), &[Some(1), Some(0), None, None]).unwrap_err();
        assert!(err.contains("2-3"), "{err}");
    }

    #[test]
    fn rejects_a_non_mutual_pointer() {
        let err = maximal_matching(&p4(), &[Some(1), Some(2), Some(1), None]).unwrap_err();
        assert!(err.contains("node 0 points at 1"), "{err}");
    }

    #[test]
    fn rejects_a_pointer_off_the_graph() {
        let err = maximal_matching(&p4(), &[Some(3), None, None, Some(0)]).unwrap_err();
        assert!(err.contains("non-neighbour"), "{err}");
    }

    #[test]
    fn accepts_an_independent_dominating_set() {
        assert!(independent_dominating(&p4(), &[true, false, true, false]).is_ok());
        assert!(independent_dominating(&p4(), &[false, true, false, true]).is_ok());
    }

    #[test]
    fn rejects_two_adjacent_members() {
        let err = independent_dominating(&p4(), &[true, true, false, true]).unwrap_err();
        assert!(err.contains("adjacent"), "{err}");
    }

    #[test]
    fn rejects_an_undominated_node() {
        let err = independent_dominating(&p4(), &[true, false, false, false]).unwrap_err();
        assert!(err.contains("node 2 is outside"), "{err}");
    }

    #[test]
    fn rejects_a_partner_that_is_not_a_neighbor() {
        assert!(partner_is_neighbor(5, Some(7), &[2, 7, 9]).is_ok());
        assert!(partner_is_neighbor(5, None, &[]).is_ok());
        let err = partner_is_neighbor(5, Some(8), &[2, 7, 9]).unwrap_err();
        assert!(err.contains("partner 8"), "{err}");
    }

    #[test]
    fn theorem1_bound_is_n_plus_one() {
        assert!(theorem1_bound(10, 11).is_ok());
        assert!(theorem1_bound(10, 12).is_err());
    }
}
