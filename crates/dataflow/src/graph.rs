//! The task graph: nodes, data-dependency edges, structure queries and DOT
//! export (Figure 3 of the paper is exactly this rendering: one circle per
//! task, one color per task function).

use crate::task::{DataRef, TaskId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One node of the task graph.
#[derive(Debug, Clone)]
pub struct Node {
    pub id: TaskId,
    /// Task function name (determines the DOT color, as in Figure 3).
    pub name: String,
    /// Data versions this task reads.
    pub reads: Vec<DataRef>,
    /// Data versions this task produces.
    pub writes: Vec<DataRef>,
}

/// An immutable-append task graph. Acyclic by construction: a task can only
/// read data versions that already exist when it is submitted, so every
/// edge points from an earlier task id to a later one.
#[derive(Debug, Default)]
pub struct TaskGraph {
    nodes: Vec<Node>,
    /// Producer task of each data version.
    producer: HashMap<u64, TaskId>,
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a node; returns the predecessor task ids implied by its
    /// reads (deduplicated, sorted).
    pub fn add_node(&mut self, node: Node) -> Vec<TaskId> {
        let mut preds = BTreeSet::new();
        for r in &node.reads {
            if let Some(&p) = self.producer.get(&r.id) {
                preds.insert(p);
            }
        }
        for w in &node.writes {
            self.producer.insert(w.id, node.id);
        }
        self.nodes.push(node);
        preds.into_iter().collect()
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no tasks have been submitted.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes in submission order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Dependency edges as `(from, to)` pairs, deduplicated.
    pub fn edges(&self) -> Vec<(TaskId, TaskId)> {
        let mut out = BTreeSet::new();
        for n in &self.nodes {
            for r in &n.reads {
                if let Some(&p) = self.producer.get(&r.id) {
                    if p != n.id {
                        out.insert((p, n.id));
                    }
                }
            }
        }
        out.into_iter().collect()
    }

    /// Length of the longest path (critical path) in tasks. The graph is a
    /// DAG with edges from lower to higher ids, so one forward sweep
    /// suffices.
    pub fn critical_path_len(&self) -> usize {
        if self.nodes.is_empty() {
            return 0;
        }
        let mut depth: HashMap<TaskId, usize> = HashMap::new();
        let mut preds: HashMap<TaskId, Vec<TaskId>> = HashMap::new();
        for (a, b) in self.edges() {
            preds.entry(b).or_default().push(a);
        }
        let mut best = 1;
        for n in &self.nodes {
            let d = preds
                .get(&n.id)
                .map(|ps| ps.iter().map(|p| depth[p]).max().unwrap_or(0))
                .unwrap_or(0)
                + 1;
            depth.insert(n.id, d);
            best = best.max(d);
        }
        best
    }

    /// Renders the graph in Graphviz DOT, one fill color per task function
    /// name, labels `#id` — the Figure 3 rendering.
    pub fn to_dot(&self) -> String {
        const PALETTE: [&str; 10] = [
            "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948", "#b07aa1", "#ff9da7",
            "#9c755f", "#bab0ac",
        ];
        let mut color_of: HashMap<&str, &str> = HashMap::new();
        let mut next = 0usize;
        let mut s = String::from("digraph workflow {\n  rankdir=TB;\n  node [shape=circle style=filled fontcolor=white];\n");
        for n in &self.nodes {
            let color = *color_of.entry(n.name.as_str()).or_insert_with(|| {
                let c = PALETTE[next % PALETTE.len()];
                next += 1;
                c
            });
            s.push_str(&format!(
                "  t{} [label=\"#{}\" fillcolor=\"{}\" tooltip=\"{}\"];\n",
                n.id.0, n.id.0, color, n.name
            ));
        }
        for (a, b) in self.edges() {
            s.push_str(&format!("  t{} -> t{};\n", a.0, b.0));
        }
        s.push_str("}\n");
        s
    }

    /// Tasks grouped by function name with counts (legend data for DOT).
    pub fn function_counts(&self) -> BTreeMap<String, usize> {
        let mut m = BTreeMap::new();
        for n in &self.nodes {
            *m.entry(n.name.clone()).or_insert(0) += 1;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dref(id: u64, name: &str, version: u32) -> DataRef {
        DataRef { id, name: name.into(), version }
    }

    fn node(id: u64, name: &str, reads: Vec<DataRef>, writes: Vec<DataRef>) -> Node {
        Node { id: TaskId(id), name: name.into(), reads, writes }
    }

    /// Builds the canonical diamond: 1 -> {2, 3} -> 4.
    fn diamond() -> TaskGraph {
        let mut g = TaskGraph::new();
        g.add_node(node(1, "src", vec![], vec![dref(1, "a", 1)]));
        g.add_node(node(2, "left", vec![dref(1, "a", 1)], vec![dref(2, "b", 1)]));
        g.add_node(node(3, "right", vec![dref(1, "a", 1)], vec![dref(3, "c", 1)]));
        g.add_node(node(4, "sink", vec![dref(2, "b", 1), dref(3, "c", 1)], vec![]));
        g
    }

    #[test]
    fn add_node_returns_predecessors() {
        let mut g = TaskGraph::new();
        let p = g.add_node(node(1, "src", vec![], vec![dref(1, "a", 1)]));
        assert!(p.is_empty());
        let p = g.add_node(node(2, "use", vec![dref(1, "a", 1)], vec![]));
        assert_eq!(p, vec![TaskId(1)]);
    }

    #[test]
    fn diamond_edges() {
        let g = diamond();
        assert_eq!(
            g.edges(),
            vec![
                (TaskId(1), TaskId(2)),
                (TaskId(1), TaskId(3)),
                (TaskId(2), TaskId(4)),
                (TaskId(3), TaskId(4)),
            ]
        );
        assert_eq!(g.critical_path_len(), 3);
    }

    #[test]
    fn versioned_reads_bind_to_specific_writer() {
        // Two versions of "x": task 3 reads v1, task 4 reads v2.
        let mut g = TaskGraph::new();
        g.add_node(node(1, "w1", vec![], vec![dref(1, "x", 1)]));
        g.add_node(node(2, "w2", vec![dref(1, "x", 1)], vec![dref(2, "x", 2)]));
        let p3 = g.add_node(node(3, "r1", vec![dref(1, "x", 1)], vec![]));
        let p4 = g.add_node(node(4, "r2", vec![dref(2, "x", 2)], vec![]));
        assert_eq!(p3, vec![TaskId(1)]);
        assert_eq!(p4, vec![TaskId(2)]);
    }

    #[test]
    fn duplicate_reads_dedup_predecessors() {
        let mut g = TaskGraph::new();
        g.add_node(node(1, "src", vec![], vec![dref(1, "a", 1), dref(2, "b", 1)]));
        let p = g.add_node(node(2, "use", vec![dref(1, "a", 1), dref(2, "b", 1)], vec![]));
        assert_eq!(p, vec![TaskId(1)]);
        assert_eq!(g.edges().len(), 1);
    }

    #[test]
    fn dot_contains_nodes_edges_and_colors() {
        let g = diamond();
        let dot = g.to_dot();
        assert!(dot.contains("t1 [label=\"#1\""));
        assert!(dot.contains("t1 -> t2;"));
        assert!(dot.contains("t3 -> t4;"));
        assert!(dot.contains("fillcolor"));
        // Different function names get different colors.
        let c1 = dot.lines().find(|l| l.contains("t1 [")).unwrap();
        let c2 = dot.lines().find(|l| l.contains("t2 [")).unwrap();
        let extract = |l: &str| {
            l.split("fillcolor=\"").nth(1).unwrap().split('"').next().unwrap().to_string()
        };
        assert_ne!(extract(c1), extract(c2));
    }

    #[test]
    fn function_counts() {
        let g = diamond();
        let m = g.function_counts();
        assert_eq!(m.len(), 4);
        assert_eq!(m["src"], 1);
    }

    #[test]
    fn empty_graph_defaults() {
        let g = TaskGraph::new();
        assert_eq!(g.critical_path_len(), 0);
        assert!(g.edges().is_empty());
        assert!(g.is_empty());
    }
}
