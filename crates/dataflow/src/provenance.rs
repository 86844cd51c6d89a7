//! Provenance tracking.
//!
//! Section 2 of the paper lists provenance tracking among the key WMS
//! capabilities for large-scale workflows, and FAIR-compliant workflow
//! documents among the motivations for workflow systems. For every
//! terminal task the log says what was consumed and produced
//! (name@version), where and when it ran, and how many attempts it took.
//! It is a *read*, not a record of its own: the run's event fold
//! ([`crate::monitor::StatusFold::provenance`]) joined with the data refs
//! the task graph holds. The log can be queried for lineage ("which
//! tasks, transitively, produced this datum?") and exported as a
//! PROV-style text document.

use crate::task::{DataRef, TaskId, TaskState};
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::time::{Duration, SystemTime};

/// One task's provenance record.
#[derive(Debug, Clone)]
pub struct TaskRecord {
    pub task: TaskId,
    pub name: String,
    pub used: Vec<DataRef>,
    pub generated: Vec<DataRef>,
    /// Worker index that completed the task (None = restored from
    /// checkpoint, or never completed).
    pub worker: Option<usize>,
    /// Wall-clock start of the final attempt (None = never started).
    pub started: Option<SystemTime>,
    /// Wall time of the final attempt.
    pub duration: Option<Duration>,
    /// Number of the last attempt started (1 for a task that never ran).
    pub attempts: u32,
    pub final_state: TaskState,
}

/// The whole workflow's provenance log.
#[derive(Debug, Clone)]
pub struct ProvenanceLog {
    records: Vec<TaskRecord>,
    /// Producer of each data version id.
    producer: HashMap<u64, TaskId>,
}

impl ProvenanceLog {
    /// Indexes `records` by the data versions they generated.
    pub(crate) fn from_records(records: Vec<TaskRecord>) -> Self {
        let producer =
            records.iter().flat_map(|r| r.generated.iter().map(|g| (g.id, r.task))).collect();
        ProvenanceLog { records, producer }
    }

    /// All records, in submission order.
    pub fn records(&self) -> &[TaskRecord] {
        &self.records
    }

    /// The record for one task.
    pub fn task(&self, id: TaskId) -> Option<&TaskRecord> {
        self.records.iter().find(|r| r.task == id)
    }

    /// Transitive lineage of a datum: every task whose outputs contributed
    /// to it, nearest first.
    pub fn lineage(&self, datum: &DataRef) -> Vec<TaskId> {
        let mut seen = BTreeSet::new();
        let mut order = Vec::new();
        let mut frontier = vec![datum.id];
        while let Some(d) = frontier.pop() {
            let Some(&producer) = self.producer.get(&d) else { continue };
            if !seen.insert(producer) {
                continue;
            }
            order.push(producer);
            if let Some(rec) = self.task(producer) {
                frontier.extend(rec.used.iter().map(|u| u.id));
            }
        }
        order
    }

    /// Renders a PROV-style text document (activities, entities, and
    /// used/wasGeneratedBy relations).
    pub fn to_prov_text(&self) -> String {
        let mut s = String::from("document\n");
        for r in &self.records {
            let _ = writeln!(
                s,
                "  activity(task:{}, [label=\"{}\", attempts={}, state={:?}{}])",
                r.task.0,
                r.name,
                r.attempts,
                r.final_state,
                r.worker.map(|w| format!(", worker={w}")).unwrap_or_default()
            );
            for u in &r.used {
                let _ = writeln!(s, "  used(task:{}, data:{})", r.task.0, u);
            }
            for g in &r.generated {
                let _ = writeln!(s, "  wasGeneratedBy(data:{}, task:{})", g, r.task.0);
            }
        }
        s.push_str("endDocument\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dref(id: u64, name: &str, v: u32) -> DataRef {
        DataRef { id, name: name.into(), version: v }
    }

    fn rec(task: u64, name: &str, used: Vec<DataRef>, generated: Vec<DataRef>) -> TaskRecord {
        TaskRecord {
            task: TaskId(task),
            name: name.into(),
            used,
            generated,
            worker: Some(0),
            started: Some(SystemTime::now()),
            duration: Some(Duration::from_millis(5)),
            attempts: 1,
            final_state: TaskState::Completed,
        }
    }

    /// esm -> import -> index chain with a baseline side input.
    fn chain() -> ProvenanceLog {
        ProvenanceLog::from_records(vec![
            rec(1, "esm", vec![], vec![dref(1, "year", 1)]),
            rec(2, "baseline", vec![], vec![dref(2, "base", 1)]),
            rec(3, "import", vec![dref(1, "year", 1)], vec![dref(3, "cube", 1)]),
            rec(4, "index", vec![dref(3, "cube", 1), dref(2, "base", 1)], vec![dref(4, "hwn", 1)]),
        ])
    }

    #[test]
    fn lineage_walks_transitively() {
        let log = chain();
        let lineage = log.lineage(&dref(4, "hwn", 1));
        assert_eq!(lineage[0], TaskId(4));
        assert!(lineage.contains(&TaskId(3)));
        assert!(lineage.contains(&TaskId(2)));
        assert!(lineage.contains(&TaskId(1)));
        assert_eq!(lineage.len(), 4);
    }

    #[test]
    fn lineage_of_source_datum_is_its_producer() {
        let log = chain();
        assert_eq!(log.lineage(&dref(1, "year", 1)), vec![TaskId(1)]);
        assert!(log.lineage(&dref(99, "ghost", 1)).is_empty());
    }

    #[test]
    fn prov_text_contains_relations() {
        let log = chain();
        let doc = log.to_prov_text();
        assert!(doc.starts_with("document"));
        assert!(doc.contains("activity(task:4, [label=\"index\""));
        assert!(doc.contains("used(task:4, data:cube@v1)"));
        assert!(doc.contains("wasGeneratedBy(data:hwn@v1, task:4)"));
        assert!(doc.trim_end().ends_with("endDocument"));
    }

    #[test]
    fn diamond_lineage_dedups() {
        let log = ProvenanceLog::from_records(vec![
            rec(1, "src", vec![], vec![dref(1, "a", 1)]),
            rec(2, "l", vec![dref(1, "a", 1)], vec![dref(2, "b", 1)]),
            rec(3, "r", vec![dref(1, "a", 1)], vec![dref(3, "c", 1)]),
            rec(4, "sink", vec![dref(2, "b", 1), dref(3, "c", 1)], vec![dref(4, "d", 1)]),
        ]);
        let lineage = log.lineage(&dref(4, "d", 1));
        assert_eq!(lineage.len(), 4, "source task must appear once: {lineage:?}");
    }
}
