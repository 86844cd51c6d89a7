//! Property test: arbitrary DAGs computed by the parallel runtime agree
//! with a sequential oracle evaluation, regardless of worker count.

use dataflow::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// A random DAG spec: for each task, the indices of earlier tasks it reads.
#[derive(Debug, Clone)]
struct DagSpec {
    /// reads[i] ⊂ {0..i}
    reads: Vec<Vec<usize>>,
}

fn dag_strategy(max_tasks: usize) -> impl Strategy<Value = DagSpec> {
    (2..max_tasks)
        .prop_flat_map(|n| {
            // For task i, pick a read mask over tasks 0..i.
            let masks: Vec<_> =
                (0..n).map(|i| proptest::collection::vec(any::<bool>(), i)).collect();
            masks.prop_map(|masks| DagSpec {
                reads: masks
                    .into_iter()
                    .map(|m| {
                        m.iter().enumerate().filter(|(_, &take)| take).map(|(j, _)| j).collect()
                    })
                    .collect(),
            })
        })
        .prop_filter("at least one edge", |d| d.reads.iter().any(|r| !r.is_empty()))
}

/// Oracle: task i's value = 1 + sum of values it reads (sequential).
fn oracle(spec: &DagSpec) -> Vec<u64> {
    let mut vals = Vec::with_capacity(spec.reads.len());
    for reads in &spec.reads {
        let v = 1 + reads.iter().map(|&j| vals[j]).sum::<u64>();
        vals.push(v);
    }
    vals
}

/// Runs the DAG on the runtime and returns every task's value.
fn run_dag(spec: &DagSpec, workers: usize) -> Vec<u64> {
    let rt: Runtime<Bytes> = Runtime::new(RuntimeConfig::with_cpu_workers(workers));
    let mut outputs: Vec<DataRef> = Vec::new();
    for (i, reads) in spec.reads.iter().enumerate() {
        let read_refs: Vec<DataRef> = reads.iter().map(|&j| outputs[j].clone()).collect();
        let h = rt
            .task("node")
            .reads(&read_refs)
            .writes(&[format!("v{i}").as_str()])
            .run(move |inp: &[Arc<Bytes>]| {
                let v = 1 + inp.iter().map(|b| b.as_u64().unwrap()).sum::<u64>();
                Ok(vec![Bytes::from_u64(v)])
            })
            .unwrap();
        outputs.push(h.outputs[0].clone());
    }
    let vals: Vec<u64> = outputs.iter().map(|o| rt.fetch(o).unwrap().as_u64().unwrap()).collect();
    rt.barrier().unwrap();
    rt.shutdown();
    vals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_execution_matches_oracle(
        spec in dag_strategy(24),
        workers in 1usize..6,
    ) {
        // Placement changes where work runs, never what it computes.
        prop_assert_eq!(run_dag(&spec, workers), oracle(&spec));
    }

    /// Graph structure matches the spec regardless of execution order.
    #[test]
    fn graph_edges_match_spec(spec in dag_strategy(16)) {
        let rt: Runtime<Bytes> = Runtime::new(RuntimeConfig::with_cpu_workers(2));
        let mut outputs: Vec<DataRef> = Vec::new();
        for (i, reads) in spec.reads.iter().enumerate() {
            let read_refs: Vec<DataRef> = reads.iter().map(|&j| outputs[j].clone()).collect();
            let h = rt
                .task("node")
                .reads(&read_refs)
                .writes(&[format!("v{i}").as_str()])
                .run(|_| Ok(vec![Bytes::from_u64(0)]))
                .unwrap();
            outputs.push(h.outputs[0].clone());
        }
        rt.barrier().unwrap();
        let (tasks, edges, _) = rt.graph_stats();
        prop_assert_eq!(tasks, spec.reads.len());
        let expected_edges: usize = spec
            .reads
            .iter()
            .map(|r| {
                // Deduplicated producer set per consumer.
                let mut s = r.clone();
                s.sort_unstable();
                s.dedup();
                s.len()
            })
            .sum();
        prop_assert_eq!(edges, expected_edges);
        rt.shutdown();
    }
}
