//! Span context must survive the pool handoff: a task spawned on the
//! pool inside an ambient span opens a `par_task` child whose parent is
//! that span, even though it executes on a different thread.

use std::collections::HashSet;

#[test]
fn parent_span_ids_survive_pool_handoff() {
    let rx = obs::global().subscribe_with_capacity(obs::DEFAULT_CAPACITY);
    let pool = par::Pool::with_name(3, "adhoc");

    let outer = obs::trace::span("outer_work");
    let ctx = obs::trace::current().expect("the outer span is ambient");
    let doubled = pool.par_map(&[1u64, 2, 3, 4, 5, 6, 7, 8], |&x| x * 2);
    assert_eq!(doubled, vec![2, 4, 6, 8, 10, 12, 14, 16]);
    drop(outer);

    let events = rx.drain();
    let mut parents = HashSet::new();
    let mut traces = HashSet::new();
    for e in &events {
        if let obs::EventKind::SpanEnded { name, trace, parent, .. } = &e.kind {
            if &**name == "par_task" && *trace == ctx.trace {
                parents.insert(*parent);
                traces.insert(*trace);
            }
        }
    }
    assert!(
        !parents.is_empty(),
        "pool tasks inside an ambient span must open par_task child spans"
    );
    assert_eq!(parents, HashSet::from([ctx.span]), "every child must point at the outer span");
    assert_eq!(traces, HashSet::from([ctx.trace]), "children share the root's trace id");

    // The outer span itself closed as a root (no parent).
    assert!(events.iter().any(|e| matches!(
        &e.kind,
        obs::EventKind::SpanEnded { name, span, parent: 0, .. }
            if &**name == "outer_work" && *span == ctx.span
    )));
}

#[test]
fn scope_spawn_carries_context_explicitly() {
    let rx = obs::global().subscribe_with_capacity(obs::DEFAULT_CAPACITY);
    let pool = par::Pool::with_name(2, "adhoc");

    let root = obs::trace::span("scope_root");
    let ctx = obs::trace::current().expect("the root span is ambient");
    pool.scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                // The ambient span on the worker thread must belong to
                // the caller's trace, not be empty or a fresh root.
                let inner = obs::trace::current().expect("context attached on worker");
                assert_eq!(inner.trace, ctx.trace);
            });
        }
    });
    drop(root);
    drop(rx);
}

#[test]
fn no_ambient_span_means_no_par_task_spans() {
    let rx = obs::global().subscribe_with_capacity(obs::DEFAULT_CAPACITY);
    let pool = par::Pool::with_name(2, "adhoc");
    // Unique marker computed on the pool so we only look at our events.
    let out = pool.par_map(&[100u64, 200], |&x| x + 11);
    assert_eq!(out, vec![111, 211]);
    // Tasks spawned with no ambient span must not invent root spans.
    let rootless = rx
        .drain()
        .iter()
        .filter(|e| {
            matches!(&e.kind, obs::EventKind::SpanEnded { parent: 0, name, .. } if &**name == "par_task")
        })
        .count();
    assert_eq!(rootless, 0);
}
