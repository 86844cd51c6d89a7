//! Hierarchical causal spans: `(trace_id, span_id, parent_id)` with a
//! thread-local current-span stack and explicit cross-thread handoff.
//!
//! A [`Span`] is an RAII guard: creating one emits `SpanStarted`, makes
//! the span *current* on this thread, and dropping it emits `SpanEnded`
//! with the measured duration. Children created while a span is current
//! record it as their parent, so nested guards build a tree without any
//! explicit wiring. Every event stamped by a [`crate::Bus`] also records
//! the current span id (see [`crate::Event::span`]), which is how flat
//! events (kernel timings, file writes) attach themselves to the task
//! that caused them.
//!
//! Crossing a thread boundary needs one explicit step because the stack
//! is thread-local: capture [`current`] on the spawning side, move the
//! `SpanContext` (it is `Copy`) into the closure, and [`SpanContext::attach`]
//! it on the executing side. `par::Scope::spawn` does exactly this, so
//! work running on the compute pool inherits causality for free.
//!
//! ```
//! let root = obs::trace::span("request");
//! let ctx = obs::trace::current().unwrap();
//! std::thread::spawn(move || {
//!     let _g = ctx.attach();                 // re-establish causality
//!     let _child = obs::trace::span("work"); // parent = "request"
//! })
//! .join()
//! .unwrap();
//! drop(root);
//! ```
//!
//! Span ids are process-unique and never reused; id 0 means "no span".

use crate::event::EventKind;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The portable identity of a span: enough to re-establish causality on
/// another thread. `trace` is the id of the root span of the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanContext {
    pub trace: u64,
    pub span: u64,
}

thread_local! {
    static STACK: RefCell<Vec<SpanContext>> = const { RefCell::new(Vec::new()) };
}

fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The innermost span current on this thread, if any.
pub fn current() -> Option<SpanContext> {
    STACK.with(|s| s.borrow().last().copied())
}

/// Id of the current span (0 = none). This is what [`crate::Bus::stamp`]
/// records on every event.
#[inline]
pub fn current_span_id() -> u64 {
    STACK.with(|s| s.borrow().last().map_or(0, |c| c.span))
}

/// Start a new span as a child of the thread's current span (or as a new
/// trace root when there is none) and make it current.
///
/// Emits `SpanStarted` on the global bus when active; the returned guard
/// emits `SpanEnded` (with wall-clock micros) when dropped. Keep the
/// guard bound to a `let` — `let _ = span(..)` drops immediately.
pub fn span(name: impl Into<Arc<str>>) -> Span {
    let parent = current();
    let id = next_id();
    let ctx = SpanContext { trace: parent.map_or(id, |p| p.trace), span: id };
    STACK.with(|s| s.borrow_mut().push(ctx));
    let name = name.into();
    let parent_id = parent.map_or(0, |p| p.span);
    crate::global().emit_with(|| EventKind::SpanStarted {
        name: Arc::clone(&name),
        trace: ctx.trace,
        span: ctx.span,
        parent: parent_id,
    });
    Span {
        ctx,
        parent: parent_id,
        name,
        start: Instant::now(),
        _not_send: std::marker::PhantomData,
    }
}

/// RAII guard for an open span (see [`span`]). Not `Send`: it must drop
/// on the thread that created it, because it pops the thread-local stack.
pub struct Span {
    ctx: SpanContext,
    parent: u64,
    name: Arc<str>,
    start: Instant,
    // !Send: the guard manipulates this thread's span stack.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for Span {
    fn drop(&mut self) {
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Well-nested guards pop from the top; a mis-ordered drop
            // (possible with mem::swap games) still removes the entry.
            if stack.last() == Some(&self.ctx) {
                stack.pop();
            } else if let Some(pos) = stack.iter().rposition(|c| *c == self.ctx) {
                stack.remove(pos);
            }
        });
        let micros = self.start.elapsed().as_micros() as u64;
        let (ctx, parent) = (self.ctx, self.parent);
        let name = Arc::clone(&self.name);
        crate::global().emit_with(|| EventKind::SpanEnded {
            name,
            trace: ctx.trace,
            span: ctx.span,
            parent,
            micros,
        });
    }
}

impl SpanContext {
    /// Make this context current on this thread without opening a new
    /// span: the causality bridge for thread handoff. Spans created
    /// while the guard lives become children of `self.span`; events
    /// stamped meanwhile carry `self.span`. Emits nothing.
    pub fn attach(self) -> ContextGuard {
        STACK.with(|s| s.borrow_mut().push(self));
        ContextGuard { ctx: self, _not_send: std::marker::PhantomData }
    }
}

/// RAII guard for an attached [`SpanContext`]; detaches on drop.
pub struct ContextGuard {
    ctx: SpanContext,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&self.ctx) {
                stack.pop();
            } else if let Some(pos) = stack.iter().rposition(|c| *c == self.ctx) {
                stack.remove(pos);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_nest_and_unwind() {
        assert_eq!(current(), None);
        let a = span("a");
        let actx = current().expect("a span is current once opened");
        assert_eq!(actx.trace, actx.span, "root span starts its own trace");
        {
            let _b = span("b");
            let bctx = current().unwrap();
            assert_eq!(bctx.trace, actx.trace, "child shares the trace id");
            assert_ne!(bctx.span, actx.span);
        }
        assert_eq!(current(), Some(actx), "stack unwinds to the parent");
        drop(a);
        assert_eq!(current(), None);
    }

    #[test]
    fn attach_bridges_threads() {
        let _root = span("root");
        let ctx = current().unwrap();
        let child_parent = std::thread::spawn(move || {
            assert_eq!(current(), None, "fresh thread has no ambient span");
            let _g = ctx.attach();
            assert_eq!(current(), Some(ctx));
            current_span_id()
        })
        .join()
        .unwrap();
        assert_eq!(child_parent, ctx.span);
        assert_eq!(current(), Some(ctx), "spawning thread unaffected");
    }

    #[test]
    fn out_of_order_drop_still_cleans_up() {
        let a = span("a");
        let b = span("b");
        let bctx = current().unwrap();
        drop(a); // drops the *outer* guard first
        assert_eq!(current(), Some(bctx), "inner span remains current");
        drop(b);
        assert_eq!(current(), None);
    }
}
