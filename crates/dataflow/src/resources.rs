//! Worker profiles and task constraints.
//!
//! PyCOMPSs `@constraint` decorators let tasks target specific processors
//! or accelerators; the runtime only schedules a task onto a worker whose
//! profile satisfies the task's constraint. A profile is a worker kind:
//! CPU workers for the simulation and analytics, a GPU partition for ML
//! inference.

/// Kind of computing element a worker represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkerKind {
    Cpu,
    Gpu,
}

/// Static description of one worker (a node slot in the master–worker
/// deployment).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerProfile {
    pub kind: WorkerKind,
}

impl WorkerProfile {
    /// A CPU worker.
    pub fn cpu() -> Self {
        WorkerProfile { kind: WorkerKind::Cpu }
    }

    /// A GPU worker (a slot on the accelerator partition).
    pub fn gpu() -> Self {
        WorkerProfile { kind: WorkerKind::Gpu }
    }

    /// True when this worker can host a task with the given constraint.
    pub fn satisfies(&self, c: &Constraint) -> bool {
        c.kind.is_none_or(|kind| kind == self.kind)
    }
}

/// Placement requirement of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Constraint {
    /// Required worker kind, if any.
    pub kind: Option<WorkerKind>,
}

impl Constraint {
    /// No requirements: any worker fits.
    pub fn any() -> Self {
        Constraint::default()
    }

    /// Requires a GPU worker.
    pub fn gpu() -> Self {
        Constraint { kind: Some(WorkerKind::Gpu) }
    }

    /// Requires a CPU worker.
    pub fn cpu() -> Self {
        Constraint { kind: Some(WorkerKind::Cpu) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_constraint_fits_everything() {
        let c = Constraint::any();
        assert!(WorkerProfile::cpu().satisfies(&c));
        assert!(WorkerProfile::gpu().satisfies(&c));
    }

    #[test]
    fn kind_constraints() {
        assert!(!WorkerProfile::cpu().satisfies(&Constraint::gpu()));
        assert!(WorkerProfile::gpu().satisfies(&Constraint::gpu()));
        assert!(WorkerProfile::cpu().satisfies(&Constraint::cpu()));
        assert!(!WorkerProfile::gpu().satisfies(&Constraint::cpu()));
    }
}
