//! Worker profiles and task constraints.
//!
//! PyCOMPSs `@constraint` decorators let tasks target specific processors
//! or accelerators; the runtime only schedules a task onto a worker whose
//! profile satisfies the task's constraint. Profiles model the simulated
//! heterogeneous infrastructure (CPU nodes for the ESM, GPU partitions for
//! ML inference, fat-memory nodes for analytics).

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
    pub cores: u32,
    pub memory_gb: u32,
}

impl WorkerProfile {
    /// A CPU worker with the given core count and 4 GB/core.
    pub fn cpu(cores: u32) -> Self {
        WorkerProfile { kind: WorkerKind::Cpu, cores, memory_gb: cores * 4 }
    }

    /// A GPU worker (host cores + accelerator).
    pub fn gpu(cores: u32) -> Self {
        WorkerProfile { kind: WorkerKind::Gpu, cores, memory_gb: cores * 8 }
    }

    /// True when this worker can host a task with the given constraint.
    pub fn satisfies(&self, c: &Constraint) -> bool {
        if let Some(kind) = c.kind {
            if kind != self.kind {
                return false;
            }
        }
        self.cores >= c.min_cores && self.memory_gb >= c.min_memory_gb
    }
}

/// Placement requirements of a task (conjunction of all fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Constraint {
    /// Required worker kind, if any.
    pub kind: Option<WorkerKind>,
    /// Minimum core count.
    pub min_cores: u32,
    /// Minimum memory in GB.
    pub min_memory_gb: u32,
}

impl Constraint {
    /// No requirements: any worker fits.
    pub fn any() -> Self {
        Constraint::default()
    }

    /// Requires at least `n` cores.
    pub fn cores(n: u32) -> Self {
        Constraint { min_cores: n, ..Default::default() }
    }

    /// Requires a GPU worker.
    pub fn gpu() -> Self {
        Constraint { kind: Some(WorkerKind::Gpu), ..Default::default() }
    }

    /// Requires a CPU worker.
    pub fn cpu() -> Self {
        Constraint { kind: Some(WorkerKind::Cpu), ..Default::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_constraint_fits_everything() {
        let c = Constraint::any();
        assert!(WorkerProfile::cpu(1).satisfies(&c));
        assert!(WorkerProfile::gpu(8).satisfies(&c));
    }

    #[test]
    fn kind_constraints() {
        assert!(!WorkerProfile::cpu(16).satisfies(&Constraint::gpu()));
        assert!(WorkerProfile::gpu(4).satisfies(&Constraint::gpu()));
        assert!(WorkerProfile::cpu(4).satisfies(&Constraint::cpu()));
        assert!(!WorkerProfile::gpu(4).satisfies(&Constraint::cpu()));
    }

    #[test]
    fn core_and_memory_floors() {
        let c = Constraint::cores(8);
        assert!(!WorkerProfile::cpu(4).satisfies(&c));
        assert!(WorkerProfile::cpu(8).satisfies(&c));
        let c = Constraint { min_memory_gb: 100, ..Constraint::any() };
        assert!(!WorkerProfile::cpu(4).satisfies(&c)); // 16 GB
        assert!(WorkerProfile::cpu(32).satisfies(&c)); // 128 GB
        let c = Constraint { min_cores: 2, min_memory_gb: 8, ..Constraint::gpu() };
        assert!(WorkerProfile::gpu(2).satisfies(&c));
        assert!(!WorkerProfile::gpu(1).satisfies(&c));
    }
}
