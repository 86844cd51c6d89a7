//! The Container Image Creation service.
//!
//! Section 4.1: "the Container Image Creation service ... automates the
//! creation of the container images for workflows, including the code as
//! well as all the required software compiled for the target HPC
//! platform". The service resolves a build spec (base + ordered package
//! list + target architecture) into a layered image manifest. Layers are
//! content-addressed — identified by a hash of the layer recipe and
//! everything beneath it — so rebuilding a workflow image after a small
//! change, or building a sibling workflow sharing the software stack, only
//! pays for the layers that actually differ (claim C5, pinned in
//! `tests/e2e_hpcwaas.rs`).

use std::collections::HashMap;

/// Target platform of a build (images are arch-specific).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    X86_64,
    Aarch64,
    Ppc64le,
}

/// A build request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageSpec {
    pub name: String,
    pub base: String,
    /// Ordered package layers (order matters: each layer's identity covers
    /// everything beneath it, like container build caching).
    pub packages: Vec<String>,
    pub arch: Arch,
}

impl ImageSpec {
    /// Builds a spec from a TOSCA `container.Image` template's properties
    /// (`base`, space-separated `packages`).
    pub fn from_properties(name: &str, props: &std::collections::BTreeMap<String, String>) -> Self {
        ImageSpec {
            name: name.to_string(),
            base: props.get("base").cloned().unwrap_or_else(|| "scratch".into()),
            packages: props
                .get("packages")
                .map(|p| p.split_whitespace().map(str::to_string).collect())
                .unwrap_or_default(),
            arch: Arch::X86_64,
        }
    }
}

/// Content-addressed layer identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LayerId(pub u64);

/// A completed image build.
#[derive(Debug, Clone)]
pub struct ImageManifest {
    pub name: String,
    pub layers: Vec<LayerId>,
    /// Layers served from cache during this build.
    pub cache_hits: usize,
    /// Layers actually built during this build.
    pub built: usize,
    /// Simulated build cost (virtual ms): cache hits are free, base layers
    /// and package layers have fixed costs.
    pub cost_ms: u64,
}

/// FNV-1a, stable across runs (layer identity must be deterministic).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Virtual cost of building a base layer.
pub const BASE_LAYER_COST_MS: u64 = 800;
/// Virtual cost of compiling/installing one package layer.
pub const PACKAGE_LAYER_COST_MS: u64 = 300;

/// The build service with its layer cache.
#[derive(Default)]
pub struct BuildService {
    cache: HashMap<LayerId, String>,
    builds: u64,
}

impl BuildService {
    /// Creates a service with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total builds performed.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Resolves a spec into its layer chain: `hash_i` covers `(arch, base,
    /// packages[..=i])`, so a change to package `k` invalidates layers
    /// `k..` but not `..k`.
    fn layer_chain(spec: &ImageSpec) -> Vec<(LayerId, String)> {
        let mut chain = Vec::with_capacity(spec.packages.len() + 1);
        let mut recipe = format!("{:?}|{}", spec.arch, spec.base);
        chain.push((LayerId(fnv1a(recipe.as_bytes())), format!("base:{}", spec.base)));
        for p in &spec.packages {
            recipe.push('|');
            recipe.push_str(p);
            chain.push((LayerId(fnv1a(recipe.as_bytes())), format!("pkg:{p}")));
        }
        chain
    }

    /// Builds (or re-uses) an image, updating the cache.
    pub fn build(&mut self, spec: &ImageSpec) -> ImageManifest {
        self.builds += 1;
        let chain = Self::layer_chain(spec);
        let mut cache_hits = 0;
        let mut built = 0;
        let mut cost_ms = 0;
        let mut layers = Vec::with_capacity(chain.len());
        for (i, (id, desc)) in chain.into_iter().enumerate() {
            if let std::collections::hash_map::Entry::Vacant(e) = self.cache.entry(id) {
                built += 1;
                cost_ms += if i == 0 { BASE_LAYER_COST_MS } else { PACKAGE_LAYER_COST_MS };
                e.insert(desc);
            } else {
                cache_hits += 1;
            }
            layers.push(id);
        }
        obs::global().emit_with(|| obs::EventKind::ImageBuilt {
            image: spec.name.as_str().into(),
            built,
            cache_hits,
            cost_ms,
        });
        ImageManifest { name: spec.name.clone(), layers, cache_hits, built, cost_ms }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BuildService {
        /// Number of cached layers.
        pub(crate) fn cached_layers(&self) -> usize {
            self.cache.len()
        }
    }

    fn spec(name: &str, packages: &[&str]) -> ImageSpec {
        ImageSpec {
            name: name.into(),
            base: "rockylinux9".into(),
            packages: packages.iter().map(|s| s.to_string()).collect(),
            arch: Arch::X86_64,
        }
    }

    #[test]
    fn cold_build_builds_every_layer() {
        let mut svc = BuildService::new();
        let m = svc.build(&spec("esm", &["mpi", "netcdf", "esm"]));
        assert_eq!(m.layers.len(), 4);
        assert_eq!(m.built, 4);
        assert_eq!(m.cache_hits, 0);
        assert_eq!(m.cost_ms, BASE_LAYER_COST_MS + 3 * PACKAGE_LAYER_COST_MS);
    }

    #[test]
    fn identical_rebuild_is_fully_cached() {
        let mut svc = BuildService::new();
        let s = spec("esm", &["mpi", "netcdf"]);
        svc.build(&s);
        let again = svc.build(&s);
        assert_eq!(again.built, 0);
        assert_eq!(again.cache_hits, 3);
        assert_eq!(again.cost_ms, 0);
    }

    #[test]
    fn shared_prefix_reuses_layers() {
        let mut svc = BuildService::new();
        svc.build(&spec("esm", &["mpi", "netcdf", "esm"]));
        // Sibling workflow sharing base + mpi + netcdf.
        let m = svc.build(&spec("analytics", &["mpi", "netcdf", "ophidia"]));
        assert_eq!(m.cache_hits, 3, "base + mpi + netcdf cached");
        assert_eq!(m.built, 1, "only ophidia layer built");
    }

    #[test]
    fn changed_middle_package_invalidates_suffix() {
        let mut svc = BuildService::new();
        svc.build(&spec("a", &["mpi", "netcdf", "app"]));
        let m = svc.build(&spec("a", &["openmpi", "netcdf", "app"]));
        // base cached; everything from the changed package on rebuilt.
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.built, 3);
    }

    #[test]
    fn different_arch_shares_nothing() {
        let mut svc = BuildService::new();
        svc.build(&spec("a", &["mpi"]));
        let mut other = spec("a", &["mpi"]);
        other.arch = Arch::Aarch64;
        let m = svc.build(&other);
        assert_eq!(m.cache_hits, 0, "cross-arch layers must not be shared");
        assert_eq!(m.built, 2);
    }

    #[test]
    fn layer_ids_are_deterministic() {
        let a = BuildService::layer_chain(&spec("x", &["p1", "p2"]));
        let b = BuildService::layer_chain(&spec("y", &["p1", "p2"]));
        // Identity depends on recipe, not image name.
        assert_eq!(
            a.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            b.iter().map(|(id, _)| *id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn from_tosca_properties() {
        let mut props = std::collections::BTreeMap::new();
        props.insert("base".to_string(), "rockylinux9".to_string());
        props.insert("packages".to_string(), "esm-surrogate netcdf mpi".to_string());
        let s = ImageSpec::from_properties("esm_image", &props);
        assert_eq!(s.base, "rockylinux9");
        assert_eq!(s.packages, vec!["esm-surrogate", "netcdf", "mpi"]);
        let empty = ImageSpec::from_properties("bare", &Default::default());
        assert_eq!(empty.base, "scratch");
        assert!(empty.packages.is_empty());
    }
}
