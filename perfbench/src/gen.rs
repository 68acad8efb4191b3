//! Workload definitions and the seeded input generator.  Everything the program
//! under test receives (load cases, the order of the remeshing stream) is a pure
//! function of `--seed`.

use feti_core::{DualOperatorApproach, LoadCase};
use feti_decompose::{DecomposedProblem, DecompositionSpec};
use feti_mesh::{Dim, ElementOrder, Physics};

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold paper-scale explicit assembly (3D heat, quadratic, 2197 DOFs/subdomain).
    Assemble3d,
    /// Warm implicit time-stepping (2D elasticity, 578 DOFs/subdomain).
    Iterate2d,
    /// Two tenants streaming remeshed geometries through `FetiService`.
    ServiceRemesh,
}

impl Workload {
    pub fn from_name(name: &str) -> Result<Self, String> {
        match name {
            "assemble_3d" => Ok(Self::Assemble3d),
            "iterate_2d" => Ok(Self::Iterate2d),
            "service_remesh" => Ok(Self::ServiceRemesh),
            other => Err(format!("unknown workload {other}")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Assemble3d => "assemble_3d",
            Self::Iterate2d => "iterate_2d",
            Self::ServiceRemesh => "service_remesh",
        }
    }

    /// Geometry and pinned approach of a solver workload.
    pub fn solver_setup(self) -> (DecompositionSpec, DualOperatorApproach) {
        match self {
            Self::Assemble3d => (
                spec(Dim::Three, Physics::HeatTransfer, ElementOrder::Quadratic, 2, 6),
                DualOperatorApproach::ExplicitGpuLegacy,
            ),
            Self::Iterate2d => (
                spec(Dim::Two, Physics::LinearElasticity, ElementOrder::Linear, 4, 16),
                DualOperatorApproach::ImplicitMkl,
            ),
            Self::ServiceRemesh => unreachable!("the service workload plans its approaches"),
        }
    }
}

/// A decomposition with every subdomain in one cluster.
pub fn spec(
    dim: Dim,
    physics: Physics,
    order: ElementOrder,
    subdomains_per_side: usize,
    elements_per_subdomain_side: usize,
) -> DecompositionSpec {
    let mut s = DecompositionSpec {
        dim,
        physics,
        order,
        subdomains_per_side,
        elements_per_subdomain_side,
        subdomains_per_cluster: 1,
    };
    s.subdomains_per_cluster = s.num_subdomains();
    s
}

/// The remeshing stream's geometry pool: thirteen structurally distinct geometries
/// (3D heat quadratic at 125–729 DOFs/subdomain, 2D elasticity at 162–578, 3D
/// elasticity linear at 192).  Every stream pass visits each geometry exactly once,
/// so the amount of work per pass does not depend on the seed — only its order
/// does.
pub fn geometry_pool() -> Vec<DecompositionSpec> {
    use ElementOrder::{Linear, Quadratic};
    use Physics::{HeatTransfer as Heat, LinearElasticity as Elastic};
    vec![
        spec(Dim::Three, Heat, Quadratic, 2, 2),
        spec(Dim::Three, Heat, Quadratic, 2, 3),
        spec(Dim::Three, Heat, Quadratic, 2, 4),
        spec(Dim::Three, Heat, Quadratic, 3, 2),
        spec(Dim::Three, Heat, Quadratic, 3, 3),
        spec(Dim::Two, Elastic, Linear, 5, 8),
        spec(Dim::Two, Elastic, Linear, 4, 10),
        spec(Dim::Two, Elastic, Linear, 4, 12),
        spec(Dim::Two, Elastic, Linear, 3, 16),
        spec(Dim::Two, Elastic, Linear, 4, 14),
        spec(Dim::Two, Elastic, Linear, 5, 10),
        spec(Dim::Three, Elastic, Linear, 2, 3),
        spec(Dim::Three, Elastic, Linear, 3, 3),
    ]
}

/// One line describing a geometry's size: DOFs per subdomain, subdomains, λ.
pub fn sizes(problem: &DecomposedProblem) -> String {
    format!(
        "{{\"dofs_per_subdomain\": {}, \"subdomains\": {}, \"lambdas\": {}}}",
        problem.spec.dofs_per_subdomain(),
        problem.subdomains.len(),
        problem.num_lambdas
    )
}

/// SplitMix64: a small, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of one seed.
    pub fn new(seed: u64, stream: u64, index: u64) -> Self {
        let mut r = Rng(seed ^ 0x5EED_F371_0000_0000);
        let a = r.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut r = Rng(a);
        Rng(r.next_u64() ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Input stream ids, so no two kinds of input share random numbers.
pub mod stream {
    pub const SETUP_LOADS: u64 = 1;
    pub const STEP_LOADS: u64 = 2;
    pub const POOL_ORDER: u64 = 3;
    pub const SERVICE_LOADS: u64 = 4;
    pub const PROBE: u64 = 5;
}

/// Load case `index` of one seeded stream: one time step of Algorithm 2.  The
/// assembled load is modulated in time and carries a seeded perturbation of 10 %
/// of its mean magnitude on every DOF.
pub fn load_case(problem: &DecomposedProblem, seed: u64, stream: u64, index: u64) -> LoadCase {
    let mut rng = Rng::new(seed, stream, index);
    let (sum, count) = problem.subdomains.iter().fold((0.0, 0usize), |(s, c), sd| {
        (s + sd.assembled.load.iter().map(|v| v.abs()).sum::<f64>(), c + sd.assembled.load.len())
    });
    let mean = (sum / count.max(1) as f64).max(f64::MIN_POSITIVE);
    let phase = rng.unit() * std::f64::consts::TAU;
    let scale = 1.0 + 0.5 * (0.3 * index as f64 + phase).sin();
    problem
        .subdomains
        .iter()
        .map(|sd| {
            sd.assembled
                .load
                .iter()
                .map(|&f| scale * f + 0.1 * mean * (2.0 * rng.unit() - 1.0))
                .collect()
        })
        .collect()
}

/// FNV-1a digest of a load case: printed with each run so a second seed is
/// visibly a different input.
pub fn digest(case: &LoadCase) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in case.iter().flatten().flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}
