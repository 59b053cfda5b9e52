"""Exact combinatorial machinery for Reeb orbit counting.

Modules:
  exactreal    exact rationals and quadratic surds, floors of multiples
  partitions   best-approximation sets and end-multiplicity partitions
  index        orbit sets, grading formulas, topological-type tables
  ellipsoid    model geometry: action spectrum, lattice counts, densities
  feasibility  exact eps->0 decision engine for approximate linear relations
  fixtures     registry of case tables re-derived by the engine
  transitions  transition types, pair compatibility, chain exclusion
  cli          command-line entry point
"""

from .exactreal import ExactReal, ceil_mul, floor_mul, parse_real
from .partitions import (
    Partition,
    SSet,
    in_s_theta,
    is_initial_segment,
    partition_in,
    partition_orbit,
    partition_out,
    s_theta,
)
from .index import (
    FiniteAbelianGroup,
    OrbitCatalog,
    OrbitSet,
    RelData,
    SimpleOrbit,
    TopoType,
    action,
    catalog_from_dict,
    compose_rel,
    cz_power,
    e_count,
    ech_index,
    floor_step,
    h_count,
    j0_index,
    orbit_set_from_dict,
    parity_check,
    topo_types,
)
from .ellipsoid import (
    DensityReport,
    Ellipsoid,
    Generator,
    capacities,
    capacity,
    density_report,
    gen_index,
    lattice_count,
)
from .feasibility import (
    Feasible,
    Inequality,
    Infeasible,
    Relation,
    RelationSystem,
    Sym,
    solve,
)
from .fixtures import run_all, run_fixture
from .transitions import (
    ALLOWED_PAIRS,
    EXCLUDED_PAIRS,
    MODELS,
    TYPES,
    allowed_pairs,
    chain_check,
    compatible,
    f_grid,
    mirror,
    pair_report,
)

__version__ = "0.1.0"
