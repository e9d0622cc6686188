"""Exact symmetrization, per-particle observables, and partition functions
for systems of identical particles.

The package keeps quantum amplitudes in exact radical-rational arithmetic
(sums of rational multiples of square roots), builds (anti)symmetrized and
mixed-symmetry states for small particle numbers, evaluates one-body
expectation values and degeneracy counts exactly, and cross-checks
canonical and grand-canonical partition functions for Bose-Einstein,
Fermi-Dirac, and Maxwell-Boltzmann statistics, including the extensivity
of the free energy.  `idstat verify-paper` replays the full identity suite.
"""

from .errors import (
    BasisNotOrthonormal,
    BoseDivergence,
    CapacityExceeded,
    CutoffTooLarge,
    DimensionMismatch,
    IdstatError,
    InputError,
    LengthMismatch,
    NegativeRadicand,
    NoWitness,
    NotNormalized,
    NotRepresentable,
    RequiresDistinctLevels,
    ZeroVectorInput,
)
from .exactnum import (
    MAX_RADICAND,
    ONE,
    Rational,
    RadicalRational,
    ZERO,
    radd,
    rmul,
    rsqrt_of_rational,
    square_free_split,
)
from .perm import (
    MAX_ENUM_N,
    Permutation,
    enumerate_permutations,
    noncommutation_witness,
)
from .symmetry import (
    MAX_ORBIT,
    MIXED_BASIS_NAMES,
    ORBIT_BASIS_NAMES,
    StateVector,
    SymmetrizeResult,
    SymmetryClass,
    SymmetryTag,
    classify_symmetry,
    decompose,
    exchange_degeneracy_dimension,
    inner_product,
    mixed_basis_n3,
    orbit_basis_n3,
    permute_vector,
    product_state_vector,
    symmetric_antisymmetric_dimensions,
    symmetrize,
    symmetrize_raw,
)
from .observables import (
    OneBodyOperator,
    PlaneWaveState,
    box_position_operator,
    energy_from_wave_coefficients,
    energy_sum_rule,
    laplacian_condition_residual,
    momentum_degeneracy,
    occupancy_weights,
    one_body_expectation,
    plane_wave_energy,
    position_expectation_symmetrized,
    wave_coefficients,
)
from .statmech import (
    FREE_ENERGY_NOTE,
    OccupationState,
    Spectrum,
    Statistics,
    ThermoPoint,
    box1d_spectrum,
    box3d_spectrum,
    canonical_Z,
    canonical_Z_recursive,
    canonical_ln_Z,
    dimensionless_spectrum,
    enumerate_occupations,
    extensivity_report,
    free_energy_from_ln_Z,
    grand_Xi,
    grand_Xi_series,
    grand_ln_Xi,
    mb_free_energy,
    mb_ln_Z_continuum,
    momentum_multiset_sum,
    occupation_count,
    single_particle_z,
    spectrum_from_csv,
    spectrum_from_levels,
    thermal_wavelength,
)
from .config import RunConfig, load_config
from .verify import CheckResult, run_verification, verification_passed

__version__ = "0.1.0"
