"""Exact symmetrization, per-particle observables, and partition functions
for systems of identical particles.

The package keeps quantum amplitudes exact, each a rational times one
square root per state vector, builds (anti)symmetrized and
mixed-symmetry states for small particle numbers, evaluates one-body
expectation values and degeneracy counts exactly, and cross-checks
canonical and grand-canonical partition functions for Bose-Einstein,
Fermi-Dirac, and Maxwell-Boltzmann statistics, including the extensivity
of the free energy.  `idstat verify-paper` replays the full identity suite.

Importing the package loads no submodule: each exported name is imported
from its submodule on first use (PEP 562), so `from idstat import X` works
as before and a command-line run loads only the modules it needs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "BoseDivergence", "CapacityExceeded", "IdstatError", "InputError", "ZeroVectorInput",
    ),
    "exactnum": (
        "MAX_RADICAND", "ONE", "Rational", "RadicalRational", "ZERO", "rsqrt_of_rational",
        "square_free_split",
    ),
    "perm": ("Permutation",),
    "symmetry": (
        "MAX_ORBIT", "ORBIT_BASIS_NAMES", "StateVector", "SymmetrizeResult", "SymmetryClass",
        "SymmetryTag", "classify_symmetry", "decompose", "exchange_degeneracy_dimension",
        "inner_product", "orbit_basis_n3", "product_state_vector",
        "symmetric_antisymmetric_dimensions", "symmetrize",
    ),
    "observables": (
        "OneBodyOperator", "box_position_operator", "occupancy_weights", "one_body_expectation",
    ),
    "statmech": (
        "FREE_ENERGY_NOTE", "Spectrum", "Statistics",
        "box1d_spectrum", "box3d_spectrum", "canonical_Z", "canonical_ln_Z",
        "dimensionless_spectrum", "extensivity_report",
        "free_energy_from_ln_Z", "grand_ln_Xi", "mb_ln_Z_continuum", "occupation_count",
        "occupation_vectors", "spectrum_from_csv", "spectrum_from_levels", "thermal_wavelength",
    ),
    "config": ("RunConfig", "load_config"),
    "verify": ("CheckResult", "run_verification"),
}

#: exported name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
