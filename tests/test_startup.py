"""Package start-up: `import idstat` loads no submodule, each exported name
resolves lazily to its submodule's object, and a command loads only the
library modules it uses."""

from __future__ import annotations

import importlib
import inspect
import json

import pytest

import idstat

#: What a fresh `import idstat, idstat.cli` must leave unloaded.
LIBRARY = ("idstat.verify", "idstat.symmetry", "idstat.observables", "idstat.exactnum",
           "idstat.perm", "idstat.statmech", "fractions", "numbers", "decimal")

DELETED = ("radd", "rmul", "noncommutation_witness", "NoWitness", "permute_vector",
           "symmetrize_raw", "mb_free_energy", "momentum_degeneracy", "MAX_ENUM_N",
           "enumerate_permutations", "canonical_Z_recursive", "grand_Xi", "grand_Xi_series",
           "momentum_multiset_sum", "single_particle_z", "mixed_basis_n3", "MIXED_BASIS_NAMES",
           "OccupationState", "enumerate_occupations", "ExtensivityRow", "ExtensivityReport",
           "sum_of_products", "CutoffTooLarge", "NotRepresentable", "NegativeRadicand",
           "LengthMismatch", "RequiresDistinctLevels", "DimensionMismatch", "BasisNotOrthonormal",
           "NotNormalized", "verification_passed", "noted_count", "ThermoPoint", "PlaneWaveState",
           "plane_wave_energy", "wave_coefficients", "energy_from_wave_coefficients",
           "laplacian_condition_residual", "energy_sum_rule", "position_expectation_symmetrized",
           "inner_product", "square_free_split", "MAX_RADICAND", "Rational")

#: Methods deleted from exported classes: class name -> method names.
DELETED_METHODS = {
    "Permutation": ("identity", "compose", "__mul__", "inverse", "cycles", "cycle_notation", "to_json",
                    "sign", "transposition", "__call__"),
    "StateVector": ("to_json", "from_json", "__add__", "__sub__", "__neg__", "scale", "_objects",
                    "support", "amplitude"),
    "RadicalRational": ("to_json", "from_json", "sqrt_rational", "__truediv__", "__rsub__",
                        "is_rational", "as_rational", "is_single_term"),
    "Spectrum": ("shifted", "source"),
    "OneBodyOperator": ("hermitian", "matrix"),
}


START = "import json, sys\nimport idstat, idstat.cli\n"


def _printed(fresh_python, code: str) -> list:
    proc = fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_start_up_loads_no_library_module(fresh_python):
    loaded = _printed(fresh_python, START + "print(json.dumps(sorted(sys.modules)))")
    assert not set(LIBRARY) & set(loaded)
    assert {m for m in loaded if m.startswith("idstat")} == {
        "idstat", "idstat.cli", "idstat.config", "idstat.errors", "idstat.render"}


def test_partition_adds_only_statmech(fresh_python):
    added = _printed(
        fresh_python,
        START
        + "import contextlib, io\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = idstat.cli.main(['partition', '--stat', 'fd', '--levels', '0,1,2', '-N', '2',"
        " '--beta', '1'])\n"
        "assert code == 0\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    assert [m for m in added if m.startswith("idstat")] == ["idstat.statmech"]
    assert "fractions" not in added


def test_every_export_is_its_submodule_attribute():
    for name in idstat.__all__:
        module = importlib.import_module(f"idstat.{idstat._SOURCE[name]}")
        assert getattr(idstat, name) is getattr(module, name), name


def test_each_export_has_one_source():
    assert sum(map(len, idstat._EXPORTS.values())) == len(idstat.__all__)


def test_dir_lists_the_exports():
    assert set(idstat.__all__) <= set(dir(idstat))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from idstat import *", namespace)
    for name in idstat.__all__:
        assert namespace[name] is getattr(idstat, name), name


@pytest.mark.parametrize("name", ("no_such_name",) + DELETED)
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError):
        getattr(idstat, name)
    with pytest.raises(ImportError):
        exec(f"from idstat import {name}", {})


def test_deleted_names_are_gone_from_every_submodule():
    for name in idstat._EXPORTS:
        module = importlib.import_module(f"idstat.{name}")
        assert not set(DELETED) & set(vars(module)), module.__name__
    for cls, methods in DELETED_METHODS.items():
        for method in methods:
            # looked up on the class and its bases, not on its metaclass,
            # which has a __call__ of its own
            assert not any(method in vars(base) for base in getattr(idstat, cls).__mro__), (cls, method)


def test_extensivity_report_has_no_continuum_keyword():
    # continuum mode is the absence of a spectrum_builder
    assert "continuum" not in inspect.signature(idstat.extensivity_report).parameters
