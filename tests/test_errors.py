"""The refusal vocabulary: one exception class per exit code, and every
public library refusal of a bad argument raised as one of them."""

from __future__ import annotations

import inspect
import math
from fractions import Fraction

import pytest

from conftest import matrix
from idstat import errors
from idstat.errors import CapacityExceeded, IdstatError, InputError, shown
from idstat.exactnum import RadicalRational, rsqrt_of_rational
from idstat.observables import (
    OneBodyOperator,
    box_position_operator,
    occupancy_weights,
    one_body_expectation,
)
from idstat.statmech import (
    MAX_CUTOFF,
    Statistics,
    box1d_spectrum,
    box3d_spectrum,
    canonical_Z,
    canonical_ln_Z,
    dimensionless_spectrum,
    extensivity_report,
    free_energy_from_ln_Z,
    grand_ln_Xi,
    mb_ln_Z_continuum,
    occupation_count,
    occupation_vectors,
    spectrum_from_csv,
    spectrum_from_levels,
    thermal_wavelength,
)
from idstat.symmetry import (
    StateVector,
    classify_symmetry,
    decompose,
    exchange_degeneracy_dimension,
    orbit_basis_n3,
    product_state_vector,
    symmetric_antisymmetric_dimensions,
    symmetrize,
)

H3 = OneBodyOperator.diagonal([1, 2, 3])
HUGE = 10**5000  # past the 4300-digit int-to-text limit
#: Particle 0 of this pair reads the diagonal of a 2-level operator, and of
#: MIXED the off-diagonal entry too: its terms differ in slot 0 only.
SYM01 = symmetrize((0, 1), "S").vector
MIXED = StateVector(2, {(0, 0): rsqrt_of_rational(Fraction(1, 2)), (1, 0): rsqrt_of_rational(Fraction(1, 2))})


def entry_read(rows, v=SYM01):
    """The particle-0 expectation of the operator whose rule reads `rows`."""
    return one_body_expectation(v, matrix(rows), 0)


def test_one_class_per_exit_code():
    defined = {name: cls.exit_code for name, cls in vars(errors).items()
               if inspect.isclass(cls) and cls.__module__ == errors.__name__}
    assert defined == {"IdstatError": 2, "InputError": 2, "ZeroVectorInput": 2,
                       "CapacityExceeded": 4, "BoseDivergence": 3}
    # a ValueError handler in the library must not swallow a refusal
    assert not issubclass(InputError, ValueError)


MISUSES = {
    "sum-across-radicands": (lambda: rsqrt_of_rational(2) + rsqrt_of_rational(3), InputError),
    "negative-radicand": (lambda: rsqrt_of_rational(Fraction(-1, 4)), InputError),
    "negative-level": (lambda: product_state_vector((0, -1)), InputError),
    "state-particle-count": (lambda: StateVector(2, {(0,): 1}), InputError),
    "state-two-radicands": (
        lambda: StateVector(2, {(0, 1): rsqrt_of_rational(2), (1, 0): rsqrt_of_rational(3)}), InputError),
    "decompose-particle-counts": (
        lambda: decompose(product_state_vector((0,)), [product_state_vector((0, 1))]), InputError),
    "parity": (lambda: symmetrize((0, 1), "X"), InputError),
    "orbit-basis-repeated-level": (lambda: orbit_basis_n3((0, 0, 1)), InputError),
    "decompose-not-orthonormal": (
        lambda: decompose(product_state_vector((0, 1)), [product_state_vector((0, 1))] * 2), InputError),
    "rule-entry-nan": (
        lambda: one_body_expectation(product_state_vector((0, 1)), OneBodyOperator(lambda i, j: math.nan, 2), 0),
        InputError),
    "rule-entry-string": (
        lambda: one_body_expectation(product_state_vector((0, 1)), OneBodyOperator(lambda i, j: "1", 2), 0),
        InputError),
    # each entry an expectation reads is checked there; each of these once
    # raised a bare ValueError, OverflowError or TypeError, or was read as 1.5
    "matrix-entry-nan": (lambda: entry_read([[math.nan, 0.0], [0.0, 1.0]]), InputError),
    "matrix-entry-inf": (lambda: entry_read([[math.inf, 0.0], [0.0, 1.0]]), InputError),
    "matrix-entry-none": (lambda: entry_read([[None, 0.0], [0.0, 1.0]]), InputError),
    "matrix-entry-string": (lambda: entry_read([["1.5", 0.0], [0.0, 1.0]]), InputError),
    "matrix-entry-not-rational": (lambda: entry_read([["a", 0], [0, 1]]), InputError),
    "matrix-entry-nan-exact": (lambda: entry_read([[math.nan, 0], [0, 1]]), InputError),
    "matrix-entry-nan-pair": (lambda: entry_read([[1.0, math.nan], [math.nan, 1.0]], MIXED), InputError),
    "box-no-levels": (lambda: box_position_operator(1.0, 0), InputError),
    "expectation-particle": (lambda: one_body_expectation(product_state_vector((0, 1, 2)), H3, 3), InputError),
    "expectation-dimension": (
        lambda: one_body_expectation(product_state_vector((0, 1, 2)), OneBodyOperator.diagonal([1, 2]), 0),
        InputError),
    "expectation-not-normalized": (lambda: one_body_expectation(StateVector(3, {(0, 1, 2): 2}), H3, 0), InputError),
    "weights-particle": (lambda: occupancy_weights(product_state_vector((0, 1)), 2), InputError),
    "cutoff": (lambda: box1d_spectrum(MAX_CUTOFF + 1), CapacityExceeded),
    "level-count": (lambda: spectrum_from_levels([0.0] * (MAX_CUTOFF + 1)), CapacityExceeded),
    # arguments the builtin coercions cannot read
    "cutoff-nan": (lambda: dimensionless_spectrum(float("nan")), InputError),
    # a cutoff that is not a true int, refused rather than truncated
    "cutoff-float": (lambda: dimensionless_spectrum(2.5), InputError),
    "cutoff-bool": (lambda: dimensionless_spectrum(True), InputError),
    "cutoff-box1d-float": (lambda: box1d_spectrum(3.9), InputError),
    "cutoff-box3d-string": (lambda: box3d_spectrum("3"), InputError),
    "diagonal-not-rational": (lambda: OneBodyOperator.diagonal(["x"]), InputError),
    "diagonal-entry-nan": (lambda: OneBodyOperator.diagonal([1, math.nan]), InputError),
    # a str value is refused, as a rule's "1" is: Fraction() once parsed it
    "diagonal-entry-string": (lambda: OneBodyOperator.diagonal(["1/3"]), InputError),
    "spectrum-energy-string": (lambda: spectrum_from_levels(["a"]), InputError),
    "spectrum-energy-none": (lambda: spectrum_from_levels([1, None]), InputError),
    "statistics-not-a-string": (lambda: Statistics.parse(5), InputError),
    # particle and level counts take true ints only, as the cutoffs do
    "canonical-N-float": (lambda: canonical_ln_Z(spectrum_from_levels([0, 1]), 2.5, 1.0, Statistics.BE), InputError),
    "canonical-N-bool": (lambda: canonical_ln_Z(spectrum_from_levels([0, 1]), True, 1.0, Statistics.MB_NN),
                         InputError),
    "occupations-level-count-float": (lambda: list(occupation_vectors(3.5, 2, Statistics.BE)), InputError),
    # ln Z is finite, but Z itself is past the float range or below its normal range
    "canonical-Z-overflow": (lambda: canonical_Z(spectrum_from_levels([-100.0, -99.0]), 10, 1.0, Statistics.BE),
                             InputError),
    "canonical-Z-underflow": (lambda: canonical_Z(spectrum_from_levels([100.0, 101.0]), 10, 1.0, Statistics.BE),
                              InputError),
}

#: Refusals whose message shows an int too long for Python's int-to-text limit.
OVERSIZED = {
    "cutoff-huge": (lambda: box1d_spectrum(HUGE), CapacityExceeded),
    "canonical-N-huge": (lambda: canonical_ln_Z(spectrum_from_levels([0.0]), HUGE, 1.0, Statistics.BE),
                         CapacityExceeded),
    "canonical-mb-nn-N-huge": (lambda: canonical_ln_Z(spectrum_from_levels([0, 1]), HUGE, 1.0, Statistics.MB_NN),
                               InputError),
    "canonical-mb-fact-N-huge": (lambda: canonical_ln_Z(spectrum_from_levels([0, 1]), HUGE, 1.0, Statistics.MB_FACT),
                                 InputError),
    "negative-level-huge": (lambda: product_state_vector((-HUGE,)), InputError),
    "state-particle-count-huge": (lambda: StateVector(1, {(HUGE, 0): 1}), InputError),
    "expectation-particle-huge": (lambda: one_body_expectation(product_state_vector((0, 1)), H3, HUGE), InputError),
    "expectation-dimension-huge": (lambda: one_body_expectation(product_state_vector((HUGE,)), H3, 0), InputError),
    "weights-particle-huge": (lambda: occupancy_weights(product_state_vector((0, 1)), HUGE), InputError),
    "weights-levels-huge": (lambda: occupancy_weights(product_state_vector((HUGE,)), 0), CapacityExceeded),
    "negative-radicand-huge": (lambda: rsqrt_of_rational(Fraction(-1, HUGE)), InputError),
    "sum-across-radicands-huge": (lambda: RadicalRational.of(Fraction(HUGE)) + rsqrt_of_rational(2), InputError),
}
MISUSES.update(OVERSIZED)


@pytest.mark.parametrize("name", sorted(MISUSES))
def test_library_misuse_is_an_idstat_refusal(name):
    call, expected = MISUSES[name]
    with pytest.raises(IdstatError) as info:
        call()
    assert type(info.value) is expected



BE, FD, MB_NN = Statistics.BE, Statistics.FD, Statistics.MB_NN
SPEC = spectrum_from_levels([0.0, 1.0, 2.0])
PAIR = product_state_vector((0, 1))
#: Values each slot admits: 2.5 for a real parameter, and True for the exact
#: ring, which reads it as the int 1.  Every other swept value is refused.
REAL, EXACT, NONE = (2.5,), (True,), ()

#: (public call, argument) -> the call with that argument replaced, and the
#: swept values it admits.  The other arguments are fixed and admissible.
ARGUMENTS = {
    # counts and indices
    "dimensionless_spectrum(cutoff)": (lambda x: dimensionless_spectrum(x), NONE),
    "box1d_spectrum(cutoff)": (lambda x: box1d_spectrum(x), NONE),
    "box3d_spectrum(cutoff)": (lambda x: box3d_spectrum(x), NONE),
    "occupation_vectors(n_levels)": (lambda x: list(occupation_vectors(x, 2, BE)), NONE),
    "occupation_vectors(n_particles)": (lambda x: list(occupation_vectors(3, x, BE)), NONE),
    "occupation_count(n_levels)": (lambda x: occupation_count(x, 2, BE), NONE),
    "occupation_count(n_particles)": (lambda x: occupation_count(3, x, BE), NONE),
    "canonical_ln_Z(N)": (lambda x: canonical_ln_Z(SPEC, x, 1.0, BE), NONE),
    "canonical_Z(N)": (lambda x: canonical_Z(SPEC, x, 1.0, BE), NONE),
    "mb_ln_Z_continuum(N)": (lambda x: mb_ln_Z_continuum(1.0, 10.0, x), NONE),
    "extensivity_report(N)": (lambda x: extensivity_report(MB_NN, 1.0, [(2.0, x)]), NONE),
    "product_state_vector(level)": (lambda x: product_state_vector((0, x)), NONE),
    "symmetrize(level)": (lambda x: symmetrize((0, x), "S"), NONE),
    "orbit_basis_n3(level)": (lambda x: orbit_basis_n3((0, 1, x)), NONE),
    "exchange_degeneracy_dimension(level)": (lambda x: exchange_degeneracy_dimension((0, x)), NONE),
    "symmetric_antisymmetric_dimensions(level)": (lambda x: symmetric_antisymmetric_dimensions((0, x)), NONE),
    "StateVector(n_particles)": (lambda x: StateVector(x, {}), NONE),
    "StateVector(level)": (lambda x: StateVector(2, {(0, x): 1}), NONE),
    "one_body_expectation(particle)": (lambda x: one_body_expectation(PAIR, H3, x), NONE),
    "occupancy_weights(particle)": (lambda x: occupancy_weights(PAIR, x), NONE),
    "box_position_operator(n_levels)": (lambda x: box_position_operator(1.0, x), NONE),
    "OneBodyOperator(dim)": (lambda x: OneBodyOperator(lambda i, j: 1, x), NONE),
    # real parameters
    "canonical_ln_Z(beta)": (lambda x: canonical_ln_Z(SPEC, 2, x, BE), REAL),
    "canonical_Z(beta)": (lambda x: canonical_Z(SPEC, 2, x, BE), REAL),
    "grand_ln_Xi(beta)": (lambda x: grand_ln_Xi(SPEC, x, 0.5, FD), REAL),
    "grand_ln_Xi(mu)": (lambda x: grand_ln_Xi(SPEC, 1.0, x, FD), REAL),
    "box1d_spectrum(length)": (lambda x: box1d_spectrum(3, x), REAL),
    "box1d_spectrum(mass)": (lambda x: box1d_spectrum(3, 1.0, x), REAL),
    "box1d_spectrum(h)": (lambda x: box1d_spectrum(3, 1.0, 1.0, x), REAL),
    "box3d_spectrum(length)": (lambda x: box3d_spectrum(3, x), REAL),
    "box3d_spectrum(mass)": (lambda x: box3d_spectrum(3, 1.0, x), REAL),
    "box3d_spectrum(h)": (lambda x: box3d_spectrum(3, 1.0, 1.0, x), REAL),
    "box_position_operator(length)": (lambda x: box_position_operator(x, 3).entry(0, 1), REAL),
    "thermal_wavelength(T)": (lambda x: thermal_wavelength(x), REAL),
    "thermal_wavelength(mass)": (lambda x: thermal_wavelength(1.0, mass=x), REAL),
    "thermal_wavelength(h)": (lambda x: thermal_wavelength(1.0, h=x), REAL),
    "thermal_wavelength(k)": (lambda x: thermal_wavelength(1.0, k=x), REAL),
    "mb_ln_Z_continuum(T)": (lambda x: mb_ln_Z_continuum(x, 10.0, 5), REAL),
    "mb_ln_Z_continuum(V)": (lambda x: mb_ln_Z_continuum(1.0, x, 5), REAL),
    "mb_ln_Z_continuum(mass)": (lambda x: mb_ln_Z_continuum(1.0, 10.0, 5, mass=x), REAL),
    "mb_ln_Z_continuum(h)": (lambda x: mb_ln_Z_continuum(1.0, 10.0, 5, h=x), REAL),
    "mb_ln_Z_continuum(k)": (lambda x: mb_ln_Z_continuum(1.0, 10.0, 5, k=x), REAL),
    "extensivity_report(T)": (lambda x: extensivity_report(MB_NN, x, [(2.0, 2)]), REAL),
    "extensivity_report(V)": (lambda x: extensivity_report(MB_NN, 1.0, [(x, 2)]), REAL),
    "extensivity_report(mass)": (lambda x: extensivity_report(MB_NN, 1.0, [(2.0, 2)], mass=x), REAL),
    "extensivity_report(h)": (lambda x: extensivity_report(MB_NN, 1.0, [(2.0, 2)], h=x), REAL),
    "extensivity_report(k)": (lambda x: extensivity_report(MB_NN, 1.0, [(2.0, 2)], k=x), REAL),
    "free_energy_from_ln_Z(ln_Z)": (lambda x: free_energy_from_ln_Z(x, 1.0), REAL),
    "free_energy_from_ln_Z(T)": (lambda x: free_energy_from_ln_Z(-1.0, x), REAL),
    "free_energy_from_ln_Z(k)": (lambda x: free_energy_from_ln_Z(-1.0, 1.0, x), REAL),
    # statistics
    "occupation_vectors(stat)": (lambda x: list(occupation_vectors(3, 2, x)), NONE),
    "occupation_count(stat)": (lambda x: occupation_count(3, 2, x), NONE),
    "canonical_ln_Z(stat)": (lambda x: canonical_ln_Z(SPEC, 2, 1.0, x), NONE),
    "canonical_Z(stat)": (lambda x: canonical_Z(SPEC, 2, 1.0, x), NONE),
    "symmetrize(parity)": (lambda x: symmetrize((0, 1), x), NONE),
    "grand_ln_Xi(stat)": (lambda x: grand_ln_Xi(SPEC, 1.0, -0.5, x), NONE),
    "mb_ln_Z_continuum(stat)": (lambda x: mb_ln_Z_continuum(1.0, 10.0, 5, x), NONE),
    "extensivity_report(stat)": (lambda x: extensivity_report(x, 1.0, [(2.0, 2)]), NONE),
    "Statistics.parse(text)": (lambda x: Statistics.parse(x), NONE),
    # sequences
    "spectrum_from_levels(values)": (lambda x: spectrum_from_levels(x), NONE),
    "extensivity_report(sizes)": (lambda x: extensivity_report(MB_NN, 1.0, x), NONE),
    "extensivity_report(size)": (lambda x: extensivity_report(MB_NN, 1.0, [x]), NONE),
    "product_state_vector(levels)": (lambda x: product_state_vector(x), NONE),
    "symmetrize(levels)": (lambda x: symmetrize(x, "S"), NONE),
    "orbit_basis_n3(levels)": (lambda x: orbit_basis_n3(x), NONE),
    "exchange_degeneracy_dimension(levels)": (lambda x: exchange_degeneracy_dimension(x), NONE),
    "symmetric_antisymmetric_dimensions(levels)": (lambda x: symmetric_antisymmetric_dimensions(x), NONE),
    "OneBodyOperator.diagonal(values)": (lambda x: OneBodyOperator.diagonal(x), NONE),
    "decompose(basis)": (lambda x: decompose(PAIR, x), NONE),
    # objects
    "classify_symmetry(v)": (lambda x: classify_symmetry(x), NONE),
    "decompose(v)": (lambda x: decompose(x, [PAIR]), NONE),
    "decompose(member)": (lambda x: decompose(PAIR, [x]), NONE),
    "one_body_expectation(v)": (lambda x: one_body_expectation(x, H3, 0), NONE),
    "one_body_expectation(op)": (lambda x: one_body_expectation(PAIR, x, 0), NONE),
    "OneBodyOperator(rule)": (lambda x: OneBodyOperator(x, 2), NONE),
    "occupancy_weights(v)": (lambda x: occupancy_weights(x, 0), NONE),
    "canonical_ln_Z(spectrum)": (lambda x: canonical_ln_Z(x, 2, 1.0, BE), NONE),
    "canonical_Z(spectrum)": (lambda x: canonical_Z(x, 2, 1.0, BE), NONE),
    "grand_ln_Xi(spectrum)": (lambda x: grand_ln_Xi(x, 1.0, -0.5, FD), NONE),
    # exact ring values
    "rsqrt_of_rational(value)": (lambda x: rsqrt_of_rational(x), EXACT),
    "RadicalRational.of(value)": (lambda x: RadicalRational.of(x), EXACT),
    "StateVector(amplitude)": (lambda x: StateVector(1, {(0,): x}), EXACT),
}
SWEPT = (True, 2.5, "2", None, math.nan)
#: The same number in another type: an admitted value answers as this one does.
SAME_NUMBER = {2.5: Fraction(5, 2), True: 1}


@pytest.mark.parametrize("pair, value", [(pair, value) for pair in ARGUMENTS for value in SWEPT],
                         ids=[f"{pair}-{value!r}" for pair in ARGUMENTS for value in SWEPT])
def test_every_argument_answers_or_is_an_idstat_refusal(pair, value):
    call, admits = ARGUMENTS[pair]
    if value in admits:
        assert call(value) == call(SAME_NUMBER[value])
    else:
        with pytest.raises(IdstatError):
            call(value)


def test_free_energy_reads_a_real_ln_z_and_a_positive_t_and_k():
    # each once answered 1.0, answered a negative temperature's -2.0, or
    # raised a bare TypeError
    for args, text in (((-1.0, True), "T must be a positive finite number, got True"),
                       ((-1.0, -2.0), "T must be a positive finite number, got -2.0"),
                       ((-1.0, "2"), "T must be a positive finite number, got '2'"),
                       ((-1.0, 1.0, 0.0), "k must be a positive finite number, got 0.0"),
                       ((None, 1.0), "ln Z must be a finite number, got None")):
        with pytest.raises(InputError, match=text):
            free_energy_from_ln_Z(*args)
    assert free_energy_from_ln_Z(-1.0, 2.0) == 2.0


def test_statistics_given_by_name_is_read_as_the_member():
    # the name once selected the Bose rows, and the 1/N! normalization
    assert list(occupation_vectors(3, 2, "fd")) == list(occupation_vectors(3, 2, FD)) == [
        [1, 1, 0], [1, 0, 1], [0, 1, 1]]
    assert occupation_count(3, 2, "fd") == 3
    ln_Z = mb_ln_Z_continuum(1.0, 10.0, 5, "mb-nn")
    assert ln_Z == mb_ln_Z_continuum(1.0, 10.0, 5) and math.isclose(ln_Z, 17.249813900869817, rel_tol=1e-15)


def test_object_arguments_are_refused_by_name():
    # each once ended in an AttributeError
    for call, name in [
        (lambda: classify_symmetry(5), "vector must be a StateVector"),
        (lambda: decompose(PAIR, [5]), "basis member must be a StateVector"),
        (lambda: one_body_expectation(5, H3, 0), "vector must be a StateVector"),
        (lambda: one_body_expectation(PAIR, 5, 0), "operator must be a OneBodyOperator"),
        (lambda: OneBodyOperator(5, 2), "operator rule must be a Callable, got int"),
        (lambda: StateVector(2, [((0, 1), 1)]), "amplitudes must be a Mapping, got list"),
        (lambda: occupancy_weights(5, 0), "vector must be a StateVector"),
        (lambda: canonical_ln_Z([0.0, 1.0], 2, 1.0, "be"), "spectrum must be a Spectrum, got list"),
        (lambda: grand_ln_Xi([0.0], 1.0, -1.0, "fd"), "spectrum must be a Spectrum, got list"),
        # a zero particle count once answered 0.0 for a spectrum that is not one
        (lambda: canonical_ln_Z([0.0, 1.0], 0, 1.0, "be"), "spectrum must be a Spectrum"),
    ]:
        with pytest.raises(InputError, match=name):
            call()


def test_state_vector_amplitudes_must_be_a_mapping():
    # each once ended in a bare AttributeError, and [] built the zero vector
    for amps in (True, 2.5, "2", math.nan, []):
        with pytest.raises(InputError, match="amplitudes must be a Mapping"):
            StateVector(2, amps)
    assert StateVector(2, None) == StateVector(2) == StateVector(2, {})


def test_empty_diagonal_operator_builds():
    # the dim is read as a count >= 0, so an empty diagonal still builds
    assert OneBodyOperator.diagonal([]).dim == 0


def test_matrix_entries_are_refused_for_what_they_are():
    # a nan pair was once refused as "not symmetric", and "1.5" read as 1.5
    for rows, v, text in (([[1.0, math.nan], [math.nan, 1.0]], MIXED, "operator entry nan is not"),
                          ([["1.5", 0.0], [0.0, 1.0]], SYM01, "operator entry '1.5' is not")):
        with pytest.raises(InputError, match=text):
            entry_read(rows, v)
    assert entry_read([[1, 0], [0, Fraction(1, 3)]]) == Fraction(2, 3)
    # SYM01 reads only the diagonal: int entries give an exact value, float
    # entries a float; MIXED reads the float off-diagonal entry too
    exact = entry_read([[1, 0.5], [0.5, 2]])
    assert exact == Fraction(3, 2) and type(exact) is RadicalRational
    inexact = entry_read([[1.0, 0.5], [0.5, 2.0]])
    assert inexact == 1.5 and type(inexact) is float
    assert entry_read([[1, 0.5], [0.5, 2]], MIXED) == 2.0


def test_nan_level_count_is_refused():
    # nan < 1 is false, so a nan level count once built an operator
    with pytest.raises(InputError):
        box_position_operator(1.0, math.nan)


def test_size_that_is_not_a_pair_is_refused():
    for size in ((2.0,), (2.0, 2, 1), ()):
        with pytest.raises(InputError):
            extensivity_report(MB_NN, 1.0, [size])


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_oversized_ints_are_shown_by_digit_count(name):
    call, _ = OVERSIZED[name]
    with pytest.raises(IdstatError) as info:
        call()
    message = str(info.value)
    assert "int of 500" in message and len(message) < 200, message


def test_shown_keeps_every_text_within_the_limit():
    for value in (0, -7, 10**4299, -(10**4300 - 1), (0, 0, 2), (5,), Fraction(-3, 2), "x", 2.5):
        assert shown(value) == str(value)
        assert shown(value, repr) == repr(value)


def test_shown_counts_the_digits_past_the_limit():
    for k in range(4300, 4320):
        assert shown(10**k) == f"<int of {k + 1} digits>"
        assert shown(1 - 10**(k + 1)) == f"<negative int of {k + 1} digits>"
    assert shown((1, -HUGE)) == shown((1, -HUGE), repr) == "(1, <negative int of 5001 digits>)"
    assert shown((HUGE,)) == "(<int of 5001 digits>,)"
    assert shown(Fraction(-1, HUGE)) == "-1/<int of 5001 digits>"
    assert shown(Fraction(HUGE)) == "<int of 5001 digits>"


FILE_READERS = """
import os, sys
from idstat.config import load_config, parse_config_file
from idstat.errors import IdstatError
from idstat.statmech import spectrum_from_csv
for read in (spectrum_from_csv, parse_config_file, load_config):
    for value in (0, 1, True, 2.5, None, float("nan"), b"x.csv", sys.argv[1]):
        if read is load_config and value is None:
            continue  # no config file: the defaults
        try:
            read(value)
        except IdstatError:
            pass
        else:
            raise SystemExit(f"{read.__name__}({value!r}) answered")
        os.fstat(0), os.fstat(1)  # an int path once read a descriptor and closed it
print("stdout still open")
"""


def test_file_readers_refuse_a_non_path_and_keep_descriptors_open(fresh_python, tmp_path):
    # in a fresh process: pytest captures descriptors 0 and 1
    proc = fresh_python(FILE_READERS, str(tmp_path / "missing.csv"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"stdout still open\n", b"")


def test_missing_spectrum_file_is_refused_by_its_path(tmp_path):
    # FileNotFoundError once left the library
    path = str(tmp_path / "missing.csv")
    with pytest.raises(InputError, match=f"cannot read spectrum file {path}"):
        spectrum_from_csv(path)


def test_spectrum_file_degeneracies_past_the_limit(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text(f"energy,degeneracy\n1,2\n2,{'9' * 4300}\n")
    with pytest.raises(CapacityExceeded, match="int of 4301 digits"):
        spectrum_from_csv(str(path))
