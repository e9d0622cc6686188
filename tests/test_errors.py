"""The refusal vocabulary: one exception class per exit code, and every
public library refusal of a bad argument raised as one of them."""

from __future__ import annotations

import inspect
from fractions import Fraction

import pytest

from idstat import errors
from idstat.errors import CapacityExceeded, IdstatError, InputError, shown
from idstat.exactnum import RadicalRational, rsqrt_of_rational, square_free_split
from idstat.observables import (
    OneBodyOperator,
    PlaneWaveState,
    box_position_operator,
    energy_from_wave_coefficients,
    occupancy_weights,
    one_body_expectation,
    position_expectation_symmetrized,
    wave_coefficients,
)
from idstat.perm import Permutation
from idstat.statmech import (
    MAX_CUTOFF,
    Statistics,
    box1d_spectrum,
    box3d_spectrum,
    canonical_Z,
    canonical_ln_Z,
    dimensionless_spectrum,
    occupation_vectors,
    spectrum_from_csv,
    spectrum_from_levels,
)
from idstat.symmetry import (
    StateVector,
    decompose,
    inner_product,
    orbit_basis_n3,
    product_state_vector,
    symmetrize,
)

H3 = OneBodyOperator.diagonal([1, 2, 3])
HUGE = 10**5000  # past the 4300-digit int-to-text limit


def test_one_class_per_exit_code():
    defined = {name: cls.exit_code for name, cls in vars(errors).items()
               if inspect.isclass(cls) and cls.__module__ == errors.__name__}
    assert defined == {"IdstatError": 2, "InputError": 2, "ZeroVectorInput": 2,
                       "CapacityExceeded": 4, "BoseDivergence": 3}
    # a ValueError handler in the library must not swallow a refusal
    assert not issubclass(InputError, ValueError)


MISUSES = {
    "split-below-one": (lambda: square_free_split(0), InputError),
    "sum-across-radicands": (lambda: rsqrt_of_rational(2) + rsqrt_of_rational(3), InputError),
    "negative-radicand": (lambda: rsqrt_of_rational(Fraction(-1, 4)), InputError),
    "not-a-permutation": (lambda: Permutation((0, 0, 2)), InputError),
    "permutation-length": (lambda: Permutation((0, 1)).apply((1, 2, 3)), InputError),
    "negative-level": (lambda: product_state_vector((0, -1)), InputError),
    "state-particle-count": (lambda: StateVector(2, {(0,): 1}), InputError),
    "state-two-radicands": (
        lambda: StateVector(2, {(0, 1): rsqrt_of_rational(2), (1, 0): rsqrt_of_rational(3)}), InputError),
    "inner-product-particle-counts": (
        lambda: inner_product(product_state_vector((0,)), product_state_vector((0, 1))), InputError),
    "parity": (lambda: symmetrize((0, 1), "X"), InputError),
    "orbit-basis-repeated-level": (lambda: orbit_basis_n3((0, 0, 1)), InputError),
    "decompose-not-orthonormal": (
        lambda: decompose(product_state_vector((0, 1)), [product_state_vector((0, 1))] * 2), InputError),
    "matrix-not-square": (lambda: OneBodyOperator.matrix(((1, 2), (3,)), exact=True), InputError),
    "matrix-not-symmetric": (lambda: OneBodyOperator.matrix(((0.0, 1.0), (2.0, 0.0)), exact=False), InputError),
    "box-no-levels": (lambda: box_position_operator(1.0, 0), InputError),
    "expectation-particle": (lambda: one_body_expectation(product_state_vector((0, 1, 2)), H3, 3), InputError),
    "expectation-dimension": (
        lambda: one_body_expectation(product_state_vector((0, 1, 2)), OneBodyOperator.diagonal([1, 2]), 0),
        InputError),
    "expectation-not-normalized": (lambda: one_body_expectation(StateVector(3, {(0, 1, 2): 2}), H3, 0), InputError),
    "weights-particle": (lambda: occupancy_weights(product_state_vector((0, 1)), 2), InputError),
    "box-quantum-number": (lambda: position_expectation_symmetrized((0, 1), 1.0, 0, "S"), InputError),
    "plane-wave-no-particle": (lambda: PlaneWaveState(()), InputError),
    "plane-wave-dimensions": (lambda: PlaneWaveState(((1,), (1, 2))), InputError),
    "plane-wave-mass": (lambda: PlaneWaveState(((1,),), mass=0), InputError),
    "wave-coefficients-h-zero": (lambda: wave_coefficients(PlaneWaveState(((1,),)), 0), InputError),
    "wave-coefficients-h-negative": (lambda: wave_coefficients(PlaneWaveState(((1,),)), -2), InputError),
    "wave-energy-mass-zero": (lambda: energy_from_wave_coefficients(((1,),), 0), InputError),
    "wave-energy-h-zero": (lambda: energy_from_wave_coefficients(((1,),), 1, 0), InputError),
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
    "plane-wave-not-rational": (lambda: PlaneWaveState((("x",),)), InputError),
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
    "permutation-huge": (lambda: Permutation((HUGE,)), InputError),
    "negative-level-huge": (lambda: product_state_vector((-HUGE,)), InputError),
    "state-particle-count-huge": (lambda: StateVector(1, {(HUGE, 0): 1}), InputError),
    "expectation-particle-huge": (lambda: one_body_expectation(product_state_vector((0, 1)), H3, HUGE), InputError),
    "expectation-dimension-huge": (lambda: one_body_expectation(product_state_vector((HUGE,)), H3, 0), InputError),
    "weights-particle-huge": (lambda: occupancy_weights(product_state_vector((0, 1)), HUGE), InputError),
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


def test_spectrum_file_degeneracies_past_the_limit(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text(f"energy,degeneracy\n1,2\n2,{'9' * 4300}\n")
    with pytest.raises(CapacityExceeded, match="int of 4301 digits"):
        spectrum_from_csv(str(path))
