"""The refusal vocabulary: one exception class per exit code, and every
public library refusal of a bad argument raised as one of them."""

from __future__ import annotations

import inspect
from fractions import Fraction

import pytest

from idstat import errors
from idstat.errors import CapacityExceeded, IdstatError, InputError
from idstat.exactnum import rsqrt_of_rational, square_free_split
from idstat.observables import (
    OneBodyOperator,
    PlaneWaveState,
    box_position_operator,
    occupancy_weights,
    one_body_expectation,
    position_expectation_symmetrized,
)
from idstat.perm import Permutation
from idstat.statmech import MAX_CUTOFF, box1d_spectrum, spectrum_from_levels
from idstat.symmetry import (
    StateVector,
    decompose,
    inner_product,
    orbit_basis_n3,
    product_state_vector,
    symmetrize,
)

H3 = OneBodyOperator.diagonal([1, 2, 3])


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
    "cutoff": (lambda: box1d_spectrum(MAX_CUTOFF + 1), CapacityExceeded),
    "level-count": (lambda: spectrum_from_levels([0.0] * (MAX_CUTOFF + 1)), CapacityExceeded),
}


@pytest.mark.parametrize("name", sorted(MISUSES))
def test_library_misuse_is_an_idstat_refusal(name):
    call, expected = MISUSES[name]
    with pytest.raises(IdstatError) as info:
        call()
    assert type(info.value) is expected

