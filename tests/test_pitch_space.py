"""Keyboard lattice geometry and displacement clamping."""

import numpy as np
import pytest

import reference
from pianofinger.errors import OutOfRange
from pianofinger.pitch_space import (
    Displacement,
    PitchRepresentation,
    alphabet_size,
    displacement,
    index_displacement,
    index_table,
    key_indices,
    negation_permutation,
    reflect_x,
    reflection_permutation,
    to_lattice,
)

INTEGRAL = PitchRepresentation.INTEGRAL
LATTICE = PitchRepresentation.LATTICE


def test_lattice_reference_points():
    assert to_lattice(60) == to_lattice(60).__class__(x=70, y=0)
    assert to_lattice(61).x == 71 and to_lattice(61).y == 1
    assert to_lattice(62).x - to_lattice(60).x == 2


def test_lattice_black_keys():
    blacks = {1, 3, 6, 8, 10}
    for midi in range(21, 109):
        assert to_lattice(midi).y == (1 if midi % 12 in blacks else 0)


def test_lattice_injective_and_monotone():
    xs = [to_lattice(m).x for m in range(21, 109)]
    assert all(b > a for a, b in zip(xs, xs[1:]))


def test_lattice_out_of_range():
    with pytest.raises(OutOfRange):
        to_lattice(20)
    with pytest.raises(OutOfRange):
        to_lattice(109)


def test_displacement_integral_clamp():
    d = displacement(INTEGRAL, 60, 84, delta_p_max=15)
    assert d == Displacement(dx=15)
    assert displacement(INTEGRAL, 84, 60, 15) == Displacement(dx=-15)


def test_displacement_lattice_neighbours():
    d = displacement(LATTICE, 64, 65, 15)  # E4 -> F4
    assert (d.dx, d.dy) == (2, 0)
    d = displacement(LATTICE, 60, 61, 15)  # C4 -> C#4
    assert (d.dx, d.dy) == (1, 1)


def test_displacement_identity():
    for repr_ in (INTEGRAL, LATTICE):
        d = displacement(repr_, 66, 66, 15)
        assert d.dx == 0 and d.dy in (None, 0)


def test_displacement_antisymmetry(rng):
    for _ in range(300):
        a, b = rng.integers(21, 109, size=2)
        for repr_ in (INTEGRAL, LATTICE):
            fwd = displacement(repr_, int(a), int(b), 5)
            bwd = displacement(repr_, int(b), int(a), 5)
            assert fwd.dx == -bwd.dx
            if repr_ is LATTICE:
                assert fwd.dy == -bwd.dy


def test_lattice_clamp_bound_is_doubled():
    d = displacement(LATTICE, 21, 108, delta_p_max=15)
    assert d.dx == 30


def test_reflect_x():
    assert reflect_x(Displacement(dx=3, dy=1)) == Displacement(dx=-3, dy=1)
    assert reflect_x(Displacement(dx=0, dy=0)) == Displacement(dx=0, dy=0)
    assert reflect_x(Displacement(dx=-4)) == Displacement(dx=4)


def test_reflect_x_involution(rng):
    for _ in range(200):
        d = Displacement(dx=int(rng.integers(-30, 31)), dy=int(rng.integers(-1, 2)))
        assert reflect_x(reflect_x(d)) == d


def test_index_round_trip():
    for repr_, dpmax in ((INTEGRAL, 15), (LATTICE, 15), (INTEGRAL, 3), (LATTICE, 3)):
        size = alphabet_size(repr_, dpmax)
        seen = set()
        for idx in range(size):
            d = index_displacement(repr_, dpmax, idx)
            assert reference.displacement_index(repr_, dpmax, d) == idx
            seen.add((d.dx, d.dy))
        assert len(seen) == size


def test_permutations_are_involutions():
    for repr_ in (INTEGRAL, LATTICE):
        for perm_fn in (negation_permutation, reflection_permutation):
            perm = perm_fn(repr_, 4)
            assert (perm[perm] == range(len(perm))).all()


@pytest.mark.parametrize("delta_p_max", [1, 2, 15])
def test_permutations_match_their_displacement_maps(delta_p_max):
    for repr_ in (INTEGRAL, LATTICE):
        for perm_fn, transform in (
            (negation_permutation, reference.negate),
            (reflection_permutation, reflect_x),
        ):
            perm = perm_fn(repr_, delta_p_max)
            assert perm.dtype == np.intp
            for idx in range(alphabet_size(repr_, delta_p_max)):
                d = index_displacement(repr_, delta_p_max, idx)
                assert perm[idx] == reference.displacement_index(repr_, delta_p_max, transform(d))
            assert perm_fn(repr_, delta_p_max) is perm  # cached
            with pytest.raises(ValueError):
                perm[0] = 0


@pytest.mark.parametrize("delta_p_max", [1, 2, 15])
def test_index_table_matches_displacement(delta_p_max):
    for repr_ in (INTEGRAL, LATTICE):
        table = index_table(repr_, delta_p_max)
        assert table.shape == (88, 88)
        assert table.dtype == np.intp
        for a in range(21, 109):
            for b in range(21, 109):
                d = displacement(repr_, a, b, delta_p_max)
                assert table[a - 21, b - 21] == reference.displacement_index(repr_, delta_p_max, d)
        with pytest.raises(ValueError):
            table[0, 0] = 0


def test_key_indices_refuse_off_keyboard_midi():
    assert key_indices([21, 60, 108]).tolist() == [0, 39, 87]
    assert key_indices([]).shape == (0,)
    for bad in ([20], [60, 109], [-1]):
        with pytest.raises(OutOfRange):
            key_indices(bad)
