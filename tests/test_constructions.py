"""Generators: determinism, exact scaling laws, fixtures, GenSpec."""

from fractions import Fraction

import numpy as np
import pytest

from lowrankdisc import (GenSpec, disc_minus, disc_plus, fixtures,
                         planted_sparse, random_binary, random_dense, rank,
                         regular_blowup, tightness_matrix)


def test_random_binary_extremes():
    assert random_binary(5, 0, seed=1).ones == 0
    assert random_binary(5, 1, seed=1).ones == 25


def test_random_binary_density_window():
    M = random_binary(100, "1/2", seed=123)
    assert 0.45 <= M.ones / 100 ** 2 <= 0.55


def test_random_binary_deterministic():
    A = random_binary(20, "1/3", seed=9)
    B = random_binary(20, "1/3", seed=9)
    assert A == B
    assert A.to_text() == B.to_text()


def test_random_binary_seed_sensitivity():
    assert random_binary(20, "1/2", seed=1) != random_binary(20, "1/2", seed=2)


def test_tightness_identity_blowup_case():
    assert tightness_matrix(6, "1/2", 6, 6, seed=4) == random_binary(6, "1/2", 4)


def test_tightness_divisibility_error():
    with pytest.raises(ValueError):
        tightness_matrix(3, "1/2", 8, 8, seed=0)


def test_tightness_rank_bound():
    M = tightness_matrix(4, "1/2", 64, 64, seed=11)
    assert rank(M) <= 4


def test_tightness_disc_scaling_vs_oracle():
    for seed in (1, 2, 3):
        R = random_binary(2, "1/2", seed)
        M = tightness_matrix(2, "1/2", 4, 4, seed)
        assert disc_plus(M) == 4 * disc_plus(R)
    for r, a in ((3, 4), (5, 3)):
        R = random_binary(r, "1/2", 17)
        M = tightness_matrix(r, "1/2", r * a, r * a, 17)
        assert disc_plus(M) == a * a * disc_plus(R)
        assert disc_minus(M) == a * a * disc_minus(R)


def test_fixture_values():
    assert np.array_equal(fixtures("identity(3)").entries, np.eye(3, dtype=np.uint8))
    assert fixtures("all_ones(2,3)").ones == 6
    assert fixtures("all_zeros(4,2)").ones == 0
    C = fixtures("matching_complement(4)")
    assert C.ones == 12 and C.entries[0, 0] == 0 and C.entries[0, 1] == 1


def test_fixture_unknown_name():
    with pytest.raises(ValueError):
        fixtures("hadamard(4)")
    with pytest.raises(ValueError):
        fixtures("identity(2,3)")


def test_regular_blowup_degrees():
    M = regular_blowup(5, 2, 20, seed=3)
    assert int(M.row_deg.min()) == int(M.row_deg.max()) == 8
    assert int(M.col_deg.min()) == int(M.col_deg.max()) == 8


def test_planted_sparse_properties():
    M = planted_sparse(4, 64, seed=6)
    assert M.density() == Fraction(1, 16 * 4)
    assert rank(M) <= 4


def test_genspec_build_and_label():
    spec = GenSpec(kind="blowup_random", r=2, p="1/2", m=8, n=8)
    M = spec.build(seed=5)
    assert M == tightness_matrix(2, "1/2", 8, 8, seed=5)
    assert spec.label() == "blowup_random(r=2,m=8,n=8,p=1/2)"


def test_genspec_json_round_trip():
    obj = {"kind": "random_dense", "m": 4, "n": 6, "p": "1/3"}
    spec = GenSpec.from_json_obj(obj)
    assert spec.p == Fraction(1, 3)
    assert spec.build().shape == (4, 6)
    # the seed goes to build(seed), never into the spec
    with pytest.raises(ValueError, match=r"unknown generator fields \['seed'\]"):
        GenSpec.from_json_obj({**obj, "seed": 2})


def test_genspec_rejects_unknown():
    with pytest.raises(ValueError):
        GenSpec(kind="sylvester")
    with pytest.raises(ValueError):
        GenSpec.from_json_obj({"kind": "identity", "weird": 1})
    with pytest.raises(ValueError):
        GenSpec(kind="identity").build()


@pytest.mark.parametrize("field, value", [
    ("m", "8"), ("r", 2.0), ("n", "4"), ("n", 2.5), ("n", 0), ("m", -1),
    ("n", True)])
def test_genspec_rejects_sizes_that_are_not_positive_integers(field, value):
    # JSON values arrive unconverted: "4" must not run as 4, nor 2.0 or
    # "8" reach numpy
    spec = {"kind": "blowup_random", "r": 2, "p": "1/2", "m": 8, "n": 8}
    with pytest.raises(ValueError,
                       match=f"^{field} must be a positive integer"):
        GenSpec.from_json_obj({**spec, field: value})
