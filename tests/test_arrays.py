import itertools

import numpy as np
import pytest

from cerg.arrays import (
    GroupDivisibleArray,
    InvalidOrder,
    OrthogonalArray,
    ArrayFormatError,
    goa_from_oa,
    oa_macneish,
    oa_prime_power,
    read_array,
    validate_array,
    write_array,
)
from cerg.field import NotAPrimePower


def exhaustive_pair_check(cells, i, j, n):
    """Independent oracle for the defining condition on one row pair."""
    pairs = {(int(cells[i, c]), int(cells[j, c])) for c in range(n * n)}
    return len(pairs) == n * n


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_oa_prime_power_all_pairs(q):
    oa = oa_prime_power(q)
    assert (oa.n, oa.t) == (q, q + 1)
    for i, j in itertools.combinations(range(oa.t), 2):
        assert exhaustive_pair_check(oa.cells, i, j, q)
    assert validate_array(oa).ok


def test_oa_prime_power_rejects_non_prime_power():
    with pytest.raises(NotAPrimePower):
        oa_prime_power(6)


def test_oa3_rows_are_two_mols_plus_coordinates():
    # rows c=0 and the infinity row read back the column coordinates (b, a);
    # the remaining rows are then 2 MOLS of order 3
    oa = oa_prime_power(3)
    assert oa.t == 4
    for a in range(3):
        for b in range(3):
            col = a * 3 + b
            assert oa.cells[0, col] == b
            assert oa.cells[3, col] == a
    assert validate_array(oa).ok


def test_macneish_orders():
    assert oa_macneish(6).t == 3  # min(2, 3) + 1
    assert oa_macneish(12).t == 4  # min(4, 3) + 1
    assert oa_macneish(5).t == 6  # prime: reduces to the linear OA
    with pytest.raises(InvalidOrder):
        oa_macneish(1)


@pytest.mark.parametrize("n", [6, 10, 12])
def test_macneish_validates(n):
    oa = oa_macneish(n)
    assert validate_array(oa).ok
    for i, j in itertools.combinations(range(oa.t), 2):
        assert exhaustive_pair_check(oa.cells, i, j, n)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_macneish_prime_power_equals_linear_oa(q):
    assert np.array_equal(oa_macneish(q).cells, oa_prime_power(q).cells)


def test_goa_from_oa_shapes_and_validation():
    g = goa_from_oa(oa_prime_power(2), 2)
    assert (g.n, g.s, g.t) == (2, 2, 3)
    assert g.cells.shape == (6, 4)
    assert validate_array(g).ok
    g = goa_from_oa(oa_prime_power(3), 3)
    assert g.cells.shape == (12, 9)
    assert validate_array(g).ok
    # s=1 keeps the OA condition on every pair
    g1 = goa_from_oa(oa_prime_power(3), 1)
    assert validate_array(g1).ok
    assert np.array_equal(g1.cells, oa_prime_power(3).cells)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_goa_always_validates_when_input_does(n):
    oa = oa_macneish(n)
    assert validate_array(oa).ok
    for s in (2, 3):
        assert validate_array(goa_from_oa(oa, s)).ok


def test_within_group_repeats_do_not_reject():
    goa = goa_from_oa(oa_macneish(6), 2)
    rep = validate_array(goa)
    assert rep.ok  # repeated rows only ever share a group


def test_validator_rejects_with_first_duplicate():
    zeros = OrthogonalArray(2, 3, np.zeros((3, 4), dtype=int))
    rep = validate_array(zeros)
    assert not rep.ok
    first = rep.failures[0]
    assert (first.row_i, first.row_j) == (0, 1)
    assert first.pair == (0, 0)
    assert first.column == 1  # column 0 is the first occurrence, 1 the repeat


def test_validator_restriction_is_bijection():
    oa = oa_macneish(4)
    n = oa.n
    for i, j in itertools.combinations(range(oa.t), 2):
        seen = sorted(int(oa.cells[i, c]) * n + int(oa.cells[j, c]) for c in range(n * n))
        assert seen == list(range(n * n))


def test_array_file_round_trip(tmp_path):
    oa = oa_macneish(6)
    path = tmp_path / "oa6.txt"
    write_array(oa, path)
    back = read_array(path)
    assert isinstance(back, OrthogonalArray)
    assert np.array_equal(back.cells, oa.cells)

    goa = goa_from_oa(oa, 2)
    gpath = tmp_path / "goa6.txt"
    write_array(goa, gpath)
    gback = read_array(gpath)
    assert isinstance(gback, GroupDivisibleArray)
    assert (gback.n, gback.s, gback.t) == (6, 2, 3)
    assert np.array_equal(gback.cells, goa.cells)


def test_array_file_rejects_bad_symbols(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("OA 2 2\n0 1 0 1\n0 1 0 2\n")
    with pytest.raises(ArrayFormatError):
        read_array(path)
    path.write_text("OA 2 2\n0 1 0 1\n")
    with pytest.raises(ArrayFormatError):
        read_array(path)
    path.write_text("NOPE 2 2\n")
    with pytest.raises(ArrayFormatError):
        read_array(path)
