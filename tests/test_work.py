"""The size caps and the arithmetic that charges them, at their boundaries."""

import time
from math import comb

import pytest

from oaforge import work

CAPS = [name for name in vars(work) if name.isupper()]


@pytest.mark.parametrize("name", CAPS)
def test_every_cap_admits_itself_and_refuses_one_more(name):
    cap = getattr(work, name)
    assert not work.power_over(cap, 1, cap)
    assert work.power_over(cap + 1, 1, cap)
    assert not work.power_over(1, 1, cap, cap)
    assert work.power_over(1, 1, cap, cap + 1)


@pytest.mark.parametrize("name", CAPS)
@pytest.mark.parametrize("base, exp", [(2, 20000), (3, 999999999), (10**18 + 3, 2**64)])
def test_every_cap_refuses_a_huge_power_without_computing_it(name, base, exp):
    start = time.perf_counter()
    assert work.surely_over(base, exp, getattr(work, name))
    assert work.power_over(base, exp, getattr(work, name), times=3)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("base, exp, cap", [
    (2, 12, work.MAX_ORDER),  # 2^12 = 4096
    (4096, 1, work.MAX_ORDER),
    (2, 24, work.MAX_MATERIALIZED),
    (2, 27, work.MAX_OUTPUT_CELLS),
    (8, 9, work.MAX_OUTPUT_CELLS),
    (10, 9, work.LINEAR_WORK_CAP),
    (10, 6, work.SUBSET_SEARCH_CAP),
    (10, 8, work.DEFAULT_BUDGET),
])
def test_a_power_exactly_at_the_cap_is_admitted(base, exp, cap):
    assert base**exp == cap
    assert not work.power_over(base, exp, cap)
    assert work.power_over(base, exp + 1, cap)
    assert work.power_over(base, exp, cap, times=2)
    assert not work.power_over(base, exp, cap, times=0)


def test_power_over_is_exact_around_the_linear_cap():
    # 10^9 = 10^8 x 10: a generator-column step of q^m rows times a width
    assert not work.power_over(10, 8, work.LINEAR_WORK_CAP, 10)
    assert work.power_over(10, 8, work.LINEAR_WORK_CAP, 11)
    assert not work.power_over(9, 4, work.LINEAR_WORK_CAP, comb(82, 3))  # q4t3 at q = 9


def test_surely_over_is_the_lower_bound_of_the_power():
    """surely_over(b, e, cap) holds exactly when 2^(e (bits(b) - 1)) > cap:
    never for a power at or below the cap, and not for 3^18, which is over
    2^27 while its bound 2^18 is not."""
    cap = work.MAX_OUTPUT_CELLS
    assert not work.surely_over(2, 27, cap) and work.surely_over(2, 28, cap)
    assert not work.surely_over(3, 18, cap) and 3**18 > cap
    assert work.power_over(3, 18, cap)
    for base in range(1, 70):
        for exp in range(0, 40):
            if work.surely_over(base, exp, cap):
                assert base**exp > cap, (base, exp)


def test_count_ops_is_rows_times_the_subsets():
    assert work.count_ops(54, 5, 3) == 540
    assert work.count_ops(0, 22, 11) == 0
    assert work.count_ops(7, 3, 4) == 0
