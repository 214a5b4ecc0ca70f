"""Sylvester matrices and the generator-column constructions."""

import itertools
import time
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oaforge import algebraic, work

from oaforge.algebraic import (
    GeneratorColumns,
    bush_columns,
    linear_oa,
    projective_columns,
    q4_matrix,
    quad_coefficient,
    sylvester,
    sylvester_oa2,
    sylvester_oa3,
)
from oaforge.arrays import LevelProfile, brute_force_strength, verify_strength
from oaforge.errors import BudgetExceededError, ConstraintError, VerificationError
from oaforge.expand import check_resolvable_projection, expand_shift
from oaforge.gf import make_field, prime_power
from reference import (
    field_det,
    field_rank,
    lead_first,
    moment_curve,
    projective_points,
    quartic_columns,
)


def test_sylvester_order2():
    assert np.array_equal(sylvester(1), np.array([[1, 1], [1, -1]]))


def test_sylvester_order4_matches_printed_matrix():
    expected = np.array(
        [[1, 1, 1, 1],
         [1, -1, 1, -1],
         [1, 1, -1, -1],
         [1, -1, -1, 1]]
    )
    assert np.array_equal(sylvester(2), expected)


@pytest.mark.parametrize("n", range(1, 9))
def test_sylvester_hadamard_property(n):
    s = sylvester(n).astype(np.int64)
    assert np.array_equal(s @ s.T, (1 << n) * np.eye(1 << n, dtype=np.int64))


def test_sylvester_range():
    with pytest.raises(ValueError):
        sylvester(0)
    with pytest.raises(ValueError):
        sylvester(11)


def test_sylvester_oa2_small():
    a, proj = sylvester_oa2(2, 3)
    # direct 4x4 evaluation: rows are the even-weight triplets
    rows = set(map(tuple, a.cells.tolist()))
    assert rows == {r for r in np.ndindex(2, 2, 2) if sum(r) % 2 == 0}
    assert proj.columns == (0, 1)
    assert verify_strength(a, 2).ok


def test_sylvester_oa2_expansion_count():
    a, proj = sylvester_oa2(3, 7)
    ls = expand_shift(a, proj)
    assert ls.m == 2 ** (7 - 3)
    a, proj = sylvester_oa2(4, 15)
    assert a.n == 16 and a.k == 15
    assert verify_strength(a, 2).ok


def test_sylvester_oa2_bounds():
    with pytest.raises(ValueError):
        sylvester_oa2(1, 1)
    with pytest.raises(ValueError):
        sylvester_oa2(3, 8)
    with pytest.raises(ValueError):
        sylvester_oa2(3, 2)


def test_sylvester_oa3_small():
    a, proj = sylvester_oa3(2, 4)
    assert a.n == 8 and a.k == 4
    assert verify_strength(a, 3).ok
    ok, _ = check_resolvable_projection(a, proj.columns)
    assert ok


def test_sylvester_oa3_larger_instances():
    a, _ = sylvester_oa3(3, 7)
    assert (a.n, a.k) == (16, 7)
    assert verify_strength(a, 3).ok
    a, _ = sylvester_oa3(4, 16)
    assert (a.n, a.k) == (32, 16)
    assert verify_strength(a, 3).ok


def test_sylvester_oa3_bounds():
    with pytest.raises(ValueError):
        sylvester_oa3(3, 3)
    with pytest.raises(ValueError):
        sylvester_oa3(3, 9)


def test_field_rank_and_det():
    f = make_field(3, 1)
    assert field_rank(f, [(1, 0), (0, 1)]) == 2
    assert field_rank(f, [(1, 2), (2, 2)]) == 2  # det = 2 - 4 = 1 mod 3
    assert field_rank(f, [(1, 2), (2, 1)]) == 1  # (2,1) = 2 * (1,2) mod 3
    assert field_det(f, [[1, 0], [0, 1]]) == 1
    assert field_det(f, [[1, 2], [2, 1]]) == 0  # 1 - 4 = -3 = 0 mod 3
    assert field_det(f, [[0, 1], [1, 0]]) == f.neg(1)


def test_projective_columns_counts():
    assert len(projective_columns(2, 3).columns) == 7
    assert len(projective_columns(3, 2).columns) == 4
    gc = projective_columns(4, 2)
    assert len(gc.columns) == 5
    a, _ = linear_oa(gc, 5)  # any 2 of the 5 independent
    assert (a.n, a.k) == (16, 5)


def test_linear_oa_binary_hamming():
    gc = projective_columns(2, 3)
    a, proj = linear_oa(gc, 7)
    assert (a.n, a.k) == (8, 7)
    assert verify_strength(a, 2).ok
    ok, _ = check_resolvable_projection(a, proj.columns)
    assert ok
    # same parameters as the Sylvester-derived array
    s, _ = sylvester_oa2(3, 7)
    assert (s.n, s.k) == (a.n, a.k)


def test_linear_oa_ternary():
    a, _ = linear_oa(projective_columns(3, 2), 4)
    assert (a.n, a.k) == (9, 4)
    assert verify_strength(a, 2).ok


def test_linear_oa_rejects_dependent_columns():
    f = make_field(2, 1)
    gc = GeneratorColumns(f, 2, ((1, 0), (1, 0), (0, 1)), 2)
    with pytest.raises(VerificationError):
        linear_oa(gc, 3)


def test_linear_oa_refuses_lead_columns_that_do_not_span():
    """Any t = 1 of these columns are independent, so the rows have strength
    1; linear_oa emits only what its first m columns project bijectively."""
    f = make_field(2, 1)
    with pytest.raises(VerificationError, match=r"projection \(0, 1\) is not resolvable"):
        linear_oa(GeneratorColumns(f, 2, ((1, 0), (1, 0), (0, 1)), 1), 3)
    a, proj = linear_oa(GeneratorColumns(f, 2, ((1, 0), (0, 1), (1, 0)), 1), 3)
    assert (a.n, a.k, a.t, proj.columns) == (4, 3, 1, (0, 1))


def test_linear_oa_expansion_size():
    a, proj = linear_oa(projective_columns(3, 2), 4)
    ls = expand_shift(a, proj)
    assert ls.m == 3 ** (4 - 2)


def test_bush_columns():
    gc = bush_columns(3, 3)
    assert len(gc.columns) == 4
    a, _ = linear_oa(gc, 4)
    assert (a.n, a.k) == (27, 4)
    assert verify_strength(a, 3).ok

    gc = bush_columns(4, 3)
    assert len(gc.columns) == 6  # q + 2 in even characteristic
    a, _ = linear_oa(gc, 6)
    assert (a.n, a.k) == (64, 6)
    assert verify_strength(a, 3).ok

    gc = bush_columns(5, 4)
    assert len(gc.columns) == 6
    # independent Vandermonde oracle: every 4x4 minor on moment columns
    f, columns = gc.field, gc.columns[:6].tolist()
    for sub in itertools.combinations(columns, 4):
        assert field_det(f, list(zip(*sub))) != 0


def test_bush_range():
    with pytest.raises(ValueError):
        bush_columns(3, 5)
    with pytest.raises(ValueError):
        bush_columns(3, 1)


def test_quad_coefficient_examples():
    assert quad_coefficient(3).a == 0
    assert quad_coefficient(5).a == 1
    assert quad_coefficient(4).a == 2  # the generator x of GF(4)
    # forbidden-set oracle for q = 5
    f = make_field(5, 1)
    forbidden = {f.neg(f.add(z, f.inv(z))) for z in range(1, 5)}
    assert forbidden == {0, 2, 3}
    with pytest.raises(ValueError):
        quad_coefficient(2)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32])
def test_quad_nonvanishing_all_small_orders(q):
    qc = quad_coefficient(q)
    f = qc.field
    for x in f.elements():
        for y in f.elements():
            if (x, y) != (0, 0):
                xx = f.mul(x, x)
                yy = f.mul(y, y)
                axy = f.mul(qc.a, f.mul(x, y))
                assert f.neg(f.add(xx, f.add(axy, yy))) != 0


def test_q4_matrix_q3():
    gc = q4_matrix(3)
    assert len(gc.columns) == 10
    anchor = gc.columns[:4].tolist()  # construction columns 0, 1, 2 and q + 1 = 4 lead
    det = field_det(gc.field, list(zip(*anchor)))
    assert det == gc.field.neg(1)
    a, _ = linear_oa(gc, 10)  # all 120 triples independent
    assert (a.n, a.k) == (81, 10)


def test_q4_matrix_q4_exhaustive_triples():
    gc = q4_matrix(4)
    assert len(gc.columns) == 17
    a, _ = linear_oa(gc, 17)  # all C(17,3)=680 triples independent
    assert (a.n, a.k) == (256, 17)


def test_q4_array_strengths():
    a, proj = linear_oa(q4_matrix(3), 10)
    assert (a.n, a.k) == (81, 10)
    assert verify_strength(a, 3).ok
    ok, _ = check_resolvable_projection(a, proj.columns)
    assert ok


def test_q4_full_width_q5():
    a, _ = linear_oa(q4_matrix(5), 26)
    assert (a.n, a.k) == (625, 26)
    assert verify_strength(a, 3).ok


# -- the independence check as one exhaustive count ----------------------------


def reference_independent(gc):
    """Whether the first m columns span F_q^m and any t of all of them are
    independent, one field_rank call per t-subset."""
    return field_rank(gc.field, gc.columns[:gc.m]) == gc.m and all(
        field_rank(gc.field, [gc.columns[j] for j in sub]) == gc.t
        for sub in itertools.combinations(range(len(gc.columns)), gc.t))


@st.composite
def generator_sets(draw):
    """Column sets over GF(2..5) mixing random, zero, repeated and
    linear-combination columns; t may exceed m and l."""
    field = make_field(*{2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}[
        draw(st.sampled_from([2, 3, 4, 5]))])
    m = draw(st.integers(1, 3))
    t = draw(st.integers(1, m + 1))
    symbol = st.integers(0, field.q - 1)
    cols: list[tuple[int, ...]] = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "combination"]))
        if kind == "zero" or (kind != "random" and not cols):
            col = (0,) * m if kind == "zero" else draw(st.tuples(*[symbol] * m))
        elif kind == "random":
            col = draw(st.tuples(*[symbol] * m))
        elif kind == "repeat":
            col = draw(st.sampled_from(cols))
        else:
            x, y = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            a, b = draw(symbol), draw(symbol)
            col = tuple(field.add(field.mul(a, u), field.mul(b, v)) for u, v in zip(x, y))
        cols.append(col)
    return GeneratorColumns(field, m, tuple(cols), t)


@settings(max_examples=300, deadline=None)
@given(generator_sets())
def test_independence_check_matches_field_rank_reference(gc):
    """linear_oa over all l columns: its count of every column proves any t
    of them independent, and its projection check the first m spanning, or
    it refuses them."""
    l = len(gc.columns)
    if not gc.t <= gc.m <= l:
        with pytest.raises(ConstraintError):
            linear_oa(gc, l)
    elif reference_independent(gc):
        a, _ = linear_oa(gc, l)
        assert (a.n, a.k, a.t) == (gc.field.q**gc.m, l, gc.t)
    else:
        with pytest.raises(VerificationError):
            linear_oa(gc, l)


def digit_table_cells(gc):
    """The first row builder: an np.indices digit table of every x in F_q^m,
    one full-size pass per digit, kept as the reference."""
    q, m = gc.field.q, gc.m
    digits = np.indices((q,) * m).reshape(m, -1).T
    mat = np.asarray(gc.columns, dtype=np.intp).reshape(-1, m).T
    add, mul = gc.field.add_table, gc.field.mul_table
    cells = np.zeros((q**m, mat.shape[1]), dtype=np.int32)
    for i in range(m):
        cells = add[cells, mul[digits[:, i, None], mat[i]]]
    return cells


@settings(max_examples=200, deadline=None)
@given(generator_sets())
def test_rows_built_one_digit_at_a_time_match_the_digit_table(gc):
    assert gc.cells.dtype == LevelProfile([gc.field.q]).dtype and not gc.cells.flags.writeable
    assert gc.cells.flags.c_contiguous  # so that linear_oa's SymbolMatrix does not copy them
    assert np.array_equal(gc.cells, digit_table_cells(gc))


def test_row_builder_peaks_near_its_output():
    gc = bush_columns(16, 5)
    emitted = GeneratorColumns(gc.field, 5, gc.columns[:6], 5)  # bush q=16 t=5 k=6
    tracemalloc.start()
    try:
        cells = emitted.cells
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cells.shape == (16**5, 6)
    assert peak < 1.25 * cells.nbytes


def test_more_than_m_columns_at_a_time_are_dependent(monkeypatch):
    gc = GeneratorColumns(make_field(3, 1), 2, ((1, 0), (0, 1), (1, 1), (1, 2)), 3)
    assert not reference_independent(gc)
    # refused without a count, whose q^t tuple space would dwarf the q^m rows
    monkeypatch.setattr(algebraic, "verify_strength", None)
    for gc in (gc, GeneratorColumns(make_field(2, 8), 1, ((1,),) * 10, 4)):
        with pytest.raises(ConstraintError, match=f"need t={gc.t} <= m={gc.m}"):
            linear_oa(gc, len(gc.columns))


def test_only_the_emitted_columns_are_counted(monkeypatch):
    counts = []
    real_count = algebraic.verify_strength

    def count(a, t, **kwargs):
        counts.append((a.n, a.k, t))
        return real_count(a, t, **kwargs)

    monkeypatch.setattr(algebraic, "verify_strength", count)
    gc = q4_matrix(4)
    assert counts == [] and "cells" not in vars(gc)  # the builder counts nothing
    linear_oa(gc, 6)
    linear_oa(gc, 8)
    # each output's self-check, on its own width; the full width only when asked
    assert counts == [(256, 6, 3), (256, 8, 3)] and "cells" not in vars(gc)
    linear_oa(gc, 17)
    assert counts[2:] == [(256, 17, 3)]


def reference_emitted_columns(gc, k):
    """The k columns linear_oa emits, the first k, or None when the first m
    of them do not span."""
    if field_rank(gc.field, gc.columns[:gc.m]) < gc.m:
        return None
    return list(range(k))


@settings(max_examples=200, deadline=None)
@given(generator_sets())
def test_linear_oa_succeeds_exactly_when_its_emitted_columns_are_independent(gc):
    for k in range(gc.m, len(gc.columns) + 1):
        if gc.t > gc.m:
            with pytest.raises(ConstraintError):
                linear_oa(gc, k)
            continue
        emitted = reference_emitted_columns(gc, k)
        if emitted is None or any(
                field_rank(gc.field, [gc.columns[j] for j in sub]) < gc.t
                for sub in itertools.combinations(emitted, gc.t)):
            with pytest.raises(VerificationError):
                linear_oa(gc, k)
            continue
        a, _ = linear_oa(gc, k)
        assert np.array_equal(a.cells, gc.cells[:, emitted])
        assert brute_force_strength(a, gc.t).ok


def test_each_count_is_charged_for_its_own_width():
    gc = q4_matrix(11)  # its 11^4 x 122 row table is under the cap
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"11\^4 rows x C\(122,3\) subsets"):
        linear_oa(gc, 122)
    assert time.perf_counter() - start < 2.0
    a, _ = linear_oa(gc, 6)
    assert (a.n, a.k, a.t) == (11**4, 6, 3)


def test_q4_matrix_q8_is_fast():
    start = time.perf_counter()
    a, _ = linear_oa(q4_matrix(8), 6)
    assert (a.n, a.k) == (4096, 6)
    assert time.perf_counter() - start < 5.0


def test_linear_output_is_a_column_selection_of_the_full_width_rows():
    gc = projective_columns(3, 3)
    a, _ = linear_oa(gc, 6)
    full = {tuple(row) for row in gc.cells.tolist()}
    assert len(full) == 27 and gc.cells.shape == (27, 13)
    assert not gc.cells.flags.writeable
    # construction columns 0, 1, 4, the first independent ones, lead
    assert gc.columns[:3].tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert np.array_equal(a.cells, gc.cells[:, :6])


def _families():
    """Every family over each prime power q <= 16 with q^m <= 10^6 (n <= 4,
    t <= 5): an id, the builder, and its columns by the reference in
    construction order."""
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        field = make_field(*prime_power(q))
        for n in range(2, 5):
            if q**n <= 10**6:
                yield (f"projective q={q} n={n}", lambda q=q, n=n: projective_columns(q, n),
                       lambda f=field, n=n: projective_points(f, n))
        for t in range(2, min(5, q + 1) + 1):
            if q**t <= 10**6:
                yield (f"bush q={q} t={t}", lambda q=q, t=t: bush_columns(q, t),
                       lambda f=field, t=t: moment_curve(f, t))
        if q >= 3:
            yield f"q4t3 q={q}", lambda q=q: q4_matrix(q), lambda f=field: quartic_columns(f)


@pytest.mark.parametrize("build, reference", [
    pytest.param(build, reference, id=name) for name, build, reference in _families()])
def test_columns_by_formula_are_the_greedy_basis_then_the_rest(build, reference):
    """Each family's lead columns are the greedy basis of its columns in
    construction order, so that every output stays as it was when linear_oa
    chose them by elimination."""
    gc = build()
    expected = np.array(lead_first(gc.field, reference(), gc.m))
    assert len(gc.columns) == len(expected)
    for k in range(gc.m, len(expected) + 1):
        assert np.array_equal(gc.columns[:k], expected[:k])
    k = min(len(expected), gc.m + 2)
    a, proj = linear_oa(gc, k)
    emitted = GeneratorColumns(gc.field, gc.m, tuple(map(tuple, expected[:k].tolist())), gc.t)
    assert np.array_equal(a.cells, digit_table_cells(emitted))
    assert proj.columns == tuple(range(gc.m))


@pytest.mark.parametrize("build", [
    lambda: projective_columns(4096, 3),
    lambda: projective_columns(4093, 3),
    lambda: projective_columns(3, 10**9),
    lambda: bush_columns(4093, 3),
    lambda: q4_matrix(4093),
    lambda: GeneratorColumns(make_field(2, 1), 29, ((1,) * 29,) * 29, 29),
])
def test_oversized_generator_sets_are_refused_before_building(build):
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        build()
    assert time.perf_counter() - start < 2.0


def test_work_cap_admits_q4t3_at_q9():
    assert work.LINEAR_WORK_CAP >= 9**4 * comb(9 * 9 + 1, 3)


@pytest.mark.parametrize("columns", [
    ((1, 0), (0,)),
    ((1, 0), (0, 1, 1)),
    ((1, 0), (0, -1)),
    ((1, 0), (0, 3)),
])
def test_generator_columns_are_validated(columns):
    with pytest.raises(ValueError):
        GeneratorColumns(make_field(3, 1), 2, columns, 2)


@pytest.mark.parametrize("build", [
    lambda: linear_oa(q4_matrix(3), 11),
    lambda: q4_matrix(2),
    lambda: projective_columns(3, 1),
    lambda: linear_oa(projective_columns(3, 3), 2),
    lambda: bush_columns(3, 5),
])
def test_linear_parameter_errors_are_constraint_errors(build):
    with pytest.raises(ConstraintError):
        build()
