"""Every size cap and default budget, and the arithmetic that charges them
before anything is built.  Each call site raises its own error (README's
"Size caps and --budget" table)."""

from math import comb

MAX_ORDER = 4096  # order p^e of a field
SYLVESTER_MAX_N = 10  # n of a Sylvester matrix of order 2^n
LINEAR_WORK_CAP = 10**9  # cells, or counting operations, of one generator-column step
MAX_MATERIALIZED = 1 << 24  # cells of a coset large set, rows of a zero-sum array
MAX_OUTPUT_CELLS = 1 << 27  # cells of an expansion, a Kronecker output or a development
SUBSET_SEARCH_CAP = 10**6  # candidate subsets of the resolvable-projection search
SEARCH_SIZE_CAP = 200  # v x k of a difference-matrix search
DEFAULT_BUDGET = 10**8  # counting operations (search nodes for `search dm`) of --budget
DM_SEARCH_BUDGET = 10**6  # search nodes per group of a built-in difference matrix


def surely_over(base: int, exp: int, cap: int) -> bool:
    """Whether the lower bound 2^(exp * (bits(base) - 1)) of base ** exp is
    over cap, decided from bit lengths alone: true only where the power is."""
    return exp * (base.bit_length() - 1) >= cap.bit_length()


def power_over(base: int, exp: int, cap: int, times: int = 1) -> bool:
    """Whether base ** exp * times > cap, for times >= 0, computing the power
    only where surely_over does not decide it: a huge exponent costs nothing."""
    return times > 0 and (surely_over(base, exp, cap) or base**exp * times > cap)


def count_ops(rows: int, k: int, t: int) -> int:
    """The --budget unit: the counting operations of a strength-t check of
    `rows` rows on k columns, each of the C(k, t) subsets counted alone."""
    return rows * comb(k, t)
