"""Fixtures shared by the test modules."""

import pytest

from oaforge import arrays


@pytest.fixture
def counts(monkeypatch):
    """Every strength count made while the test runs, as (M, N, k, t) per
    call of arrays._off_walk, the kernel that verify_strength (M = 1),
    verify_large_set and the Kronecker output's count through its factors
    (each side's stack of h blocks, and their union as M = 1) all count
    through."""
    calls = []
    kernel = arrays._off_walk

    def spy(cells, plan):
        calls.append((*cells.shape, plan.t))
        return kernel(cells, plan)

    monkeypatch.setattr(arrays, "_off_walk", spy)
    return calls


@pytest.fixture
def relabels(monkeypatch):
    """The (M, N, k) of every large set that arrays._relabels, the relabelling
    certificate of verify_large_set, is asked about while the test runs."""
    calls = []
    certify = arrays._relabels

    def spy(ls):
        calls.append(ls.cells.shape)
        return certify(ls)

    monkeypatch.setattr(arrays, "_relabels", spy)
    return calls
