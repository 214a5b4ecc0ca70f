"""Fixtures shared by the test modules."""

import pytest

from oaforge import arrays


@pytest.fixture
def counts(monkeypatch):
    """Every strength count made while the test runs, as (M, N, k, t) per
    call of arrays._off_walk, the kernel that verify_strength (M = 1),
    verify_large_set and the Kronecker output's count through its factors
    (each side's stack of the blocks _relabels does not certify, and their
    union as M = 1) all count through."""
    calls = []
    kernel = arrays._off_walk

    def spy(cells, plan):
        calls.append((*cells.shape, plan.t))
        return kernel(cells, plan)

    monkeypatch.setattr(arrays, "_off_walk", spy)
    return calls


@pytest.fixture
def relabels(monkeypatch):
    """The (M, N, k) of every stack that arrays._relabels, the relabelling
    certificate, is asked about while the test runs: a large set's members
    in verify_large_set, or one side's blocks in the Kronecker output's
    count through its factors."""
    calls = []
    certify = arrays._relabels

    def spy(cells, levels):
        calls.append(cells.shape)
        return certify(cells, levels)

    monkeypatch.setattr(arrays, "_relabels", spy)
    return calls
