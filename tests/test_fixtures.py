"""The transcribed reference corpus and its self-checks."""

import pytest

from oaforge.arrays import verify_strength
from oaforge.expand import check_resolvable_projection
from oaforge.fixtures import (
    FIXTURES,
    fixture_loa,
    fixtures_check,
    load_fixture,
)


def test_corpus_is_complete():
    names = {f.name for f in FIXTURES}
    assert names == {
        "oa20_2e8_5e1", "oa24_2e13_3e1_4e1", "oa28_2e12_7e1", "oa44_2e16_11e1",
        "oa40_5e1_2e6", "oa48_4e1_3e1_2e4", "oa48_3e1_2e9", "oa54_3e5_2e1",
    }


@pytest.mark.parametrize("fx", FIXTURES, ids=lambda f: f.name)
def test_each_fixture_strength_and_marking(fx):
    a, marked = load_fixture(fx.name)
    assert a.n == fx.n
    assert a.profile.format() == fx.profile
    assert marked == fx.marked
    assert verify_strength(a, fx.t).ok
    ok, _ = check_resolvable_projection(a, marked)
    assert ok


def test_oa54_marked_product():
    a, marked = load_fixture("oa54_3e5_2e1")
    assert marked == (0, 1, 2, 5)
    prod = 1
    for c in marked:
        prod *= a.profile.levels[c]
    assert prod == 54 == a.n


def test_fixtures_check_passes():
    report = fixtures_check()
    assert report.ok
    assert {r.name for r in report.results} == {f.name for f in FIXTURES}


def test_fixtures_check_empty_corpus_is_distinct(tmp_path):
    report = fixtures_check(tmp_path)
    assert report.corpus_empty
    assert not report.ok
    assert report.results == []


def test_fixtures_check_localizes_mutation(tmp_path):
    # copy the corpus, then flip one symbol in one file
    from oaforge.fixtures import fixture_dir

    for fx in FIXTURES:
        src = (fixture_dir() / f"{fx.name}.txt").read_text()
        (tmp_path / f"{fx.name}.txt").write_text(src)
    target = tmp_path / "oa54_3e5_2e1.txt"
    lines = target.read_text().splitlines()
    header = next(i for i, l in enumerate(lines) if l.startswith("OA"))
    row = lines[header + 1].split()
    row[0] = str((int(row[0]) + 1) % 3)
    lines[header + 1] = " ".join(row)
    target.write_text("\n".join(lines) + "\n")
    report = fixtures_check(tmp_path)
    assert not report.ok
    bad = {r.name: r for r in report.results}
    assert not bad["oa54_3e5_2e1"].ok
    assert "columns" in bad["oa54_3e5_2e1"].status
    assert bad["oa20_2e8_5e1"].ok


def test_fixture_loa_rotation_and_width():
    ls = fixture_loa("oa28_2e12_7e1", lead_level=7, width=9)
    assert ls.profile.levels == (7,) + (2,) * 8
    assert ls.n == 28 and ls.m == 64
    with pytest.raises(ValueError):
        fixture_loa("oa28_2e12_7e1", lead_level=7, width=2)
    with pytest.raises(ValueError):
        fixture_loa("oa28_2e12_7e1", lead_level=3)


def test_unknown_fixture():
    with pytest.raises(KeyError):
        load_fixture("oa999")
