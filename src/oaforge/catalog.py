"""Catalog binding every tabulated family to a reproducing command.

Each entry is one row of the six result tables or one composite recipe
theorem.  Status values:

  synthesizable    this repo reproduces it from shipped code and fixtures
  fixture-required the stated source array lives in an external catalog and
                   must be imported before the row can be built
  unreconciled     the printed parameters fail an arithmetic cross-check and
                   no reading is forced
  out-of-scope     declared out of scope for the artifact

Each synthesizable entry's `runner` is a ConstructionPlan whose claim is the
row's printed (or, for a family, one concrete) N, profile and strength.
`run_entries` executes every one whose cost, the counting operations of the
plan's final check, fits the budget and reports one verdict per entry;
nothing is accepted without verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from . import work
from .arrays import LargeSet, LevelProfile
from .compose import (
    Claim,
    ConstructionPlan,
    Expand,
    Juxtapose,
    Kronecker,
    Project,
    _counts,
    execute_plan,
    leaf,
    parse_params,
    plan_theorem,
)
from .errors import VerificationError
from .fixtures import FIXTURES

FIX = "$(python3 -c 'import oaforge.fixtures as f; print(f.fixture_dir())')"


@dataclass(frozen=True)
class CatalogEntry:
    source: str
    result: str
    params: str
    status: str
    command: str | None = None
    note: str = ""
    runner: ConstructionPlan | None = None

    @property
    def cost(self) -> int:
        """Counting operations of the plan's final check, rows x C(k, t): rows
        is N for an array and the universe for a large set."""
        if self.runner is None:
            return 0
        claim = self.runner.claim
        root = self.runner.root
        large = isinstance(root, (Expand, Juxtapose)) or getattr(root, "kind", "") in (
            "cosets", "fixture")
        rows = prod(s**c for s, c in claim.profile_counts) if large else claim.n
        return work.count_ops(rows, sum(c for _, c in claim.profile_counts), claim.t)


def _claim(text: str) -> Claim:
    """The claim printed as 'OA(N,profile,t)' or 'LOA(N,profile,t)', the
    profile's groups separated by spaces or commas."""
    head, _, t = text.rpartition(",")
    n, _, profile = head.partition("(")[2].partition(",")
    groups = LevelProfile.parse(profile.replace(" ", ",")).groups
    return Claim(int(n), _counts(groups), int(t.rstrip(")")))


# -- Table 1: expansions of externally catalogued arrays ------------------------

_T1 = (
    ("OA(8,2^4 4^1,2)", "LOA(8,2^k 4^1,2)", "1<=k<=4"),
    ("OA(12,2^2 6^1,2)", "LOA(12,2^k 6^1,2)", "k=1,2"),
    ("OA(16,2^8 8^1,2)", "LOA(16,2^k 8^1,2)", "1<=k<=8"),
    ("OA(18,3^6 6^1,2)", "LOA(18,3^k 6^1,2)", "1<=k<=6"),
    ("OA(20,2^2 10^1,2)", "LOA(20,2^k 10^1,2)", "k=1,2"),
    ("OA(24,2^12 12^1,2)", "LOA(24,2^k 12^1,2)", "1<=k<=12"),
    ("OA(24,2^11 4^1 6^1,2)", "LOA(24,2^k 4^1 6^1,2)", "0<=k<=11"),
    ("OA(27,3^9 9^1,2)", "LOA(27,3^k 9^1,2)", "1<=k<=9"),
    ("OA(28,2^2 14^1,2)", "LOA(28,2^k 14^1,2)", "k=1,2"),
    ("OA(32,2^16 16^1,2)", "LOA(32,2^k 16^1,2)", "1<=k<=16"),
    ("OA(32,4^8 8^1,2)", "LOA(32,4^k 8^1,2)", "1<=k<=8"),
    ("OA(36,2^10 3^1 6^2,2)", "LOA(36,2^k1 3^k2 6^2,2)", "0<=k1<=10, k2=0,1"),
    ("OA(36,2^9 3^4 6^2,2)", "LOA(36,2^k1 3^k2 6^2,2)", "0<=k1<=9, 0<=k2<=4"),
    ("OA(36,3^12 12^1,2)", "LOA(36,3^k 12^1,2)", "1<=k<=12"),
    ("OA(36,2^13 6^2,2)", "LOA(36,2^k 6^2,2)", "0<=k<=13"),
    ("OA(40,2^19 4^1 10^1,2)", "LOA(40,2^k 4^1 10^1,2)", "0<=k<=19"),
    ("OA(45,3^9 15^1,2)", "LOA(45,3^k 15^1,2)", "1<=k<=9"),
    ("OA(48,2^31 6^1 8^1,2)", "LOA(48,2^k 6^1 8^1,2)", "0<=k<=31"),
    ("OA(48,2^24 24^1,2)", "LOA(48,2^k 24^1,2)", "1<=k<=24"),
    ("OA(50,5^10 10^1,2)", "LOA(50,5^k 10^1,2)", "1<=k<=10"),
    ("OA(54,3^20 6^1 9^1,2)", "LOA(54,3^k 6^1 9^1,2)", "0<=k<=20"),
    ("OA(56,2^27 4^1 14^1,2)", "LOA(56,2^k 4^1 14^1,2)", "0<=k<=27"),
    ("OA(60,2^15 6^1 10^1,2)", "LOA(60,2^k 6^1 10^1,2)", "0<=k<=15"),
    ("OA(63,3^12 21^1,2)", "LOA(63,3^k 21^1,2)", "1<=k<=12"),
    ("OA(64,2^32 32^1,2)", "LOA(64,2^k 32^1,2)", "1<=k<=32"),
    ("OA(64,4^16 16^1,2)", "LOA(64,4^k 16^1,2)", "1<=k<=16"),
    ("OA(64,4^7 8^6,2)", "LOA(64,4^k1 8^k2,2)", "0<=k1<=7, 2<=k2<=6"),
    ("OA(72,2^27 3^11 6^1 12^1,2)", "LOA(72,2^k1 3^k2 6^1 12^1,2)",
     "0<=k1<=27, 0<=k2<=11"),
    ("OA(80,2^55 8^1 10^1,2)", "LOA(80,2^k 8^1 10^1,2)", "0<=k<=55"),
    ("OA(80,2^51 4^3 20^1,2)", "LOA(80,2^k1 4^k2 20^1,2)", "0<=k1<=51, 1<=k2<=3"),
    ("OA(80,2^40 40^1,2)", "LOA(80,2^k 40^1,2)", "1<=k<=40"),
    ("OA(81,3^27 27^1,2)", "LOA(81,3^k 27^1,2)", "1<=k<=27"),
    ("OA(84,2^14 6^1 14^1,2)", "LOA(84,2^k 6^1 14^1,2)", "0<=k<=14"),
    ("OA(88,2^44 44^1,2)", "LOA(88,2^k 44^1,2)", "1<=k<=44"),
    ("OA(90,3^30 30^1,2)", "LOA(90,3^k 30^1,2)", "1<=k<=30"),
    ("OA(90,3^26 6^1 15^1,2)", "LOA(90,3^k 6^1 15^1,2)", "0<=k<=26"),
    ("OA(96,2^71 6^1 16^1,2)", "LOA(96,2^k 6^1 16^1,2)", "0<=k<=71"),
    ("OA(132,2^2 6^1 22^1,2)", "LOA(132,2^k 6^1 22^1,2)", "0<=k<=2"),
    ("OA(16,2^3 4^1,3)", "LOA(16,2^k 4^1,3)", "k=2,3"),
    ("OA(24,2^3 6^1,3)", "LOA(24,2^k 6^1,3)", "k=2,3"),
    ("OA(32,2^4 4^2,3)", "LOA(32,2^k 4^2,3)", "1<=k<=4"),
    ("OA(48,2^4 6^1,4)", "LOA(48,2^k 6^1,4)", "k=3,4"),
    ("OA(128,2^3 4^3,4)", "LOA(128,2^k 4^3,4)", "k=1,2,3"),
    ("OA(128,2^4 4^2,5)", "LOA(128,2^k 4^2,5)", "k=3,4"),
)

# -- Table 2: expansions of the transcribed reference arrays --------------------
# (result, params, fixture name when transcribed)

_T2 = (
    ("LOA(20,2^k 5^1,2)", "2<=k<=8", "oa20_2e8_5e1"),
    ("LOA(24,2^k 3^1 4^1,2)", "1<=k<=13", "oa24_2e13_3e1_4e1"),
    ("LOA(28,2^k 7^1,2)", "2<=k<=12", "oa28_2e12_7e1"),
    ("LOA(36,6^1 3^k1 2^k2,2)", "1<=k1<=12, 1<=k2<=2", None),
    ("LOA(36,2^k 3^1 6^1,2)", "1<=k<=18", None),
    ("LOA(36,2^k 9^1,2)", "2<=k<=13", None),
    ("LOA(36,2^k1 3^k2 6^1,2)", "1<=k1<=11, 1<=k2<=2", None),
    ("LOA(36,6^1 3^k1 2^k2,2)", "1<=k1<=8, 1<=k2<=10", None),
    ("LOA(36,3^2 2^k,2)", "2<=k<=20", None),
    ("LOA(40,2^k 4^1 5^1,2)", "1<=k<=25", None),
    ("LOA(44,2^k 11^1,2)", "2<=k<=16", "oa44_2e16_11e1"),
    ("LOA(48,2^k 3^1 8^1,2)", "1<=k<=33", None),
    ("LOA(52,2^k 13^1,2)", "2<=k<=17", None),
    ("LOA(56,2^k 4^1 7^1,2)", "2<=k<=37", None),
    ("LOA(64,2^k1 4^k2 8^1,2)", "1<=k1<=5, 1<=k2<=17", None),
    ("LOA(72,2^k 3^1 4^1 6^1,2)", "0<=k<=51", None),
    ("LOA(72,2^k 4^1 9^1,2)", "1<=k<=49", None),
    ("LOA(72,2^k1 4^k2 6^2,2)", "1<=k1<=46, 0<=k2<=1", None),
    ("LOA(72,2^k1 3^k2 4^1,2)", "1<=k1<=44, 2<=k2<=12", None),
    ("LOA(72,2^k1 3^k2 4^k3 6^2,2)", "1<=k1<=42, 0<=k2<=4, 0<=k3<=1", None),
    ("LOA(72,2^k1 4^k2 6^k3,2)", "1<=k1<=41, 0<=k2<=1, 2<=k3<=3", None),
    ("LOA(72,2^k1 3^k2 4^1 6^1,2)", "0<=k1<=36, 1<=k2<=9", None),
    ("LOA(72,2^k1 3^k2 4^1 6^1,2)", "0<=k1<=35, 1<=k2<=12", None),
    ("LOA(72,2^k1 3^k2 4^k3 6^2,2)", "1<=k1<=34, 0<=k2<=8, 0<=k3<=1", None),
    ("LOA(72,2^k1 3^k2 6^k3,2)", "1<=k1<=30, 0<=k2<=1, 2<=k3<=4", None),
    ("LOA(80,2^k 5^1 8^1,2)", "1<=k<=61", None),
    ("LOA(96,2^k 3^1 16^1,2)", "1<=k<=73", None),
    ("LOA(96,2^k1 4^k2 6^1 8^1,2)", "1<=k1<=43, 0<=k2<=12", None),
    ("LOA(96,2^k1 3^1 4^k2 8^1,2)", "0<=k1<=39, 1<=k2<=14", None),
    ("LOA(96,2^k1 3^1 4^k2,2)", "1<=k1<=19, 2<=k2<=23", None),
    ("LOA(96,2^k1 4^k2 12^1,2)", "1<=k1<=18, 1<=k2<=22", None),
    ("LOA(96,2^k1 4^k2 6^1,2)", "2<=k1<=17, 1<=k2<=23", None),
    ("LOA(100,2^k1 5^k2,2)", "2<=k1<=40, 2<=k2<=4", None),
    ("LOA(40,5^1 2^k,3)", "3<=k<=6", "oa40_5e1_2e6"),
    ("LOA(48,4^1 3^1 2^k,3)", "2<=k<=4", "oa48_4e1_3e1_2e4"),
    ("LOA(48,3^1 2^k,3)", "4<=k<=9", "oa48_3e1_2e9"),
    ("LOA(54,3^k 2^1,3)", "3<=k<=5", "oa54_3e5_2e1"),
)

# -- Table 3: juxtapositions -----------------------------------------------------
# (ingredients, condition, result, status, plan root, note); the claim is the result

_T3 = (
    ("LOA(20,5^1 2^8,2) + LOA(28,7^1 2^8,2)", "20/5 = 28/7",
     "LOA(48,12^1 2^8,2)", "synthesizable", Juxtapose(
         leaf("fixture", name="oa20_2e8_5e1", lead_level=5),
         leaf("fixture", name="oa28_2e12_7e1", lead_level=7, width=9)), ""),
    ("LOA(24,4^1 3^1 2^13,2) + LOA(36,6^1 3^1 2^13,2)", "24/4 = 36/6",
     "LOA(60,10^1 3^1 2^13,2)", "fixture-required", None,
     "needs the 36-run source array"),
    ("LOA(16,4^1 2^9,2) + LOA(44,11^1 2^9,2)", "16/4 = 44/11",
     "LOA(60,15^1 2^9,2)", "fixture-required", None,
     "needs the 16-run source array"),
    ("LOA(20,5^1 2^8,2) + LOA(44,11^1 2^8,2)", "20/5 = 44/11",
     "LOA(64,16^1 2^8,2)", "synthesizable", Juxtapose(
         leaf("fixture", name="oa20_2e8_5e1", lead_level=5),
         leaf("fixture", name="oa44_2e16_11e1", lead_level=11, width=9)), ""),
    ("LOA(24,4^1 3^1 2^13,2) + LOA(40,5^1 4^1 2^13,2)", "24/3 = 40/5",
     "LOA(64,8^1 4^1 2^13,2)", "fixture-required", None,
     "needs the 40-run source array"),
    ("LOA(16,4^1 2^9,2) + LOA(52,13^1 2^9,2)", "16/4 = 52/13",
     "LOA(68,17^1 2^9,2)", "fixture-required", None, ""),
    ("LOA(28,7^1 2^12,2) + LOA(44,11^1 2^12,2)", "28/7 = 44/11",
     "LOA(72,18^1 2^12,2)", "synthesizable", Juxtapose(
         leaf("fixture", name="oa28_2e12_7e1", lead_level=7),
         leaf("fixture", name="oa44_2e16_11e1", lead_level=11, width=13)), ""),
    ("LOA(36,9^1 2^13,2) + LOA(40,10^1 2^13,2)", "36/9 = 40/10",
     "LOA(76,19^1 2^13,2)", "fixture-required", None, ""),
    ("LOA(44,11^1 2^13,2) + LOA(36,9^1 2^13,2)", "44/11 = 36/9",
     "LOA(80,20^1 2^13,2)", "fixture-required", None,
     "needs the 36-run source array"),
    ("LOA(36,6^1 3^1 2^13,2) + LOA(48,8^1 3^1 2^13,2)", "36/6 = 48/8",
     "LOA(84,14^1 3^1 2^18,2)", "unreconciled", None,
     "2^13 tails cannot yield the printed 2^18"),
    ("LOA(36,9^1 2^13,2) + LOA(48,12^1 2^13,2)", "36/9 = 48/12",
     "LOA(84,21^1 2^13,2)", "fixture-required", None,
     "the 48-run ingredient needs 2^13 tails; the reproducible one has 2^8"),
    ("LOA(28,7^1 2^12,2) + LOA(56,7^1 4^1 2^11,2)", "28/2 = 56/4",
     "LOA(84,7^1 6^1 2^11,2)", "fixture-required", None, ""),
    ("LOA(24,6^1 2^13,2) + LOA(68,17^1 2^13,2)", "24/6 = 68/17",
     "LOA(92,23^1 2^13,2)", "fixture-required", None, ""),
    ("LOA(44,11^1 2^16,2) + LOA(52,13^1 2^16,2)", "44/11 = 52/13",
     "LOA(96,24^1 2^16,2)", "fixture-required", None,
     "needs the 52-run source array"),
    ("LOA(24,4^1 3^1 2^13,2) + LOA(56,7^1 4^1 2^13,2)", "24/3 = 56/7",
     "LOA(80,10^1 4^1 2^13,2)", "fixture-required", None, ""),
    ("LOA(24,4^1 3^1 2^13,2) + LOA(48,8^1 3^1 2^13,2)", "24/4 = 48/8",
     "LOA(72,12^1 3^1 2^13,2)", "fixture-required", None, ""),
    ("LOA(52,13^1 2^13,2) + LOA(36,9^1 2^13,2)", "52/13 = 36/9",
     "LOA(88,22^1 2^13,2)", "fixture-required", None, ""),
    ("LOA(40,10^1 2^9,2) + LOA(68,17^1 2^9,2)", "40/10 = 68/17",
     "LOA(108,27^1 2^9,2)", "fixture-required", None, ""),
    ("LOA(36,9^1 2^13,2) + LOA(80,20^1 2^13,2)", "36/9 = 80/20",
     "LOA(116,29^1 2^13,2)", "fixture-required", None, ""),
    ("LOA(40,5^1 4^1 2^25,2) + LOA(80,8^1 5^1 2^25,2)", "40/4 = 80/8",
     "LOA(120,12^1 5^1 2^25,2)", "fixture-required", None, ""),
    ("LOA(72,9^1 4^1 2^37,2) + LOA(56,7^1 4^1 2^37,2)", "72/9 = 56/7",
     "LOA(128,16^1 4^1 2^37,2)", "fixture-required", None, ""),
    ("LOA(64,16^1 2^9,2) + LOA(68,17^1 2^9,2)", "64/16 = 68/17",
     "LOA(132,33^1 2^9,2)", "fixture-required", None,
     "the reproducible 64-run set has only 2^8 tails"),
    ("LOA(32,10,2,3) + LOA(48,3^1 2^9,3)", "32/2 = 48/3",
     "LOA(80,5^1 2^9,3)", "synthesizable", Juxtapose(
         Expand(leaf("sylvester3", n=4, k=10)), leaf("fixture", name="oa48_3e1_2e9")), ""),
    ("LOA(32,4^1 2^5,3) + LOA(48,4^1 3^1 2^4,3)", "32/2 = 48/3",
     "LOA(80,5^1 4^1 2^4,3)", "fixture-required", None,
     "needs the 32-run mixed source array"),
)

# -- Table 4: Kronecker pairings -------------------------------------------------
# (the same columns as table 3)

_T4 = (
    ("LOA(2,3,2,1) x LOA(44,11^1 2^4,2)", "h=4", "OA(352,11^1 2^7,4)",
     "synthesizable", Kronecker(
         leaf("cosets", v=2, k=3),
         leaf("fixture", name="oa44_2e16_11e1", lead_level=11, width=5)), ""),
    ("LOA(24,6^1 4^1 2^2,2) x LOA(4,2,4,1)", "h=4", "OA(384,6^1 4^3 2^2,4)",
     "fixture-required", None, ""),
    ("LOA(2,3,2,1) x LOA(52,13^1 2^4,2)", "h=4", "OA(416,13^1 2^7,4)",
     "fixture-required", None, ""),
    ("LOA(2,3,2,1) x LOA(68,17^1 2^4,2)", "h=4", "OA(544,17^1 2^7,4)",
     "fixture-required", None, ""),
    ("LOA(2,3,2,1) x LOA(76,19^1 2^4,2)", "h=4", "OA(608,19^1 2^7,4)",
     "fixture-required", None, ""),
    ("LOA(2,3,2,1) x LOA(84,14^1 6^1 2^2,2)", "h=4", "OA(672,14^1 6^1 2^5,4)",
     "fixture-required", None, ""),
    ("LOA(4,2,4,1) x LOA(44,11^1 2^4,2)", "h=4", "OA(704,11^1 2^4 4^2,4)",
     "synthesizable", Kronecker(
         leaf("cosets", v=4, k=2),
         leaf("fixture", name="oa44_2e16_11e1", lead_level=11, width=5)), ""),
    ("LOA(2,3,2,1) x LOA(116,29^1 2^4,2)", "h=4", "OA(928,29^1 2^7,4)",
     "fixture-required", None, ""),
    ("LOA(2,3,2,1) x LOA(120,12^1 10^1 2^2,2)", "h=4", "OA(960,12^1 10^1 2^5,4)",
     "fixture-required", None, ""),
    ("LOA(2,3,2,1) x LOA(132,12^1 6^1 2^2,2)", "h=4", "OA(1056,22^1 6^1 2^5,4)",
     "unreconciled", None,
     "the 12^1 ingredient cannot headline a 22^1 output"),
    ("LOA(2,3,2,1) x LOA(144,24^1 6^1 2^2,2)", "h=4", "OA(1152,24^1 6^1 2^5,4)",
     "fixture-required", None, ""),
    ("LOA(4,3,2,2) x LOA(36,6^1 3^1 2^2,2)", "h=2", "OA(288,6^1 3^1 2^5,5)",
     "fixture-required", None, ""),
    ("LOA(2,3,2,1) x LOA(48,4^1 3^1 2^4,3)", "h=4", "OA(384,3^1 4^1 2^7,5)",
     "synthesizable", Kronecker(
         leaf("cosets", v=2, k=3), leaf("fixture", name="oa48_4e1_3e1_2e4")), ""),
    ("LOA(2,3,2,1) x LOA(80,5^1 4^1 2^4,3)", "h=4", "OA(640,5^1 4^1 2^7,5)",
     "fixture-required", None, ""),
    ("LOA(2,4,2,1) x LOA(40,5^1 2^6,3)", "h=8", "OA(640,5^1 2^10,5)",
     "synthesizable", Kronecker(
         leaf("cosets", v=2, k=4), leaf("fixture", name="oa40_5e1_2e6")), ""),
    ("LOA(2,4,2,1) x LOA(56,2^6 7^1,3)", "h=8", "OA(896,7^1 2^10,5)",
     "synthesizable", Kronecker(
         leaf("cosets", v=2, k=4),
         Juxtapose(Expand(leaf("sylvester3", n=3, k=7)),
                   leaf("fixture", name="oa40_5e1_2e6"))), ""),
    ("LOA(12,3^1 2^4,2) x LOA(20,5^1 2^4,2)", "h=4", "OA(960,5^1 3^1 2^8,5)",
     "fixture-required", None, ""),
    ("LOA(12,3^1 2^4,2) x LOA(24,4^1 3^1 2^3,2)", "h=4", "OA(1153,4^1 3^2 2^7,5)",
     "unreconciled", None, "1153 is odd and cannot equal h*12*24"),
    ("LOA(12,3^1 2^4,2) x LOA(28,7^1 2^4,2)", "h=4", "OA(1344,7^1 3^1 2^8,5)",
     "fixture-required", None, ""),
    ("LOA(12,3^1 2^4,2) x LOA(16,6,2,3)", "h=4", "OA(768,3^1 2^10,6)",
     "fixture-required", None, "needs the 12-run source array"),
    ("LOA(8,4^1 2^4,2) x LOA(40,5^1 2^6,3)", "h=8", "OA(2560,5^1 4^1 2^10,6)",
     "fixture-required", None, ""),
)

# -- Table 5: the new large-set families ------------------------------------------

_T5 = (
    ("LOA(2^n,k,2,2)", "n>=2, n<=k<=2^n-1",
     "oaforge construct sylvester2 --n 3 --k 7 --expand -o out.loa",
     Expand(leaf("sylvester2", n=3, k=7)), "LOA(8,2^7,2)", ""),
    ("LOA(2^(n+1),k,2,3)", "n>=2, n+1<=k<=2^n",
     "oaforge construct sylvester3 --n 3 --k 8 --expand -o out.loa",
     Expand(leaf("sylvester3", n=3, k=8)), "LOA(16,2^8,3)", ""),
    ("LOA(v^3,k,v,2)", "v>=4, v != 2 (mod 4), 4<=k<=13",
     "oaforge construct chai1 --v 4 --keep 0,1,6,2,3,4 --expand -o out.loa",
     Expand(Project(leaf("chai1", v=4), (0, 1, 6, 2, 3, 4))), "LOA(64,4^6,2)", ""),
    # its 4^25-member expansion could never be built; the self-check is the verdict
    ("LOA(v^4,k,v,2)", "v>=4, v != 2 (mod 4), 4<=k<=29",
     "oaforge construct chai2 --v 4 -o out.oa", leaf("chai2", v=4), "OA(256,4^29,2)",
     "the 29-column development self-check rejects the printed row formula"
     " (duplicated column pair); the command reports the verdict"),
    ("LOA(q^4,k,q,3)", "prime power q>=3, 4<=k<=q^2+1",
     "oaforge construct q4t3 --q 3 --k 10 --expand -o out.loa",
     Expand(leaf("q4t3", q=3, k=10)), "LOA(81,3^10,3)", ""),
)

# -- Table 6: derived symmetric families -------------------------------------------
# (result, constraints, substitution, theorem, representative params, status, note)

_T6 = (
    ("OA(q^(k2+1),2k2-3,q,5)", "prime power q>=3, 4<=k2<=q^2+1",
     "v=q, k1=k2-1 in v1+q4-3", "v1+q4-3", "v=3,k1=3,q=3,k2=4", "synthesizable", ""),
    ("OA(2^(k2+1),2k2-n+1,2,4)", "n>=2, n<=k2<=2^n-1",
     "v=2, k1=k2-n+3 in v12n-4", "v12n-4", "v=2,k1=4,n=2,k2=3", "synthesizable", ""),
    ("OA(2^(k2+1),2k2-n,2,5)", "n>=2, n+1<=k2<=2^n",
     "v=2, k1=k2-n+2, b=3 in v12n-4", "v12n-4", "v=2,k1=4,n=2,k2=4,b=3", "synthesizable", ""),
    ("OA(2^(k+n),2k,2,5)", "n>=2, n<=k<=2^n-1",
     "q=2, k1=k2=k, m=n in qn2n-com", "qn2n-com", "q=2,m=2,k1=3,n=2,k2=3", "synthesizable", ""),
    ("OA(2^(k1+n),2k1+1,2,6)", "n>=2, n<=k1<=2^n-1",
     "q=2, k1=k2'-1, m=n, b=3 in qn2n-com", "qn2n-com",
     "q=2,m=2,k1=3,n=2,k2=4,b=3", "unreconciled",
     "the pairing yields 2^(k1+n+1) runs, not the printed 2^(k1+n)"),
    ("OA(q^(k2+4),2k2+2,q,6)", "prime power q>=3, 4<=k2<=q+1",
     "p=q, k1=k2+2, n=2 in qn2q43=6", "qn2q43=6", "p=3,k1=6,q=3,n=2,k2=4", "synthesizable", ""),
    ("OA(q^(k+4),2k,q,6)", "prime power q>=3, 4<=k<=q^2+1",
     "p=q, k1=k2=k, n=4 in qn2q43=6", "qn2q43=6", "p=3,k1=4,q=3,n=4,k2=4", "synthesizable", ""),
    ("OA(2^(k1*m+n),(2^m)^k1 2^((k1-3)m+n),6)", "m>=1, n>=2, 4<=k1<=2^m+2",
     "q=2^m, k2=m(k1-3)+n in q3323=7", "q3323=7", "q=2,k1=4,n=2,k2=3", "synthesizable", ""),
    ("OA(2^(k1*m+n+1),(2^m)^k1 2^((k1-3)m+n+1),7)", "m>=1, n>=2, 4<=k1<=2^m+2",
     "q=2^m, k2=(k1-3)m+n+1, b=3 in q3323=7", "q3323=7",
     "q=2,k1=4,n=2,k2=4,b=3", "synthesizable", ""),
    ("OA(q^((k-4)t+4),(q^(k-4))^t q^k,t+3)", "prime power q>=3, t>=2, 4<=k<=q^2+1",
     "s=q^(k-4) in t-1q43=t+3", "t-1q43=t+3", "s=3,t=2,q=3,k=5", "synthesizable", ""),
    ("OA(2^(m*k1+n),(2^m)^k1 2^(m(k1-t)+n),t+3)", "m>=1, n,t>=2, 2<=k1<=2^m+1",
     "q=2^m, k2=m(k1-t)+n in qt2n2-3", "qt2n2-3", "q=2,t=2,k1=3,n=2,k2=3", "synthesizable", ""),
    ("OA(2^(m*k1+n+1),(2^m)^k1 2^(m(k1-t)+n+1),t+4)", "m>=3, n,t>=2, 7<=k1<=2^m+1",
     "q=2^m, k2=m(k1-t)+n+1, b=3 in qt2n2-3", "qt2n2-3",
     "q=8,t=2,k1=7,n=5,k2=21,b=3", "synthesizable",
     "smallest instance has 2^27 runs; beyond the desk-scale run budget"),
    ("OA(2^((k1-n)t+n),(2^(k1-n))^t 2^k1,t+2)", "t>=2, n>=2, n<=k1<=2^n-1",
     "s=2^(k1-n) in tt-1n2-3", "tt-1n2-3", "s=2,t=2,n=2,k1=3", "synthesizable", ""),
    ("OA(2^((k1-n-1)t+n+1),(2^(k1-n-1))^t 2^k1,t+3)", "t>=2, n>=2, n+1<=k1<=2^n",
     "s=2^(k1-n-1), b=3 in tt-1n2-3", "tt-1n2-3", "s=2,t=2,n=2,k1=4,b=3", "synthesizable", ""),
    ("OA(q^(k1+t),q^(2k1+t-4),t+4)", "prime power q>=3, 2<=t<=q+1, 4<=k1<=q+5-t",
     "p=q, k2=k1+t-4 in qtp43", "qtp43", "p=3,k1=4,q=3,t=2,k2=2", "synthesizable", ""),
)

# -- the thirteen composite recipes -------------------------------------------------

_THEOREMS = (
    ("v1+v3-2", "OA(v^(k+1),2k-2,v,4) and OA(v^(k+2),2k-1,v,4)",
     "v>=4, v != 2 (mod 4), 5<=k<=13 resp. 14<=k<=28", "v=4,k=5", ""),
    ("doublev3-2", "OA(v^(k+3),2k,v,5) and OA(v^(k+4),2k,v,5)",
     "v>=4, v != 2 (mod 4), 5<=k<=13 resp. 14<=k<=29", "v=4,k=5", ""),
    ("v1+q4-3", "OA(v q^4 h, v^(k1-2) q^k2, 5)",
     "k1>=3, prime power q>=3, 4<=k2<=q^2+1, h=lcm(v^(k1-3),q^(k2-4))",
     "v=2,k1=3,q=3,k2=4", ""),
    ("v12n-4", "OA(2^n v h1, v^(k1-2) 2^k2, 4); OA(2^(n+1) v h2, v^(k1-2) 2^k2, 5)",
     "k1>=3, n>=2, n<=k2<=2^n-1 resp. n+1<=k2<=2^n", "v=2,k1=4,n=2,k2=3", ""),
    ("qn2n-com", "OA(2^n q^m h, q^k1 2^k2, 5); OA(2^(n+1) q^m h', q^k1 2^k2, 6)",
     "2<=m<=k1<=(q^m-1)/(q-1), n>=2", "q=2,m=2,k1=3,n=2,k2=3",
     "the strength-6 variant's stated size carries a 2^n factor; the pairing"
     " yields 2^(n+1)"),
    ("qn2v32=5", "OA(q^m v^3 h, q^k1 v^k2, 5); OA(q^m v^4 h', q^k1 v^k2, 5)",
     "2<=m<=k1<=(q^m-1)/(q-1), v>=4, v != 2 (mod 4), 4<=k2<=13 resp. 29",
     "q=3,m=2,k1=4,v=4,k2=4", ""),
    ("qn2q43=6", "OA(p^4 q^n h, p^k1 q^k2, 6)",
     "prime powers p,q>=3, 4<=k1<=p^2+1, 2<=n<=k2<=(q^n-1)/(q-1)",
     "p=3,k1=4,q=3,n=2,k2=2", ""),
    ("qn3q43=7", "OA(p^4 q^3 h, p^k1 q^k2, 7)",
     "prime powers p,q>=3, 4<=k1<=p^2+1, 3<=k2<=q+1",
     "p=3,k1=4,q=3,k2=3", ""),
    ("q3323=7", "OA(2^n q^3 h, q^k1 2^k2, 6); OA(2^(n+1) q^3 h', q^k1 2^k2, 7)",
     "q=2^m, 3<=k1<=q+2, n>=2", "q=2,k1=3,n=2,k2=3", ""),
    ("t-1q43=t+3", "OA(q^4 s^(t-1) h, q^k s^t, t+3)",
     "s,t>=2, prime power q>=3, 4<=k<=q^2+1, h=lcm(s,q^(k-4))",
     "s=2,t=2,q=3,k=4", ""),
    ("qt2n2-3", "OA(2^n q^t h, q^k1 2^k2, t+3); OA(2^(n+1) q^t h', q^k1 2^k2, t+4)",
     "prime power q, 1<=t<=k1<=q+1, n>=2", "q=3,t=2,k1=3,n=2,k2=3", ""),
    ("tt-1n2-3", "OA(2^n s^(t-1) h, 2^k1 s^t, t+2); OA(2^(n+1) s^(t-1) h', 2^k1 s^t, t+3)",
     "s,t,n>=2", "s=2,t=2,n=2,k1=3", ""),
    ("qtp43", "OA(p^4 q^t h, p^k1 q^k2, t+4)",
     "prime powers p,q>=3, 4<=k1<=p^2+1, 2<=t<=k2<=q+1",
     "p=3,k1=4,q=3,t=2,k2=2", ""),
)


def _entries_table1() -> list[CatalogEntry]:
    return [
        CatalogEntry(
            source=f"table1 row {i + 1}",
            result=row[1],
            params=row[2],
            status="fixture-required",
            command=("oaforge expand <imported-source.oa> -o out.loa"),
            note=f"source {row[0]} lives in an external catalog",
        )
        for i, row in enumerate(_T1)
    ]


def _entries_table2() -> list[CatalogEntry]:
    fixtures = {f.name: f for f in FIXTURES}
    out = []
    for i, (result, params, name) in enumerate(_T2):
        if name is None:
            out.append(CatalogEntry(
                source=f"table2 row {i + 1}", result=result, params=params,
                status="fixture-required",
                command="oaforge expand <transcribed-fixture.txt> -o out.loa",
                note="the backing reference array is not in the shipped corpus",
            ))
        else:
            fx = fixtures[name]
            out.append(CatalogEntry(
                source=f"table2 row {i + 1}", result=result, params=params,
                status="synthesizable",
                command=(f"oaforge expand {FIX}/{name}.txt "
                         f"--columns {','.join(map(str, fx.marked))} -o out.loa"),
                runner=ConstructionPlan(leaf("fixture", name=name),
                                        _claim(f"LOA({fx.n},{fx.profile},{fx.t})")),
            ))
    return out


def _entries_composed(table: str, rows) -> list[CatalogEntry]:
    """Table 3 or table 4: each synthesizable row's plan is checked against
    the row's printed result."""
    out = []
    for i, (ingredients, cond, result, status, root, note) in enumerate(rows):
        command = None
        if status == "synthesizable":
            command = f"oaforge catalog {table} --run  # row {i + 1}: {ingredients}"
        out.append(CatalogEntry(
            source=f"{table} row {i + 1}", result=result,
            params=f"{ingredients}; {cond}", status=status, command=command, note=note,
            runner=None if root is None else ConstructionPlan(root, _claim(result)),
        ))
    return out


def _entries_table5() -> list[CatalogEntry]:
    return [
        CatalogEntry(
            source=f"table5 row {i + 1}", result=result, params=params,
            status="synthesizable", command=command, note=note,
            runner=ConstructionPlan(root, _claim(claim)),
        )
        for i, (result, params, command, root, claim, note) in enumerate(_T5)
    ]


def _entries_table6() -> list[CatalogEntry]:
    out = []
    for i, (result, constraints, subst, theorem, rep, status, note) in enumerate(_T6):
        out.append(CatalogEntry(
            source=f"table6 row {i + 1}", result=result,
            params=f"{constraints}; {subst}", status=status,
            command=f"oaforge theorem '{theorem}' --params {rep} -o out.oa",
            note=note, runner=plan_theorem(theorem, parse_params(rep)),
        ))
    return out


def _entries_theorems() -> list[CatalogEntry]:
    return [
        CatalogEntry(
            source=f"theorem {tid}", result=result, params=params,
            status="synthesizable",
            command=f"oaforge theorem '{tid}' --params {rep} -o out.oa",
            note=note, runner=plan_theorem(tid, parse_params(rep)),
        )
        for tid, result, params, rep, note in _THEOREMS
    ]


def catalog(query: str) -> list[CatalogEntry]:
    """Entries for one table, for the recipe theorems, or for everything."""
    views = {
        "table1": _entries_table1,
        "table2": _entries_table2,
        "table3": lambda: _entries_composed("table3", _T3),
        "table4": lambda: _entries_composed("table4", _T4),
        "table5": _entries_table5,
        "table6": _entries_table6,
        "theorems": _entries_theorems,
    }
    if query == "all":
        out: list[CatalogEntry] = []
        for view in views.values():
            out.extend(view())
        return out
    if query not in views:
        raise ValueError(f"unknown catalog query {query!r}; use "
                         f"{', '.join(views)} or all")
    return views[query]()


def run_entry(entry: CatalogEntry) -> str:
    """Execute one synthesizable entry's plan, checked against its claim, and
    describe the verified artifact; raises on any verification failure."""
    if entry.runner is None:
        raise ValueError(f"{entry.source} has no runner")
    out = execute_plan(entry.runner)
    if isinstance(out, LargeSet):
        return f"LOA({out.n},{out.profile.format()},{out.t}) with M={out.m} verified"
    return f"OA({out.n},{out.profile.format()},{out.t}) verified"


def run_entries(entries, budget: int = work.DEFAULT_BUDGET) -> list[tuple[CatalogEntry, str]]:
    """Run every synthesizable entry whose cost fits the budget; outcomes are
    'verified ...', 'failed: ...', 'skipped(budget)', 'needs-fixture', or
    'unreconciled'."""
    out = []
    for entry in entries:
        if entry.status == "fixture-required":
            out.append((entry, "needs-fixture"))
        elif entry.status == "unreconciled":
            out.append((entry, "unreconciled"))
        elif entry.status == "out-of-scope":
            out.append((entry, "out-of-scope"))
        elif entry.cost > budget:
            out.append((entry, "skipped(budget)"))
        else:
            try:
                out.append((entry, run_entry(entry)))
            except VerificationError as exc:
                out.append((entry, f"failed: {exc}"))
    return out
