"""Construction and exhaustive verification of mixed-level orthogonal arrays,
large sets of orthogonal arrays, and difference matrices."""

from .arrays import (
    LargeSet,
    LevelProfile,
    StrengthReport,
    SymbolMatrix,
    brute_force_strength,
    full_factorial,
    project_columns,
    verify_large_set,
    verify_simple,
    verify_strength,
)
from .expand import (
    ResolvableProjection,
    check_resolvable_projection,
    expand_shift,
    find_resolvable_projection,
)
from .formats import read_array, write_array
from .gf import Field, find_irreducible, make_field

__all__ = [
    "Field",
    "LargeSet",
    "LevelProfile",
    "ResolvableProjection",
    "StrengthReport",
    "SymbolMatrix",
    "brute_force_strength",
    "check_resolvable_projection",
    "expand_shift",
    "find_irreducible",
    "find_resolvable_projection",
    "full_factorial",
    "make_field",
    "project_columns",
    "read_array",
    "verify_large_set",
    "verify_simple",
    "verify_strength",
    "write_array",
]

__version__ = "0.1.0"
