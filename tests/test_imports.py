"""What `import oaforge` loads.  A command's start-up, and the benchmark's
set-up time, is a fresh interpreter importing the package, so the modules it
pulls in are pinned here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import oaforge


def test_import_loads_only_the_core_modules():
    code = "import json, sys; import oaforge; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(oaforge.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    loaded = json.loads(done.stdout)
    assert [m for m in loaded if m.partition(".")[0] == "oaforge"] == [
        "oaforge", "oaforge.arrays", "oaforge.errors", "oaforge.expand", "oaforge.formats",
        "oaforge.gf"]
    assert [m for m in loaded if m.partition(".")[0] == "scipy"] == []


def test_theorem_and_large_set_checks_leave_numpy_ma_unloaded():
    """A plain `np.unique` imports numpy.ma on first use, which costs a fresh
    process more than a small theorem's whole run; the Kronecker count and
    the relabelling certificate of `verify_large_set` must not pull it in."""
    code = (
        "import sys\n"
        "from oaforge import algebraic, arrays, compose, expand\n"
        "out = compose.execute_plan(compose.plan_theorem('v1+v3-2', {'v': 4, 'k': 6}))\n"
        "ls = expand.expand_shift(*algebraic.sylvester_oa2(3, 5))\n"
        "assert arrays._relabels(ls.cells, ls.profile.levels)[1:].all()\n"
        "assert arrays.verify_large_set(ls, 2).ok\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(oaforge.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "False"


def test_public_names_are_the_ones_readme_lists():
    """A change to the public surface is deliberate: it changes this list and
    README's together."""
    assert oaforge.__all__ == [
        "Field", "LargeSet", "LevelProfile", "ResolvableProjection", "StrengthReport",
        "SymbolMatrix", "brute_force_strength", "check_resolvable_projection", "expand_shift",
        "find_irreducible", "find_resolvable_projection", "full_factorial", "make_field",
        "project_columns", "read_array", "verify_large_set", "verify_simple", "verify_strength",
        "write_array"]
    assert all(hasattr(oaforge, name) for name in oaforge.__all__)
