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
