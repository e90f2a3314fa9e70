"""A fresh ``import ifslab`` loads numpy but no scipy module: the commands
that measure no distance between clouds never load one, and the first cloud
distance or conflict graph in a process loads ``scipy.spatial``, with
unchanged results."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from test_thinning import naive_thin, planted_cloud

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _fresh(code, cwd):
    """The last line of stdout, as JSON, of ``code`` run in a fresh isolated
    interpreter that imports ``ifslab`` from this checkout."""
    code = f"import sys\nsys.path.insert(0, {SRC!r})\n{code}"
    out = subprocess.run([sys.executable, "-I", "-c", code], cwd=cwd,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


SCIPY_LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"


@pytest.mark.parametrize("argv", [
    None,
    ["presets", "list"],
    ["presets", "write", "example2_parallel", "--out", "c.json"],
    ["driver", "gen", "--kind", "disjunctive", "--alphabet", "2", "--n", "34", "--out", "seq.txt"],
    ["driver", "audit", "seq.txt", "--m", "3"],
    ["kaczmarz", "sys.csv", "--driver", "cyclic", "--tol", "1e-12", "--out", "k.json"],
], ids=["import", "presets-list", "presets-write", "driver-gen", "driver-audit", "kaczmarz"])
def test_commands_without_cloud_distances_load_no_scipy(tmp_path, argv):
    # a disjunctive prefix, which passes its audit, and a consistent system
    (tmp_path / "seq.txt").write_text("\n".join("1112122211") + "\n")
    (tmp_path / "sys.csv").write_text("1,0,1\n0,1,2\n1,1,3\n")
    call = "" if argv is None else f"assert ifslab.cli.main({argv!r}) == 0\n"
    assert _fresh(f"import json, ifslab, ifslab.cli\n{call}{SCIPY_LOADED}", tmp_path) == []


def test_hausdorff_loads_scipy_spatial_on_first_use(tmp_path):
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((300, 3)), rng.standard_normal((500, 3))
    np.save(tmp_path / "a.npy", a)
    np.save(tmp_path / "b.npy", b)
    before, after, dist = _fresh(
        "import json, numpy as np\nfrom ifslab import omega\n"
        "before = 'scipy.spatial' in sys.modules\n"
        "dist = omega.hausdorff(np.load('a.npy'), np.load('b.npy'))\n"
        "print(json.dumps([before, 'scipy.spatial' in sys.modules, dist.hex()]))", tmp_path)
    d = cdist(a, b)
    assert (before, after) == (False, True)
    assert float.fromhex(dist) == max(d.min(axis=1).max(), d.min(axis=0).max())


def test_conflict_graph_loads_scipy_spatial_on_first_use(tmp_path):
    # one block of 2,001 points with 20 near-duplicates on the eps boundary:
    # no earlier block to screen against, so only the conflict graph can
    # load scipy.spatial
    pts = planted_cloud(8, 2001, 50, 1e-9, planted=20)
    np.save(tmp_path / "pts.npy", pts)
    before, after = _fresh(
        "import json, numpy as np\nfrom ifslab import greedy_thin\n"
        "before = 'scipy.spatial' in sys.modules\n"
        "np.save('kept.npy', greedy_thin(np.load('pts.npy'), 1e-9))\n"
        "print(json.dumps([before, 'scipy.spatial' in sys.modules]))", tmp_path)
    assert (before, after) == (False, True)
    assert np.array_equal(np.load(tmp_path / "kept.npy"), naive_thin(pts, 1e-9))
