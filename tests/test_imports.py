"""weylsys imports on numpy alone; scipy is loaded only for sampled potentials.

Each check runs a fresh interpreter, since the pytest process has scipy
loaded already.  ``sys.modules["scipy"] = None`` makes any import of scipy
raise ImportError.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weylsys
from weylsys import Potential, load_potential_file

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)


def test_import_loads_no_scipy():
    result = _python("import sys, weylsys, weylsys.cli; "
                     "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_import_loads_no_numpy_polynomial():
    # forms evaluates its polynomials by its own Horner rule
    result = _python("import sys, weylsys, weylsys.cli; "
                     "print([m for m in sys.modules if m.startswith('numpy.polynomial')])")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_package_all_is_the_module_lists():
    # each module's __all__ is its public API; the package republishes them in order
    modules = [weylsys.errors, weylsys.potentials, weylsys.mfunc, weylsys.lsystem,
               weylsys.sectorial, weylsys.forms, weylsys.reporting]
    assert weylsys.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(weylsys.__all__)) == len(weylsys.__all__)
    for name in weylsys.__all__:
        assert getattr(weylsys, name) is next(
            getattr(m, name) for m in modules if name in m.__all__)


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "all", "--seed", "1"],
    ["classify", "--mu", "inf", "--h", "i", "--mode", "numeric", "--trials", "3"],
], ids=["verify-all", "classify-numeric"])
def test_cli_runs_with_scipy_blocked(argv):
    result = _python("import sys; sys.modules['scipy'] = None; "
                     f"from weylsys.cli import main; sys.exit(main({argv!r}))")
    assert result.returncode == 0, result.stderr
    assert '"pass": true' in result.stdout


def test_sampled_kinds_load_scipy_when_it_is_there(tmp_path):
    grid = np.linspace(1.0, 6.0, 21)
    pot = Potential.sampled(grid, 2.0 / grid**2)
    assert pot(2.0) == pytest.approx(0.5, rel=1e-3)
    path = tmp_path / "q.txt"
    path.write_text("".join(f"{x} {2.0 / x**2}\n" for x in grid))
    assert load_potential_file(path)(2.0) == pot(2.0)
