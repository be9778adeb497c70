"""numpy loads only where arrays are computed, and dataclasses nowhere.

The solver, the bounds and the curve commands are scalar math; only the
simulator and tabulated kernels import numpy.  Every record is a
NamedTuple (SimState a plain class), so no job needs dataclasses.
Each check runs in a fresh interpreter, since the test process already
holds numpy.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import wavespeed
from wavespeed import front_sim

SRC = str(Path(wavespeed.__file__).resolve().parent.parent)

SCALAR_JOBS = [
    ["speed", "--p", "2", "--h", "1", "--kernel", "gaussian:alpha=1"],
    ["speed", "--p", "2", "--h", "0", "--kernel", "dirac"],
    ["bounds", "--p", "2", "--h", "1", "--kernel", "uniform:a=1"],
    ["curve", "--p", "2", "--kernel", "twopoint:a=1", "--samples", "5",
     "--out", "direct.csv", "--svg", "direct.svg"],
    ["curve", "--p", "2", "--kernel", "gaussian:alpha=1", "--h-max", "2",
     "--samples", "11", "--method", "ode", "--out", "ode.csv"],
    ["curves", "--p", "2", "--h", "1", "--kernel", "dirac", "--samples", "9",
     "--out", "curves.csv"],
    ["verify"],
    ["verify", "--kernel", "dirac"],
    ["figure2", "--out", "figure2.csv"],
]


def _loaded_after(code: str, cwd: Path) -> set:
    """Run code in a new interpreter; which of numpy and dataclasses it
    left imported."""
    script = (f"import sys\nsys.path.insert(0, {SRC!r})\n{code}\n"
              "print('loaded:', *{'numpy', 'dataclasses'} & set(sys.modules))")
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.strip().splitlines()[-1].split()
    assert last[0] == "loaded:", proc.stdout
    return set(last[1:])


def _cli(argv) -> str:
    return f"assert wavespeed.cli.main({argv!r}) == 0"


def test_scalar_jobs_never_load_numpy(tmp_path):
    # nor dataclasses: every record is a NamedTuple or a plain class
    code = "\n".join(["import wavespeed, wavespeed.cli"]
                     + [_cli(argv) for argv in SCALAR_JOBS])
    assert _loaded_after(code, tmp_path) == set()
    assert (tmp_path / "figure2.csv").is_file()


@pytest.mark.parametrize("code", [
    _cli(["simulate", "--p", "2", "--h", "0", "--kernel", "dirac",
          "--t-end", "1"]),
    _cli(["speed", "--p", "2", "--h", "1", "--kernel", "table:atoms.csv"]),
    "wavespeed.kernels.tabulated_twin(wavespeed.GaussianKernel(1.0))",
], ids=["simulate", "table-kernel", "tabulated-twin"])
def test_array_jobs_load_numpy(tmp_path, code):
    (tmp_path / "atoms.csv").write_text("s,weight\n0,1\n1,1\n", encoding="utf-8")
    assert "numpy" in _loaded_after("import wavespeed, wavespeed.cli\n" + code,
                                    tmp_path)


def test_star_import_resolves_every_name():
    names = {}
    exec("from wavespeed import *", names)
    assert set(wavespeed.__all__) <= set(names)
    assert names["SimConfig"] is front_sim.SimConfig
    assert names["TabulatedKernel"] is wavespeed.kernels.TabulatedKernel
    assert set(wavespeed.__all__) | {"front_sim"} <= set(dir(wavespeed))


def test_simulator_names_follow_front_sim(monkeypatch):
    # looked up on every access, so a patch on front_sim shows through
    assert wavespeed.front_sim is front_sim
    assert wavespeed.run is front_sim.run

    def patched(*args, **kwargs):
        raise AssertionError("not called")
    monkeypatch.setattr(front_sim, "run", patched)
    assert wavespeed.run is patched


def test_unknown_names_raise_attribute_error():
    for module in (wavespeed, wavespeed.kernels):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(module, "no_such_name")
