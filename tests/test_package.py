"""The package surface: one export table, and numpy loaded only by array code."""

import json
import os
import subprocess
import sys

import pytest

import lexsim

CONFIG_DIR = "configs"
# the shipped configs whose runs compute no array
ANALYTIC = {"equilibrium_golden": "equilibrium", "equilibrium_shock": "equilibrium",
            "frivolous_nuisance": "frivolous", "composition_docket": "composition",
            "sweep_litigation_delta": "sweep"}


def fresh_python(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": "src" + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=False)


class TestExports:
    def test_every_public_name_resolves(self):
        assert len(lexsim.__all__) == len(set(lexsim.__all__)) == 67
        for name in lexsim.__all__:
            assert getattr(lexsim, name) is not None

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from lexsim import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(lexsim.__all__)

    @pytest.mark.parametrize("module", ["config", "runner", "evolution", "contracts",
                                        "settlement"])
    def test_submodules_resolve_after_a_bare_import(self, module):
        done = fresh_python(f"import lexsim; print(lexsim.{module}.__name__)")
        assert (done.returncode, done.stdout, done.stderr) == (0, f"lexsim.{module}\n", "")

    def test_version(self):
        assert lexsim.__version__ == "0.1.0"


class TestNumpyOnFirstArrayUse:
    """A stray module-level `import numpy` would bring back its import cost on every run."""

    @pytest.mark.parametrize("statement", ["import lexsim", "import lexsim.cli"])
    def test_importing_the_package_leaves_numpy_unloaded(self, statement):
        done = fresh_python(f"{statement}; import sys; print('numpy' in sys.modules)")
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")

    def test_analytic_cli_runs_leave_numpy_unloaded(self, tmp_path):
        runs = [[model, "--config", f"{CONFIG_DIR}/{name}.json", "--out",
                 str(tmp_path / f"{name}.csv"), "--svg", str(tmp_path / f"{name}.svg")]
                for name, model in ANALYTIC.items()]
        done = fresh_python(
            "import json, sys\n"
            "from lexsim.cli import main\n"
            f"codes = [main(argv) for argv in {json.dumps(runs)}]\n"
            "print(codes, 'numpy' in sys.modules, file=sys.stderr)\n")
        assert done.stderr.splitlines()[-1] == "[0, 0, 0, 0, 0] False"
        assert sorted(os.listdir(tmp_path)) == sorted(
            f"{name}.{ext}" for name in ANALYTIC for ext in ("csv", "svg"))

    @pytest.mark.parametrize("model, name", [("evolve", "evolve_tort"),
                                             ("settle", "settle_fixture")])
    def test_array_runs_load_numpy(self, model, name, tmp_path):
        argv = [model, "--config", f"{CONFIG_DIR}/{name}.json", "--out",
                str(tmp_path / "out.csv")]
        done = fresh_python("import sys\nfrom lexsim.cli import main\n"
                            f"print(main({argv!r}), 'numpy' in sys.modules, file=sys.stderr)\n")
        assert done.stderr.splitlines()[-1] == "0 True"
