"""The package surface: one export table, resolved on first lookup, and numpy and each
model module loaded only by the runs that use them."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lexsim

CONFIG_DIR = "configs"
# the shipped configs whose runs compute no array
ANALYTIC = {"equilibrium_golden": "equilibrium", "equilibrium_shock": "equilibrium",
            "frivolous_nuisance": "frivolous", "composition_docket": "composition",
            "sweep_litigation_delta": "sweep"}
MODEL_MODULES = {"contracts", "settlement", "frivolous", "evolution", "composition"}
# the model modules each shipped config's run uses; evolution imports three others
USES = {"equilibrium_golden": {"contracts"}, "equilibrium_shock": {"contracts"},
        "frivolous_nuisance": {"frivolous"}, "composition_docket": {"composition"},
        "sweep_litigation_delta": {"contracts"}, "settle_fixture": {"settlement"},
        "evolve_tort": MODEL_MODULES - {"composition"}}


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

    def test_every_class_and_function_is_defined_by_its_owner(self):
        data = []
        for module, names in lexsim._EXPORTS.items():
            for name in names.split():
                value = getattr(lexsim, name)
                if callable(value):
                    assert value.__module__ == f"lexsim.{module}", name
                else:
                    data.append(name)
        assert data == ["MODELS"]

    def test_dir_lists_every_public_name_and_submodule(self):
        listed = dir(lexsim)
        assert set(lexsim.__all__) <= set(listed)
        assert set(lexsim._EXPORTS) <= set(listed)
        assert listed == sorted(listed)

    def test_dir_imports_no_submodule(self):
        done = fresh_python("import sys, lexsim\nnames = dir(lexsim)\n"
                            "print(len(names), sorted(m for m in sys.modules "
                            "if m.startswith('lexsim')))")
        assert (done.returncode, done.stdout, done.stderr) == (0, "77 ['lexsim']\n", "")

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'lexsim' has no attribute 'nope'"):
            lexsim.nope


class TestModelsOnFirstUse:
    """A run imports only the model modules it runs: config and runner name each model's
    module, and the package resolves its names, on first use."""

    def test_a_bare_import_loads_no_submodule(self):
        done = fresh_python("import sys, lexsim\n"
                            "print(sorted(m for m in sys.modules if m.startswith('lexsim')))")
        assert (done.returncode, done.stdout, done.stderr) == (0, "['lexsim']\n", "")

    @pytest.mark.parametrize("name", sorted(USES))
    def test_a_cli_run_loads_only_the_models_it_uses(self, name, tmp_path):
        model = ANALYTIC.get(name) or name.split("_")[0]
        argv = [model, "--config", f"{CONFIG_DIR}/{name}.json", "--out",
                str(tmp_path / "out.csv"), "--svg", str(tmp_path / "out.svg")]
        done = fresh_python(
            "import json, sys\nfrom lexsim.cli import main\n"
            f"code = main({argv!r})\n"
            "print(json.dumps([code, [m for m in sys.modules if m.startswith('lexsim.')]]), "
            "file=sys.stderr)\n")
        code, loaded = json.loads(done.stderr.splitlines()[-1])
        assert (code, done.returncode) == (0, 0), done.stderr
        loaded = {m.removeprefix("lexsim.") for m in loaded}
        assert loaded & MODEL_MODULES == USES[name]
        assert loaded - MODEL_MODULES == {"charts", "cli", "config", "errors", "rng", "runner"}


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

    def test_trial_thresholds_leave_numpy_unloaded(self):
        done = fresh_python(
            "import sys\n"
            "from lexsim import AreaKind, FeeRule, LegalArea\n"
            "from lexsim.evolution import _thresholds\n"
            "areas = [LegalArea(name='tort', kind=AreaKind.TORT, dispute_rate=0.5,\n"
            "                   stakes_j=100.0, stakes_multiplier=2.0, cost_q=18.0,\n"
            "                   cost_g=18.0, belief_spread=0.4, fee_rule=rule)\n"
            "         for rule in FeeRule]\n"
            "print([0.5 < u < 1.0 for a in areas for u in _thresholds(a, 6.0)],\n"
            "      'numpy' in sys.modules)\n")
        assert (done.returncode, done.stdout, done.stderr) == \
            (0, "[True, True, True, True] False\n", "")

    def test_config_imports_no_numpy_even_lazily(self):
        """The loader reads every block with no array code; a dispute list's column
        read is `DisputeBatch`'s own."""
        tree = ast.parse(Path(lexsim.config.__file__).read_text())
        modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names]
        modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert "json" in modules and not [m for m in modules if m and m.split(".")[0] == "numpy"]

    @pytest.mark.parametrize("model, name", [("evolve", "evolve_tort"),
                                             ("settle", "settle_fixture")])
    def test_array_runs_load_numpy(self, model, name, tmp_path):
        argv = [model, "--config", f"{CONFIG_DIR}/{name}.json", "--out",
                str(tmp_path / "out.csv")]
        done = fresh_python("import sys\nfrom lexsim.cli import main\n"
                            f"print(main({argv!r}), 'numpy' in sys.modules, file=sys.stderr)\n")
        assert done.stderr.splitlines()[-1] == "0 True"


def test_every_source_parses_at_the_declared_python_floor():
    """A grammar check at pyproject's requires-python floor, not a run on that Python:
    `ast.parse` with `feature_version` rejects the newer syntax it knows, such as except*."""
    root = Path(__file__).resolve().parent.parent
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (root / "pyproject.toml").read_text())
    paths = [path for top in ("src", "tests", "demos", "perfbench")
             for path in sorted((root / top).rglob("*.py"))]
    assert floor and len(paths) > 30
    for path in paths:
        ast.parse(path.read_bytes(), str(path), feature_version=(3, int(floor[1])))
