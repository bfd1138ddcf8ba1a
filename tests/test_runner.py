"""End-to-end runs: CSV/SVG emission, sweeps, and the command-line front end."""

import csv
import io
import json
import math
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexsim import (
    ConfigError,
    Dispute,
    DomainError,
    FeeRule,
    OutcomeKind,
    apply_cost_reduction,
    decide,
    load_config,
    run,
    settlement_range,
    shrink_ratio,
)
from lexsim import config, evolution, runner
from lexsim.cli import main
from lexsim.config import SettleParams

GOLDEN_G = (3.0 - math.sqrt(5.0)) / 2.0
CONFIG_DIR = "configs"


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def run_model(model, config_path, out, svg=None):
    cfg = load_config(config_path, model)
    cfg.output_path = str(out)
    if svg is not None:
        cfg.svg_path = str(svg)
    return run(cfg)


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestEquilibriumOutput:
    HEADER = ["b_scale", "beta", "k_scale", "kappa", "delta_contracting",
              "delta_litigation", "g_star_baseline", "g_star_shocked",
              "g_star_change", "level", "residual", "iterations"]

    def test_golden_row(self, tmp_path):
        out = tmp_path / "eq.csv"
        result = run_model("equilibrium", f"{CONFIG_DIR}/equilibrium_golden.json", out)
        assert result.rows == 1
        header, rows = read_csv(out)
        assert header == self.HEADER
        row = dict(zip(header, rows[0]))
        assert float(row["g_star_baseline"]) == pytest.approx(GOLDEN_G, abs=1e-9)
        assert row["g_star_shocked"] == row["g_star_baseline"]
        assert float(row["g_star_change"]) == 0.0
        assert float(row["residual"]) <= 1e-9

    def test_litigation_shock_lowers_completeness(self, tmp_path):
        out = tmp_path / "eq.csv"
        run_model("equilibrium", f"{CONFIG_DIR}/equilibrium_shock.json", out)
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["delta_contracting"]) == 0.3
        assert float(row["g_star_shocked"]) > float(row["g_star_baseline"])

    def test_svg_written_on_request(self, tmp_path):
        out, svg = tmp_path / "eq.csv", tmp_path / "eq.svg"
        result = run_model("equilibrium", f"{CONFIG_DIR}/equilibrium_golden.json", out, svg)
        assert result.svg_path == str(svg)
        text = svg.read_text()
        assert text.startswith("<svg ") and "<polyline" in text


class TestSettleOutput:
    def test_fixture_row(self, tmp_path):
        out = tmp_path / "settle.csv"
        run_model("settle", f"{CONFIG_DIR}/settle_fixture.json", out)
        header, rows = read_csv(out)
        assert header == ["index", "rule", "p_q", "p_g", "j", "c_q", "c_g",
                          "cost_reduction", "lower", "upper", "width", "outcome",
                          "amount", "shrink_ratio"]
        row = dict(zip(header, rows[0]))
        assert row["index"] == "0" and row["rule"] == "american"
        assert row["lower"] == "50" and row["upper"] == "60" and row["width"] == "10"
        assert row["outcome"] == "settle" and row["amount"] == "55"
        assert float(row["shrink_ratio"]) == pytest.approx(1.0 / 0.9, rel=1e-15)

    def test_reduction_rewrites_bounds_but_echoes_costs(self, tmp_path):
        payload = {"settle": {
            "rule": "american",
            "disputes": [{"p_q": 0.6, "p_g": 0.5, "j": 100.0, "c_q": 10.0, "c_g": 10.0}],
            "cost_reduction": 5.0,
        }}
        out = tmp_path / "settle.csv"
        run_model("settle", write_config(tmp_path, payload), out)
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["c_q"] == "10" and row["cost_reduction"] == "5"
        assert row["lower"] == "55" and row["upper"] == "55" and row["width"] == "0"
        assert row["outcome"] == "settle" and row["amount"] == "55"

    def test_trial_row_has_empty_amount(self, tmp_path):
        payload = {"settle": {
            "rule": "english",
            "disputes": [{"p_q": 0.6, "p_g": 0.5, "j": 100.0, "c_q": 10.0, "c_g": 10.0}],
            "cost_reduction": 5.0,
        }}
        out = tmp_path / "settle.csv"
        run_model("settle", write_config(tmp_path, payload), out)
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["outcome"] == "trial" and row["amount"] == ""
        assert float(row["width"]) == pytest.approx(-1.0, abs=1e-12)


class TestFrivolousOutput:
    def test_nuisance_rows(self, tmp_path):
        out = tmp_path / "friv.csv"
        run_model("frivolous", f"{CONFIG_DIR}/frivolous_nuisance.json", out)
        header, rows = read_csv(out)
        assert header == ["plaintiff_type", "belief", "filed", "defendant_action",
                          "plaintiff_followup", "plaintiff_payoff", "defendant_payoff",
                          "region_shift"]
        assert len(rows) == 2
        friv = dict(zip(header, rows[0]))
        merit = dict(zip(header, rows[1]))
        assert friv["plaintiff_type"] == "frivolous"
        assert friv["filed"] == "true" and friv["defendant_action"] == "settle"
        assert friv["plaintiff_payoff"] == "4" and friv["defendant_payoff"] == "-5"
        assert merit["plaintiff_type"] == "meritorious"
        assert merit["plaintiff_payoff"] == "4"
        # deltas are cost cuts; cheaper filing widens the extraction wedge
        assert friv["region_shift"] == "more_filings"


class TestEvolveOutput:
    def test_row_count_and_initial_state(self, tmp_path):
        out = tmp_path / "evolve.csv"
        run_model("evolve", f"{CONFIG_DIR}/evolve_tort.json", out)
        header, rows = read_csv(out)
        assert header == ["t", "fraction_efficient", "disputes", "settlements",
                          "trials", "frivolous_filings", "frivolous_settlements",
                          "frivolous_drops"]
        assert len(rows) == 201
        assert rows[0] == ["0", "0.5", "0", "0", "0", "0", "0", "0"]
        assert [r[0] for r in rows] == [str(t) for t in range(201)]

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_model("evolve", f"{CONFIG_DIR}/evolve_tort.json", a)
        run_model("evolve", f"{CONFIG_DIR}/evolve_tort.json", b)
        assert a.read_bytes() == b.read_bytes()


class TestCompositionOutput:
    def test_rows_match_direct_shift(self, tmp_path):
        out = tmp_path / "comp.csv"
        run_model("composition", f"{CONFIG_DIR}/composition_docket.json", out)
        header, rows = read_csv(out)
        assert header == ["name", "old_share", "new_share", "unit_cost", "cost_after",
                          "relative_decline", "demand_elasticity"]
        byname = {r[0]: dict(zip(header, r)) for r in rows}
        assert set(byname) == {"civil", "contract", "tort"}
        tort = byname["tort"]
        assert float(tort["new_share"]) < float(tort["old_share"])
        assert tort["cost_after"] == "25"
        assert float(tort["relative_decline"]) == pytest.approx(5.0 / 30.0, rel=1e-15)
        civil = byname["civil"]
        assert float(civil["new_share"]) == pytest.approx(0.51589595375722543, rel=1e-12)


class TestSweepOutput:
    def test_litigation_delta_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_model("sweep", f"{CONFIG_DIR}/sweep_litigation_delta.json", out)
        header, rows = read_csv(out)
        assert header == ["equilibrium.shock.delta_litigation", "replicate", "seed",
                          "g_star", "g_star_change"]
        assert len(rows) == 6
        deltas = [float(r[0]) for r in rows]
        assert deltas == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        g_stars = [float(dict(zip(header, r))["g_star"]) for r in rows]
        assert all(a > b for a, b in zip(g_stars, g_stars[1:]))
        assert g_stars[0] == pytest.approx(GOLDEN_G, abs=1e-9)

    def test_replicates_vary_seed_not_grid(self, tmp_path):
        payload = {
            "seed": 40,
            "evolve": {
                "area": {"name": "negligence", "kind": "tort", "dispute_rate": 0.8,
                         "stakes_j": 100.0, "stakes_multiplier": 2.0, "cost_q": 18.0,
                         "cost_g": 18.0, "belief_spread": 0.4, "overturn_prob": 0.5},
                "population": {"n_rules": 50, "fraction_efficient": 0.5},
                "periods": 20,
            },
            "sweep": {
                "model": "evolve",
                "axes": [{"path": "evolve.periods", "values": [10, 20]}],
                "replicates": 3,
            },
        }
        out = tmp_path / "sweep.csv"
        run_model("sweep", write_config(tmp_path, payload), out)
        header, rows = read_csv(out)
        assert len(rows) == 6
        assert [r[header.index("replicate")] for r in rows] == ["0", "1", "2"] * 2
        assert [r[header.index("seed")] for r in rows] == ["40", "41", "42"] * 2

    def test_invalid_point_names_its_coordinates(self, tmp_path):
        payload = {
            "equilibrium": {"curve": {"b_scale": 1.0, "beta": 1.0,
                                      "k_scale": 1.0, "kappa": 1.0}},
            "sweep": {
                "model": "equilibrium",
                "axes": [{"path": "equilibrium.curve.k_scale", "values": [1.0, -1.0]}],
                "replicates": 1,
            },
        }
        out = tmp_path / "sweep.csv"
        with pytest.raises(ConfigError) as exc:
            run_model("sweep", write_config(tmp_path, payload), out)
        assert "sweep point" in str(exc.value)
        assert not out.exists()

    def test_every_point_is_validated_before_any_runs(self, tmp_path, monkeypatch):
        from lexsim import runner

        calls = []
        header, model = runner._MODELS["equilibrium"]
        monkeypatch.setitem(runner._MODELS, "equilibrium",
                            (header, lambda p, seed: calls.append(p) or model(p, seed)))
        payload = {
            "equilibrium": {"curve": {"b_scale": 1.0, "beta": 1.0,
                                      "k_scale": 1.0, "kappa": 1.0}},
            "sweep": {
                "model": "equilibrium",
                "axes": [{"path": "equilibrium.curve.k_scale", "values": [1.0, 2.0, -1.0]}],
            },
        }
        out = tmp_path / "sweep.csv"
        with pytest.raises(ConfigError) as exc:
            run_model("sweep", write_config(tmp_path, payload), out)
        assert exc.value.errors == [
            ("sweep point (equilibrium.curve.k_scale=-1.0) -> equilibrium.curve.k_scale",
             "must be > 0.0, got -1.0"),
        ]
        assert calls == []
        assert not out.exists()

    def test_sweep_svg_plots_first_summary(self, tmp_path):
        out, svg = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
        run_model("sweep", f"{CONFIG_DIR}/sweep_litigation_delta.json", out, svg)
        assert "<polyline" in svg.read_text()

    def test_frivolous_sweep_plots_filed_cells(self, tmp_path, capsys):
        # the first frivolous summary cell is "true"/"false", which float() rejects
        payload = shipped("frivolous_nuisance")
        payload["sweep"] = {"model": "frivolous",
                            "axes": [{"path": "frivolous.game.s", "values": [1.0, 2.0]}]}
        out, svg = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
        code = main(["sweep", "--config", write_config(tmp_path, payload), "--out", str(out),
                     "--svg", str(svg)])
        err = capsys.readouterr().err
        assert code == 0, err
        assert "Traceback" not in err and "error:" not in err
        assert "<polyline" in svg.read_text()


def one_point_sweep(tmp_path, payload, model, path, value, seed):
    """The summary row of a one-point, one-replicate sweep and the model's own CSV rows."""
    swept = dict(payload, seed=seed,
                 sweep={"model": model, "axes": [{"path": path, "values": [value]}]})
    out = tmp_path / "sweep.csv"
    run_model("sweep", write_config(tmp_path, swept, "sweep.json"), out)
    header, rows = read_csv(out)
    assert len(rows) == 1
    summary = dict(zip(header, rows[0]))
    single = json.loads(json.dumps(payload))
    cursor = single
    for seg in path.split(".")[:-1]:
        cursor = cursor[seg]
    cursor[path.split(".")[-1]] = value
    out = tmp_path / "single.csv"
    run_model(model, write_config(tmp_path, dict(single, seed=seed), "single.json"), out)
    header, rows = read_csv(out)
    return summary, [dict(zip(header, r)) for r in rows]


def shipped(name):
    return json.loads((Path(CONFIG_DIR) / f"{name}.json").read_text())


def f17(x):
    return format(float(x), ".17g")


class TestSweepMatchesCsv:
    """A sweep row holds what the single-model CSV of the same params and seed implies."""

    def test_equilibrium(self, tmp_path):
        summary, rows = one_point_sweep(tmp_path, shipped("equilibrium_shock"), "equilibrium",
                                        "equilibrium.shock.delta_litigation", 0.2, 3)
        assert summary["g_star"] == rows[0]["g_star_shocked"]
        assert summary["g_star_change"] == rows[0]["g_star_change"]

    def test_settle(self, tmp_path):
        payload = {"settle": {"rule": "english", "cost_reduction": 0.0, "disputes": [
            {"p_q": 0.6, "p_g": 0.5, "j": 100.0, "c_q": 10.0, "c_g": 10.0},
            {"p_q": 0.9, "p_g": 0.2, "j": 100.0, "c_q": 10.0, "c_g": 10.0},
            {"p_q": 0.3, "p_g": 0.35, "j": 70.0, "c_q": 4.5, "c_g": 6.0}]}}
        summary, rows = one_point_sweep(tmp_path, payload, "settle", "settle.cost_reduction",
                                        2.5, 5)
        assert {r["outcome"] for r in rows} == {"settle", "trial"}
        settled = sum(r["outcome"] == "settle" for r in rows)
        assert summary["n_disputes"] == str(len(rows))
        assert summary["n_settled"] == str(settled)
        assert summary["n_trials"] == str(len(rows) - settled)
        widths = 0.0
        for r in rows:
            widths += float(r["width"])
        assert summary["mean_width"] == f17(widths / len(rows))

    def test_frivolous(self, tmp_path):
        summary, rows = one_point_sweep(tmp_path, shipped("frivolous_nuisance"), "frivolous",
                                        "frivolous.game.s", 2.0, 0)
        by_type = {r["plaintiff_type"]: r for r in rows}
        for ptype in ("frivolous", "meritorious"):
            assert summary[f"{ptype}_filed"] == by_type[ptype]["filed"]
            assert summary[f"{ptype}_payoff"] == by_type[ptype]["plaintiff_payoff"]

    def test_evolve(self, tmp_path):
        summary, rows = one_point_sweep(tmp_path, shipped("evolve_tort"), "evolve",
                                        "evolve.cost_delta", 6.0, 11)
        assert len(rows) == 201
        assert summary["final_fraction_efficient"] == rows[-1]["fraction_efficient"]
        for cell, column in (("total_disputes", "disputes"),
                             ("total_settlements", "settlements"), ("total_trials", "trials")):
            assert summary[cell] == str(sum(int(r[column]) for r in rows))

    def test_composition(self, tmp_path):
        summary, rows = one_point_sweep(tmp_path, shipped("composition_docket"), "composition",
                                        "composition.flat_reduction", 2.0, 0)
        assert summary["n_areas"] == str(len(rows))
        shift = 0.0
        for r in rows:
            shift += abs(float(r["new_share"]) - float(r["old_share"]))
        assert summary["share_l1_shift"] == f17(shift)


class TestComputeOnce:
    """Each run or sweep replicate solves its model once; a chart is drawn only for --svg."""

    def spy(self, monkeypatch, name):
        calls = []
        real = getattr(runner, name)
        monkeypatch.setattr(runner, name, lambda *a, **kw: calls.append(a) or real(*a, **kw))
        return calls

    def test_equilibrium_solves_twice_per_run(self, tmp_path, monkeypatch):
        solves = self.spy(monkeypatch, "solve_completeness")
        monkeypatch.setattr(runner, "charts", None)  # drawing a chart would raise
        run_model("equilibrium", f"{CONFIG_DIR}/equilibrium_shock.json", tmp_path / "eq.csv")
        assert len(solves) == 2
        solves.clear()
        run_model("sweep", f"{CONFIG_DIR}/sweep_litigation_delta.json", tmp_path / "sw.csv")
        assert len(solves) == 2 * 6

    def test_evolve_simulates_once_per_run_and_replicate(self, tmp_path, monkeypatch):
        sims = self.spy(monkeypatch, "simulate")
        run_model("evolve", f"{CONFIG_DIR}/evolve_tort.json", tmp_path / "ev.csv",
                  tmp_path / "ev.svg")
        assert len(sims) == 1
        payload = shipped("evolve_tort")
        payload["evolve"]["periods"] = 5
        payload["sweep"] = {"model": "evolve", "replicates": 2,
                            "axes": [{"path": "evolve.cost_delta", "values": [0.0, 6.0]}]}
        run_model("sweep", write_config(tmp_path, payload), tmp_path / "sw.csv",
                  tmp_path / "sw.svg")
        assert len(sims) == 1 + 4


class TestRunGuards:
    def test_output_path_required(self):
        cfg = load_config(f"{CONFIG_DIR}/equilibrium_golden.json", "equilibrium")
        with pytest.raises(DomainError):
            run(cfg)


class TestCli:
    def test_success_writes_and_reports(self, tmp_path, capsys):
        out = tmp_path / "eq.csv"
        code = main(["equilibrium", "--config", f"{CONFIG_DIR}/equilibrium_golden.json",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr()
        assert captured.out.strip() == f"wrote {out}"
        assert captured.err == ""

    def test_svg_flag_reports_both(self, tmp_path, capsys):
        out, svg = tmp_path / "eq.csv", tmp_path / "eq.svg"
        code = main(["equilibrium", "--config", f"{CONFIG_DIR}/equilibrium_golden.json",
                     "--out", str(out), "--svg", str(svg)])
        assert code == 0
        assert capsys.readouterr().out.strip() == f"wrote {out} and {svg}"

    def test_missing_config_is_exit_one(self, tmp_path, capsys):
        out = tmp_path / "eq.csv"
        code = main(["equilibrium", "--config", str(tmp_path / "absent.json"),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_validation_failure_is_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"settle": {
            "rule": "american",
            "disputes": [{"p_q": 1.5, "p_g": 0.5, "j": 100.0, "c_q": 1.0, "c_g": 1.0}],
            "cost_reduction": 0.0,
        }}))
        out = tmp_path / "settle.csv"
        code = main(["settle", "--config", str(bad), "--out", str(out)])
        assert code == 1
        assert "p_q" in capsys.readouterr().err
        assert not out.exists()

    def test_model_failure_is_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "tight.json"
        cfg.write_text(json.dumps({"equilibrium": {
            "curve": {"b_scale": 1.0, "beta": 1.0, "k_scale": 1.0, "kappa": 1.0},
            "tolerance": 1e-30,
        }}))
        out = tmp_path / "eq.csv"
        code = main(["equilibrium", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: model:")
        assert not out.exists()

    def test_curve_with_a_tiny_root_solves(self, tmp_path, capsys):
        # g* = 2.45e-57, 241 halvings below 1: bisection must not stop at a fixed 200
        curve = {"b_scale": 0.001131326278450144, "beta": 0.055953019238518295,
                 "k_scale": 1.4304723814284908, "kappa": 0.054793870591714644}
        cfg = write_config(tmp_path, {"equilibrium": {"curve": curve}})
        out = tmp_path / "eq.csv"
        assert main(["equilibrium", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["g_star_baseline"]) == pytest.approx(2.45e-57, rel=1e-2)
        assert (row["residual"], row["iterations"]) == ("0", "241")

    def test_unwritable_svg_cleans_up_csv(self, tmp_path, capsys):
        out = tmp_path / "eq.csv"
        svg = tmp_path / "no_such_dir" / "eq.svg"
        code = main(["equilibrium", "--config", f"{CONFIG_DIR}/equilibrium_golden.json",
                     "--out", str(out), "--svg", str(svg)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: io:")
        assert not out.exists()

    def test_svg_onto_the_csv_is_exit_one_and_writes_nothing(self, tmp_path, capsys):
        cfg = f"{CONFIG_DIR}/equilibrium_golden.json"
        out = tmp_path / "eq.csv"
        (tmp_path / "sub").mkdir()
        same = tmp_path / "sub" / ".." / "eq.csv"
        code = main(["equilibrium", "--config", cfg, "--out", str(out), "--svg", str(same)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config: svg:")
        assert err.count("\n") == 1
        assert not out.exists()
        out.write_text("kept")
        assert main(["equilibrium", "--config", cfg, "--out", str(out),
                     "--svg", str(out)]) == 1
        assert out.read_text() == "kept"
        capsys.readouterr()

    def test_out_of_memory_in_the_model_is_exit_two(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(evolution, "fill_substreams", no_memory)
        out, svg = tmp_path / "evolve.csv", tmp_path / "evolve.svg"
        out.write_text("kept")
        code = main(["evolve", "--config", f"{CONFIG_DIR}/evolve_tort.json",
                     "--out", str(out), "--svg", str(svg)])
        assert code == 2
        assert capsys.readouterr() == ("", "error: model: out of memory\n")
        assert out.read_text() == "kept"
        assert sorted(os.listdir(tmp_path)) == ["evolve.csv"]

    def test_out_of_memory_loading_the_config_is_exit_two(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(config, "build_model_params", no_memory)
        out = tmp_path / "eq.csv"
        code = main(["equilibrium", "--config", f"{CONFIG_DIR}/equilibrium_golden.json",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr() == ("", "error: model: out of memory\n")
        assert os.listdir(tmp_path) == []

    def test_seed_flag_changes_stochastic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = f"{CONFIG_DIR}/evolve_tort.json"
        assert main(["evolve", "--config", cfg, "--out", str(a)]) == 0
        assert main(["evolve", "--config", cfg, "--out", str(b), "--seed", "8"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_bad_seed_is_usage_error(self, tmp_path, capsys):
        code = main(["evolve", "--config", f"{CONFIG_DIR}/evolve_tort.json",
                     "--out", str(tmp_path / "x.csv"), "--seed", "-1"])
        assert code == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "equilibrium" in capsys.readouterr().out

    def test_missing_out_is_usage_error(self, capsys):
        code = main(["equilibrium", "--config", "x.json"])
        assert code == 1
        capsys.readouterr()


class TestOutToStdout:
    """`--out /dev/stdout`: stdout carries exactly the CSV and the `wrote` line goes to stderr."""

    CFG = f"{CONFIG_DIR}/evolve_tort.json"

    def expected(self, tmp_path):
        csv_path = tmp_path / "expected.csv"
        assert main(["evolve", "--config", self.CFG, "--out", str(csv_path)]) == 0
        return csv_path.read_bytes()

    def run_cli(self, stdout, svg=None):
        argv = [sys.executable, "-m", "lexsim.cli", "evolve", "--config", self.CFG,
                "--out", "/dev/stdout"] + ([] if svg is None else ["--svg", str(svg)])
        env = {**os.environ, "PYTHONPATH": "src" + os.pathsep + os.environ.get("PYTHONPATH", "")}
        return subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, env=env, check=False)

    def test_stdout_redirected_to_a_file(self, tmp_path, capsys):
        expected = self.expected(tmp_path)
        redirected, svg = tmp_path / "r.txt", tmp_path / "evolve.svg"
        with open(redirected, "wb") as fh:
            done = self.run_cli(fh, svg)
        capsys.readouterr()
        assert done.returncode == 0
        assert done.stderr == f"wrote /dev/stdout and {svg}\n".encode()
        assert redirected.read_bytes() == expected
        assert svg.read_text().startswith("<svg ")
        assert sorted(os.listdir(tmp_path)) == ["evolve.svg", "expected.csv", "r.txt"]

    def test_stdout_into_a_pipe(self, tmp_path, capsys):
        expected = self.expected(tmp_path)
        capsys.readouterr()
        done = self.run_cli(subprocess.PIPE)
        assert done.returncode == 0
        assert done.stderr == b"wrote /dev/stdout\n"
        assert done.stdout == expected


class TestFloatFormatting:
    def test_seventeen_digit_round_trip(self, tmp_path):
        out = tmp_path / "eq.csv"
        run_model("equilibrium", f"{CONFIG_DIR}/equilibrium_golden.json", out)
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        text = row["g_star_baseline"]
        assert float(text) == float(format(float(text), ".17g"))
        assert os.linesep not in ("\n",) or "\r" not in out.read_text()


def settle_oracle(p):
    """The scalar settle path, one dispute at a time: CSV text and summary cells."""
    def f(x):
        return format(float(x), ".17g")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "rule", "p_q", "p_g", "j", "c_q", "c_g", "cost_reduction",
                     "lower", "upper", "width", "outcome", "amount", "shrink_ratio"])
    widths, settled = [], 0
    for idx, d in enumerate(p.disputes):
        reduced = apply_cost_reduction(d, p.cost_reduction)
        r = settlement_range(reduced, p.rule)
        outcome = decide(reduced, p.rule)
        try:
            ratio = f(shrink_ratio(d))
        except DomainError:
            ratio = ""
        widths.append(r.width)
        settled += outcome.kind is OutcomeKind.SETTLE
        writer.writerow([
            str(idx), p.rule.value, f(d.p_q), f(d.p_g), f(d.j), f(d.c_q), f(d.c_g),
            f(p.cost_reduction), f(r.lower), f(r.upper), f(r.width),
            outcome.kind.value, "" if outcome.amount is None else f(outcome.amount), ratio,
        ])
    n = len(p.disputes)
    return buf.getvalue(), [str(n), str(settled), str(n - settled), f(sum(widths) / n)]


def settle_arrays_output(p):
    """CSV text and summary cells from the runner's array path, failing on any warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary, table, _ = runner._settle(p, 0)
        text, n_rows = table()
    assert n_rows == len(p.disputes)
    return text, summary


PROB = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1, 0.0, 1.0, -0.0, 0.5]))
STAKE = st.one_of(st.floats(min_value=5e-324, max_value=1e6), st.integers(1, 10**6),
                  st.floats(1e300, 1.7976931348623157e308))
COST = st.one_of(st.floats(0.0, 1e6), st.integers(0, 10**6), st.sampled_from([0, -0.0]),
                 st.floats(1e300, 1.7976931348623157e308))


@st.composite
def settle_params(draw):
    disputes = draw(st.lists(st.builds(Dispute, p_q=PROB, p_g=PROB, j=STAKE, c_q=COST,
                                       c_g=COST), min_size=1, max_size=12))
    top = min(min(d.c_q, d.c_g) for d in disputes)
    reduction = draw(st.one_of(
        st.sampled_from([0, 0.0, top]), st.floats(0.0, abs(float(top))),
        st.integers(0, int(top)) if top < 2**53 else st.just(0)))
    return SettleParams(rule=draw(st.sampled_from(FeeRule)), disputes=disputes,
                        cost_reduction=reduction)


class TestSettleArrays:
    """The one-pass array settle path against the scalar per-dispute oracle."""

    @settings(max_examples=200, deadline=None)
    @given(p=settle_params())
    def test_matches_the_scalar_path(self, p):
        assert settle_arrays_output(p) == settle_oracle(p)

    @pytest.mark.parametrize("rule", list(FeeRule))
    def test_undefined_shrink_ratio_is_empty(self, rule):
        p = SettleParams(rule=rule, cost_reduction=0.0, disputes=[
            Dispute(p_q=1.0, p_g=0.0, j=10.0, c_q=1.0, c_g=2.0),
            Dispute(p_q=1, p_g=0, j=10, c_q=1, c_g=2)])
        text, summary = settle_arrays_output(p)
        assert (text, summary) == settle_oracle(p)
        assert all(line.endswith(",") for line in text.splitlines()[1:])

    @pytest.mark.parametrize("rule", list(FeeRule))
    def test_reduction_equal_to_the_smaller_cost(self, rule):
        p = SettleParams(rule=rule, cost_reduction=3, disputes=[
            Dispute(p_q=0.6, p_g=0.5, j=100, c_q=3, c_g=7),
            Dispute(p_q=0.2, p_g=0.9, j=50.5, c_q=8.25, c_g=3.0)])
        assert settle_arrays_output(p) == settle_oracle(p)

    def test_reduction_beyond_a_cost_keeps_the_scalar_message(self):
        p = SettleParams(rule=FeeRule.AMERICAN, cost_reduction=4, disputes=[
            Dispute(p_q=0.6, p_g=0.5, j=100, c_q=5, c_g=7),
            Dispute(p_q=0.6, p_g=0.5, j=100, c_q=8, c_g=3)])
        with pytest.raises(DomainError) as got:
            settle_arrays_output(p)
        with pytest.raises(DomainError) as expected:
            settle_oracle(p)
        assert str(got.value) == str(expected.value) == \
            "delta_c=4 exceeds a party's cost (c_q=8, c_g=3)"

    def test_ints_past_2_53_are_rounded_to_float_first(self):
        # j + c_q + c_g = 2^53 + 2 exactly, but 2^53 once rounded step by step
        big = Dispute(p_q=0.25, p_g=0.5, j=2**53 - 1, c_q=2, c_g=1)
        p = SettleParams(rule=FeeRule.ENGLISH, cost_reduction=0, disputes=[big])
        as_floats = SettleParams(rule=FeeRule.ENGLISH, cost_reduction=0.0, disputes=[
            Dispute(p_q=0.25, p_g=0.5, j=float(2**53 - 1), c_q=2.0, c_g=1.0)])
        assert settle_arrays_output(p) == settle_oracle(as_floats)
        assert settle_arrays_output(p) != settle_oracle(p)

    def test_overflow_cells_through_the_cli(self, tmp_path, capfd):
        disputes = [{"p_q": 0.9, "p_g": 0.1, "j": 1.7e308, "c_q": 1.6e308, "c_g": 1.5e308},
                    {"p_q": 0.1, "p_g": 0.9, "j": 1e308, "c_q": 1e308, "c_g": 1e308},
                    {"p_q": 0.5, "p_g": 0.5, "j": 1.0, "c_q": 1e308, "c_g": 1.7e308}]
        for rule in FeeRule:
            payload = {"settle": {"rule": rule.value, "disputes": disputes,
                                  "cost_reduction": 1e307}}
            out = tmp_path / f"{rule.value}.csv"
            assert main(["settle", "--config", write_config(tmp_path, payload),
                         "--out", str(out)]) == 0
            captured = capfd.readouterr()
            assert captured.err == ""
            p = load_config(write_config(tmp_path, payload), "settle").params
            assert out.read_text() == settle_oracle(p)[0]
        assert "inf" in out.read_text() and "nan" in out.read_text()


class TestAtomicOutputs:
    CFG = f"{CONFIG_DIR}/equilibrium_golden.json"

    def test_failed_svg_write_keeps_an_existing_csv(self, tmp_path, capsys, monkeypatch):
        cfg = os.path.abspath(self.CFG)
        monkeypatch.chdir(tmp_path)
        keep = tmp_path / "keep.csv"
        keep.write_bytes(b"old\n")
        code = main(["equilibrium", "--config", cfg, "--out", "keep.csv",
                     "--svg", "nodir/x.svg"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: io:") and "nodir/x.svg" in err
        assert keep.read_bytes() == b"old\n"
        assert sorted(os.listdir(tmp_path)) == ["keep.csv"]

    def test_svg_onto_a_directory_keeps_an_existing_csv(self, tmp_path, capsys):
        out, svg = tmp_path / "eq.csv", tmp_path / "charts"
        out.write_text("old")
        svg.mkdir()
        assert main(["equilibrium", "--config", self.CFG, "--out", str(out),
                     "--svg", str(svg)]) == 2
        assert capsys.readouterr().err == f"error: io: [Errno 21] Is a directory: '{svg}'\n"
        assert out.read_text() == "old"
        assert sorted(os.listdir(tmp_path)) == ["charts", "eq.csv"]

    def test_outputs_replace_files_and_leave_no_temporaries(self, tmp_path, capsys):
        out, svg = tmp_path / "eq.csv", tmp_path / "eq.svg"
        out.write_text("old")
        svg.write_text("old")
        assert main(["equilibrium", "--config", self.CFG, "--out", str(out),
                     "--svg", str(svg)]) == 0
        capsys.readouterr()
        assert out.read_text().startswith("b_scale,") and svg.read_text().startswith("<svg ")
        assert sorted(os.listdir(tmp_path)) == ["eq.csv", "eq.svg"]

    def test_symlinked_output_stays_a_link(self, tmp_path, capsys):
        target = tmp_path / "real" / "eq.csv"
        target.parent.mkdir()
        target.write_text("old")
        link = tmp_path / "eq.csv"
        link.symlink_to(target)
        assert main(["equilibrium", "--config", self.CFG, "--out", str(link)]) == 0
        capsys.readouterr()
        assert link.is_symlink()
        assert target.read_text().startswith("b_scale,")

    def test_new_outputs_get_the_default_file_mode(self, tmp_path, capsys):
        umask = os.umask(0o022)
        os.umask(umask)
        out, svg = tmp_path / "eq.csv", tmp_path / "eq.svg"
        assert main(["equilibrium", "--config", self.CFG, "--out", str(out),
                     "--svg", str(svg)]) == 0
        capsys.readouterr()
        for path in (out, svg):
            assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask

    def test_existing_outputs_keep_their_mode(self, tmp_path, capsys):
        out, svg = tmp_path / "eq.csv", tmp_path / "eq.svg"
        for path, mode in ((out, 0o600), (svg, 0o640)):
            path.write_text("old")
            os.chmod(path, mode)
        assert main(["equilibrium", "--config", self.CFG, "--out", str(out),
                     "--svg", str(svg)]) == 0
        capsys.readouterr()
        assert os.stat(out).st_mode & 0o7777 == 0o600
        assert os.stat(svg).st_mode & 0o7777 == 0o640
        assert out.read_text().startswith("b_scale,")

    def test_fifo_output_is_written_in_place(self, tmp_path, capsys):
        expected = tmp_path / "expected.csv"
        assert main(["equilibrium", "--config", self.CFG, "--out", str(expected)]) == 0
        fifo, svg = tmp_path / "eq.fifo", tmp_path / "eq.svg"
        os.mkfifo(fifo)
        # a reader opened first lets the run's open() of the FIFO return at once
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["equilibrium", "--config", self.CFG, "--out", str(fifo),
                         "--svg", str(svg)]) == 0
            received = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        capsys.readouterr()
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert received == expected.read_bytes()
        assert svg.read_text().startswith("<svg ")
        assert sorted(os.listdir(tmp_path)) == ["eq.fifo", "eq.svg", "expected.csv"]
