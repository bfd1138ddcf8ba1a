"""End-to-end runs: CSV/SVG emission, sweeps, and the command-line front end."""

import contextlib
import csv
import errno
import io
import json
import math
import os
import socket
import stat
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
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
from lexsim import cli, config, contracts, evolution, runner
from lexsim.cli import main
from lexsim import EquilibriumParams, SettleParams
from lexsim.config import RunConfig, SweepAxis, SweepSpec
from lexsim.contracts import GapCurve
from lexsim.settlement import DisputeBatch
from test_config_schema import mutated
from test_golden_outputs import DIGESTS, sha256

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

    @pytest.mark.parametrize("name, path, values, error", [
        ("settle_fixture", "settle.cost_reduction", [0.0, 15.0],
         ("settle.disputes[0]", "cost_reduction 15.0 exceeds a party cost")),
        ("frivolous_nuisance", "frivolous.shift.delta_f", [0.5, 2.0],
         ("frivolous.shift.delta_f", "must be <= f_o (1.0), got 2.0")),
        ("evolve_tort", "evolve.cost_delta", [0.0, 20.0],
         ("evolve.cost_delta", "exceeds a party cost in area 'negligence'")),
        ("evolve_tort", "evolve.periods", [200, 89479],
         ("evolve", "a block of 2000 rules x 89479 periods needs 4294992000 bytes of draws "
                    "(24 per rule-period), above the limit of 2^32 = 4294967296")),
    ])
    def test_a_point_breaking_a_rule_across_fields_stops_every_point(self, tmp_path,
                                                                    monkeypatch, name, path,
                                                                    values, error):
        model = name.split("_")[0]
        calls = []
        header, solve = runner._MODELS[model]
        monkeypatch.setitem(runner._MODELS, model,
                            (header, lambda p, seed: calls.append(p) or solve(p, seed)))
        payload = shipped(name)
        payload["sweep"] = {"model": model, "axes": [{"path": path, "values": values}]}
        out = tmp_path / "sweep.csv"
        with pytest.raises(ConfigError) as exc:
            run_model("sweep", write_config(tmp_path, payload), out)
        where, message = error
        assert exc.value.errors == [(f"sweep point ({path}={values[1]}) -> {where}", message)]
        assert calls == []
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_path_through_a_list_names_the_segment_not_its_value(self, tmp_path):
        payload = shipped("settle_fixture")
        payload["settle"]["disputes"] *= 500
        payload["sweep"] = {"model": "settle",
                            "axes": [{"path": "settle.disputes.j", "values": [1.0]}]}
        with pytest.raises(ConfigError) as exc:
            run_model("sweep", write_config(tmp_path, payload), tmp_path / "sweep.csv")
        assert exc.value.errors == [
            ("settle.disputes.j", "path runs through settle.disputes, a list, not an object")]

    def test_a_path_one_axis_blocks_is_that_points_fault(self, tmp_path):
        path = "equilibrium.shock.delta_contracting"
        payload = shipped("equilibrium_golden")
        payload["sweep"] = {"model": "equilibrium", "axes": [
            {"path": "equilibrium.shock", "values": [{}, 5]},
            {"path": path, "values": [0.5, 1.5]}]}
        with pytest.raises(ConfigError) as exc:
            run_model("sweep", write_config(tmp_path, payload), tmp_path / "sweep.csv")
        through = "path runs through equilibrium.shock, a number, not an object"
        assert exc.value.errors == [
            (f"sweep point (equilibrium.shock={{}}, {path}=1.5) -> {path}",
             "must be < 1.0, got 1.5"),
            (f"sweep point (equilibrium.shock=5, {path}=0.5) -> {path}", through),
            (f"sweep point (equilibrium.shock=5, {path}=1.5) -> {path}", through)]

    def test_an_earlier_axis_may_replace_a_value_its_path_runs_through(self, tmp_path):
        payload = shipped("equilibrium_golden")
        payload["equilibrium"]["shock"] = 5
        payload["sweep"] = {"model": "equilibrium", "axes": [
            {"path": "equilibrium.shock", "values": [{}]},
            {"path": "equilibrium.shock.delta_contracting", "values": [0.5]}]}
        out = tmp_path / "sweep.csv"
        run_model("sweep", write_config(tmp_path, payload), out)
        assert [row[:2] for row in read_csv(out)[1]] == [["{}", "0.5"]]

    @pytest.mark.parametrize("axes", [
        [("equilibrium.shock.delta_contracting", [0.1, 0.9]), ("equilibrium.shock", [{}])],
        [("equilibrium.curve.kappa", [1.0, 2.0]), ("equilibrium.curve.kappa", [3.0])],
    ], ids=["path-above-an-earlier-path", "repeated-path"])
    def test_an_axis_may_not_replace_an_earlier_axis(self, tmp_path, capsys, axes):
        payload = shipped("equilibrium_golden")
        payload["sweep"] = {"model": "equilibrium",
                            "axes": [{"path": p, "values": v} for p, v in axes]}
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: config: sweep.axes[1].path: would replace the earlier axis path "
            f"'{axes[0][0]}' at every point"]
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_point_faults_name_values_as_the_config_writes_them(self, tmp_path):
        payload = shipped("frivolous_nuisance")
        payload["sweep"] = {"model": "frivolous", "axes": [
            {"path": "frivolous.belief", "values": [None, True]},
            {"path": "frivolous.shift", "values": [{"delta_f": 5, "delta_d": 0.0}]}]}
        with pytest.raises(ConfigError) as exc:
            run_model("sweep", write_config(tmp_path, payload), tmp_path / "sweep.csv")
        shift = 'frivolous.shift={"delta_d":0.0,"delta_f":5}'
        delta_f = "must be <= f_o (1.0), got 5"
        assert exc.value.errors == [
            (f"sweep point (frivolous.belief=null, {shift}) -> frivolous.shift.delta_f", delta_f),
            (f"sweep point (frivolous.belief=true, {shift}) -> frivolous.belief",
             "must be a number, got True"),
            (f"sweep point (frivolous.belief=true, {shift}) -> frivolous.shift.delta_f", delta_f)]

    def test_points_leave_the_loaded_config_as_it_was(self, tmp_path):
        payload = shipped("evolve_tort")
        payload["sweep"] = {"model": "evolve", "axes": [
            {"path": "evolve.area.stakes_j", "values": [50.0, 200.0]},
            {"path": "evolve.area.dispute_rate", "values": [0.25, 0.75]}]}
        cfg = load_config(write_config(tmp_path, payload), "sweep")
        cfg.output_path = str(tmp_path / "sweep.csv")
        run(cfg)
        assert cfg.raw == payload

    def test_string_axis_cells(self, tmp_path):
        payload = shipped("settle_fixture")
        payload["sweep"] = {"model": "settle", "axes": [
            {"path": "settle.rule", "values": ["american", "english"]}]}
        out = tmp_path / "sweep.csv"
        run_model("sweep", write_config(tmp_path, payload), out)
        assert out.read_text() == (
            "settle.rule,replicate,seed,n_disputes,n_settled,n_trials,mean_width\n"
            "american,0,0,1,1,0,10\n"
            "english,0,0,1,1,0,8\n")

    def test_null_and_object_axis_cells_are_json(self, tmp_path):
        payload = shipped("frivolous_nuisance")
        payload["sweep"] = {"model": "frivolous", "axes": [
            {"path": "frivolous.belief", "values": [None, 0.25]},
            {"path": "frivolous.shift", "values": [{"delta_f": 0.5, "delta_d": 0.25}]}]}
        out = tmp_path / "sweep.csv"
        run_model("sweep", write_config(tmp_path, payload), out)
        assert out.read_text() == (
            "frivolous.belief,frivolous.shift,replicate,seed,frivolous_filed,"
            "frivolous_payoff,meritorious_filed,meritorious_payoff\n"
            'null,"{""delta_d"":0.25,""delta_f"":0.5}",0,0,true,4,true,4\n'
            '0.25,"{""delta_d"":0.25,""delta_f"":0.5}",0,0,true,4,true,4\n')

    def test_int_axis_cells_name_their_grid_points(self, tmp_path):
        # each int as JSON writes it: through a float, 2^60 and 2^60 + 1 would share a cell
        values = [2**60, 2**60 + 1, 2**53 + 1]
        payload = shipped("evolve_tort")
        payload["evolve"]["population"]["n_rules"] = 10
        payload["evolve"]["periods"] = 2
        game = shipped("frivolous_nuisance")["frivolous"]["game"]
        payload["evolve"]["frivolous"] = {"game": game, "filers_per_period": 1}
        payload["sweep"] = {"model": "evolve", "axes": [
            {"path": "evolve.frivolous.filers_per_period", "values": values}]}
        out = tmp_path / "sweep.csv"
        run_model("sweep", write_config(tmp_path, payload), out)
        header, rows = read_csv(out)
        assert header[0] == "evolve.frivolous.filers_per_period"
        assert [r[0] for r in rows] == ["1152921504606846976", "1152921504606846977",
                                        "9007199254740993"]

    def test_model_failure_names_the_point_and_replicate(self, tmp_path, capsys):
        payload = shipped("equilibrium_golden")
        payload["equilibrium"]["tolerance"] = 1e-30
        payload["sweep"] = {"model": "equilibrium", "axes": [
            {"path": "equilibrium.curve.kappa", "values": [1.0]}]}
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 2
        *_, err = capsys.readouterr().err.splitlines()
        assert err == ("error: model: sweep point (equilibrium.curve.kappa=1.0), replicate 0: "
                       "bisection stalled with residual 1.110e-16 > tolerance 1.000e-30")
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


class TestSweepSpecBuiltInCode:
    """A SweepSpec built in code meets the rules a config's sweep block meets: the
    run limit when it is built, the model and the axis paths before the run starts."""

    @pytest.mark.parametrize("spec, errors", [
        (SweepSpec("bogus", [SweepAxis("bogus.x", [1])]),
         [("sweep.model", "must be one of ['composition', 'equilibrium', 'evolve', "
                          "'frivolous', 'settle'], got 'bogus'")]),
        (SweepSpec("equilibrium", [SweepAxis("settle.rule", ["american", "english"])]),
         [("sweep.axes[0].path",
           "must start with the swept model 'equilibrium', got 'settle.rule'")]),
        (SweepSpec("equilibrium", [SweepAxis("equilibrium", [1.0])]),
         [("sweep.axes[0].path", "must be a dotted path into a model block, "
                                 "got 'equilibrium'")]),
        (SweepSpec("settle", [SweepAxis("settle.rule", ["english"])]),
         [("settle", "missing block for swept model 'settle'")]),
    ], ids=["unknown-model", "axis-into-another-block", "undotted-axis", "missing-block"])
    def test_is_checked_before_the_run_starts(self, tmp_path, capsys, spec, errors):
        out = tmp_path / "sweep.csv"
        cfg = RunConfig("sweep", spec, 0, str(out), None, shipped("equilibrium_golden"))
        with pytest.raises(ConfigError) as exc:
            run(cfg)
        assert exc.value.errors == errors
        assert capsys.readouterr().err == ""  # not even the run count
        assert not out.exists()

    @pytest.mark.parametrize("name, axes, errors", [
        ("equilibrium_golden", [("equilibrium.shock.delta_contracting", [0.1, 0.9]),
                                ("equilibrium.shock", [{}])],
         [("sweep.axes[1].path", "would replace the earlier axis path "
                                 "'equilibrium.shock.delta_contracting' at every point")]),
        ("settle_fixture", [("settle.disputes.j", [1.0])],
         [("settle.disputes.j", "path runs through settle.disputes, a list, not an object")]),
    ], ids=["path-above-an-earlier-path", "path-through-a-list"])
    def test_its_axis_paths_are_walked_before_the_run_starts(self, tmp_path, capsys, name,
                                                            axes, errors):
        spec = SweepSpec(name.split("_")[0], [SweepAxis(p, v) for p, v in axes])
        out = tmp_path / "sweep.csv"
        with pytest.raises(ConfigError) as exc:
            run(RunConfig("sweep", spec, 0, str(out), None, shipped(name)))
        assert exc.value.errors == errors
        assert capsys.readouterr().err == ""  # not even the run count
        assert not out.exists()

    def test_a_value_json_cannot_hold_is_named_by_its_repr_as_a_json_string(self, tmp_path):
        spec = SweepSpec("equilibrium", [SweepAxis("equilibrium.curve.kappa", [Fraction(1, 2)])])
        with pytest.raises(ConfigError) as exc:
            run(RunConfig("sweep", spec, 0, str(tmp_path / "sweep.csv"), None,
                          shipped("equilibrium_golden")))
        assert exc.value.errors == [
            ('sweep point (equilibrium.curve.kappa="Fraction(1, 2)") -> equilibrium.curve.kappa',
             "must be a number, got Fraction(1, 2)")]

    def test_a_value_json_cannot_write_is_named_by_its_repr_as_a_json_string(self, tmp_path,
                                                                             capsys):
        # keys of mixed types, which sort_keys cannot order: the reader's fault, not a TypeError
        spec = SweepSpec("equilibrium", [SweepAxis("equilibrium.shock",
                                                   [{1: 0.5, "delta_litigation": 0.1}])])
        out = tmp_path / "sweep.csv"
        with pytest.raises(ConfigError) as exc:
            run(RunConfig("sweep", spec, 0, str(out), None, shipped("equilibrium_golden")))
        assert exc.value.errors == [
            ("sweep point (equilibrium.shock=\"{1: 0.5, 'delta_litigation': 0.1}\") -> "
             "equilibrium.shock.1", "unknown key")]
        assert capsys.readouterr().err == "sweep: 1 grid point(s) x 1 replicate(s) = 1 run(s)\n"
        assert not out.exists()

    def test_past_the_run_limit_is_refused_when_built(self, tmp_path, monkeypatch):
        def no_run(params, seed):
            raise AssertionError("a sweep past the run limit started")

        header, _ = runner._MODELS["equilibrium"]
        monkeypatch.setitem(runner._MODELS, "equilibrium", (header, no_run))
        with pytest.raises(DomainError) as exc:
            run(RunConfig("sweep", SweepSpec("equilibrium", [
                SweepAxis("equilibrium.curve.kappa", [1.0])], replicates=2 * 10**6),
                0, str(tmp_path / "sweep.csv"), None, shipped("equilibrium_golden")))
        assert str(exc.value) == "grid points x replicates = 2000000, above the limit of 1000000"


def rebuilt(value):
    """`value` built again in code: each dataclass by its constructor from its fields,
    each list (a loaded DisputeBatch too) as a list of its items rebuilt."""
    if is_dataclass(value):
        return type(value)(**{f.name: rebuilt(getattr(value, f.name)) for f in fields(value)})
    if isinstance(value, (list, DisputeBatch)):
        return [rebuilt(item) for item in value]
    return value


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_shipped_configs_replay_through_params_built_in_code(name, tmp_path):
    """No check a dataclass makes when built refuses a shipped config or changes its
    bytes: its loaded params, rebuilt from their fields, give the golden digests."""
    cfg = load_config(f"{CONFIG_DIR}/{name}.json", name.split("_")[0])
    params = rebuilt(cfg.params)
    assert params == cfg.params and params is not cfg.params
    out, svg = tmp_path / "out.csv", tmp_path / "out.svg"
    run(RunConfig(cfg.model, params, cfg.seed, str(out), str(svg), cfg.raw))
    assert (sha256(out), sha256(svg)) == DIGESTS[name]


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

    def spy(self, monkeypatch, module, name):
        calls = []
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(a) or real(*a, **kw))
        return calls

    def test_equilibrium_solves_twice_per_run(self, tmp_path, monkeypatch):
        solves = self.spy(monkeypatch, contracts, "solve_completeness")
        monkeypatch.setattr(runner, "charts", None)  # drawing a chart would raise
        run_model("equilibrium", f"{CONFIG_DIR}/equilibrium_shock.json", tmp_path / "eq.csv")
        assert len(solves) == 2
        solves.clear()
        run_model("sweep", f"{CONFIG_DIR}/sweep_litigation_delta.json", tmp_path / "sw.csv")
        assert len(solves) == 2 * 6

    def test_evolve_simulates_once_per_run_and_replicate(self, tmp_path, monkeypatch):
        sims = self.spy(monkeypatch, evolution, "simulate")
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

    @pytest.mark.parametrize("model, message", [
        ("settle", "model 'settle' runs on SettleParams, got EquilibriumParams"),
        ("sweep", "model 'sweep' runs on SweepSpec, got EquilibriumParams"),
        ("bogus", "unknown model 'bogus'; expected one of ['equilibrium', 'settle', "
                  "'frivolous', 'evolve', 'composition', 'sweep']"),
    ])
    def test_params_of_another_model_are_refused_before_any_work(self, tmp_path, monkeypatch,
                                                                 model, message):
        def no_run(*args):
            raise AssertionError("a model ran on params that are not its own")

        for name, (header, _) in list(runner._MODELS.items()):
            monkeypatch.setitem(runner._MODELS, name, (header, no_run))
        monkeypatch.setattr(runner, "_sweep", no_run)
        out = tmp_path / "x.csv"
        params = EquilibriumParams(GapCurve(1.0, 2.0, 0.5, 1.0))
        with pytest.raises(DomainError) as exc:
            run(RunConfig(model, params, 0, str(out), None, {}))
        assert str(exc.value) == message
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, "1", None])
    @pytest.mark.parametrize("model", ["equilibrium", "sweep"])
    def test_a_seed_outside_u64_is_refused_before_any_work(self, tmp_path, monkeypatch, model,
                                                          seed):
        def no_run(*args):
            raise AssertionError("a model ran on a seed outside [0, 2^64)")

        for name, (header, _) in list(runner._MODELS.items()):
            monkeypatch.setitem(runner._MODELS, name, (header, no_run))
        monkeypatch.setattr(runner, "_sweep", no_run)
        cfg = load_config(f"{CONFIG_DIR}/sweep_litigation_delta.json", model)
        cfg.seed, cfg.output_path = seed, str(tmp_path / "x.csv")
        with pytest.raises(DomainError) as exc:
            run(cfg)
        assert str(exc.value) == f"seed must be an integer in [0, 2^64): got {seed!r}"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seeds_at_the_ends_of_u64_run(self, tmp_path, seed):
        cfg = load_config(f"{CONFIG_DIR}/sweep_litigation_delta.json", "sweep")
        cfg.seed, cfg.output_path = seed, str(tmp_path / "x.csv")
        run(cfg)
        assert {row[2] for row in read_csv(tmp_path / "x.csv")[1]} == {str(seed)}


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

    def test_each_output_path_is_walked_once(self, tmp_path, monkeypatch, capsys):
        # by run, before the model: the writer and the CLI walk none themselves
        walks, walks_at_model = [], []

        def counted(path):
            walks.append(path)
            return target(path)

        def model(params, seed):
            walks_at_model.append(len(walks))
            return solve(params, seed)

        target = runner._target
        for module in list(sys.modules.values()):
            if getattr(module, "_target", None) is target:
                monkeypatch.setattr(module, "_target", counted)
        header, solve = runner._MODELS["equilibrium"]
        monkeypatch.setitem(runner._MODELS, "equilibrium", (header, model))
        out, svg = str(tmp_path / "eq.csv"), str(tmp_path / "eq.svg")
        assert main(["equilibrium", "--config", f"{CONFIG_DIR}/equilibrium_golden.json",
                     "--out", out, "--svg", svg]) == 0
        assert sorted(walks) == [out, svg]
        assert walks_at_model == [2]
        assert capsys.readouterr().out == f"wrote {out} and {svg}\n"

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

    def test_seed_that_is_not_a_number_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["evolve", "--config", f"{CONFIG_DIR}/evolve_tort.json",
                     "--out", str(out), "--seed", "abc"])
        assert code == 1
        assert capsys.readouterr().err.endswith(
            "error: argument --seed: seed must be a base-10 integer: got 'abc'\n")
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "equilibrium" in capsys.readouterr().out

    def test_missing_out_is_usage_error(self, capsys):
        code = main(["equilibrium", "--config", "x.json"])
        assert code == 1
        capsys.readouterr()


def run_cli_process(tmp_path, model, payload, *args):
    """`python -m lexsim.cli` on `payload`, and `args` after it, in a fresh process:
    (exit code, stderr, CSV path)."""
    out = tmp_path / f"{model}.csv"
    argv = [sys.executable, "-m", "lexsim.cli", model, "--config",
            write_config(tmp_path, payload, f"{model}.json"), "--out", str(out), *args]
    env = {**os.environ, "PYTHONPATH": "src" + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(argv, capture_output=True, text=True, env=env, check=False)
    assert "Traceback" not in done.stderr
    return done.returncode, done.stderr, out


class TestOverflowingInputs:
    """Inputs whose arithmetic leaves float range keep to the CLI contract."""

    def test_int_stakes_past_int64_run_as_their_floats(self, tmp_path):
        payload = shipped("evolve_tort")
        payload["evolve"]["area"].update(stakes_j=10**19, stakes_multiplier=3)
        code, err, ints = run_cli_process(tmp_path, "evolve", payload)
        assert (code, err) == (0, "")
        payload["evolve"]["area"].update(stakes_j=1e19, stakes_multiplier=3.0)
        ints = ints.rename(tmp_path / "ints.csv")
        code, err, floats = run_cli_process(tmp_path, "evolve", payload)
        assert (code, err) == (0, "")
        assert ints.read_bytes() == floats.read_bytes()

    def test_stakes_past_float_range_are_a_config_error(self, tmp_path):
        payload = shipped("evolve_tort")
        payload["evolve"]["area"].update(stakes_j=1e200, stakes_multiplier=1e200)
        code, err, out = run_cli_process(tmp_path, "evolve", payload)
        assert code == 1
        assert err == ("error: config: evolve.area: stakes_j x stakes_multiplier + cost_q + "
                       "cost_g must lie within float range\n")
        assert not out.exists()

    @pytest.mark.parametrize("model", ["frivolous", "evolve"])
    @pytest.mark.parametrize("costs", [dict(d=10.0, s=50.0, j=1.7e308, defense_trial_cost=1e308),
                                       dict(d=9 * 10**307, s=17 * 10**307, j=10**308)],
                             ids=["inf_trial_cost", "int_sum"])
    def test_a_filing_game_past_float_range_is_a_config_error(self, tmp_path, model, costs):
        game = dict(f_o=0.0, f_q=0.0, c_p=0.0, **costs)
        if model == "frivolous":
            payload, where = {"frivolous": {"game": game}}, "frivolous.game"
        else:
            payload, where = shipped("evolve_tort"), "evolve.frivolous.game"
            payload["evolve"]["frivolous"] = {"game": game, "filers_per_period": 3}
        code, err, out = run_cli_process(tmp_path, model, payload)
        assert code == 1
        assert err == (f"error: config: {where}: d + j + defense_trial_cost must lie "
                       "within float range\n")
        assert not out.exists()

    def test_composition_volume_past_float_range_is_a_model_error(self, tmp_path):
        payload = {"composition": {"flat_reduction": 5, "areas": [
            {"name": "tort", "share": 0.5, "unit_cost": 10, "demand_elasticity": 2000},
            {"name": "civil", "share": 0.5, "unit_cost": 20, "demand_elasticity": 1}]}}
        code, err, out = run_cli_process(tmp_path, "composition", payload)
        assert code == 2
        assert err == "error: model: area 'tort': its volume after the cut overflows\n"
        assert not out.exists()

    def test_steep_curve_near_one_solves(self, tmp_path):
        curve = {"b_scale": 733.0285545714837, "beta": 0.0645970488151061,
                 "k_scale": 0.002893833492050116, "kappa": 0.7509342157386577}
        payload = {"equilibrium": {"curve": curve}}
        code, err, out = run_cli_process(tmp_path, "equilibrium", payload)
        assert (code, err) == (0, "")
        header, rows = read_csv(out)
        assert float(dict(zip(header, rows[0]))["g_star_baseline"]) == \
            pytest.approx(1.0 - 8.4e-6, abs=1e-7)


class TestChartSpans:
    """A chart whose data span leaves float range, padded or not, keeps to the CLI contract."""

    def test_a_constant_subnormal_width_charts(self, tmp_path):
        dispute = {"p_q": 0, "p_g": 0, "j": 1, "c_q": 5e-324, "c_g": 0}  # width 5e-324
        payload = {"settle": {"rule": "american", "disputes": [dispute]}}
        svg = tmp_path / "settle.svg"
        code, err, out = run_cli_process(tmp_path, "settle", payload, "--svg", str(svg))
        assert (code, err) == (0, "")
        assert read_csv(out)[1][0][10] == "4.9406564584124654e-324"
        assert "nan" not in svg.read_text() and ">0.5</text>" in svg.read_text()

    @pytest.mark.parametrize("disputes", [
        [{"p_q": 0, "p_g": 1, "j": 1.75e308, "c_q": 0, "c_g": 0},  # widths 1.75e308, -1e308
         {"p_q": 1, "p_g": 0, "j": 1e308, "c_q": 0, "c_g": 0}],
        [{"p_q": 0, "p_g": 1, "j": 1.7e308, "c_q": 0, "c_g": 0},  # widths +-1.7e308
         {"p_q": 1, "p_g": 0, "j": 1.7e308, "c_q": 0, "c_g": 0}],
    ])
    def test_a_width_span_past_float_range_is_a_model_error(self, tmp_path, disputes):
        payload = {"settle": {"rule": "american", "disputes": disputes}}
        svg = tmp_path / "settle.svg"
        code, err, out = run_cli_process(tmp_path, "settle", payload, "--svg", str(svg))
        assert (code, err) == (2, "error: model: the y values span more than the float range\n")
        assert not out.exists() and not svg.exists()


class TestDeepNesting:
    """Nesting deeper than the interpreter's recursion limit is a config error."""

    DEEP = "[" * 900 + "]" * 900

    def run_cli(self, tmp_path, model, text):
        cfg = tmp_path / "deep.json"
        cfg.write_text(text)
        argv = [sys.executable, "-m", "lexsim.cli", model, "--config", str(cfg),
                "--out", str(tmp_path / "out.csv")]
        env = {**os.environ, "PYTHONPATH": "src" + os.pathsep + os.environ.get("PYTHONPATH", "")}
        done = subprocess.run(argv, capture_output=True, text=True, env=env, check=False)
        assert done.returncode == 1, done.stderr
        assert "Traceback" not in done.stderr
        *_, err = done.stderr.splitlines()  # a sweep first says how many runs it plans
        assert err.startswith("error: config: ")
        assert not (tmp_path / "out.csv").exists()
        return err

    def test_json_nested_past_the_limit(self, tmp_path):
        err = self.run_cli(tmp_path, "equilibrium", "[" * 100_000 + "]" * 100_000)
        assert err.startswith("error: config: : invalid JSON: maximum recursion depth")

    def test_deep_sweep_axis_value(self, tmp_path):
        payload = shipped("sweep_litigation_delta")
        payload["sweep"]["axes"][0]["values"] = ["DEEP"]
        err = self.run_cli(tmp_path, "sweep", json.dumps(payload).replace('"DEEP"', self.DEEP))
        assert "-> equilibrium.shock.delta_litigation: must be a number" in err

    def test_deep_value_under_an_unknown_key_of_the_swept_block(self, tmp_path):
        payload = shipped("sweep_litigation_delta")
        payload["equilibrium"]["stray"] = "DEEP"
        err = self.run_cli(tmp_path, "sweep", json.dumps(payload).replace('"DEEP"', self.DEEP))
        assert "-> equilibrium.stray: unknown key" in err


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

    @pytest.mark.parametrize("out, svg, to_stdout", [
        ("/dev/stdout", None, True), ("eq.csv", "/dev/stdout", True), ("eq.csv", None, False),
        ("eq.csv", "eq.svg", False), ("/dev/null", None, False)])
    def test_run_reports_an_output_on_fd_1(self, tmp_path, monkeypatch, capfd, out, svg,
                                           to_stdout):
        cfg = os.path.abspath(f"{CONFIG_DIR}/equilibrium_golden.json")
        monkeypatch.chdir(tmp_path)
        result = run_model("equilibrium", cfg, out, svg)
        capfd.readouterr()
        assert (result.csv_path, result.svg_path, result.rows) == (out, svg, 1)
        assert result.to_stdout is to_stdout

    def test_stdout_into_a_pipe(self, tmp_path, capsys):
        expected = self.expected(tmp_path)
        capsys.readouterr()
        done = self.run_cli(subprocess.PIPE)
        assert done.returncode == 0
        assert done.stderr == b"wrote /dev/stdout\n"
        assert done.stdout == expected


class TestClosedStdout:
    """A `wrote` line into a pipe whose reader has gone is an io error, not a traceback;
    an output to fd 1 when fd 1 is closed is one before the model runs."""

    @pytest.mark.parametrize("out, svg", [("/dev/stdout", None), ("x.csv", "/dev/stdout"),
                                          ("/proc/thread-self/fd/1", None)])
    def test_an_output_to_closed_stdout_is_refused_before_the_model(self, tmp_path, out, svg):
        argv = ["sh", "-c", 'exec "$@" >&-', "sh",  # the run starts with fd 1 closed
                sys.executable, "-m", "lexsim.cli", "sweep", "--out", out,
                "--config", os.path.abspath(f"{CONFIG_DIR}/sweep_litigation_delta.json")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.abspath("src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
        done = subprocess.run(argv + ([] if svg is None else ["--svg", svg]), cwd=tmp_path,
                              stderr=subprocess.PIPE, text=True, env=env, check=False)
        assert (done.returncode, done.stderr) == (
            2, f"error: io: [Errno 2] No such file or directory: {svg or out!r}\n")  # no `sweep:`
        assert os.listdir(tmp_path) == []

    def test_the_wrote_line_into_a_closed_pipe(self, tmp_path):
        out = tmp_path / "eq.csv"
        argv = [sys.executable, "-m", "lexsim.cli", "equilibrium", "--config",
                f"{CONFIG_DIR}/equilibrium_golden.json", "--out", str(out)]
        env = {**os.environ, "PYTHONPATH": "src" + os.pathsep + os.environ.get("PYTHONPATH", "")}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  env=env, check=False)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (2, "error: io: [Errno 32] Broken pipe\n")
        assert sha256(out) == DIGESTS["equilibrium_golden"][0]


class TestUtf8:
    """A config is read as UTF-8 and every output written as UTF-8, whatever the locale."""

    C_LOCALE = {"PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "PYTHONUTF8": "0"}
    UTF8_MODE = {"PYTHONUTF8": "1"}

    def run_cli(self, tmp_path, model, config: bytes, locale, out="out.csv"):
        """(exit code, stderr, CSV path, SVG path, stdout) of a fresh `python -m lexsim.cli`."""
        cfg, out, svg = tmp_path / "cfg.json", tmp_path / out, tmp_path / "out.svg"
        cfg.write_bytes(config)
        argv = [sys.executable, "-m", "lexsim.cli", model, "--config", str(cfg),
                "--out", str(out), "--svg", str(svg)]
        env = {**os.environ, **locale,
               "PYTHONPATH": "src" + os.pathsep + os.environ.get("PYTHONPATH", "")}
        done = subprocess.run(argv, capture_output=True, env=env, check=False)
        assert b"Traceback" not in done.stderr
        return done.returncode, done.stderr.decode(), out, svg, done.stdout

    @pytest.mark.parametrize("locale", [{}, C_LOCALE], ids=["default", "C"])
    def test_undecodable_config_bytes_are_a_config_error(self, tmp_path, locale):
        code, err, out, svg, _ = self.run_cli(tmp_path, "equilibrium", b'{"x": "\xff"}', locale)
        assert (code, err) == (1, "error: config: : invalid JSON: 'utf-8' codec can't decode "
                                  "byte 0xff in position 7: invalid start byte\n")
        assert not out.exists() and not svg.exists()

    def test_a_non_ascii_name_under_the_c_locale(self, tmp_path):
        payload = shipped("composition_docket")
        payload["composition"]["areas"][0]["name"] = "civil\u03a9"
        outputs = set()
        for ascii_only in (False, True):  # the name as UTF-8 bytes, then as an ASCII escape
            config = json.dumps(payload, ensure_ascii=ascii_only).encode()
            for locale in (self.C_LOCALE, self.UTF8_MODE):
                code, err, out, svg, _ = self.run_cli(tmp_path, "composition", config, locale)
                assert (code, err) == (0, "")
                outputs.add((sha256(out), sha256(svg)))
        assert len(outputs) == 1
        assert out.read_bytes().count("civil\u03a9".encode()) == 1
        assert sha256(out).startswith("5e5d47aa")
        code, _, _, _, stdout = self.run_cli(tmp_path, "composition", config, self.C_LOCALE,
                                             out="/dev/stdout")  # the join keeps the absolute path
        assert (code, stdout) == (0, out.read_bytes())

    @pytest.mark.parametrize("name, encoding, shown", [
        (os.fsdecode(b"\xfd.csv"), "utf-8:strict", r"\udcfd.csv"),  # not UTF-8
        ("\xe9.csv", "ascii", r"\xe9.csv")], ids=["undecodable", "ascii"])
    def test_the_wrote_line_escapes_what_stdout_cannot_encode(self, tmp_path, name, encoding,
                                                              shown):
        config = Path(f"{CONFIG_DIR}/equilibrium_golden.json").read_bytes()
        code, err, out, svg, stdout = self.run_cli(tmp_path, "equilibrium", config,
                                                   {"PYTHONIOENCODING": encoding}, out=name)
        assert (code, err, stdout) == (0, "", f"wrote {tmp_path}/{shown} and {svg}\n".encode())
        assert (sha256(out), sha256(svg)) == DIGESTS["equilibrium_golden"]

    def test_a_lone_surrogate_is_a_config_error(self, tmp_path):
        payload = shipped("composition_docket")
        payload["composition"]["areas"][0]["name"] = "\ud800"
        (tmp_path / "out.csv").write_bytes(b"kept")
        code, err, out, svg, _ = self.run_cli(tmp_path, "composition",
                                              json.dumps(payload).encode(), {})
        assert (code, err) == (1, "error: config: composition.areas[0].name: must not hold a "
                                  "lone surrogate, got '\\ud800'\n")
        assert out.read_bytes() == b"kept" and not svg.exists()
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "out.csv"]

    def test_a_lone_surrogate_built_in_code_is_a_model_error(self, tmp_path, capsys,
                                                             monkeypatch):
        # no config can hold the name, so params built in code stand in for one
        cfg = load_config(f"{CONFIG_DIR}/composition_docket.json", "composition")
        areas = cfg.params.areas
        cfg.params = replace(cfg.params, areas=[replace(areas[0], name="\ud800"), *areas[1:]])
        monkeypatch.setattr(cli, "load_config", lambda path, model: cfg)
        out = tmp_path / "out.csv"
        out.write_bytes(b"kept")
        assert main(["composition", "--config", "built.json", "--out", str(out),
                     "--svg", str(tmp_path / "out.svg")]) == 2
        assert capsys.readouterr() == ("", "error: model: 'utf-8' codec can't encode character "
                                           "'\\ud800' in position 81: surrogates not allowed\n")
        assert out.read_bytes() == b"kept"
        assert os.listdir(tmp_path) == ["out.csv"]


class TestFloatFormatting:
    def test_seventeen_digit_round_trip(self, tmp_path):
        out = tmp_path / "eq.csv"
        run_model("equilibrium", f"{CONFIG_DIR}/equilibrium_golden.json", out)
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        text = row["g_star_baseline"]
        assert float(text) == float(format(float(text), ".17g"))
        assert os.linesep not in ("\n",) or "\r" not in out.read_text()


def f17_cells(values):
    """`runner._f_cells` of a float64 column, as one str per cell."""
    cells = runner._f_cells(np.asarray(values, dtype=np.float64))
    assert cells.dtype == np.uint8 and cells.shape[0] == len(values) and cells.shape[1] <= 24
    return [bytes(row).rstrip(b"\0").decode("ascii") for row in cells]


class TestFloatCells:
    """`runner._f_cells`, the column form of `_f`, byte for byte against format(x, ".17g")."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_floats(self, values):  # subnormals, -0.0, inf and nan included
        assert f17_cells(values) == [f17(v) for v in values]

    @pytest.mark.parametrize("kind", ["bit patterns", "magnitudes"])
    def test_half_a_million_random_values(self, kind):
        rng = np.random.default_rng(15)
        for _ in range(2):  # two calls of 250k values keep the arrays they make small
            if kind == "bit patterns":
                values = rng.integers(0, 2**64, 250_000, dtype=np.uint64).view(np.float64)
            else:
                values = 10.0 ** rng.uniform(-8.0, 18.0, 250_000) * rng.choice([-1.0, 1.0],
                                                                               250_000)
            cells = np.ascontiguousarray(runner._f_cells(values))
            got = cells.view(f"S{cells.shape[1]}")[:, 0]
            expected = np.fromiter((f17(v).encode() for v in values.tolist()), "S24",
                                   len(values))
            wrong = np.flatnonzero(got != expected)
            assert [(values[i], got[i], expected[i]) for i in wrong[:5]] == []

    def test_no_value_rounds_up_to_the_next_decade(self):
        # the largest double below 10^j, for every decade the array path covers, is
        # more than half a unit of its 17th digit below it, so 17 digits never carry
        for j in range(-3, 16):
            below = math.nextafter(float(Fraction(10)**j), 0.0)
            if Fraction(math.nextafter(below, math.inf)) < Fraction(10)**j:
                below = math.nextafter(below, math.inf)
            assert Fraction(below) * Fraction(10)**(17 - j) < 10**17 - Fraction(1, 2)

    def test_neighbours_of_powers_of_ten(self):
        # the double nearest 10^k for k in -5..16 (1e-4 and 1e15 bound the array path)
        # and its two nextafter neighbours, both signs
        centres = [float(Fraction(10)**k) for k in range(-5, 17)]
        values = [v for c in centres
                  for v in (math.nextafter(c, 0.0), c, math.nextafter(c, math.inf))]
        values += [-v for v in values]
        assert f17_cells(values) == [f17(v) for v in values]

    @pytest.mark.parametrize("value, text", [
        (123456789012345.125, "123456789012345.12"),  # exact ties of the 17th digit,
        (123456789012345.375, "123456789012345.38"),  # rounded half to even
        (-123456789012345.625, "-123456789012345.62"),
        (0.5, "0.5"), (2.5, "2.5"), (1e-4, "0.0001"),
        (0.1, "0.10000000000000001"), (-0.0001234, "-0.00012339999999999999"),
        (999999999999999.875, "999999999999999.88"), (1e15, "1000000000000000"),
        (0.0, "0"), (-0.0, "-0"), (5e-324, "4.9406564584124654e-324"),
    ])
    def test_fixed_cells(self, value, text):
        assert f17(value) == text
        assert f17_cells([value, value]) == [text, text]


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
    # j + c_q + c_g past float range is no Dispute
    dispute = st.tuples(PROB, PROB, STAKE, COST, COST).filter(
        lambda v: math.isfinite(float(v[2]) + v[3] + v[4]))
    disputes = draw(st.lists(dispute.map(lambda v: Dispute(*v)), min_size=1, max_size=12))
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
        # each j + c_q + c_g lies inside float range, but English widths and their
        # mean do not
        disputes = [{"p_q": 0.9, "p_g": 0.1, "j": 1.5e308, "c_q": 1.2e307, "c_g": 1.2e307},
                    {"p_q": 0.1, "p_g": 0.9, "j": 1e307, "c_q": 8e307, "c_g": 8e307},
                    {"p_q": 0.0, "p_g": 1.0, "j": 1.0, "c_q": 1e308, "c_g": 7e307}]
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
        assert "inf" in out.read_text()

    @pytest.mark.parametrize("rule", list(FeeRule))
    def test_ends_summing_past_float_range_settle_finite_through_the_cli(self, rule, tmp_path,
                                                                         capsys):
        payload = {"settle": {"rule": rule.value, "cost_reduction": 0.0, "disputes": [
            {"p_q": 1.0, "p_g": 1.0, "j": 1.7e308, "c_q": 0.0, "c_g": 0.0}]}}
        out = tmp_path / "settle.csv"
        assert main(["settle", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert (row["outcome"], row["lower"], row["upper"], row["amount"]) == \
            ("settle", f17(1.7e308), f17(1.7e308), f17(1.7e308))


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

    def test_names_as_long_as_open_accepts_are_staged(self, tmp_path, capsys):
        # 250 bytes: a temporary named after its target would pass the 255-byte limit
        out, svg = tmp_path / ("o" * 246 + ".csv"), tmp_path / ("s" * 246 + ".svg")
        assert main(["equilibrium", "--config", self.CFG, "--out", str(out),
                     "--svg", str(svg)]) == 0
        capsys.readouterr()
        assert (sha256(out), sha256(svg)) == DIGESTS["equilibrium_golden"]
        assert sorted(os.listdir(tmp_path)) == [out.name, svg.name]

    def refuse_svg_temporary(self, tmp_path, monkeypatch):
        """Work in `tmp_path`, which holds eq.csv, with os.open refusing temporaries in charts/."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "charts").mkdir()
        (tmp_path / "eq.csv").write_bytes(b"old\n")
        real_open = os.open

        def refuse(path, *args, **kwargs):
            if os.path.dirname(path) == str(tmp_path / "charts") and path.endswith(".tmp"):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", refuse)

    def test_a_temporary_open_refuses_is_io_and_keeps_an_existing_csv(self, tmp_path, capsys,
                                                                      monkeypatch):
        cfg = os.path.abspath(self.CFG)
        self.refuse_svg_temporary(tmp_path, monkeypatch)
        assert main(["equilibrium", "--config", cfg, "--out", "eq.csv",
                     "--svg", "charts/eq.svg"]) == 2
        assert capsys.readouterr().err == \
            "error: io: [Errno 13] Permission denied: 'charts/eq.svg'\n"
        assert (tmp_path / "eq.csv").read_bytes() == b"old\n"
        assert [files for _, _, files in os.walk(tmp_path)] == [["eq.csv"], []]

    def test_a_temporary_left_unremoved_keeps_the_first_error(self, tmp_path, capsys,
                                                              monkeypatch):
        cfg = os.path.abspath(self.CFG)
        self.refuse_svg_temporary(tmp_path, monkeypatch)

        def refuse_unlink(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        monkeypatch.setattr(os, "unlink", refuse_unlink)
        assert main(["equilibrium", "--config", cfg, "--out", "eq.csv",
                     "--svg", "charts/eq.svg"]) == 2
        monkeypatch.undo()
        assert capsys.readouterr().err == \
            "error: io: [Errno 13] Permission denied: 'charts/eq.svg'\n"
        assert (tmp_path / "eq.csv").read_bytes() == b"old\n"
        left = sorted(os.listdir(tmp_path))  # the CSV's staged temporary stays
        assert len(left) == 3 and left[0].endswith(".tmp") and left[1:] == ["charts", "eq.csv"]

    @staticmethod
    def counting_model(monkeypatch):
        """Count the equilibrium model's calls, in the list returned."""
        calls, (header, solve) = [], runner._MODELS["equilibrium"]
        monkeypatch.setitem(runner._MODELS, "equilibrium",
                            (header, lambda params, seed: calls.append(seed) or solve(params, seed)))
        return calls

    def check_refused_before_the_model(self, tmp_path, capsys, monkeypatch, cfg):
        """In `tmp_path`, whose charts/ takes no new file, a run into eq.csv and
        charts/eq.svg is io, exit 2, before the model, and every file is kept as it was."""
        os.chmod(tmp_path / "eq.csv", 0o640)

        def files():
            return {p: (p.read_bytes(), stat.S_IMODE(os.stat(p).st_mode))
                    for p in tmp_path.rglob("*") if p.is_file()}

        before, calls = files(), self.counting_model(monkeypatch)
        assert main(["equilibrium", "--config", cfg, "--out", "eq.csv",
                     "--svg", "charts/eq.svg"]) == 2
        assert capsys.readouterr() == \
            ("", "error: io: [Errno 13] Permission denied: 'charts/eq.svg'\n")
        assert calls == []
        assert files() == before  # no temporary either

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_a_folder_refusing_temporaries_stops_the_run_before_the_model(
            self, tmp_path, capsys, monkeypatch, existing):
        cfg = os.path.abspath(self.CFG)
        self.refuse_svg_temporary(tmp_path, monkeypatch)
        if existing:
            (tmp_path / "charts" / "eq.svg").write_bytes(b"old svg\n")
        self.check_refused_before_the_model(tmp_path, capsys, monkeypatch, cfg)

    @pytest.mark.skipif(os.geteuid() == 0, reason="root writes into a read-only folder")
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_a_read_only_folder_stops_the_run_before_the_model(self, tmp_path, capsys,
                                                               monkeypatch, existing):
        cfg = os.path.abspath(self.CFG)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "charts").mkdir()
        (tmp_path / "eq.csv").write_bytes(b"old\n")
        if existing:
            (tmp_path / "charts" / "eq.svg").write_bytes(b"old svg\n")
        os.chmod(tmp_path / "charts", 0o555)
        try:
            self.check_refused_before_the_model(tmp_path, capsys, monkeypatch, cfg)
        finally:
            os.chmod(tmp_path / "charts", 0o755)

    @pytest.mark.parametrize("unlink_refused", [False, True], ids=["removed", "left"])
    def test_a_folder_refusing_the_writers_temporary_keeps_an_existing_csv(
            self, tmp_path, capsys, monkeypatch, unlink_refused):
        # charts/ takes the probe's temporary and refuses the writer's, as a folder made
        # read-only while the model runs: the writer's own error and cleanup
        cfg = os.path.abspath(self.CFG)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "charts").mkdir()
        (tmp_path / "eq.csv").write_bytes(b"old\n")
        real_open, opened = os.open, []

        def refuse_second(path, *args, **kwargs):
            if os.path.dirname(path) == str(tmp_path / "charts") and path.endswith(".tmp"):
                opened.append(path)
                if len(opened) == 2:
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return real_open(path, *args, **kwargs)

        real_unlink, calls = os.unlink, self.counting_model(monkeypatch)

        def unlink(path, *args, **kwargs):  # refused once the model ran, after the probes
            if unlink_refused and calls:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", refuse_second)
        monkeypatch.setattr(os, "unlink", unlink)
        assert main(["equilibrium", "--config", cfg, "--out", "eq.csv",
                     "--svg", "charts/eq.svg"]) == 2
        monkeypatch.undo()
        assert capsys.readouterr() == \
            ("", "error: io: [Errno 13] Permission denied: 'charts/eq.svg'\n")
        assert len(calls) == 1 and len(opened) == 2
        assert (tmp_path / "eq.csv").read_bytes() == b"old\n"
        left = sorted(os.listdir(tmp_path))  # the CSV's staged temporary, if unlink refused
        assert left[-2:] == ["charts", "eq.csv"] and len(left) == 2 + unlink_refused
        assert all(name.endswith(".tmp") for name in left[:-2])
        assert os.listdir(tmp_path / "charts") == []

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

    @pytest.mark.parametrize("out, svg", [("a.csv", ""), ("a.csv", "missing/.."),
                                          ("", None), ("missing/../b.csv", None),
                                          ("b.csv/", None)])
    def test_a_path_open_refuses_writes_nothing(self, tmp_path, capsys, monkeypatch, out, svg):
        # '' and a trailing slash name no file, and `missing/..` no directory, as the OS
        # walks them, whatever they resolve to as text
        cfg = os.path.abspath(self.CFG)
        (tmp_path / "work").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        argv = ["equilibrium", "--config", cfg, "--out", out] + ([] if svg is None else
                                                                 ["--svg", svg])
        assert main(argv) == 2
        bad = out if svg is None else svg
        assert capsys.readouterr() == ("", f"error: io: [Errno 2] No such file or directory: "
                                           f"{bad!r}\n")
        assert [files for _, _, files in os.walk(tmp_path)] == [[], []]

    @pytest.mark.parametrize("svg, err_no", [("", 2), ("missing/..", 2), ("a.csv/", 20)])
    def test_an_existing_csv_is_kept_when_the_svg_path_is_refused(self, tmp_path, capsys,
                                                                   monkeypatch, svg, err_no):
        # `a.csv/` names no file although it resolves, as text, to the CSV output
        cfg = os.path.abspath(self.CFG)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.csv").write_bytes(b"old\n")
        assert main(["equilibrium", "--config", cfg, "--out", "a.csv", "--svg", svg]) == 2
        assert capsys.readouterr().err == \
            f"error: io: [Errno {err_no}] {os.strerror(err_no)}: {svg!r}\n"
        assert (tmp_path / "a.csv").read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["a.csv"]

    def test_a_trailing_slash_after_a_file_keeps_it(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        out.write_bytes(b"old\n")
        assert main(["equilibrium", "--config", self.CFG, "--out", f"{out}/"]) == 2
        assert capsys.readouterr() == ("", f"error: io: [Errno 20] Not a directory: "
                                           f"'{out}/'\n")
        assert out.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["a.csv"]

    @pytest.mark.parametrize("svg", ["nothere/../x.csv", "x.csv/"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_an_svg_path_open_refuses_is_io_before_any_clash(self, tmp_path, capsys,
                                                              monkeypatch, svg, existing):
        # as text both name the CSV output; open refuses both, and that is found first
        cfg = os.path.abspath(self.CFG)
        monkeypatch.chdir(tmp_path)
        if existing:
            (tmp_path / "x.csv").write_bytes(b"old\n")
        err_no = 20 if existing and svg == "x.csv/" else 2
        assert main(["equilibrium", "--config", cfg, "--out", "x.csv", "--svg", svg]) == 2
        assert capsys.readouterr() == \
            ("", f"error: io: [Errno {err_no}] {os.strerror(err_no)}: {svg!r}\n")
        assert TestCliContract.files(tmp_path) == ({"x.csv": b"old\n"} if existing else {})

    @pytest.mark.parametrize("out, svg", [("evolve.csv", "no_such_dir/e.svg"),
                                          ("no_such_dir/e.csv", "evolve.svg"),
                                          ("evolve.csv/", None),
                                          ("evolve.csv", "link.svg"), ("link.svg", None),
                                          ("/proc/x.csv", None), ("evolve.csv", "/proc/x.svg"),
                                          ("sock", None), ("evolve.csv", "sock")])
    def test_a_refused_path_stops_the_run_before_the_model(self, tmp_path, capsys,
                                                           monkeypatch, out, svg):
        calls = []
        monkeypatch.setattr(evolution, "simulate", lambda *a, **kw: calls.append(a))
        cfg = os.path.abspath(f"{CONFIG_DIR}/evolve_tort.json")
        monkeypatch.chdir(tmp_path)
        os.symlink("no_such_dir/e.svg", "link.svg")  # open would create e.svg where no dir is
        with socket.socket(socket.AF_UNIX) as sock:  # open refuses a socket with ENXIO
            sock.bind("sock")
        argv = ["evolve", "--config", cfg, "--out", out] + ([] if svg is None else
                                                            ["--svg", svg])
        assert main(argv) == 2
        refused = svg if out == "evolve.csv" else out
        err_no = errno.ENXIO if refused == "sock" else errno.ENOENT
        assert capsys.readouterr() == \
            ("", f"error: io: [Errno {err_no}] {os.strerror(err_no)}: {refused!r}\n")
        run_cfg = load_config(cfg, "evolve")  # and `run` itself, as code calls it
        run_cfg.output_path, run_cfg.svg_path = out, svg
        with pytest.raises(OSError) as info:
            run(run_cfg)
        assert (info.value.errno, info.value.filename) == (err_no, refused)
        assert calls == []
        assert sorted(os.listdir(tmp_path)) == ["link.svg", "sock"]


class TestSameFile:
    """`--out` and `--svg` naming one file, found by the file each path resolves to, are
    one config error, exit 1, with nothing written and an existing output kept."""

    CFG = f"{CONFIG_DIR}/equilibrium_golden.json"

    @staticmethod
    def check(capsys, cfg, out, svg):
        assert main(["equilibrium", "--config", cfg, "--out", out, "--svg", svg]) == 1
        assert capsys.readouterr() == ("", f"error: config: svg: {svg!r} is the same file as "
                                           f"the CSV output {out!r}\n")

    @pytest.mark.parametrize("svg", ["a.csv", "sub/../a.csv", "./a.csv", "b.svg"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_paths_to_one_file(self, tmp_path, capsys, monkeypatch, svg, existing):
        cfg = os.path.abspath(self.CFG)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        os.symlink("a.csv", tmp_path / "b.svg")  # dangling until a.csv exists
        if existing:
            (tmp_path / "a.csv").write_bytes(b"old\n")
        self.check(capsys, cfg, "a.csv", svg)
        assert sorted(os.listdir(tmp_path)) == ["a.csv", "b.svg", "sub"][1 - existing:]
        if existing:
            assert (tmp_path / "a.csv").read_bytes() == b"old\n"

    def test_dev_null_twice(self, capsys):
        self.check(capsys, self.CFG, "/dev/null", "/dev/null")

    def test_the_files_checked_are_the_files_written(self, tmp_path, monkeypatch, capsys):
        # b.svg becomes a link to a.csv while the model runs: the run writes what it walked
        def model(params, seed):
            os.symlink("a.csv", tmp_path / "b.svg")
            return solve(params, seed)

        header, solve = runner._MODELS["equilibrium"]
        monkeypatch.setitem(runner._MODELS, "equilibrium", (header, model))
        cfg = os.path.abspath(self.CFG)
        monkeypatch.chdir(tmp_path)
        assert main(["equilibrium", "--config", cfg, "--out", "a.csv", "--svg", "b.svg"]) == 0
        assert capsys.readouterr() == ("wrote a.csv and b.svg\n", "")
        assert (sha256(tmp_path / "a.csv"), sha256(tmp_path / "b.svg")) == \
            DIGESTS["equilibrium_golden"]
        assert stat.S_ISREG(os.lstat(tmp_path / "b.svg").st_mode)

    def test_a_directory_made_while_the_model_runs(self, tmp_path, monkeypatch, capsys):
        # b.svg becomes a directory while the model runs: refused before a.csv is replaced
        def model(params, seed):
            (tmp_path / "b.svg").mkdir()
            return solve(params, seed)

        header, solve = runner._MODELS["equilibrium"]
        monkeypatch.setitem(runner._MODELS, "equilibrium", (header, model))
        cfg = os.path.abspath(self.CFG)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.csv").write_bytes(b"old\n")
        assert main(["equilibrium", "--config", cfg, "--out", "a.csv", "--svg", "b.svg"]) == 2
        assert capsys.readouterr() == ("", "error: io: [Errno 21] Is a directory: 'b.svg'\n")
        assert (tmp_path / "a.csv").read_bytes() == b"old\n"
        assert sorted(os.listdir(tmp_path)) == ["a.csv", "b.svg"]

    def test_stdout_by_two_names(self, tmp_path):
        argv = [sys.executable, "-m", "lexsim.cli", "equilibrium", "--config", self.CFG,
                "--out", "/dev/stdout", "--svg", "/proc/self/fd/1"]
        env = {**os.environ, "PYTHONPATH": "src" + os.pathsep + os.environ.get("PYTHONPATH", "")}
        done = subprocess.run(argv, capture_output=True, text=True, env=env, check=False)
        assert (done.returncode, done.stdout, done.stderr) == (
            1, "", "error: config: svg: '/proc/self/fd/1' is the same file as the CSV output "
                   "'/dev/stdout'\n")


class TestTarget:
    """`runner._target`: what `open(path, "w")` would write and that file's mode."""

    def test_a_new_file(self, tmp_path):
        assert runner._target(str(tmp_path / "n.csv")) == (os.path.realpath(tmp_path / "n.csv"),
                                                           None)

    def test_an_existing_file_through_a_link(self, tmp_path):
        real = tmp_path / "real.csv"
        real.write_text("old")
        os.chmod(real, 0o640)
        os.symlink(real, tmp_path / "link.csv")
        target, mode = runner._target(str(tmp_path / "link.csv"))
        assert target == os.path.realpath(real)
        assert stat.S_ISREG(mode) and stat.S_IMODE(mode) == 0o640

    def test_a_device(self):
        target, mode = runner._target("/dev/null")
        assert target == "/dev/null" and stat.S_ISCHR(mode)

    def test_standard_output(self):
        # fd 1 is whatever pytest captures into, a file, a pipe or a terminal
        assert runner._target("/dev/stdout") == (1, os.fstat(1).st_mode)

    def test_a_closed_descriptor(self):
        fd = os.open(os.devnull, os.O_RDONLY)
        os.close(fd)
        path = f"/proc/self/fd/{fd}"
        with pytest.raises(FileNotFoundError) as info:
            runner._target(path)
        assert info.value.filename == path

    def test_a_socket(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with socket.socket(socket.AF_UNIX) as sock:
            sock.bind("sock")
        with pytest.raises(OSError) as info:
            runner._target("sock")
        assert (info.value.errno, info.value.filename) == (errno.ENXIO, "sock")

    def test_a_folder_that_takes_no_new_file(self):
        with pytest.raises(FileNotFoundError) as info:
            runner._target("/proc/x.csv")
        assert info.value.filename == "/proc/x.csv"

    @pytest.mark.parametrize("path, err", [("", FileNotFoundError), (".", IsADirectoryError),
                                           ("missing/../n.csv", FileNotFoundError),
                                           ("n.csv/", FileNotFoundError)])
    def test_a_path_open_refuses(self, tmp_path, monkeypatch, path, err):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(err) as info:
            runner._target(path)
        assert info.value.filename == path
        with pytest.raises(OSError):  # EISDIR for `n.csv/`, which Linux's open reports
            open(path, "w")


class TestCliContract:
    """The README's CLI contract over mutated shipped configs and bad output paths: exit
    0, 1 or 2; a failure prints one `error:` line, after a sweep's `sweep:` line, creates
    no file and keeps an existing `--out` file's bytes; a success writes both outputs."""

    @staticmethod
    def files(root):
        tree = {}
        for folder, _, names in os.walk(root):
            for name in names:
                with open(os.path.join(folder, name), "rb") as fh:
                    tree[os.path.relpath(os.path.join(folder, name), root)] = fh.read()
        return tree

    @settings(max_examples=600, deadline=None)
    @given(case=mutated(), svg=st.sampled_from(["chart.svg", "", "missing/..", "chart.svg/"]),
           existing=st.booleans())
    def test_mutated_configs_and_output_paths(self, case, svg, existing):
        _, model, raw = case
        home = os.getcwd()
        with tempfile.TemporaryDirectory() as root:
            os.mkdir(os.path.join(root, "work"))  # the run's directory; '' and '..' lead out
            with open(os.path.join(root, "cfg.json"), "w") as fh:
                json.dump(raw, fh)
            if existing:
                with open(os.path.join(root, "work", "out.csv"), "wb") as fh:
                    fh.write(b"old\n")
            before = self.files(root)
            stdout, stderr = io.StringIO(), io.StringIO()
            os.chdir(os.path.join(root, "work"))
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main([model, "--config", "../cfg.json", "--out", "out.csv",
                                 "--svg", svg])
            finally:
                os.chdir(home)
            after = self.files(root)
        lines = stderr.getvalue().splitlines()
        if model == "sweep" and lines and lines[0].startswith("sweep: "):
            lines = lines[1:]
        assert code in (0, 1, 2)
        if code == 0:
            assert (stdout.getvalue(), lines) == (f"wrote out.csv and {svg}\n", [])
            assert set(after) - set(before) <= {"work/out.csv", "work/chart.svg"}
            assert after["work/out.csv"] and after[os.path.join("work", svg)]
        else:
            assert stdout.getvalue() == ""
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert after == before


class TestInterrupt:
    """Ctrl-C during a run is one `error: interrupted` line and exit 130."""

    CFG = f"{CONFIG_DIR}/evolve_tort.json"

    @staticmethod
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    def main(self, out, svg):
        try:
            return main(["evolve", "--config", self.CFG, "--out", str(out), "--svg", str(svg)])
        except KeyboardInterrupt:  # escaping, it would end the whole test session
            pytest.fail("KeyboardInterrupt escaped main")

    def test_interrupted_simulation_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(evolution, "simulate", self.interrupt)
        out, svg = tmp_path / "evolve.csv", tmp_path / "evolve.svg"
        assert self.main(out, svg) == 130
        assert capsys.readouterr() == ("", "error: interrupted\n")
        assert os.listdir(tmp_path) == []

    def test_interrupted_write_keeps_existing_outputs(self, tmp_path, capsys, monkeypatch):
        out, svg = tmp_path / "evolve.csv", tmp_path / "evolve.svg"
        out.write_text("old")
        svg.write_text("old")
        monkeypatch.setattr(os, "replace", self.interrupt)
        assert self.main(out, svg) == 130
        assert capsys.readouterr() == ("", "error: interrupted\n")
        assert out.read_text() == svg.read_text() == "old"
        assert sorted(os.listdir(tmp_path)) == ["evolve.csv", "evolve.svg"]
