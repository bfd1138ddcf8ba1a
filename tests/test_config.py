"""JSON config loading and validation for every model block."""

import json
import math
import os
import resource
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexsim import (
    AreaKind,
    ConfigError,
    Dispute,
    FeeRule,
    SettleParams,
    SweepAxis,
    load_config,
)
from lexsim import config

CONFIG_DIR = "configs"


def write(tmp_path, payload) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload) if not isinstance(payload, str) else payload)
    return str(path)


def equilibrium_block(**overrides):
    curve = {"b_scale": 1.0, "beta": 1.0, "k_scale": 1.0, "kappa": 1.0}
    block = {"curve": curve, "tolerance": 1e-9}
    block.update(overrides)
    return {"equilibrium": block}


def settle_block(**dispute_overrides):
    d = {"p_q": 0.6, "p_g": 0.5, "j": 100.0, "c_q": 10.0, "c_g": 10.0}
    d.update(dispute_overrides)
    return {"settle": {"rule": "american", "disputes": [d], "cost_reduction": 0.0}}


def evolve_block(**overrides):
    block = {
        "area": {
            "name": "negligence", "kind": "tort", "dispute_rate": 0.8,
            "stakes_j": 100.0, "stakes_multiplier": 2.0, "cost_q": 18.0,
            "cost_g": 18.0, "belief_spread": 0.4, "overturn_prob": 0.5,
        },
        "population": {"n_rules": 100, "fraction_efficient": 0.5},
        "periods": 50,
    }
    block.update(overrides)
    return {"evolve": block}


class TestShippedFixtures:
    def test_golden_equilibrium_fixture(self):
        cfg = load_config(f"{CONFIG_DIR}/equilibrium_golden.json", "equilibrium")
        assert cfg.model == "equilibrium"
        assert cfg.seed == 0
        curve = cfg.params.curve
        assert (curve.b_scale, curve.beta, curve.k_scale, curve.kappa) == (1.0, 1.0, 1.0, 1.0)
        assert cfg.params.tolerance == 1e-9

    def test_every_shipped_fixture_loads(self):
        for name, model in [
            ("equilibrium_golden", "equilibrium"),
            ("equilibrium_shock", "equilibrium"),
            ("settle_fixture", "settle"),
            ("frivolous_nuisance", "frivolous"),
            ("evolve_tort", "evolve"),
            ("composition_docket", "composition"),
            ("sweep_litigation_delta", "sweep"),
        ]:
            cfg = load_config(f"{CONFIG_DIR}/{name}.json", model)
            assert cfg.model == model

    def test_evolve_fixture_details(self):
        cfg = load_config(f"{CONFIG_DIR}/evolve_tort.json", "evolve")
        assert cfg.seed == 7
        assert cfg.params.area.kind is AreaKind.TORT
        assert cfg.params.area.fee_rule is FeeRule.AMERICAN
        assert cfg.params.population.n_rules == 2000
        assert cfg.params.periods == 200


class TestLoadFailures:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.json"), "equilibrium")

    def test_invalid_json(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, "{not json"), "equilibrium")
        assert "JSON" in str(exc.value) or "json" in str(exc.value)

    def test_top_level_must_be_object(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, [1, 2, 3]), "equilibrium")

    def test_unknown_model_name(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, equilibrium_block()), "arbitrage")

    def test_missing_model_block(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, equilibrium_block()), "settle")
        assert "settle" in str(exc.value)

    def test_unknown_top_level_key(self, tmp_path):
        payload = equilibrium_block()
        payload["stray"] = 1
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, payload), "equilibrium")
        assert "stray" in str(exc.value)

    def test_unknown_nested_key(self, tmp_path):
        payload = equilibrium_block()
        payload["equilibrium"]["curve"]["gamma"] = 2.0
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, payload), "equilibrium")
        assert "equilibrium.curve" in str(exc.value) and "gamma" in str(exc.value)


class TestConfigFile:
    """A config is a regular file or a pipe of at most 2^28 bytes; anything else is
    refused before it is read to the end."""

    def test_a_device_is_refused_before_memory_runs_out(self, tmp_path):
        # /dev/zero never ends; the address-space limit makes an unbounded read fail fast
        limit = 400 << 20
        argv = [sys.executable, "-m", "lexsim.cli", "equilibrium", "--config", "/dev/zero",
                "--out", str(tmp_path / "z.csv")]
        env = {**os.environ, "PYTHONPATH": "src" + os.pathsep + os.environ.get("PYTHONPATH", "")}
        done = subprocess.run(
            argv, env=env, capture_output=True, timeout=120, check=False,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert (done.returncode, done.stderr) == (
            1, b"error: config: : config must be a regular file or a pipe: '/dev/zero'\n")
        assert os.listdir(tmp_path) == []

    def test_a_directory_is_refused(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^: cannot read config file: \[Errno 21\] "):
            load_config(str(tmp_path), "equilibrium")

    def test_a_file_past_the_limit_is_refused(self, tmp_path, monkeypatch):
        path = write(tmp_path, " " * 2**21 + json.dumps(equilibrium_block()))  # 33 reads
        size = os.path.getsize(path)
        monkeypatch.setattr(config, "_MAX_CONFIG_BYTES", size)
        assert load_config(path, "equilibrium").params.tolerance == 1e-9
        monkeypatch.setattr(config, "_MAX_CONFIG_BYTES", size - 1)
        with pytest.raises(ConfigError) as exc:
            load_config(path, "equilibrium")
        assert exc.value.errors == [("", f"config is over {size - 1} bytes: {path!r}")]

    def test_a_config_from_a_fifo_loads(self, tmp_path):
        fifo = tmp_path / "cfg.fifo"
        os.mkfifo(fifo)
        text = json.dumps(equilibrium_block(tolerance=1e-7))

        def feed():
            with open(fifo, "w") as fh:  # blocks until the loader opens the FIFO
                fh.write(text)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            cfg = load_config(str(fifo), "equilibrium")
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert cfg.params.tolerance == 1e-7


class TestLoneSurrogates:
    """A config string UTF-8 cannot hold is a fault at its field, not a failed write."""

    def test_an_area_name(self, tmp_path):
        payload = json.loads((Path(CONFIG_DIR) / "composition_docket.json").read_text())
        payload["composition"]["areas"][0]["name"] = "\ud800"
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, payload), "composition")
        assert exc.value.errors == [
            ("composition.areas[0].name", "must not hold a lone surrogate, got '\\ud800'")]

    def test_a_choice(self, tmp_path):
        payload = settle_block()
        payload["settle"]["rule"] = "american\udfff"
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, payload), "settle")
        assert exc.value.errors == [
            ("settle.rule", "must not hold a lone surrogate, got 'american\\udfff'")]

    def test_a_surrogate_pair_is_one_character(self, tmp_path):
        payload = evolve_block()
        payload["evolve"]["area"]["name"] = "\ud83d\ude00"  # as json.dumps escapes U+1F600
        cfg = load_config(write(tmp_path, payload), "evolve")
        assert cfg.params.area.name == "\U0001f600"


class TestFieldErrors:
    def test_error_names_the_dotted_path(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, settle_block(p_q=1.5)), "settle")
        assert "settle.disputes[0].p_q" in str(exc.value)

    def test_multiple_violations_aggregate(self, tmp_path):
        payload = settle_block(p_q=1.5, j=-3.0)
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, payload), "settle")
        msg = str(exc.value)
        assert "settle.disputes[0].p_q" in msg
        assert "settle.disputes[0].j" in msg
        assert len(exc.value.errors) >= 2

    def test_type_errors_reported(self, tmp_path):
        payload = equilibrium_block()
        payload["equilibrium"]["curve"]["beta"] = "steep"
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, payload), "equilibrium")
        assert "equilibrium.curve.beta" in str(exc.value)

    def test_bool_is_not_a_number(self, tmp_path):
        payload = equilibrium_block()
        payload["equilibrium"]["curve"]["beta"] = True
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, payload), "equilibrium")

    def test_seed_bounds(self, tmp_path):
        payload = equilibrium_block()
        payload["seed"] = 2**64
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, payload), "equilibrium")
        assert "seed" in str(exc.value)
        payload["seed"] = 2**64 - 1
        assert load_config(write(tmp_path, payload), "equilibrium").seed == 2**64 - 1

    def test_rule_choices(self, tmp_path):
        payload = settle_block()
        payload["settle"]["rule"] = "loser-pays"
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, payload), "settle")
        assert "settle.rule" in str(exc.value)


class TestCrossChecks:
    def test_settle_reduction_capped_by_fixture_costs(self, tmp_path):
        payload = settle_block()
        payload["settle"]["cost_reduction"] = 11.0
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, payload), "settle")
        assert "cost_reduction" in str(exc.value)

    def test_frivolous_shift_deltas_bounded(self, tmp_path):
        payload = {
            "frivolous": {
                "game": {"f_o": 1.0, "f_q": 1.0, "d": 10.0, "s": 5.0,
                         "j": 100.0, "c_p": 10.0},
                "shift": {"delta_f": 2.0, "delta_d": 0.0},
            }
        }
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, payload), "frivolous")
        assert "delta_f" in str(exc.value)

    def test_frivolous_shift_reports_both_deltas(self, tmp_path):
        payload = {"frivolous": {
            "game": {"f_o": 1.0, "f_q": 1.0, "d": 10.0, "s": 5.0, "j": 100.0, "c_p": 10.0},
            "shift": {"delta_f": 2.0, "delta_d": 11.0},
        }}
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, payload), "frivolous")
        assert exc.value.errors == [("frivolous.shift.delta_f", "must be <= f_o (1.0), got 2.0"),
                                    ("frivolous.shift.delta_d", "must be <= d (10.0), got 11.0")]

    def test_stakes_and_costs_past_float_range(self, tmp_path):
        payload = evolve_block()
        payload["evolve"]["area"].update(stakes_j=1e200, stakes_multiplier=1e200)
        payload["settle"] = {"rule": "english", "disputes": [
            {"p_q": 0.5, "p_g": 0.5, "j": 1.0, "c_q": 1.0, "c_g": 1.0},
            {"p_q": 0.0, "p_g": 0.0, "j": 6e307, "c_q": 6e307, "c_g": 6e307}]}
        path = write(tmp_path, payload)
        with pytest.raises(ConfigError) as exc:
            load_config(path, "evolve")
        assert exc.value.errors == [("evolve.area", "stakes_j x stakes_multiplier + cost_q + "
                                                    "cost_g must lie within float range")]
        with pytest.raises(ConfigError) as exc:
            load_config(path, "settle")
        assert exc.value.errors == [("settle.disputes[1]",
                                     "j + c_q + c_g must lie within float range")]

    def test_evolve_tort_rejects_gap_curve(self, tmp_path):
        payload = evolve_block()
        payload["evolve"]["area"]["gap_curve"] = {
            "b_scale": 1.0, "beta": 1.0, "k_scale": 1.0, "kappa": 1.0}
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, payload), "evolve")
        assert "gap_curve" in str(exc.value) or "tort" in str(exc.value)

    def test_evolve_contract_requires_gap_curve(self, tmp_path):
        payload = evolve_block()
        payload["evolve"]["area"]["kind"] = "contract"
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, payload), "evolve")

    def test_evolve_cost_delta_cross_check(self, tmp_path):
        payload = evolve_block(cost_delta=18.5)
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, payload), "evolve")
        assert "cost_delta" in str(exc.value)


class TestEvolveRoundTrip:
    def test_full_block_with_frivolous_stream(self, tmp_path):
        payload = evolve_block(
            frivolous={
                "game": {"f_o": 1.0, "f_q": 1.0, "d": 10.0, "s": 5.0,
                         "j": 100.0, "c_p": 10.0},
                "filers_per_period": 3,
            },
            shock={"delta_contracting": 0.0, "delta_litigation": 0.1},
            cost_delta=5.0,
        )
        cfg = load_config(write(tmp_path, payload), "evolve")
        assert cfg.params.frivolous.filers_per_period == 3
        assert cfg.params.shock.delta_litigation == 0.1
        assert cfg.params.cost_delta == 5.0

    def test_integer_fields_reject_fractions(self, tmp_path):
        payload = evolve_block(periods=2.5)
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, payload), "evolve")
        assert "periods" in str(exc.value)


class TestSweep:
    def base(self):
        payload = equilibrium_block()
        payload["sweep"] = {
            "model": "equilibrium",
            "axes": [{"path": "equilibrium.curve.kappa", "values": [0.5, 1.0, 2.0]}],
            "replicates": 1,
        }
        return payload

    def test_valid_sweep_loads(self, tmp_path):
        cfg = load_config(write(tmp_path, self.base()), "sweep")
        assert cfg.params.model == "equilibrium"
        assert cfg.params.axes[0] == SweepAxis("equilibrium.curve.kappa", [0.5, 1.0, 2.0])

    def test_swept_model_block_must_exist(self, tmp_path):
        payload = self.base()
        del payload["equilibrium"]
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, payload), "sweep")
        assert "equilibrium" in str(exc.value)

    def test_axis_path_must_start_with_swept_model(self, tmp_path):
        payload = self.base()
        payload["sweep"]["axes"][0]["path"] = "settle.cost_reduction"
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, payload), "sweep")
        assert "path" in str(exc.value)

    def test_axis_path_needs_two_segments(self, tmp_path):
        payload = self.base()
        payload["sweep"]["axes"][0]["path"] = "equilibrium"
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, payload), "sweep")

    def test_axis_values_must_be_nonempty(self, tmp_path):
        payload = self.base()
        payload["sweep"]["axes"][0]["values"] = []
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, payload), "sweep")

    def test_replicates_positive_integer(self, tmp_path):
        payload = self.base()
        payload["sweep"]["replicates"] = 0
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, payload), "sweep")

    @pytest.mark.parametrize("values, replicates", [
        ([1.0], 10**6),
        ([0.5, 1.0, 2.0, 4.0], 250_000),
    ])
    def test_run_count_at_the_cap_loads(self, tmp_path, values, replicates):
        payload = self.base()
        payload["sweep"]["axes"][0]["values"] = values
        payload["sweep"]["replicates"] = replicates
        cfg = load_config(write(tmp_path, payload), "sweep")
        assert cfg.params.replicates == replicates

    @pytest.mark.parametrize("lengths, replicates, runs", [
        ([1], 10**6 + 1, 10**6 + 1),
        ([101, 9901], 1, 10**6 + 1),  # the axes multiply: 101 x 9901 grid points
        ([1], 10**15, 10**15),
    ])
    def test_run_count_above_the_cap_is_one_error(self, tmp_path, lengths, replicates, runs):
        payload = self.base()
        payload["sweep"]["axes"] = [
            {"path": f"equilibrium.curve.{name}", "values": [1.0 + i for i in range(n)]}
            for name, n in zip(("kappa", "beta"), lengths)]
        payload["sweep"]["replicates"] = replicates
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, payload), "sweep")
        assert exc.value.errors == [
            ("sweep", f"grid points x replicates = {runs}, above the limit of 1000000")]


class TestEvolveDrawSize:
    def test_oversized_population_is_a_config_error(self, tmp_path, monkeypatch):
        import numpy as np

        def no_empty(*args, **kwargs):
            raise AssertionError("np.empty called")

        monkeypatch.setattr(np, "empty", no_empty)
        payload = evolve_block(population={"n_rules": 10**6, "fraction_efficient": 0.5},
                               periods=10**5)
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, payload), "evolve")
        assert exc.value.errors == [
            ("evolve", "a block of 2048 rules x 100000 periods needs 4915200000 bytes of "
                       "draws (24 per rule-period), above the limit of 2^32 = 4294967296"),
        ]

    def test_the_cap_is_per_block_not_per_run(self, tmp_path):
        # 10^6 x 10^4 needs 240 GB of draws for the whole run but 492 MB per block
        payload = evolve_block(population={"n_rules": 10**6, "fraction_efficient": 0.5},
                               periods=10**4)
        assert load_config(write(tmp_path, payload), "evolve").params.periods == 10**4


class TestHugeIntegers:
    """JSON ints are unbounded; one past float range is a config error, not a crash."""

    HUGE = 10**400

    def run_cli(self, tmp_path, capsys, model, payload):
        from lexsim.cli import main

        path = write(tmp_path, payload)
        out = tmp_path / "out.csv"
        code = main([model, "--config", path, "--out", str(out)])
        err = capsys.readouterr().err
        assert not out.exists()
        return code, err

    def test_huge_seed(self, tmp_path, capsys):
        payload = equilibrium_block()
        payload["seed"] = self.HUGE
        code, err = self.run_cli(tmp_path, capsys, "equilibrium", payload)
        assert code == 1
        assert err.startswith(f"error: config: seed: must be <= {2**64 - 1}, got 1000")
        assert err.count("\n") == 1

    def test_huge_dispute_stakes(self, tmp_path, capsys):
        code, err = self.run_cli(tmp_path, capsys, "settle", settle_block(j=self.HUGE))
        assert code == 1
        assert err.startswith("error: config: settle.disputes[0].j: must be finite, got 1000")
        assert err.count("\n") == 1

    def test_huge_sweep_replicates(self, tmp_path):
        # through load_config only: a run that let this pass would never end
        payload = TestSweep().base()
        payload["sweep"]["replicates"] = self.HUGE
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, payload), "sweep")
        assert exc.value.errors == [("sweep.replicates", f"must be finite, got {self.HUGE}")]

    @pytest.mark.parametrize("filers", [2**63, 2**64, HUGE])
    def test_filers_beyond_int64(self, tmp_path, capsys, filers):
        game = {"f_o": 1.0, "f_q": 1.0, "d": 10.0, "s": 5.0, "j": 100.0, "c_p": 10.0}
        payload = evolve_block(frivolous={"game": game, "filers_per_period": filers})
        code, err = self.run_cli(tmp_path, capsys, "evolve", payload)
        assert code == 1
        assert err == (f"error: config: evolve.frivolous.filers_per_period: "
                       f"must be <= {2**63 - 1}, got {filers}\n")

    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        text = json.dumps(equilibrium_block()).replace("{", '{"seed": ' + "9" * 5000 + ", ", 1)
        code, err = self.run_cli(tmp_path, capsys, "equilibrium", text)
        assert code == 1
        assert err.startswith("error: config: : invalid JSON: Exceeds the limit")
        assert err.count("\n") == 1


KEYS = ("p_q", "p_g", "j", "c_q", "c_g")
PROB = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1, -0.0]))
POSITIVE = st.one_of(st.floats(min_value=5e-324, max_value=1.7e308),
                     st.floats(min_value=5e-324, max_value=1e4), st.integers(1, 1000),
                     st.integers(1, 2**53))
NONNEGATIVE = st.one_of(POSITIVE, st.sampled_from([0, 0.0, -0.0]))
WILD = st.one_of(
    st.booleans(), st.text(max_size=3), st.none(), st.lists(st.integers(), max_size=1),
    st.sampled_from([math.nan, math.inf, -math.inf, -1, -1e-300, 1.5, 10**400, -(10**400)]),
    st.integers(-(2**70), 2**70), st.integers(2**53 + 1, 2**70),
)
VALID = {"p_q": PROB, "p_g": PROB, "j": POSITIVE, "c_q": NONNEGATIVE, "c_g": NONNEGATIVE}


@st.composite
def dispute_items(draw, max_size, max_changes=3):
    """Valid dispute objects, then a few changes: wild values, missing or extra keys,
    non-dict items, or a (valid) stake or cost past 2^53."""
    items = draw(st.lists(st.fixed_dictionaries(VALID), min_size=1, max_size=max_size))
    changes = st.tuples(st.integers(0, len(items) - 1),
                        st.sampled_from(["value", "drop", "extra", "item", "big"]),
                        st.sampled_from(KEYS), WILD)
    n = max_changes if draw(st.booleans()) else 0
    for i, kind, key, value in draw(st.lists(changes, max_size=n)):
        if kind == "big" and isinstance(items[i], dict):
            items[i][key if key in ("j", "c_q", "c_g") else "j"] = draw(
                st.integers(2**53 + 1, 2**70))
        elif not isinstance(items[i], dict) or kind == "item":
            items[i] = value
        elif kind == "value":
            items[i][key] = value
        elif kind == "drop":
            items[i].pop(key, None)
        else:
            items[i][key.upper()] = value
    return items


@st.composite
def items_and_reduction(draw, max_size, max_changes=3):
    """A dispute list plus a cost_reduction that is often within its smallest cost."""
    items = draw(dispute_items(max_size, max_changes))
    costs = [v for it in items if isinstance(it, dict) for k, v in it.items()
             if k in ("c_q", "c_g") and type(v) in (int, float) and 0 <= v <= 1e308]
    top = abs(min(costs, default=0.0))
    reduction = draw(st.one_of(
        st.sampled_from([0.0, 0, top, top, 1e-3, 2**60]), st.floats(0.0, float(top)),
        st.integers(0, min(int(top), 2**60))))
    return items, reduction


def checked_loop(items, reduction, errs):
    """The settle block's disputes read item by item through `_obj`, field by field,
    then each one that read clean checked against `cost_reduction`."""
    disputes = [config._obj(Dispute, item, f"settle.disputes[{i}]", errs)
                for i, item in enumerate(items)]
    for i, d in enumerate(disputes):
        if d is not None and reduction > min(d.c_q, d.c_g):
            errs.append((f"settle.disputes[{i}]",
                         f"cost_reduction {reduction!r} exceeds a party cost"))
    return None if None in disputes else disputes


def floats(d):
    """`d` with every field converted to float, as a column read holds it."""
    return Dispute(*(float(getattr(d, k)) for k in KEYS))


class TestPlainDispute:
    """The column read of a dispute list (`config._batch`) against the field-by-field
    read of each item through `_obj`."""

    @settings(max_examples=250, deadline=None)
    @given(items=dispute_items(max_size=5))
    def test_accepts_exactly_what_the_field_checks_accept(self, items):
        errs, expected_errs = [], []
        batch = config._batch(Dispute, items, "settle.disputes", errs)
        expected = [config._obj(Dispute, item, f"settle.disputes[{i}]", expected_errs)
                    for i, item in enumerate(items)]
        assert errs == expected_errs
        for i, d in enumerate(expected):  # a faulty item's row holds NaN
            row = [float(column[i]) for column in batch.columns()]
            if d is None:
                assert all(math.isnan(v) for v in row)
            else:
                assert repr(row) == repr([float(getattr(d, k)) for k in KEYS])

    @settings(max_examples=100, deadline=None)
    @given(case=items_and_reduction(max_size=4))
    def test_build_settle_matches_the_checked_loop(self, case):
        self.assert_as_the_checked_loop(*case)

    @settings(max_examples=60, deadline=None)
    @given(case=items_and_reduction(max_size=60, max_changes=50))
    def test_many_mutated_items_report_as_the_checked_loop(self, case):
        self.assert_as_the_checked_loop(*case)

    @staticmethod
    def assert_as_the_checked_loop(items, reduction):
        block = {"rule": "english", "disputes": items, "cost_reduction": reduction}
        errs = []
        params = config.build_model_params({"settle": block}, "settle", errs)
        expected_errs = []
        expected = checked_loop(items, reduction, expected_errs)
        assert errs == expected_errs
        if errs:
            assert params is None
        else:
            expected = [floats(d) for d in expected]
            assert params == SettleParams(rule=FeeRule.ENGLISH, disputes=expected,
                                          cost_reduction=reduction)
            assert repr(list(params.disputes)) == repr(expected)  # floats, signs kept
            assert repr(params.cost_reduction) == repr(reduction)

    def test_json_nan_and_infinity_reported_per_item(self, tmp_path):
        text = ('{"settle": {"rule": "american", "disputes": ['
                '{"p_q": NaN, "p_g": 0.5, "j": Infinity, "c_q": 1, "c_g": 1}]}}')
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, text), "settle")
        assert exc.value.errors == [("settle.disputes[0].p_q", "must be finite, got nan"),
                                    ("settle.disputes[0].j", "must be finite, got inf")]


def thousand_disputes():
    return [{"p_q": 0.6, "p_g": 0.5, "j": 100.0 + i, "c_q": 10.0, "c_g": 12} for i in range(1000)]


class TestManyDisputes:
    """A thousand disputes through `load_config`: a fault reports only its own item,
    with the messages a one-item list gives, and clean ones load as a read-only batch
    of float disputes."""

    @pytest.mark.parametrize("c_q, reduction, reported", [
        (2**60 - 1, 2.0**60, True),  # the two are equal as floats, not as numbers
        (2.0**60, 2**60 + 1, True),
        (2**60 + 1, 2.0**60, False),
        (2.0**60, 2.0**60, False),
    ])
    def test_reduction_equal_to_a_cost_as_floats(self, tmp_path, c_q, reduction, reported):
        disputes = [{**d, "c_q": 2**61, "c_g": 2**61} for d in thousand_disputes()]
        disputes[0]["c_q"] = c_q
        payload = {"settle": {"rule": "american", "disputes": disputes,
                              "cost_reduction": reduction}}
        path = write(tmp_path, payload)
        if reported:
            with pytest.raises(ConfigError) as exc:
                load_config(path, "settle")
            assert exc.value.errors == [
                ("settle.disputes[0]", f"cost_reduction {reduction!r} exceeds a party cost")]
        else:
            assert load_config(path, "settle").params.disputes[0].c_q == float(c_q)

    @pytest.mark.parametrize("key, message", [("p_q", f"must be <= 1.0, got {10**400}"),
                                              ("j", f"must be finite, got {10**400}"),
                                              ("c_g", f"must be finite, got {10**400}")])
    def test_an_int_past_float_range(self, tmp_path, key, message):
        disputes = thousand_disputes()
        disputes[700][key] = 10**400
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, {"settle": {"rule": "english", "disputes": disputes}}),
                        "settle")
        assert exc.value.errors == [(f"settle.disputes[700].{key}", message)]

    @pytest.mark.parametrize("change, expected", [
        (lambda d: {**d, "c_q": True}, [(".c_q", "must be a number, got True")]),
        (lambda d: {**d, "j": "100"}, [(".j", "must be a number, got '100'")]),
        (lambda d: {**d, "stray": 1.0}, [(".stray", "unknown key")]),
        (lambda d: {**d, "p_q": math.nan, "j": math.inf},  # JSON NaN and Infinity
         [(".p_q", "must be finite, got nan"), (".j", "must be finite, got inf")]),
        (lambda d: {k: v for k, v in d.items() if k != "p_g"}, [(".p_g", "required")]),
        (lambda d: [1, 2], [("", "must be an object, got [1, 2]")]),
    ], ids=["bool", "string", "extra-key", "nan-and-infinity", "missing-key", "not-an-object"])
    def test_one_faulty_item(self, tmp_path, change, expected):
        disputes = thousand_disputes()
        disputes[321] = change(disputes[321])
        errors = []
        for items in (disputes, [disputes[321]]):  # the list, and the item alone
            with pytest.raises(ConfigError) as exc:
                load_config(write(tmp_path, {"settle": {"rule": "english", "disputes": items}}),
                            "settle")
            errors.append(exc.value.errors)
        assert errors == [[(f"settle.disputes[{i}]{key}", msg) for key, msg in expected]
                          for i in (321, 0)]

    def test_a_clean_list_is_read_as_columns(self, tmp_path, monkeypatch):
        calls, read = [], config._obj

        def counted(cls, *args, **kwargs):
            calls.append(cls)
            return read(cls, *args, **kwargs)

        monkeypatch.setattr(config, "_obj", counted)
        path = write(tmp_path, {"settle": {"rule": "english", "disputes": thousand_disputes()}})
        assert len(load_config(path, "settle").params.disputes) == 1000
        assert calls.count(SettleParams) == 1
        assert calls.count(Dispute) == 0  # no item read one by one

    def test_loaded_disputes_are_a_read_only_batch_of_floats(self, tmp_path):
        disputes = thousand_disputes()
        path = write(tmp_path, {"settle": {"rule": "english", "disputes": disputes}})
        params = load_config(path, "settle").params
        assert len(params.disputes) == 1000
        assert params.disputes[-1] == Dispute(p_q=0.6, p_g=0.5, j=1099.0, c_q=10.0, c_g=12.0)
        assert type(params.disputes[0].c_g) is float
        with pytest.raises(ValueError):
            params.disputes.c_q[0] = -1.0
