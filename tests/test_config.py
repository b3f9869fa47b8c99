import configparser
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from rkld.config import _KEYS, ConfigError, ExperimentConfig, Manifest
from rkld.dynamics import run_chain

BASE = """
[kernel]
mu0 = 1.0
gamma = 1.5

[objective]
loss = squared
synth_n = 8
synth_seed = 5

[chain]
eta = 0.05
beta = 4.0
lambda = 6.0
n_modes = 8
seed = 42
horizon = 2000
"""

# one valid value per config key, other than its default and BASE's
NON_DEFAULT = {
    "kernel": {"mu0": "2.0", "gamma": "1.0"},
    "objective": {
        "loss": "savage",
        "data": "{data}",
        "synth_kind": "classification",
        "synth_n": "9",
        "synth_seed": "6",
    },
    "chain": {
        "eta": "0.04",
        "beta": "3.0",
        "lambda": "5.0",
        "n_modes": "9",
        "seed": "43",
        "horizon": "1000",
        "minibatch": "4",
        "burn_in": "100",
    },
    "experiment": {
        "replicas": "2",
        "delta": "0.5",
        "tail_delta": "0.1",
        "eta_grid": "0.2, 0.1, 0.05, 0.025",
        "eta_ref": "0.003",
        "n_grid": "4, 8, 16, 32",
        "n_ref": "32",
        "beta_grid": "2, 4",
        "m_grid": "2, 4",
    },
}


def parsed_fields(exp):
    """Every field of a parsed config but its text and origin; a dataset as its arrays."""
    values = {f.name: getattr(exp, f.name) for f in fields(exp) if f.name not in ("source_text", "origin")}
    values["dataset"] = (values["dataset"].z.tolist(), values["dataset"].y.tolist())
    return values


class TestParsing:
    def test_minimal_config(self):
        exp = ExperimentConfig.loads(BASE)
        assert exp.chain.eta == 0.05
        assert exp.chain.lam == 6.0
        assert exp.chain.minibatch is None
        assert exp.loss.tag == "squared"
        assert exp.chain.mode == "gld"
        assert exp.replicas == 8

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.loads(BASE + "\n[server]\nport = 80\n")

    @pytest.mark.parametrize(
        "section, line",
        [
            ("experiment", "color = red"),
            # the retired basis and decay switches: one cosine basis, one inverse-square law
            ("kernel", "basis = legendre"),
            ("kernel", "decay = harmonic"),
            # the retired ridge and synthetic noise level: one risk, one teacher
            ("objective", "lambda0 = 0.1"),
            ("objective", "synth_noise = 0.2"),
            # the retired tail-bound exponent offset: one kappa, a constant of diagnostics
            ("experiment", "kappa = 0.2"),
            # the retired chain switch: [chain] minibatch alone makes the chain SGLD
            ("experiment", "mode = sgld"),
        ],
    )
    def test_unknown_key_rejected(self, section, line):
        text = BASE + "\n[experiment]\n"
        with pytest.raises(ConfigError) as exc_info:
            ExperimentConfig.loads(text.replace(f"[{section}]\n", f"[{section}]\n{line}\n"), origin="exp.ini")
        assert str(exc_info.value) == f"exp.ini: unknown key '{line.split(' = ')[0]}' in [{section}]"

    def test_missing_chain_section(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.loads("[kernel]\nmu0 = 1.0\n")

    def test_missing_required_key(self):
        text = BASE.replace("horizon = 2000\n", "")
        with pytest.raises(ConfigError):
            ExperimentConfig.loads(text)

    def test_bad_value_type(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.loads(BASE.replace("eta = 0.05", "eta = fast"))

    def test_chain_validation_propagates(self):
        # the cross-key rules, worded as key = value: reason
        for old, new, reason in [
            ("beta = 4.0", "beta = 0.01", "beta = 0.01: must be finite and >= eta = 0.05"),
            ("horizon = 2000", "horizon = 2000\nburn_in = 2000",
             "burn_in = 2000: must be an integer >= 0 and < horizon = 2000"),
        ]:
            with pytest.raises(ConfigError) as exc_info:
                ExperimentConfig.loads(BASE.replace(old, new), origin="exp.ini")
            assert str(exc_info.value) == f"exp.ini: [chain] {reason}"

    def test_minibatch_full_keyword(self):
        # the full batch is the chain without a minibatch: `full` is no minibatch size
        exp = ExperimentConfig.loads(BASE.replace("seed = 42", "seed = 42\nminibatch = 4"))
        assert exp.chain.minibatch == 4
        for raw in ("full", "abc"):
            with pytest.raises(ConfigError) as exc_info:
                ExperimentConfig.loads(BASE + f"minibatch = {raw}\n", origin="exp.ini")
            reason = "must be an integer >= 1; omit the minibatch for the full batch"
            assert str(exc_info.value) == f"exp.ini: [chain] minibatch = '{raw}': {reason}"

    @pytest.mark.parametrize("m", [8, 9])
    def test_minibatch_of_n_tr_or_more_refused_as_the_engine_refuses_it(self, m):
        # SGLD draws m < n_tr = 8 points: the parser refuses the rest with the engine's words
        with pytest.raises(ConfigError) as parsed:
            ExperimentConfig.loads(BASE.replace("seed = 42", f"seed = 42\nminibatch = {m}"), origin="exp.ini")
        exp = ExperimentConfig.loads(BASE)
        with pytest.raises(ValueError) as engine:
            run_chain(replace(exp.chain, minibatch=m), exp.build_objective())
        reason = f"minibatch = {m}: out of range 1..7; omit the minibatch for the full batch of n_tr = 8 points"
        assert (str(parsed.value), str(engine.value)) == (f"exp.ini: [chain] {reason}", reason)

    def test_minibatch_alone_makes_the_chain_sgld(self):
        # the minibatch is the chain: an integer is SGLD, no minibatch is GLD
        sgld = ExperimentConfig.loads(BASE.replace("seed = 42", "seed = 42\nminibatch = 3")).chain
        assert (sgld.minibatch, sgld.mode) == (3, "sgld")
        full = ExperimentConfig.loads(BASE).chain
        assert (full.minibatch, full.mode) == (None, "gld")

    @pytest.mark.parametrize(
        "section, line, reason",
        [
            ("kernel", "mu0 = 0", "must be positive and finite"),
            ("kernel", "mu0 = inf", "must be positive and finite"),
            ("kernel", "gamma = -1", "must be nonnegative and finite"),
            ("kernel", "gamma = inf", "must be nonnegative and finite"),
            ("kernel", "gamma = nan", "must be nonnegative and finite"),
            ("chain", "eta = -1", "must be positive and finite"),
            ("chain", "eta = nan", "must be positive and finite"),
            ("chain", "beta = 0", "must be positive and finite"),
            ("chain", "lambda = -6", "must be positive and finite"),
            ("chain", "n_modes = 0", "must be >= 1"),
            ("chain", "seed = -1", "must be >= 0"),
            ("chain", "horizon = 0", "must be >= 1"),
            ("chain", "minibatch = 0", "must be an integer >= 1; omit the minibatch for the full batch"),
            ("chain", "burn_in = -1", "must be >= 0"),
            ("objective", "loss = hinge", "unknown loss family: 'hinge'"),
            ("objective", "synth_kind = ranking", "expected one of regression, classification"),
            ("objective", "data = /no/such.csv", "file not found"),
            ("objective", "synth_n = -3", "must be >= 1"),
            ("objective", "synth_n = 0", "must be >= 1"),
            ("objective", "synth_n = 100000000000000000000", "Maximum allowed dimension exceeded"),  # numpy's
            ("objective", "synth_seed = -1", "must be >= 0"),
            ("experiment", "replicas = 1", "must be >= 2"),
            ("experiment", "tail_delta = 1.0", "must be in (0, 1)"),
            ("experiment", "tail_delta = nan", "must be in (0, 1)"),
            ("experiment", "eta_ref = -0.003", "must be positive and finite"),
            ("experiment", "eta_ref = nan", "must be positive and finite"),
            ("experiment", "eta_grid = 0.2, 0.1, 0, 0.025", "must be positive and finite"),
            ("experiment", "eta_grid = 0.2, inf", "must be positive and finite"),
            ("experiment", "n_grid = -1, 4, 8, 16", "must be >= 0"),
            ("experiment", "n_ref = -3", "must be >= 0"),
            ("experiment", "m_grid = 0, 2", "must be >= 1"),
            ("experiment", "beta_grid = 2, inf", "must be positive and finite"),
            ("experiment", "eta_grid = 0.2, 0.1", "needs >= 4 entries"),
            ("experiment", "n_grid = 4, 8, 16", "needs >= 4 entries"),
            ("experiment", "beta_grid = 2", "needs >= 2 entries"),
            ("experiment", "m_grid = 2, 2", "grid has duplicate entries"),
        ],
    )
    def test_per_key_rule_names_key_and_raw_value(self, section, line, reason):
        key, raw = line.split(" = ")
        text = re.sub(rf"^{key} = .*\n", "", BASE, flags=re.M) + "\n[experiment]\n"  # BASE's own line goes
        with pytest.raises(ConfigError) as exc_info:
            ExperimentConfig.loads(text.replace(f"[{section}]\n", f"[{section}]\n{line}\n"), origin="exp.ini")
        assert str(exc_info.value) == f"exp.ini: [{section}] {key} = {raw!r}: {reason}"

    def test_readme_lists_every_key(self):
        # the README's ini block documents the format: same sections, same keys
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
        parser.read_string(block)
        assert {s: set(parser.options(s)) for s in parser.sections()} == {s: set(keys) for s, keys in _KEYS.items()}

    def test_every_key_has_a_non_default_value(self):
        assert {s: list(keys) for s, keys in NON_DEFAULT.items()} == {s: list(keys) for s, keys in _KEYS.items()}

    @pytest.mark.parametrize("section, key", [(s, k) for s, keys in NON_DEFAULT.items() for k in keys])
    def test_every_key_changes_the_parsed_config(self, section, key, tmp_path):
        # a key that is parsed and then dropped selects nothing
        data = tmp_path / "d.csv"
        data.write_text("z,y\n0.1,1.0\n0.9,-1.0\n")
        base = BASE + "\n[experiment]\n"
        line = f"{key} = {NON_DEFAULT[section][key].format(data=data)}"
        changed = re.sub(rf"^{key} = .*\n", "", base, flags=re.M).replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        assert parsed_fields(ExperimentConfig.loads(changed)) != parsed_fields(ExperimentConfig.loads(base))

    def test_seed_override(self):
        exp = ExperimentConfig.loads(BASE, seed_override=7)
        assert exp.chain.seed == 7

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.load("/nonexistent/path.ini", seed_override=None)


class TestGrids:
    def test_grid_any_order_sorted_output(self):
        exp = ExperimentConfig.loads(
            BASE + "\n[experiment]\neta_grid = 0.2, 0.1, 0.05, 0.025\neta_ref = 0.003\n"
        )
        assert exp.eta_grid == [0.025, 0.05, 0.1, 0.2]
        assert exp.eta_ref == 0.003

    def test_duplicate_grid_entries_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.loads(BASE + "\n[experiment]\nn_grid = 4, 8, 8\n")

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.loads(BASE + "\n[experiment]\nn_grid = ,\n")

    def test_integer_grid(self):
        exp = ExperimentConfig.loads(BASE + "\n[experiment]\nm_grid = 10, 2, 5\n")
        assert exp.m_grid == [2, 5, 10]


class TestHashing:
    def test_hash_stable_under_whitespace(self):
        a = ExperimentConfig.loads(BASE)
        b = ExperimentConfig.loads(BASE.replace("\n\n", "\n\n\n") + "   \n")
        assert a.config_hash() == b.config_hash()

    def test_hash_changes_with_seed_override(self):
        a = ExperimentConfig.loads(BASE)
        b = ExperimentConfig.loads(BASE, seed_override=100)
        assert a.config_hash() != b.config_hash()

    def test_hash_changes_with_content(self):
        a = ExperimentConfig.loads(BASE)
        b = ExperimentConfig.loads(BASE.replace("eta = 0.05", "eta = 0.1"))
        assert a.config_hash() != b.config_hash()


class TestBuilders:
    def test_build_objective_dimensions(self):
        exp = ExperimentConfig.loads(BASE)
        obj = exp.build_objective()
        assert obj.n_modes == 8
        assert obj.dataset.size == 8
        assert exp.build_objective(n_modes=3).n_modes == 3

    def test_data_file_loading(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("z,y\n0.1,1.0\n0.9,-1.0\n")
        exp = ExperimentConfig.loads(BASE.replace("synth_n = 8", f"data = {p}\nsynth_n = 8"))
        assert exp.dataset.size == 2

    def test_missing_data_file(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.loads(BASE.replace("synth_n = 8", "data = /no/such.csv\nsynth_n = 8"))


class TestManifest:
    def test_roundtrip(self, tmp_path):
        exp = ExperimentConfig.loads(BASE)
        m = Manifest(
            config_hash=exp.config_hash(),
            command="run",
            seed_table={"seed": 42},
            outputs=["x.csv"],
            config_text=exp.source_text,
        )
        p = tmp_path / "m.json"
        m.save(p)
        loaded = Manifest.load(p)
        assert loaded.config_hash == m.config_hash
        assert loaded.command == "run"
        assert loaded.outputs == m.outputs
