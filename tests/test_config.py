import pathlib
import re
from dataclasses import fields, is_dataclass

import pytest

from spoofsense.config import ENV_VAR, KEYS, RunConfig, load_config, parse_config_text
from spoofsense.errors import ConfigError
from spoofsense.f0 import F0Config
from spoofsense.metrics import CostModel
from spoofsense.mlp import TrainConfig
from spoofsense.spectral import ApConfig, EnvelopeConfig, MfccConfig, StftConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent

COST_BLOCK = """
p_target = 0.9405
p_nontarget = 0.0095
p_spoof = 0.05
c_miss_asv = 1
c_fa_asv = 10
c_miss_cm = 1
c_fa_cm = 10
p_miss_asv = 0.05
p_fa_asv = 0.01
p_miss_spoof_asv = 0.45
"""


def test_defaults_match_module_defaults():
    c = RunConfig()
    assert c.f0 == F0Config()
    assert c.stft == StftConfig()
    assert c.mfcc == MfccConfig()
    assert c.envelope == EnvelopeConfig()
    assert c.ap == ApConfig()
    assert c.train == TrainConfig()
    assert c.cost is None


def test_parse_with_comments_and_whitespace():
    c = parse_config_text("# header\n\n  f0_floor = 80  # inline\nwindow=hamming\n")
    assert c.f0.floor == 80.0
    assert c.stft.window == "hamming"


def test_cost_model_block():
    c = parse_config_text(COST_BLOCK)
    assert c.cost is not None
    c1, c2 = c.cost_model().coefficients()
    assert abs(c1 - 0.8925249999999999) < 1e-15
    assert c2 == 0.275


# each rejected text and its exact message
REJECTIONS = {
    "nonsense_key = 1": "<config> line 1: unknown key 'nonsense_key'",
    "f0_floor = abc": "<config> line 1: bad value 'abc' for f0_floor",
    "f0_floor = 80\nf0_floor = 90": "<config> line 2: duplicate key 'f0_floor'",
    "sample_rate = 0": "<config>: sample_rate must be >= 1",
    # floor above default ceil
    "f0_floor = 600": "<config>: need 0 < floor < ceil",
    # exceeds n_mels
    "n_ceps = 40": "<config>: n_ceps cannot exceed n_mels",
    "window = blackman": "<config>: unknown window 'blackman'",
    "activation = sigmoid": "<config>: activation must be relu or tanh",
    "epochs = 0": "<config>: epochs and batch_size must be >= 1",
    # cost block must be complete
    "p_target = 0.9": "<config>: cost model is all-or-nothing; missing p_nontarget, p_spoof, "
        "c_miss_asv, c_fa_asv, c_miss_cm, c_fa_cm, p_miss_asv, p_fa_asv, p_miss_spoof_asv",
    "just some text": "<config> line 1: expected key = value",
    # non-finite floats
    "f0_hop = inf": "<config> line 1: bad value 'inf' for f0_hop",
    "learning_rate = nan": "<config> line 1: bad value 'nan' for learning_rate",
    "fmax = inf": "<config> line 1: bad value 'inf' for fmax",
    # numbers that int() and float() read but no number format writes
    "hidden1 = 3_2": "<config> line 1: bad value '3_2' for hidden1",
    "f0_floor = \u0668\u0660": "<config> line 1: bad value '\u0668\u0660' for f0_floor",
    "learning_rate = 0.0_1": "<config> line 1: bad value '0.0_1' for learning_rate",
    # two faults: the top-level check is reported before the stage checks,
    # and the stage checks before the cost block
    "sample_rate = 0\nf0_floor = 600": "<config>: sample_rate must be >= 1",
    "epochs = 0\np_target = 0.9": "<config>: epochs and batch_size must be >= 1",
}


@pytest.mark.parametrize("text", list(REJECTIONS))
def test_rejections(text):
    with pytest.raises(ConfigError, match="^%s$" % re.escape(REJECTIONS[text])):
        parse_config_text(text)


def test_lines_end_at_newlines_only(tmp_path):
    """A config line ends at "\n", "\r\n" or "\r", as in the table files."""
    cfg = parse_config_text("f0_floor = 80\r\nf0_ceil = 400\rf0_hop = 0.01\n")
    assert (cfg.f0.floor, cfg.f0.ceil, cfg.f0.hop) == (80.0, 400.0, 0.01)
    with pytest.raises(ConfigError, match="^<config> line 3: unknown key 'bogus'$"):
        parse_config_text("f0_floor = 80\r\n# comment\rbogus = 1")
    # a form feed is no line end, so this is one line with one bad value
    message = r"<config> line 1: bad value '80\x0cf0_ceil = 400' for f0_floor"
    with pytest.raises(ConfigError, match="^%s$" % re.escape(message)):
        parse_config_text("f0_floor = 80\x0cf0_ceil = 400")
    # unreadable files still raise ConfigError, naming the path (and a bad byte's line)
    bad = tmp_path / "bad.conf"
    bad.write_bytes(b"f0_floor = 80\n\xff\n")
    for path, where in ((bad, " line 2: "), (tmp_path, ": ")):  # undecodable, a directory
        with pytest.raises(ConfigError, match="^cannot read config %s%s" % (re.escape(str(path)),
                                                                          where)):
            load_config(str(path))


def test_undecodable_config_names_its_line(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_bytes(b"f0_floor = 80\r\n# comment\rf0_ceil = \xff400\n")
    message = ("cannot read config %s line 3: 'utf-8' codec can't decode byte 0xff "
               "in position 35: invalid start byte" % path)
    with pytest.raises(ConfigError, match="^%s$" % re.escape(message)):
        load_config(str(path))


def test_cost_model_missing_raises():
    missing = ("cost model keys missing: p_target, p_nontarget, p_spoof, c_miss_asv, c_fa_asv, "
               "c_miss_cm, c_fa_cm, p_miss_asv, p_fa_asv, p_miss_spoof_asv")
    with pytest.raises(ConfigError, match="^<config>: %s$" % missing):
        RunConfig().cost_model()
    with pytest.raises(ConfigError, match="^c.conf: %s$" % missing):
        RunConfig().cost_model("c.conf")


def test_env_fallback_and_precedence(tmp_path, monkeypatch):
    env_conf = tmp_path / "env.conf"
    env_conf.write_text("f0_floor = 70\n")
    explicit = tmp_path / "explicit.conf"
    explicit.write_text("f0_floor = 90\n")

    monkeypatch.delenv(ENV_VAR, raising=False)
    assert load_config(None).f0.floor == 75.0

    monkeypatch.setenv(ENV_VAR, str(env_conf))
    assert load_config(None).f0.floor == 70.0
    assert load_config(str(explicit)).f0.floor == 90.0  # explicit path wins

    monkeypatch.setenv(ENV_VAR, str(tmp_path / "missing.conf"))
    with pytest.raises(ConfigError):
        load_config(None)


def test_shipped_configs_parse():
    c = load_config(str(ROOT / "configs" / "default.conf"))
    assert c == RunConfig()
    t = load_config(str(ROOT / "configs" / "tdcf_example.conf"))
    assert t.cost is not None


# a valid non-default value for every key; the cost values are all distinct,
# so each one can only land in the field its key names
NON_DEFAULT = {
    "sample_rate": "22050", "f0_floor": "60", "f0_ceil": "400", "f0_hop": "0.01",
    "voicing_threshold": "0.4", "win_seconds": "0.03", "hop_seconds": "0.02",
    "window": "hamming", "n_mels": "40", "n_ceps": "12", "fmin": "20", "fmax": "7000",
    "delta_window": "3", "env_voiced_fraction": "0.5", "env_unvoiced_quefrency": "0.002",
    "ap_bands": "4", "hidden1": "8", "hidden2": "4", "activation": "relu",
    "learning_rate": "0.1", "epochs": "5", "batch_size": "8", "l2": "0.001", "seed": "3",
    "p_target": "0.94", "p_nontarget": "0.01", "p_spoof": "0.05", "c_miss_asv": "1",
    "c_fa_asv": "10", "c_miss_cm": "2", "c_fa_cm": "20", "p_miss_asv": "0.04",
    "p_fa_asv": "0.03", "p_miss_spoof_asv": "0.45",
}


def _flat(cfg):
    """{(stage, field): value} over every setting; stage "" is the top level."""
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            out.update({(f.name, g.name): getattr(value, g.name) for g in fields(value)})
        elif value is not None:
            out[("", f.name)] = value
    return out


def _file_keys(text):
    return {ln.split("=")[0].strip() for ln in text.splitlines() if "=" in ln.split("#")[0]}


def test_key_table():
    base = _flat(RunConfig())
    cost_keys = [f.name for f in fields(CostModel)]
    cost_block = _flat(parse_config_text(
        "\n".join("%s = %s" % (k, NON_DEFAULT[k]) for k in cost_keys)))
    for key, value in NON_DEFAULT.items():
        target = KEYS[key]
        if key in cost_keys:  # the block is all-or-nothing, so check it as a whole
            assert target == ("cost", key)
            assert cost_block[target] == float(value)
            continue
        got = _flat(parse_config_text("%s = %s" % (key, value)))
        assert {t for t in got if got[t] != base[t]} == {target}, key
        assert got[target] == type(base[target])(value), key
    assert set(cost_block) - set(base) == {("cost", k) for k in cost_keys}
    # one key per setting: no two keys set one field, and every field has a key
    assert len(set(KEYS.values())) == len(KEYS) == 34
    assert set(KEYS.values()) == set(cost_block)

    shipped = _file_keys((ROOT / "configs" / "default.conf").read_text())
    shipped |= _file_keys((ROOT / "configs" / "tdcf_example.conf").read_text())
    readme = (ROOT / "README.md").read_text().split("## Configuration")[1].split("\n## ")[0]
    documented = {
        k for row in readme.splitlines() if row.startswith("|")
        for code in re.findall(r"`([^`]*)`", row.split("|")[2]) for k in code.split()
    }
    assert set(KEYS) == set(NON_DEFAULT) == shipped == documented
