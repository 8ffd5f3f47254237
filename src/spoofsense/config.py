"""Flat key=value run configuration.

One text file drives every stage: `key = value` per line, `#` comments,
blank lines ignored; a line ends at "\n", "\r\n" or "\r" only, as in
the table files (tsv). Unknown keys are rejected up front so a typo can't
silently fall back to a default. SPOOFSENSE_CONFIG names a fallback file
when no --config is given.
"""

import math
import os
from dataclasses import dataclass, fields, replace

from .audio import RATES
from .errors import ConfigError, ParseError
from .f0 import F0Config
from .metrics import CostModel
from .mlp import TrainConfig
from .spectral import ApConfig, EnvelopeConfig, MfccConfig, StftConfig
from .tsv import open_text, plain, split_lines

ENV_VAR = "SPOOFSENSE_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    """Top-level settings, then one config per stage, which holds its defaults."""

    sample_rate: int = 16000
    hidden1: int = 32
    hidden2: int = 16
    activation: str = "tanh"
    f0: F0Config = F0Config()
    stft: StftConfig = StftConfig()
    mfcc: MfccConfig = MfccConfig()
    envelope: EnvelopeConfig = EnvelopeConfig()
    ap: ApConfig = ApConfig()
    train: TrainConfig = TrainConfig()
    cost: CostModel | None = None  # absent until a t-DCF run needs it

    def __post_init__(self):
        if self.sample_rate < 1:
            raise ValueError("sample_rate must be >= 1")
        if self.sample_rate > RATES[-1]:
            raise ValueError("sample_rate must be <= %d" % RATES[-1])
        if self.activation not in ("relu", "tanh"):
            raise ValueError("activation must be relu or tanh")
        if self.hidden1 < 1 or self.hidden2 < 1:
            raise ValueError("hidden layer sizes must be >= 1")

    def cost_model(self, source="<config>"):
        """The cost model; a config from source without one raises ConfigError."""
        if self.cost is None:
            missing = [f.name for f in fields(CostModel)]
            raise ConfigError("%s: cost model keys missing: %s" % (source, ", ".join(missing)))
        return self.cost


# the stage configs, built (and so checked) in this order after the top level
STAGES = {"f0": F0Config, "stft": StftConfig, "mfcc": MfccConfig, "envelope": EnvelopeConfig,
          "ap": ApConfig, "train": TrainConfig, "cost": CostModel}

# config-file key -> the (stage, field) it sets; stage "" is RunConfig itself
KEYS = {
    **{k: ("", k) for k in ("sample_rate", "hidden1", "hidden2", "activation")},
    "f0_floor": ("f0", "floor"), "f0_ceil": ("f0", "ceil"), "f0_hop": ("f0", "hop"),
    "voicing_threshold": ("f0", "voicing_threshold"),
    "env_voiced_fraction": ("envelope", "voiced_fraction"),
    "env_unvoiced_quefrency": ("envelope", "unvoiced_quefrency"), "ap_bands": ("ap", "n_bands"),
    # these stages' fields are set by the keys of the same names
    **{f.name: (stage, f.name) for stage in ("stft", "mfcc", "train", "cost")
       for f in fields(STAGES[stage])},
}

# each value is parsed by its field's annotated type: int, float or str
_TYPES = {(stage, f.name): f.type
          for stage, cls in {"": RunConfig, **STAGES}.items() for f in fields(cls)}


def _build(settings):
    """RunConfig from {stage: {field: value}}: the top level is checked
    first, then each stage in STAGES order; the cost block is all-or-nothing."""
    stages = {}
    cfg = RunConfig(**settings.get("", {}))
    for stage, cls in STAGES.items():
        given = settings.get(stage, {})
        missing = [f.name for f in fields(cls) if f.name not in given]
        if stage == "cost" and given and missing:
            raise ValueError("cost model is all-or-nothing; missing %s" % ", ".join(missing))
        if stage != "cost" or given:
            stages[stage] = cls(**given)
    return replace(cfg, **stages)


def parse_config_text(text, source="<config>"):
    settings = {}  # stage -> {field: value}
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s line %d: expected key = value" % (source, lineno))
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KEYS:
            raise ConfigError("%s line %d: unknown key %r" % (source, lineno, key))
        stage, name = KEYS[key]
        given = settings.setdefault(stage, {})
        if name in given:  # one key per field, so the key is a duplicate
            raise ConfigError("%s line %d: duplicate key %r" % (source, lineno, key))
        parse = _TYPES[stage, name]
        try:
            if parse is not str and not plain(value):  # a number int() or float() misreads
                raise ValueError(value)
            parsed = parse(value)
            if isinstance(parsed, float) and not math.isfinite(parsed):
                raise ValueError(value)
        except ValueError:
            raise ConfigError(
                "%s line %d: bad value %r for %s" % (source, lineno, value, key)
            ) from None
        given[name] = parsed
    try:
        return _build(settings)
    except ValueError as exc:
        raise ConfigError("%s: %s" % (source, exc)) from None


def load_config(path=None):
    """Config from an explicit path, else $SPOOFSENSE_CONFIG, else defaults."""
    if path is None:
        path = os.environ.get(ENV_VAR) or None
    if path is None:
        return RunConfig()
    try:
        with open_text(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from None
    except ParseError as exc:  # it names path and the undecodable line
        raise ConfigError("cannot read config %s" % exc) from None
    return parse_config_text(text, source=path)
