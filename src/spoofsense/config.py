"""Flat key=value run configuration.

One text file drives every stage: `key = value` per line, `#` comments,
blank lines ignored. Unknown keys are rejected up front so a typo can't
silently fall back to a default. SPOOFSENSE_CONFIG names a fallback file
when no --config is given.
"""

import os
from dataclasses import dataclass, fields

from .errors import ConfigError
from .f0 import F0Config
from .metrics import CostModel
from .mlp import TrainConfig
from .spectral import ApConfig, EnvelopeConfig, MfccConfig, StftConfig

ENV_VAR = "SPOOFSENSE_CONFIG"

# cost-model keys are optional as a block: absent until a t-DCF run needs them
COST_KEYS = (
    "p_target",
    "p_nontarget",
    "p_spoof",
    "c_miss_asv",
    "c_fa_asv",
    "c_miss_cm",
    "c_fa_cm",
    "p_miss_asv",
    "p_fa_asv",
    "p_miss_spoof_asv",
)


@dataclass(frozen=True)
class RunConfig:
    sample_rate: int = 16000

    f0_floor: float = 75.0
    f0_ceil: float = 500.0
    f0_hop: float = 0.005
    voicing_threshold: float = 0.3

    n_fft: int = 512
    win_seconds: float = 0.025
    hop_seconds: float = 0.010
    window: str = "hann"

    n_mels: int = 26
    n_ceps: int = 13
    fmin: float = 0.0
    fmax: float = 8000.0
    delta_window: int = 2

    env_n_fft: int = 1024
    env_voiced_fraction: float = 0.8
    env_unvoiced_quefrency: float = 0.0025

    ap_bands: int = 5
    ap_n_fft: int = 1024

    hidden1: int = 32
    hidden2: int = 16
    activation: str = "tanh"
    learning_rate: float = 0.05
    epochs: int = 100
    batch_size: int = 32
    l2: float = 0.0
    seed: int = 0

    p_target: float = None
    p_nontarget: float = None
    p_spoof: float = None
    c_miss_asv: float = None
    c_fa_asv: float = None
    c_miss_cm: float = None
    c_fa_cm: float = None
    p_miss_asv: float = None
    p_fa_asv: float = None
    p_miss_spoof_asv: float = None

    def __post_init__(self):
        if self.sample_rate < 1:
            raise ConfigError("sample_rate must be >= 1")
        if self.activation not in ("relu", "tanh"):
            raise ConfigError("activation must be relu or tanh")
        if self.hidden1 < 1 or self.hidden2 < 1:
            raise ConfigError("hidden layer sizes must be >= 1")
        # constructing the per-module configs runs their own validation
        self.f0()
        self.stft()
        self.mfcc()
        self.envelope()
        self.ap()
        self.train_config()
        present = [k for k in COST_KEYS if getattr(self, k) is not None]
        if present and len(present) != len(COST_KEYS):
            missing = [k for k in COST_KEYS if getattr(self, k) is None]
            raise ConfigError(
                "cost model is all-or-nothing; missing %s" % ", ".join(missing)
            )
        if present:
            self.cost_model()

    def f0(self):
        return F0Config(
            floor=self.f0_floor,
            ceil=self.f0_ceil,
            hop=self.f0_hop,
            voicing_threshold=self.voicing_threshold,
        )

    def stft(self):
        return StftConfig(
            n_fft=self.n_fft,
            win_seconds=self.win_seconds,
            hop_seconds=self.hop_seconds,
            window=self.window,
        )

    def mfcc(self):
        return MfccConfig(
            n_mels=self.n_mels,
            n_ceps=self.n_ceps,
            n_fft=self.n_fft,
            win_seconds=self.win_seconds,
            hop_seconds=self.hop_seconds,
            fmin=self.fmin,
            fmax=self.fmax,
            delta_window=self.delta_window,
        )

    def envelope(self):
        return EnvelopeConfig(
            n_fft=self.env_n_fft,
            voiced_fraction=self.env_voiced_fraction,
            unvoiced_quefrency=self.env_unvoiced_quefrency,
        )

    def ap(self):
        return ApConfig(n_bands=self.ap_bands, n_fft=self.ap_n_fft)

    def train_config(self):
        return TrainConfig(
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            batch_size=self.batch_size,
            l2=self.l2,
            seed=self.seed,
        )

    @property
    def has_cost_model(self):
        return all(getattr(self, k) is not None for k in COST_KEYS)

    def cost_model(self):
        if not self.has_cost_model:
            missing = [k for k in COST_KEYS if getattr(self, k) is None]
            raise ConfigError("cost model keys missing: %s" % ", ".join(missing))
        return CostModel(**{k: getattr(self, k) for k in COST_KEYS})


# each value is parsed by its field's annotated type: int, float or str
_TYPES = {f.name: f.type for f in fields(RunConfig)}


def parse_config_text(text, source="<config>"):
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s line %d: expected key = value" % (source, lineno))
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _TYPES:
            raise ConfigError("%s line %d: unknown key %r" % (source, lineno, key))
        if key in overrides:
            raise ConfigError("%s line %d: duplicate key %r" % (source, lineno, key))
        try:
            overrides[key] = _TYPES[key](value)
        except ValueError:
            raise ConfigError(
                "%s line %d: bad value %r for %s" % (source, lineno, value, key)
            ) from None
    try:
        return RunConfig(**overrides)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError("%s: %s" % (source, exc)) from None


def load_config(path=None):
    """Config from an explicit path, else $SPOOFSENSE_CONFIG, else defaults."""
    if path is None:
        path = os.environ.get(ENV_VAR) or None
    if path is None:
        return RunConfig()
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from None
    return parse_config_text(text, source=path)
