"""Flat experiment configuration with INI persistence.

One frozen record holds every knob the harness exposes: corpus shape,
noise channel rates, decoding and purification parameters, and the sweep
matrix. The per-cell noise seed comes from the sweep, not the file, so a
config describes an experiment family rather than a single run.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
from pathlib import Path

from ..numeric import check_float, check_int
from ..purify import PurifyParams
from ..simulate import NoiseSpec
from ..smoothing import SmoothingParams

KNOWN_METHODS = (
    "baseline",
    "attn",
    "attn_pp",
    "joint",
    "joint_pp",
    "joint_ocp",
    "joint_ocp_pp",
    "joint_gcp",
    "joint_gcp_pp",
)

# minimum utterance length: two embedded phrases plus a separator
MIN_U = 7


@dataclass(frozen=True)
class ExperimentConfig:
    # corpus
    n_utterances: int = 200
    u_min: int = 12
    u_max: int = 20
    n_chars: int = 80
    span_rate: float = 0.9
    two_span_rate: float = 0.05
    list_lengths: tuple[int, ...] = (51, 201, 601, 1196)
    # noise channel rates
    label_flip_rate: float = 0.0
    score_jitter_sigma: float = 0.0
    confusion_rate: float = 0.0
    distractor_boost: float = 0.0
    # decoding and purification
    omega: float = 0.6
    group_size: int = 75
    n_r: int = 2
    thres_list: float = 0.5
    n_top: int = 10
    # sweep matrix
    methods: tuple[str, ...] = KNOWN_METHODS
    n_seeds: int = 1
    seed: int = 0
    outdir: str = "runs"

    def __post_init__(self) -> None:
        # every field must come back from its INI text as it was given: a
        # bool or a list would be saved as text that does not load, and
        # configparser strips what surrounds a value
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                check_int(f.name, value)
            elif f.type == "float":
                check_float(f.name, value)
            elif f.type == "str":
                if not isinstance(value, str) or value != value.strip():
                    raise ValueError(f"{f.name} must be a str without surrounding whitespace, "
                                     f"got {value!r}")
            elif not isinstance(value, tuple):
                raise ValueError(f"{f.name} must be a tuple, got {value!r}")
        for m in self.list_lengths:
            check_int("a list_lengths item", m)
        if self.n_utterances < 1:
            raise ValueError("n_utterances must be positive")
        if not (MIN_U <= self.u_min <= self.u_max):
            raise ValueError(f"need {MIN_U} <= u_min <= u_max")
        if self.n_chars < 20:
            raise ValueError("n_chars must be at least 20")
        for name in ("span_rate", "two_span_rate"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0,1]")
        if not self.list_lengths:
            raise ValueError("list_lengths must be nonempty")
        if any(b <= a for a, b in zip(self.list_lengths, self.list_lengths[1:])):
            raise ValueError("list_lengths must increase strictly")
        if self.list_lengths[0] < 51:
            raise ValueError("every list must cover the gold phrases (length >= 51)")
        if not self.methods:
            raise ValueError("methods must be nonempty")
        unknown = [m for m in self.methods if m not in KNOWN_METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("duplicate method")
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        # constructing the parameter records runs their range checks
        self.noise_for(self.seed)
        self.smoothing
        self.purify_for(self.seed)

    def noise_for(self, sweep_seed: int) -> NoiseSpec:
        return NoiseSpec(
            seed=sweep_seed,
            label_flip_rate=self.label_flip_rate,
            score_jitter_sigma=self.score_jitter_sigma,
            confusion_rate=self.confusion_rate,
            distractor_boost=self.distractor_boost,
        )

    def purify_for(self, sweep_seed: int) -> PurifyParams:
        return PurifyParams(
            group_size=self.group_size,
            n_r=self.n_r,
            thres_list=self.thres_list,
            n_top=self.n_top,
            shuffle_seed=sweep_seed,
        )

    @property
    def smoothing(self) -> SmoothingParams:
        return SmoothingParams(omega=self.omega)

    @property
    def sweep_seeds(self) -> tuple[int, ...]:
        return tuple(range(self.seed, self.seed + self.n_seeds))


_SECTIONS = {
    "corpus": (
        "n_utterances",
        "u_min",
        "u_max",
        "n_chars",
        "span_rate",
        "two_span_rate",
        "list_lengths",
    ),
    "noise": (
        "label_flip_rate",
        "score_jitter_sigma",
        "confusion_rate",
        "distractor_boost",
    ),
    "decode": ("omega", "group_size", "n_r", "thres_list", "n_top"),
    "sweep": ("methods", "n_seeds", "seed", "outdir"),
}

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _format_value(name: str, value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    # an int given for a float field is written as the float it loads as
    return repr(float(value)) if _FIELD_TYPES[name] == "float" else str(value)


def _parse_value(name: str, raw: str):
    """The field's value from its INI text; ``ValueError`` unless the text
    is one such value, or a comma list of them without an empty item."""
    kind = _FIELD_TYPES[name]
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind == "str":
        return raw
    parts = tuple(p.strip() for p in raw.split(","))
    if not all(parts):
        raise ValueError(f"empty item in the list {raw!r}")
    if kind == "tuple[int, ...]":
        return tuple(int(p) for p in parts)
    return parts


def save_config(config: ExperimentConfig, path) -> None:
    parser = configparser.ConfigParser(interpolation=None)
    for section, names in _SECTIONS.items():
        parser[section] = {n: _format_value(n, getattr(config, n)) for n in names}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def load_config(path) -> ExperimentConfig:
    # no interpolation: a value is read as it was written, a % included
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise ValueError(f"cannot read config file {path}")
    # a [DEFAULT] entry would be read through every section, or not at all
    if parser.defaults():
        raise ValueError(f"{path}: [DEFAULT] entries are not allowed: {sorted(parser.defaults())}")
    unknown = sorted(set(parser.sections()) - set(_SECTIONS))
    if unknown:
        raise ValueError(f"{path}: unknown config sections {unknown}")
    values = {}
    for section, names in _SECTIONS.items():
        if not parser.has_section(section):
            continue
        for name in names:
            if parser.has_option(section, name):
                raw = parser.get(section, name)
                try:
                    values[name] = _parse_value(name, raw)
                except ValueError as exc:
                    raise ValueError(f"{path}: [{section}] {name} = {raw!r}: {exc}") from None
    extra = {(s, o) for s in parser.sections() for o in parser.options(s) if o not in _SECTIONS[s]}
    if extra:
        raise ValueError(f"unknown config entries: {sorted(extra)}")
    return ExperimentConfig(**values)


def ensure_outdir(config: ExperimentConfig) -> Path:
    out = Path(config.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out
