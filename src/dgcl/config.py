"""Flat key=value run configuration with dotted sections.

Example::

    stream.kind = synth
    stream.tasks = 5
    stream.d_in = 16
    trainer.methods = finetune,er,kisp
    trainer.lambda = 0.1,1,10
    trainer.memory = 20
    seeds = 0,1,2,3,4
    output_dir = out

Lists are comma-separated. Lines starting with ``#`` are comments.
``KEYS`` is the list of keys: each maps to the ``RunConfig`` field it sets,
its parser and the one stream kind that reads it (None: every kind), and
``parse_config`` and ``canonical_text`` iterate it. Unknown keys are
rejected so typos fail loudly at parse time, and so are non-finite numbers
and the keys the stream kind does not read. Bounds live in the section
dataclasses, ``StreamSpec`` and ``TrainerConfig``; their errors become
``ConfigError("stream: ...")`` and ``ConfigError("trainer: ...")``.
A grid cell is ``RunConfig.trainer`` with its method, lambda, M and seed
replaced.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from operator import attrgetter

from .datasets import StreamSpec, load_tensor_file, split_by_class, synth_stream
from .errors import ConfigError, FileFormatError, LabelRangeError
from .trainer import TrainerConfig, lambda_label


@dataclass
class RunConfig:
    stream_kind: str = "synth"
    stream: StreamSpec = field(default_factory=StreamSpec)
    train_path: str | None = None
    test_path: str | None = None
    # what every cell shares; a cell replaces method, lam, memory and seed
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    methods: list[str] = field(default_factory=lambda: ["kisp"])
    lams: list[float] = field(default_factory=lambda: [1.0])
    memories: list[int] = field(default_factory=lambda: [20])
    seeds: list[int] = field(default_factory=lambda: [0])
    output_dir: str = "out"

    # read by bench/harness.py
    @property
    def batch_size(self) -> int:
        return self.trainer.batch_size

    @property
    def iterations(self) -> int:
        return self.trainer.iterations


def _parse_str(key, raw):
    return raw


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_float(key, raw):
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return value or 0.0  # -0 is 0, under one cell name and hash


def _list_of(conv, label=None):
    """Comma-separated values; a value listed twice (after conversion, so
    ``1`` and ``1.0`` are one lambda) would run its cells twice and pass the
    copies off as independent repeats, so it is rejected. So are two values
    that ``label`` writes alike: their cells would share output files."""
    def parse(key, raw):
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if not parts:
            raise ConfigError(f"{key}: list must not be empty")
        values = [conv(key, p) for p in parts]
        names = [label(v) for v in values] if label is not None else values
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ConfigError(
                    f"{key}: {parts[i]!r} repeats an earlier value")
            if names[i] in names[:i]:
                raise ConfigError(
                    f"{key}: {parts[i]!r} and "
                    f"{parts[names.index(names[i])]!r} are both written "
                    f"{names[i]!r} in cell names")
        return values
    return parse


# key -> (RunConfig attribute path, parser, the one stream kind that reads
# it or None); set for another kind, a key would change the config hash and
# nothing that runs
KEYS = {
    "stream.kind": ("stream_kind", _parse_str, None),
    "stream.tasks": ("stream.tasks", _parse_int, "synth"),
    "stream.classes_per_task": ("stream.classes_per_task", _parse_int, None),
    "stream.d_in": ("stream.d_in", _parse_int, "synth"),
    "stream.train_per_class": ("stream.train_per_class", _parse_int, "synth"),
    "stream.test_per_class": ("stream.test_per_class", _parse_int, "synth"),
    "stream.separation": ("stream.separation", _parse_float, "synth"),
    "stream.noise": ("stream.noise", _parse_float, "synth"),
    "stream.seed": ("stream.seed", _parse_int, None),
    "stream.train_path": ("train_path", _parse_str, "file"),
    "stream.test_path": ("test_path", _parse_str, "file"),
    "trainer.methods": ("methods", _list_of(_parse_str), None),
    "trainer.lambda": ("lams", _list_of(_parse_float, lambda_label), None),
    "trainer.memory": ("memories", _list_of(_parse_int), None),
    "trainer.tau": ("trainer.tau", _parse_float, None),
    "trainer.lr": ("trainer.lr", _parse_float, None),
    "trainer.batch_size": ("trainer.batch_size", _parse_int, None),
    "trainer.iterations": ("trainer.iterations", _parse_int, None),
    "seeds": ("seeds", _list_of(_parse_int), None),
    "output_dir": ("output_dir", _parse_str, None),
}


def _checked(section: str, make, *args, **kwargs):
    """``make(...)``, with a bound's ValueError as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(f"{section}: {e}") from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate configuration text; raises ConfigError on any flaw."""
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value

    # attribute name -> value, per section ("" is RunConfig itself)
    fields: dict[str, dict] = {"": {}, "stream": {}, "trainer": {}}
    for key, raw in pairs.items():
        if key not in KEYS:
            raise ConfigError(f"unknown key {key!r}")
        path, parse, _ = KEYS[key]
        section, _, name = path.rpartition(".")
        fields[section][name] = parse(key, raw)
    cfg = RunConfig(stream=_checked("stream", StreamSpec, **fields["stream"]),
                    trainer=_checked("trainer", TrainerConfig,
                                     **fields["trainer"]),
                    **fields[""])

    if cfg.stream_kind not in ("synth", "file"):
        raise ConfigError(f"stream.kind must be synth or file, "
                          f"got {cfg.stream_kind!r}")
    for key in pairs:
        if KEYS[key][2] not in (None, cfg.stream_kind):
            raise ConfigError(f"{key}: {cfg.stream_kind} streams ignore it")
    if cfg.stream_kind == "file" and not (cfg.train_path and cfg.test_path):
        raise ConfigError("file streams need stream.train_path and "
                          "stream.test_path")
    # one trainer config per list position (a shorter list repeats its last
    # value) puts every listed value through the trainer's bounds, even a
    # lambda that no cell takes, such as one listed for ER alone
    axes = (cfg.methods, cfg.lams, cfg.memories, cfg.seeds)
    for i in range(max(map(len, axes))):
        method, lam, memory, seed = (axis[min(i, len(axis) - 1)]
                                     for axis in axes)
        _checked("trainer", replace, cfg.trainer, method=method, lam=lam,
                 memory=memory, seed=seed)
    return cfg


def parse_config_file(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return parse_config(text)


def _render(value) -> str:
    if value is None:  # an unset path
        return ""
    if isinstance(value, list):
        return ",".join(_render(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def canonical_text(cfg: RunConfig) -> str:
    """Normalized key=value rendering used for the output-path hash; the
    output directory is left out, so moving a grid keeps its hash."""
    return "\n".join(f"{key}={_render(attrgetter(path)(cfg))}"
                     for key, (path, *_) in sorted(KEYS.items())
                     if key != "output_dir")


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode()).hexdigest()[:12]


def build_tasks(cfg: RunConfig, run_seed: int):
    """Materialize the task list for one grid cell.

    The effective stream seed folds in the run seed, so repeats draw fresh
    data while methods sharing a seed stay exactly paired. A stream kind's
    faults must not depend on the seed: ``dgcl`` builds one seed's stream
    to find them before it writes anything.
    """
    effective_seed = cfg.stream.seed + run_seed
    if cfg.stream_kind == "synth":
        return synth_stream(replace(cfg.stream, seed=effective_seed))
    loaded = []
    for path in (cfg.train_path, cfg.test_path):
        try:
            loaded.append(load_tensor_file(path))
        except FileNotFoundError as e:
            raise ConfigError(f"no stream file at {e.filename}") from None
        except (FileFormatError, LabelRangeError) as e:
            # the message names the fault, not which of the two files
            raise type(e)(f"{path}: {e}") from None
    (train_x, train_y, _), (test_x, test_y, _) = loaded
    return split_by_class(train_x, train_y, cfg.stream.classes_per_task,
                          test_x=test_x, test_y=test_y, seed=effective_seed)
