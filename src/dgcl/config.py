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

Lists are comma-separated. Lines starting with ``#`` are comments. Unknown
keys are rejected so typos fail loudly at parse time.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from .datasets import StreamSpec, load_tensor_file, split_by_class, synth_stream
from .errors import ConfigError
from .trainer import METHODS


@dataclass
class RunConfig:
    stream_kind: str = "synth"
    stream: StreamSpec = field(default_factory=StreamSpec)
    train_path: str | None = None
    test_path: str | None = None
    file_classes_per_task: int = 2
    methods: list[str] = field(default_factory=lambda: ["kisp"])
    lams: list[float] = field(default_factory=lambda: [1.0])
    memories: list[int] = field(default_factory=lambda: [20])
    tau: float = 0.1
    lr: float = 0.05
    batch_size: int = 10
    iterations: int = 1
    seeds: list[int] = field(default_factory=lambda: [0])
    output_dir: str = "out"


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_float(key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _parse_list(key, raw, conv):
    """Comma-separated values; a value listed twice (after conversion, so
    ``1`` and ``1.0`` are one lambda) would run its cells twice and pass the
    copies off as independent repeats, so it is rejected."""
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key}: list must not be empty")
    values = [conv(key, p) for p in parts]
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{key}: {parts[i]!r} repeats an earlier value")
    return values


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

    cfg = RunConfig()
    stream_kw: dict = {}
    handlers = {
        "stream.kind": ("stream_kind", str),
        "stream.train_path": ("train_path", str),
        "stream.test_path": ("test_path", str),
        "output_dir": ("output_dir", str),
    }
    stream_int = {"stream.tasks": "tasks",
                  "stream.classes_per_task": "classes_per_task",
                  "stream.d_in": "d_in",
                  "stream.train_per_class": "train_per_class",
                  "stream.test_per_class": "test_per_class",
                  "stream.seed": "seed"}
    stream_float = {"stream.separation": "separation", "stream.noise": "noise"}

    for key, raw in pairs.items():
        if key in handlers:
            attr, conv = handlers[key]
            setattr(cfg, attr, conv(raw))
        elif key in stream_int:
            stream_kw[stream_int[key]] = _parse_int(key, raw)
        elif key in stream_float:
            stream_kw[stream_float[key]] = _parse_float(key, raw)
        elif key == "trainer.methods":
            cfg.methods = _parse_list(key, raw, lambda k, p: p)
        elif key == "trainer.lambda":
            cfg.lams = _parse_list(key, raw, _parse_float)
        elif key == "trainer.memory":
            cfg.memories = _parse_list(key, raw, _parse_int)
        elif key == "trainer.tau":
            cfg.tau = _parse_float(key, raw)
        elif key == "trainer.lr":
            cfg.lr = _parse_float(key, raw)
        elif key == "trainer.batch_size":
            cfg.batch_size = _parse_int(key, raw)
        elif key == "trainer.iterations":
            cfg.iterations = _parse_int(key, raw)
        elif key == "seeds":
            cfg.seeds = _parse_list(key, raw, _parse_int)
        else:
            raise ConfigError(f"unknown key {key!r}")

    try:
        cfg.stream = replace(cfg.stream, **stream_kw)
    except ValueError as e:
        raise ConfigError(f"stream: {e}") from None

    if cfg.stream_kind not in ("synth", "file"):
        raise ConfigError(f"stream.kind must be synth or file, "
                          f"got {cfg.stream_kind!r}")
    if cfg.stream_kind == "file" and not (cfg.train_path and cfg.test_path):
        raise ConfigError("file streams need stream.train_path and "
                          "stream.test_path")
    if cfg.stream_kind == "file":
        cfg.file_classes_per_task = cfg.stream.classes_per_task
    if not cfg.methods:
        raise ConfigError("trainer.methods must not be empty")
    for m in cfg.methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")
    if not cfg.seeds:
        raise ConfigError("seeds must not be empty")
    if any(l < 0 for l in cfg.lams):
        raise ConfigError("trainer.lambda values must be >= 0")
    if any(m < 1 for m in cfg.memories):
        raise ConfigError("trainer.memory values must be >= 1")
    if cfg.tau <= 0:
        raise ConfigError("trainer.tau must be > 0")
    if cfg.lr <= 0:
        raise ConfigError("trainer.lr must be > 0")
    if cfg.batch_size < 1:
        raise ConfigError("trainer.batch_size must be >= 1")
    if cfg.iterations not in (1, 2, 3):
        raise ConfigError("trainer.iterations must be 1, 2, or 3")
    return cfg


def parse_config_file(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return parse_config(text)


def canonical_text(cfg: RunConfig) -> str:
    """Normalized key=value rendering used for the output-path hash."""
    items = {
        "stream.kind": cfg.stream_kind,
        "stream.tasks": cfg.stream.tasks,
        "stream.classes_per_task": cfg.stream.classes_per_task,
        "stream.d_in": cfg.stream.d_in,
        "stream.train_per_class": cfg.stream.train_per_class,
        "stream.test_per_class": cfg.stream.test_per_class,
        "stream.separation": repr(cfg.stream.separation),
        "stream.noise": repr(cfg.stream.noise),
        "stream.seed": cfg.stream.seed,
        "stream.train_path": cfg.train_path or "",
        "stream.test_path": cfg.test_path or "",
        "trainer.methods": ",".join(cfg.methods),
        "trainer.lambda": ",".join(repr(l) for l in cfg.lams),
        "trainer.memory": ",".join(str(m) for m in cfg.memories),
        "trainer.tau": repr(cfg.tau),
        "trainer.lr": repr(cfg.lr),
        "trainer.batch_size": cfg.batch_size,
        "trainer.iterations": cfg.iterations,
        "seeds": ",".join(str(s) for s in cfg.seeds),
    }
    return "\n".join(f"{k}={items[k]}" for k in sorted(items))


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode()).hexdigest()[:12]


def build_tasks(cfg: RunConfig, run_seed: int):
    """Materialize the task list for one grid cell.

    The effective stream seed folds in the run seed, so repeats draw fresh
    data while methods sharing a seed stay exactly paired.
    """
    effective_seed = cfg.stream.seed + run_seed
    if cfg.stream_kind == "synth":
        return synth_stream(replace(cfg.stream, seed=effective_seed))
    train_x, train_y, _ = load_tensor_file(cfg.train_path)
    test_x, test_y, _ = load_tensor_file(cfg.test_path)
    return split_by_class(train_x, train_y, cfg.file_classes_per_task,
                          test_x=test_x, test_y=test_y, seed=effective_seed)
