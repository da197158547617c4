"""Desk-scale online continual learning with replay and embedding-geometry
regularizers, evaluation metrics, and a deterministic benchmark CLI."""

from .datasets import StreamSpec, TaskData, synth_stream
from .losses import LossBreakdown
from .memory import EpisodicMemory
from .metrics import AccuracyMatrix, DriftLog, embedding_drift, fa, fm, ga, la
from .model import Model
from .trainer import RunResult, TrainerConfig, run_stream

__version__ = "0.1.0"

__all__ = [
    "AccuracyMatrix",
    "DriftLog",
    "EpisodicMemory",
    "LossBreakdown",
    "Model",
    "RunResult",
    "StreamSpec",
    "TaskData",
    "TrainerConfig",
    "embedding_drift",
    "fa",
    "fm",
    "ga",
    "la",
    "run_stream",
    "synth_stream",
    "__version__",
]
