"""Regularized graph auto-encoders for multi-view network embedding."""

__version__ = "0.1.0"

from .synth import SynthConfig, generate
from .trainer import TrainConfig, train

__all__ = ["SynthConfig", "TrainConfig", "__version__", "generate", "train"]
