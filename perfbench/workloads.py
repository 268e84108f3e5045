"""Workload table, the rgae import from the checkout, and seeded input generation."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

# a seed kept out of development; a claimed gain must also hold on it
HELDOUT_SEED = 90_417


def import_rgae():
    """Import rgae from the checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "rgae" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rgae package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import rgae

    if Path(rgae.__file__).resolve().parent != (src / "rgae").resolve():
        raise SystemExit(f"perfbench: imported rgae from {rgae.__file__}, not from {src}")


@dataclass(frozen=True)
class Workload:
    """One seeded input graph plus what a pass does with it.

    A "train" workload's pass loads the dataset, trains for a fixed number
    of epochs, writes embeddings.txt and history.tsv, then scores the
    embeddings. An "eval" workload first runs timed prep training passes
    with view ``held_out`` removed; each of its passes then loads the dataset
    and the prep embeddings and writes the classification and
    link-prediction rows.
    """

    name: str
    kind: str
    n: int
    communities: tuple
    views: int
    p_in: float
    p_out: float
    epochs: int
    class_ratios: tuple
    class_seeds: tuple
    link_view: int
    link_seeds: tuple
    held_out: int | None = None
    f1_floor: float | None = None

    def synth_config(self, seed: int):
        from rgae.synth import SynthConfig

        return SynthConfig(
            n=self.n, communities=self.communities, views=self.views, p_in=self.p_in,
            p_out=self.p_out, unique_frac=0.5, seed=seed,
        )

    def train_config(self, seed: int, epochs: int | None = None, verbose: bool = False):
        """The acceptance-criterion-5 model config at a fixed epoch count."""
        from rgae.trainer import TrainConfig

        return TrainConfig(
            dim=32, layer_sizes=(32,), alpha=0.5, beta=0.5, gamma=5.0, lr=0.01,
            max_epochs=self.epochs if epochs is None else epochs, patience=math.inf, tol=0.0,
            seed=seed, verbose=verbose,
        )


def _thirds(n: int) -> tuple:
    return (n - 2 * (n // 3), n // 3, n // 3)


LARGE_N = 1000

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-small", kind="train", n=60, communities=(20, 20, 20), views=2,
            p_in=0.3, p_out=0.02, epochs=20, class_ratios=(0.5,), class_seeds=tuple(range(10)),
            link_view=0, link_seeds=tuple(range(10)), f1_floor=0.85,
        ),
        Workload(
            name="train-large", kind="train", n=LARGE_N, communities=_thirds(LARGE_N), views=3,
            p_in=8 / (LARGE_N / 3), p_out=2 / LARGE_N, epochs=2, class_ratios=(0.5,),
            class_seeds=tuple(range(10)), link_view=0, link_seeds=tuple(range(10)),
        ),
        Workload(
            name="eval", kind="eval", n=LARGE_N, communities=_thirds(LARGE_N), views=3,
            p_in=8 / (LARGE_N / 3), p_out=2 / LARGE_N, epochs=2, class_ratios=(0.1, 0.3, 0.5),
            class_seeds=tuple(range(10)), link_view=2, link_seeds=tuple(range(10)), held_out=2,
        ),
    )
}


def align_rows(names, rows, node_names):
    """Reorder embedding rows read from a file into the dataset's node order."""
    index = {name: i for i, name in enumerate(names)}
    return rows[[index[name] for name in node_names]]


def input_seed(seed: int) -> int:
    """Map any integer seed onto the non-negative range numpy's generators accept."""
    return seed % (2**32)


def generate_inputs(workload: Workload, seed: int, directory: Path) -> Path:
    """Write the workload's dataset for this seed; never timed."""
    from rgae.graph import save_dataset
    from rgae.synth import generate

    data = directory / "data"
    save_dataset(generate(workload.synth_config(input_seed(seed))), data)
    return data
