"""Sparse multi-view graph data model: CSR adjacencies, symmetric normalization, edge-list IO."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    EmptyView,
    FileError,
    IndexOutOfRange,
    LengthMismatch,
    NonSymmetric,
    ParseError,
    ShapeMismatch,
    SingleView,
)


def _frozen(a, dtype) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def _expand_rows(row_offsets: np.ndarray) -> np.ndarray:
    n = row_offsets.size - 1
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(row_offsets))


@dataclass(eq=False)
class _Csr:
    """Frozen CSR storage of a symmetric n-by-n matrix with finite positive values.

    Each subclass states its own rule for diagonal entries in _check_diagonal.
    """

    n: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.row_offsets = offsets = _frozen(self.row_offsets, np.int64)
        self.col_indices = cols = _frozen(self.col_indices, np.int64)
        self.values = values = _frozen(self.values, np.float64)
        n = self.n
        if n < 1:
            raise IndexOutOfRange("node count must be at least 1")
        if offsets.shape != (n + 1,) or offsets[0] != 0:
            raise IndexOutOfRange("row offsets must have length n+1 and start at 0")
        if np.any(np.diff(offsets) < 0) or offsets[-1] != cols.size:
            raise IndexOutOfRange("row offsets must be nondecreasing and end at nnz")
        if values.shape != cols.shape:
            raise IndexOutOfRange("values and column indices must align")
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            raise IndexOutOfRange("column index out of range")
        rows = _expand_rows(offsets)
        if np.any((rows[1:] == rows[:-1]) & (np.diff(cols) <= 0)):
            raise IndexOutOfRange("column indices must increase strictly within each row")
        if not np.all(np.isfinite(values)) or np.any(values <= 0):
            raise ConfigError("edge weights must be finite and positive")
        self._check_diagonal(rows)
        order = np.lexsort((rows, cols))
        if not (
            np.array_equal(cols[order], rows)
            and np.array_equal(rows[order], cols)
            and np.array_equal(values[order], values)
        ):
            raise NonSymmetric("a stored edge lacks a mirror entry with equal weight")

    def _check_diagonal(self, rows: np.ndarray) -> None:
        raise NotImplementedError

    @property
    def nnz(self) -> int:
        return int(self.col_indices.size)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        out[_expand_rows(self.row_offsets), self.col_indices] = self.values
        return out


class SparseAdjacency(_Csr):
    """CSR adjacency of one view: symmetric storage, no self-loops.

    Immutable after construction; the normalized form and the dense
    reconstruction target are cached on first use.
    """

    def __post_init__(self):
        super().__post_init__()
        self._normalized = None
        self._target = None

    def _check_diagonal(self, rows):
        if np.any(rows == self.col_indices):
            raise IndexOutOfRange("self-loops must not be stored")

    @property
    def num_edges(self) -> int:
        return self.nnz // 2

    @classmethod
    def from_edges(cls, n, edges, weights=None) -> "SparseAdjacency":
        """Build a symmetric adjacency from undirected pairs; duplicates keep the max weight."""
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if weights is None:
            w = np.ones(e.shape[0])
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (e.shape[0],):
                raise LengthMismatch("one weight per edge required")
        if np.any(e[:, 0] == e[:, 1]):
            raise IndexOutOfRange("self-loops are not allowed")
        src = np.concatenate([e[:, 0], e[:, 1]])
        dst = np.concatenate([e[:, 1], e[:, 0]])
        ww = np.concatenate([w, w])
        order = np.lexsort((dst, src))
        src, dst, ww = src[order], dst[order], ww[order]
        if src.size:
            first = np.empty(src.size, dtype=bool)
            first[0] = True
            first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
            starts = np.flatnonzero(first)
            vals = np.maximum.reduceat(ww, starts)
            src, dst = src[starts], dst[starts]
        else:
            vals = ww
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
        return cls(n=n, row_offsets=offsets, col_indices=dst, values=vals)

    def normalized(self) -> "NormalizedAdjacency":
        if self._normalized is None:
            self._normalized = normalize(self)
        return self._normalized

    def reconstruction_target(self) -> np.ndarray:
        if self._target is None:
            self._target = dense_reconstruction_target(self)
            self._target.setflags(write=False)
        return self._target


class NormalizedAdjacency(_Csr):
    """Symmetrically normalized adjacency with self-loops folded in; every row holds its diagonal."""

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.values > 1.0):
            raise ConfigError("normalized values must lie in (0, 1]")

    def _check_diagonal(self, rows):
        diag_per_row = np.bincount(rows[rows == self.col_indices], minlength=self.n)
        if np.any(diag_per_row != 1):
            raise IndexOutOfRange("every row needs exactly one diagonal entry")


def normalize(adj: SparseAdjacency) -> NormalizedAdjacency:
    """Two-sided degree normalization of the adjacency with one self-loop added per node."""
    n = adj.n
    rows = _expand_rows(adj.row_offsets)
    deg = np.bincount(rows, weights=adj.values, minlength=n) + 1.0
    inv_sqrt = 1.0 / np.sqrt(deg)
    diag = np.arange(n, dtype=np.int64)
    all_rows = np.concatenate([rows, diag])
    all_cols = np.concatenate([adj.col_indices, diag])
    all_vals = np.concatenate([adj.values, np.ones(n)])
    order = np.lexsort((all_cols, all_rows))
    all_rows, all_cols, all_vals = all_rows[order], all_cols[order], all_vals[order]
    # the two scale factors are multiplied first so mirrored entries come out bit-identical
    scaled = all_vals * (inv_sqrt[all_rows] * inv_sqrt[all_cols])
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(all_rows, minlength=n), out=offsets[1:])
    return NormalizedAdjacency(n=n, row_offsets=offsets, col_indices=all_cols, values=scaled)


def spmm(norm: NormalizedAdjacency, dense: np.ndarray) -> np.ndarray:
    """Sparse-dense product; per-row accumulation follows CSR entry order, so results are reproducible."""
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2 or dense.shape[0] != norm.n:
        raise ShapeMismatch(f"dense operand must have shape ({norm.n}, k), got {dense.shape}")
    gathered = norm.values[:, None] * dense[norm.col_indices]
    return np.add.reduceat(gathered, norm.row_offsets[:-1], axis=0)


def dense_reconstruction_target(adj: SparseAdjacency) -> np.ndarray:
    """Binary reconstruction target: stored edges become 1 and the diagonal is fixed at 1."""
    t = np.zeros((adj.n, adj.n))
    t[_expand_rows(adj.row_offsets), adj.col_indices] = 1.0
    np.fill_diagonal(t, 1.0)
    return t


def balance_weight(adj: SparseAdjacency) -> float:
    """Zero-to-nonzero entry ratio of the reconstruction target (diagonal counted as nonzero)."""
    nnz = adj.nnz + adj.n
    return (adj.n * adj.n - nnz) / nnz


def edge_pair_codes(adj: SparseAdjacency) -> np.ndarray:
    """Sorted codes u * n + v of the stored unordered pairs with u < v."""
    rows = _expand_rows(adj.row_offsets)
    mask = rows < adj.col_indices
    return rows[mask] * adj.n + adj.col_indices[mask]


@dataclass(eq=False)
class MultiViewNetwork:
    """A shared node set with one symmetric adjacency per view and optional node label sets."""

    n: int
    views: list
    labels: list | None = None
    node_names: list | None = None

    def __post_init__(self):
        if not self.views:
            raise ConfigError("a network needs at least one view")
        for i, view in enumerate(self.views):
            if view.n != self.n:
                raise ConfigError(f"view {i} has {view.n} nodes, expected {self.n}")
            if view.nnz == 0:
                raise EmptyView(f"view {i} has no edges")
        if self.node_names is None:
            self.node_names = [str(i) for i in range(self.n)]
        if len(self.node_names) != self.n:
            raise LengthMismatch("one name per node required")
        if len(set(self.node_names)) != self.n:
            raise ConfigError("node names must be unique")
        if self.labels is not None:
            if len(self.labels) != self.n:
                raise LengthMismatch("one label set per node required")
            self.labels = [set(s) for s in self.labels]

    @property
    def num_views(self) -> int:
        return len(self.views)

    def without_view(self, k: int) -> "MultiViewNetwork":
        if not 0 <= k < len(self.views):
            raise ConfigError(f"no view {k} in a network with {len(self.views)} views")
        if len(self.views) == 1:
            raise SingleView("cannot drop the only view")
        kept = [v for i, v in enumerate(self.views) if i != k]
        return MultiViewNetwork(self.n, kept, self.labels, list(self.node_names))


def jaccard_consistency(net: MultiViewNetwork) -> np.ndarray:
    """Pairwise edge-set overlap between views as unordered node pairs; diagonal is 1."""
    if len(net.views) < 2:
        raise SingleView("consistency analysis needs at least two views")
    codes = [edge_pair_codes(v) for v in net.views]
    k = len(codes)
    out = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            inter = np.intersect1d(codes[i], codes[j], assume_unique=True).size
            union = codes[i].size + codes[j].size - inter
            out[i, j] = out[j, i] = inter / union
    return out


def text_lines(path) -> list:
    """(lineno, stripped line) for each non-blank line of a UTF-8 file that does not start with '#'."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FileError(f"{path}: {exc}") from exc
    lines = enumerate(map(str.strip, text.splitlines()), 1)
    return [(lineno, line) for lineno, line in lines if line and not line.startswith("#")]


def write_text_atomic(path, text: str) -> None:
    """Write through a sibling .tmp file and rename it, so readers never see a partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


def load_edge_lists(paths, n_hint=None, node_names=None) -> MultiViewNetwork:
    """Read one whitespace-separated edge list per view.

    Lines are "src dst [weight]"; '#' starts a comment line. Node ids are
    arbitrary strings mapped to contiguous indices by first appearance across
    files in argument order. Self-loop lines are skipped. Duplicate edges
    collapse keeping the max weight. `node_names` pre-seeds the index mapping
    (used when a dataset ships an explicit node order), `n_hint` pads
    trailing isolated nodes.
    """
    index: dict[str, int] = {}
    names: list[str] = []
    if node_names is not None:
        for name in node_names:
            if name in index:
                raise ConfigError(f"duplicate node name {name!r}")
            index[name] = len(names)
            names.append(name)
    views_edges = []
    for path in paths:
        edges = []
        weights = []
        for lineno, line in text_lines(path):
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ParseError(f"{path}:{lineno}: expected 'src dst [weight]'")
            u, v = parts[0], parts[1]
            if len(parts) == 3:
                try:
                    w = float(parts[2])
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad weight {parts[2]!r}") from exc
                if not np.isfinite(w) or w <= 0:
                    raise ParseError(f"{path}:{lineno}: weight must be finite and positive")
            else:
                w = 1.0
            if u == v:
                continue
            ui = index.get(u)
            if ui is None:
                ui = len(names)
                index[u] = ui
                names.append(u)
            vi = index.get(v)
            if vi is None:
                vi = len(names)
                index[v] = vi
                names.append(v)
            edges.append((ui, vi))
            weights.append(w)
        if not edges:
            raise EmptyView(f"{path}: no edges")
        views_edges.append((edges, weights))
    n = len(names)
    if n_hint is not None:
        if n_hint < n:
            raise ConfigError(f"n_hint={n_hint} is below the {n} distinct nodes found")
        for i in range(n, n_hint):
            name = str(i)
            if name in index:
                raise ConfigError("cannot pad isolated nodes: generated name collides; provide node_names")
            index[name] = i
            names.append(name)
        n = n_hint
    views = [SparseAdjacency.from_edges(n, e, w) for e, w in views_edges]
    return MultiViewNetwork(n=n, views=views, labels=None, node_names=names)


def load_label_file(path, node_names) -> list:
    """Read "node label" pairs; a node may appear on several lines in multi-label data."""
    index = {name: i for i, name in enumerate(node_names)}
    labels: list[set] = [set() for _ in node_names]
    for lineno, line in text_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'node label'")
        node, label = parts
        if node not in index:
            raise ParseError(f"{path}:{lineno}: unknown node {node!r}")
        labels[index[node]].add(label)
    return labels


def save_dataset(net: MultiViewNetwork, directory) -> list:
    """Write nodes.txt, one view_<i>.txt per view, and labels.txt when labels exist."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []

    def put(name, text):
        path = directory / name
        write_text_atomic(path, text)
        written.append(path)

    put("nodes.txt", "\n".join(net.node_names) + "\n")
    for i, view in enumerate(net.views):
        rows = _expand_rows(view.row_offsets)
        mask = rows < view.col_indices
        lines = [
            f"{net.node_names[u]} {net.node_names[v]} {w:.17g}"
            for u, v, w in zip(rows[mask], view.col_indices[mask], view.values[mask])
        ]
        put(f"view_{i}.txt", "\n".join(lines) + "\n")
    if net.labels is not None:
        lines = []
        for name, labs in zip(net.node_names, net.labels):
            for lab in sorted(labs):
                lines.append(f"{name} {lab}")
        put("labels.txt", "\n".join(lines) + "\n")
    return written


def _view_paths(directory: Path) -> list:
    """The view_<i>.txt files of a dataset directory in view order; indices must run 0..k-1."""
    by_index = {}
    for path in sorted(directory.glob("view_*.txt")):
        match = re.fullmatch(r"view_([0-9]+)\.txt", path.name)
        if match is None:
            raise FileError(f"{path}: view files must be named view_<int>.txt")
        i = int(match.group(1))
        if i in by_index:
            raise FileError(f"{path}: view {i} is already given by {by_index[i].name}")
        by_index[i] = path
    if not by_index:
        raise FileError(f"{directory}: no view_<i>.txt files")
    last = max(by_index)
    if last >= len(by_index):
        raise FileError(f"{by_index[last]}: view indices must run 0..{len(by_index) - 1} without gaps")
    return [by_index[i] for i in range(len(by_index))]


def load_dataset(directory) -> MultiViewNetwork:
    """Read a dataset directory written by save_dataset."""
    directory = Path(directory)
    nodes_path = directory / "nodes.txt"
    if not nodes_path.is_file():
        raise FileError(f"{nodes_path}: missing node list")
    names = [line for _, line in text_lines(nodes_path)]
    net = load_edge_lists(_view_paths(directory), node_names=names)
    if net.n != len(names):
        raise ParseError(f"{directory}: edge files mention nodes absent from nodes.txt")
    labels_path = directory / "labels.txt"
    labels = load_label_file(labels_path, names) if labels_path.is_file() else None
    return MultiViewNetwork(net.n, net.views, labels, names)
