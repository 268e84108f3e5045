"""Sparse multi-view graph data model: CSR adjacencies, symmetric normalization, dataset IO."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter, length_hint
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


@dataclass(eq=False)
class _Csr:
    """Frozen CSR storage of a symmetric n-by-n matrix with finite positive values.

    rows holds the row index of every stored entry. Each subclass states its
    own rule for diagonal entries in _check_diagonal.
    """

    n: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    rows: np.ndarray = field(init=False, repr=False)

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
        self.rows = rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        rows.setflags(write=False)
        if np.any((rows[1:] == rows[:-1]) & (np.diff(cols) <= 0)):
            raise IndexOutOfRange("column indices must increase strictly within each row")
        if not np.all(np.isfinite(values)) or np.any(values <= 0):
            raise ConfigError("edge weights must be finite and positive")
        self._check_diagonal()
        order = np.argsort(cols * n + rows)  # the keys are unique: columns increase strictly within a row
        if not (
            np.array_equal(cols[order], rows)
            and np.array_equal(rows[order], cols)
            and np.array_equal(values[order], values)
        ):
            raise NonSymmetric("a stored edge lacks a mirror entry with equal weight")

    def _check_diagonal(self) -> None:
        raise NotImplementedError

    @property
    def nnz(self) -> int:
        return int(self.col_indices.size)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        out[self.rows, self.col_indices] = self.values
        return out


class SparseAdjacency(_Csr):
    """CSR adjacency of one view: symmetric storage, no self-loops.

    Immutable after construction; the normalized form and the non-edge rank table are cached on first use.
    """

    def __post_init__(self):
        super().__post_init__()
        self._normalized = None
        self._non_edge_table = None

    def _check_diagonal(self):
        if np.any(self.rows == self.col_indices):
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
        u, v = e.T
        # rows holds every source, then every target, so one range check covers both ends in that order
        rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
        if np.any((rows < 0) | (rows >= n)):
            raise IndexOutOfRange(f"node index {rows[(rows < 0) | (rows >= n)][0]} out of range for {n} nodes")
        keys = rows * n + cols
        # equal keys reduce by max, so their order shows only in a zero or NaN weight, which is rejected anyway
        order = np.argsort(keys)
        keys, vals = keys[order], np.concatenate([w, w])[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        keys, vals = keys[starts], np.maximum.reduceat(vals, starts)
        return cls(n=n, row_offsets=np.searchsorted(keys, np.arange(n + 1) * n), col_indices=keys % n, values=vals)

    def normalized(self) -> "NormalizedAdjacency":
        if self._normalized is None:
            self._normalized = normalize(self)
        return self._normalized

    def non_edges(self, ranks) -> np.ndarray:
        """Pairs u < v of the non-edges with the given ranks among all non-edges in row-major pair order.

        With pair index p = starts[u] + v - u - 1, rank k is p = k + #{edges j : p_j - j <= k};
        starts and the offsets p_j - j are built once per adjacency.
        """
        if self._non_edge_table is None:
            n, codes = self.n, edge_pair_codes(self)
            starts = np.concatenate([[0], np.cumsum(np.arange(n - 1, 0, -1))])
            offsets = starts[codes // n] + codes % n - codes // n - 1 - np.arange(codes.size)
            self._non_edge_table = starts, offsets
        starts, offsets = self._non_edge_table
        p = ranks + np.searchsorted(offsets, ranks, side="right")
        u = np.searchsorted(starts, p, side="right") - 1
        return np.stack([u, p - starts[u] + u + 1], axis=1)


class NormalizedAdjacency(_Csr):
    """Symmetrically normalized adjacency with self-loops folded in; every row holds its diagonal."""

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.values > 1.0):
            raise ConfigError("normalized values must lie in (0, 1]")

    def _check_diagonal(self):
        diag_per_row = np.bincount(self.rows[self.rows == self.col_indices], minlength=self.n)
        if np.any(diag_per_row != 1):
            raise IndexOutOfRange("every row needs exactly one diagonal entry")


def normalize(adj: SparseAdjacency) -> NormalizedAdjacency:
    """Two-sided degree normalization of the adjacency with one self-loop added per node."""
    n, nnz, rows = adj.n, adj.nnz, adj.rows
    inv_sqrt = 1.0 / np.sqrt(np.bincount(rows, weights=adj.values, minlength=n) + 1.0)
    # entry j of row r moves r places on, one more past the diagonal; row r's diagonal fills the place left free
    moved = np.arange(nnz) + rows + (adj.col_indices > rows)
    is_diag = np.ones(nnz + n, dtype=bool)
    is_diag[moved] = False
    cols, vals = np.empty(nnz + n, dtype=np.int64), np.ones(nnz + n)
    cols[moved], vals[moved], cols[is_diag] = adj.col_indices, adj.values, np.arange(n)
    rows = np.repeat(np.arange(n), np.diff(adj.row_offsets) + 1)
    # the two scale factors are multiplied first so mirrored entries come out bit-identical
    return NormalizedAdjacency(n, adj.row_offsets + np.arange(n + 1), cols, vals * (inv_sqrt[rows] * inv_sqrt[cols]))


def spmm(norm: NormalizedAdjacency, dense: np.ndarray) -> np.ndarray:
    """Sparse-dense product whose rows are np.add.reduceat's sums of the row's CSR products.

    Each row is its first stored product plus numpy's pairwise sum of the
    others. The products are laid out one operand column per row, so each
    reduced segment is contiguous. Every segment is non-empty because each
    normalized row holds its diagonal.
    """
    if not isinstance(norm, NormalizedAdjacency):
        raise ConfigError(f"spmm needs a NormalizedAdjacency, got {type(norm).__name__}")
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2 or dense.shape[0] != norm.n:
        raise ShapeMismatch(f"dense operand must have shape ({norm.n}, k), got {dense.shape}")
    p = np.ascontiguousarray(dense.T).take(norm.col_indices, axis=1)
    p *= norm.values
    return np.add.reduceat(p, norm.row_offsets[:-1], axis=1).T.copy()


def edge_pair_codes(adj: SparseAdjacency) -> np.ndarray:
    """Sorted codes u * n + v of the stored unordered pairs with u < v."""
    mask = adj.rows < adj.col_indices
    return adj.rows[mask] * adj.n + adj.col_indices[mask]


def label_set(item) -> set:
    """One node's labels: a set, frozenset, list or tuple holds several; any other item, a string included, is one."""
    return set(item) if isinstance(item, (set, frozenset, list, tuple)) else {item}


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
            self.labels = [label_set(s) for s in self.labels]

    def view(self, k: int) -> SparseAdjacency:
        """View k; a ConfigError names the valid range when there is none."""
        if not 0 <= k < len(self.views):
            raise ConfigError(f"no view {k} in a network with {len(self.views)} views")
        return self.views[k]

    def without_view(self, k: int) -> "MultiViewNetwork":
        self.view(k)
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


def read_text(path) -> str:
    """A UTF-8 file's text less a leading BOM; FileError if unreadable, ParseError at path:line for a non-UTF-8 byte."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise FileError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{lineno}: not UTF-8 ({exc.reason})") from exc


def text_lines(path) -> list:
    """(lineno, stripped line) for each non-blank line of a UTF-8 file that does not start with '#'."""
    lines = enumerate(map(str.strip, read_text(path).splitlines()), 1)
    return [(lineno, line) for lineno, line in lines if line and line[0] != "#"]


def text_fields(path) -> tuple:
    """Line numbers and whitespace-split fields of the non-blank lines whose first field does not start with '#'."""
    fields = list(map(str.split, read_text(path).splitlines()))
    linenos = [lineno for lineno, line in enumerate(fields, 1) if line and line[0][0] != "#"]
    return linenos, [fields[lineno - 1] for lineno in linenos]


def write_text_atomic(path, text: str) -> None:
    """Write through a sibling .tmp file and rename it, so readers never see a partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


def leading_floats(tokens: list) -> np.ndarray:
    """float() of each token up to the first one it rejects; the result's length is that token's position."""
    rest = iter(tokens)
    try:
        return np.fromiter(map(float, rest), np.float64, len(tokens))
    except ValueError:
        stop = len(tokens) - length_hint(rest) - 1
        return np.fromiter(map(float, tokens[:stop]), np.float64, stop)


def _read_view(path, index: dict) -> SparseAdjacency:
    """Read one view file of "src dst [weight]" lines over the nodes of index (name -> position).

    '#' starts a comment line. Self-loop lines are skipped. Duplicate edges
    collapse keeping the max weight. The first malformed line is a ParseError,
    checked for its field count, then its weight, then its nodes unless it is a self-loop.
    """
    linenos, fields = text_fields(path)
    counts = np.fromiter(map(len, fields), np.int64, len(fields))
    stop, message = len(fields), None
    bad = np.flatnonzero((counts < 2) | (counts > 3))
    if bad.size:
        stop, message = bad[0], "expected 'src dst [weight]'"
    weighted = np.flatnonzero(counts[:stop] == 3)
    weights = leading_floats([fields[i][2] for i in weighted.tolist()])
    if weights.size < weighted.size:
        stop, message = weighted[weights.size], f"bad weight {fields[weighted[weights.size]][2]!r}"
    bad = np.flatnonzero(~np.isfinite(weights) | (weights <= 0))
    if bad.size:
        stop, message = weighted[bad[0]], "weight must be finite and positive"
    src, dst = (
        np.fromiter(map(index.get, map(itemgetter(k), fields[:stop]), repeat(-1)), np.int64, stop) for k in (0, 1)
    )
    # names are compared only where a node is unknown: a self-loop of an unknown node is skipped too
    unknown = np.flatnonzero((src < 0) | (dst < 0))
    loop = src == dst
    loop[unknown] = [fields[i][0] == fields[i][1] for i in unknown.tolist()]
    bad = unknown[~loop[unknown]]
    if bad.size:
        stop, message = bad[0], f"node {fields[bad[0]][0 if src[bad[0]] < 0 else 1]!r} is not in the node list"
    if message is not None:
        raise ParseError(f"{path}:{linenos[stop]}: {message}")
    if loop.all():
        raise EmptyView(f"{path}: no edges")
    w = np.ones(stop)
    w[weighted] = weights
    return SparseAdjacency.from_edges(len(index), np.column_stack([src, dst])[~loop], w[~loop])


def _read_nodes(path) -> list:
    """The names of a nodes.txt file in line order; a line holding whitespace or a repeated name is a ParseError."""
    first_line = {}
    for lineno, parts in zip(*text_fields(path)):
        if len(parts) > 1:
            name = read_text(path).splitlines()[lineno - 1].strip()
            raise ParseError(f"{path}:{lineno}: node name {name!r} holds whitespace")
        if first_line.setdefault(parts[0], lineno) != lineno:
            raise ParseError(f"{path}:{lineno}: node {parts[0]!r} is already on line {first_line[parts[0]]}")
    return list(first_line)


def load_label_file(path, node_names) -> list:
    """Read "node label" pairs; a node may appear on several lines in multi-label data."""
    index = {name: i for i, name in enumerate(node_names)}
    labels: list[set] = [set() for _ in node_names]
    for lineno, parts in zip(*text_fields(path)):
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'node label'")
        node, label = parts
        if node not in index:
            raise ParseError(f"{path}:{lineno}: unknown node {node!r}")
        labels[index[node]].add(label)
    return labels


def require_readable_names(names) -> None:
    """ConfigError for a node name no reader reads back: empty, holding whitespace, led by '#' or a BOM, or repeated."""
    seen = set()
    for name in names:
        if name.split() != [name] or name.startswith(("#", "\ufeff")):
            raise ConfigError(f"node name {name!r} must be nonempty, hold no whitespace, not start with '#' or a BOM")
        if name in seen:
            raise ConfigError(f"node name {name!r} is repeated")
        seen.add(name)


def save_dataset(net: MultiViewNetwork, directory) -> list:
    """Write nodes.txt, one view_<i>.txt per view, and labels.txt when labels exist.

    Before writing, a FileError names any view or label file already there that the write would not replace,
    which load_dataset would read as part of this dataset.
    """
    require_readable_names(net.node_names)
    texts = {"nodes.txt": "\n".join(net.node_names) + "\n"}
    for i, view in enumerate(net.views):
        mask = view.rows < view.col_indices
        lines = [
            f"{net.node_names[u]} {net.node_names[v]} {w:.17g}"
            for u, v, w in zip(view.rows[mask], view.col_indices[mask], view.values[mask])
        ]
        texts[f"view_{i}.txt"] = "\n".join(lines) + "\n"
    if net.labels is not None:
        lines = []
        for name, labs in zip(net.node_names, net.labels):
            # each distinct text once, in text order, so mixed types sort and a reloaded dataset writes the same bytes
            for lab in sorted(set(map(str, labs))):
                if lab.split() != [lab]:
                    raise ConfigError(f"label {lab!r} must be nonempty and hold no whitespace")
                lines.append(f"{name} {lab}")
        texts["labels.txt"] = "\n".join(lines) + "\n"
    directory = Path(directory)
    there = {p.name for p in [*directory.glob("view_*.txt"), directory / "labels.txt"] if p.exists()}
    stale = sorted(there - set(texts))
    if stale:
        raise FileError(f"{directory}: {', '.join(stale)} would be read with this dataset; remove or write elsewhere")
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        write_text_atomic(directory / name, text)
    return [directory / name for name in texts]


def _view_paths(directory: Path) -> list:
    """The k view_*.txt files of a dataset directory in view order; they must be view_0.txt .. view_<k-1>.txt."""
    found = {p.name for p in directory.glob("view_*.txt")}
    if not found:
        raise FileError(f"{directory}: no view_<i>.txt files")
    names = [f"view_{i}.txt" for i in range(len(found))]
    stray = sorted(found - set(names))
    if stray:
        raise FileError(f"{directory / stray[0]}: view files must be named view_0.txt .. view_{len(found) - 1}.txt")
    return [directory / name for name in names]


def load_dataset(directory) -> MultiViewNetwork:
    """Read a dataset directory written by save_dataset."""
    directory = Path(directory)
    nodes_path = directory / "nodes.txt"
    if not nodes_path.is_file():
        raise FileError(f"{nodes_path}: missing node list")
    names = _read_nodes(nodes_path)
    index = {name: i for i, name in enumerate(names)}
    views = [_read_view(path, index) for path in _view_paths(directory)]
    labels_path = directory / "labels.txt"
    labels = load_label_file(labels_path, names) if labels_path.is_file() else None
    return MultiViewNetwork(len(names), views, labels, names)
