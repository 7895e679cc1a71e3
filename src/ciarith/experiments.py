"""Monte-Carlo experiment harness for group-sum interval methods.

Two applications share one rep loop: category-average prediction on
tabular data (fixed disjoint groups) and path-cost prediction on road
networks (per-rep sampled shortest-path groups, generally overlapping).
Groups travel as CSR arrays (offsets, members). Each rep re-splits the
held-out indices, then calls the array engine of :mod:`ciarith.cia` and
:mod:`ciarith.baselines` once per method and level, which bounds every
target group's unknown test-side sum at once; the record-level
``*_predict`` functions are adapters over the same engine. Coverage and
width are aggregated as mean/std over reps.

The model is fitted once per experiment; predictions are therefore fixed
across reps and only the calibration/test split (and, for graphs, the
sampled paths) varies rep to rep.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import baselines, scoring
from .cia import (
    SPLIT_MODES,
    StrataSpec,
    _ONE_BUCKET,
    _overlap_deltas,
    restrict_groups,
    stratified_thresholds,
    symmetric_split,
)
from .core import (
    IndexGroup,
    _check_finite,
    _index_array,
    _integer,
    _parse_field,
    _read_csv,
    _rng,
    csr_offsets,
    group_csr,
    interval_from_threshold,
    per_group,
    row_sum,
    score_threshold,
    size_classes,
)
from .graph import WeightedGraph, sample_path_groups
from .models import fit_arrays, neighbor_labels, predict_point, quantile_index

__all__ = [
    "METHOD_IDS",
    "NOISE_KINDS",
    "ExperimentConfig",
    "MethodResult",
    "PathSampling",
    "OverlapStudyRow",
    "TabularDataset",
    "load_tabular_csv",
    "build_groups_by_category",
    "generate_synthetic",
    "run_experiment",
    "overlap_gap_study",
    "derive_seed",
]

logger = logging.getLogger(__name__)

METHOD_IDS = (
    "cia_split",
    "cia_cqr",
    "cia_split_strat",
    "cia_cqr_strat",
    "group_split",
    "group_cqr",
    "normal_homo",
    "normal_hetero",
    "bonf_split",
    "bonf_cqr",
)

_CQR_METHODS = {"cia_cqr", "cia_cqr_strat", "group_cqr", "bonf_cqr"}

# seed stream tags so the train draw, the per-rep splits, the per-rep path
# samples, and the per-target group sampling never collide
_STREAM_TRAIN = 0
_STREAM_SPLIT = 1
_STREAM_PATHS = 2
_STREAM_GSAMP = 3


# numpy's SeedSequence hash, whose output NEP 19 keeps stable across numpy
# versions: a pool of 4 words mixed from the 32-bit entropy words, then read
# out through a second hash. Computed here in uint32 array arithmetic, one
# row of entropy words per seed, so the per-target seeds of the group_*
# branch of _Session._bounds come from one pass.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) words of n successive hash steps."""
    h = [init]
    for _ in range(n):
        h.append(h[-1] * mult & _MASK32)
    h = np.array(h, dtype=np.uint32)
    return h[:-1], h[1:]


def _hash(v: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mult
    return v ^ (v >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ (r >> _XSHIFT)


def _seed_state(words: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(e).generate_state(n_words, np.uint32)`` for each row e.

    ``words`` is an (n, w) uint32 array of entropy words. numpy hashes a
    missing pool word as a zero word, so up to 4 words, trailing zero
    words do not change the result.
    """
    n, w = words.shape
    # one hash step per pool word, per (source, other destination) pair,
    # and per (entropy word beyond the pool, destination) pair
    xor, mult = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * max(w, _POOL_SIZE))
    pool = np.zeros((n, _POOL_SIZE), dtype=np.uint32)
    pool[:, :w] = words[:, :_POOL_SIZE]
    pool = _hash(pool, xor[:_POOL_SIZE], mult[:_POOL_SIZE])
    step = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        steps = slice(step, step + len(dst))
        pool[:, dst] = _mix(pool[:, dst], _hash(pool[:, src, None], xor[steps], mult[steps]))
        step += len(dst)
    for src in range(_POOL_SIZE, w):
        steps = slice(step, step + _POOL_SIZE)
        pool = _mix(pool, _hash(words[:, src, None], xor[steps], mult[steps]))
        step += _POOL_SIZE
    xor, mult = _hash_constants(_INIT_B, _MULT_B, n_words)
    return _hash(pool[:, np.arange(n_words) % _POOL_SIZE], xor, mult)


def _int_words(x: int) -> list[int]:
    """numpy's split of a seed int into little-endian 32-bit words; 0 is [0]."""
    x = _integer("seed entropy", x, 0)
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _derived_seed_words(prefix: Sequence[int], n: int) -> np.ndarray:
    """(low, high) 32-bit words of ``derive_seed(*prefix, t)`` for t < n."""
    head = [w for x in prefix for w in _int_words(x)]
    words = np.empty((n, len(head) + 1), dtype=np.uint32)
    words[:, :-1] = head
    words[:, -1] = np.arange(n)  # t < 2**32 is one word
    return _seed_state(words, 2)


def derive_seed(*entropy: int) -> int:
    """``SeedSequence(entropy).generate_state(1, np.uint64)[0]``, as an int.

    Every stream of an experiment but the per-target group sampling is
    seeded this way; that one derives the same seeds, and seeds its
    generators from them, in one batch (:func:`_seeded_generators`).
    Entropy must be non-negative.
    """
    entropy = [_integer("seed entropy", x, 0) for x in entropy]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


class _HashedSeed(np.random.bit_generator.ISeedSequence):
    """A seed sequence that holds one seed's first ``SeedSequence`` output
    words, as little-endian uint64 words that each pair two uint32 words."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        """``np.random.SeedSequence(seed).generate_state(n_words, dtype)``, for
        a dtype of uint32 or uint64."""
        words = self._words if np.dtype(dtype) == np.uint64 else self._words.view("<u4")
        if n_words > words.size:
            raise ValueError(f"{n_words} words requested, {words.size} held")
        return words[:n_words].astype(dtype)


def _seeded_generators(prefix: Sequence[int], n: int) -> list[np.random.Generator]:
    """``np.random.default_rng(derive_seed(*prefix, t))`` for each t < n: every
    seed and the words PCG64 seeds from come from one pass of the hash. A
    seed's zero high word hashes as numpy's one-word entropy [low] does."""
    words = np.ascontiguousarray(_seed_state(_derived_seed_words(prefix, n), 8), dtype="<u4")
    return [np.random.Generator(np.random.PCG64(_HashedSeed(w))) for w in words.view("<u8")]


def _check_distinct(name: str, values: Sequence) -> None:
    """ValueError naming the first value of ``values`` seen twice."""
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ValueError(f"{name} repeats {repeated[0]!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    alphas: tuple[float, ...]
    reps: int = 100
    seed: int = 0
    methods: tuple[str, ...] = METHOD_IDS
    train_frac: float = 0.7
    split_mode: str = "balanced"
    knn_k: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "reps", _integer("reps", self.reps, 1))
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))
        if self.knn_k is not None:
            object.__setattr__(self, "knn_k", _integer("knn_k", self.knn_k, 1))
        if not self.alphas or any(not 0.0 < a < 1.0 for a in self.alphas):
            raise ValueError("alphas must be a non-empty list within (0, 1)")
        if not 0.0 < self.train_frac < 1.0:
            raise ValueError("train_frac must be in (0, 1)")
        if not self.methods:
            raise ValueError("at least one method is required")
        unknown = set(self.methods) - set(METHOD_IDS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        _check_distinct("alphas", self.alphas)
        _check_distinct("methods", self.methods)
        if self.split_mode not in SPLIT_MODES:
            raise ValueError(f"unknown split mode {self.split_mode!r}")


@dataclass(frozen=True)
class MethodResult:
    method: str
    alpha: float
    mean_coverage: float
    coverage_std: float
    mean_size: float
    size_std: float
    reps: int
    infinite_interval_count: int


@dataclass(frozen=True)
class PathSampling:
    """How to draw shortest-path groups in the path-cost application."""

    n_paths: int
    min_path_len: int = 1

    def __post_init__(self):
        object.__setattr__(self, "n_paths", _integer("n_paths", self.n_paths, 1))
        object.__setattr__(self, "min_path_len", _integer("min_path_len", self.min_path_len, 1))


@dataclass(frozen=True)
class OverlapStudyRow:
    min_len: int
    method: str
    alpha: float
    delta_avg: float
    delta_max: float
    coverage: float
    coverage_gap: float
    mean_size: float
    reps: int


@dataclass(frozen=True)
class TabularDataset:
    """Column store for the tabular application.

    ``group_values`` maps each grouping column to its per-row key values
    (ints or strings); ``features`` is the numeric design matrix with
    categorical grouping columns already code-encoded.
    """

    features: np.ndarray
    labels: np.ndarray
    group_values: dict[str, tuple] = field(default_factory=dict)
    feature_names: tuple[str, ...] = ()

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=float)
        features = np.asarray(self.features, dtype=float)
        if labels.ndim != 1 or features.ndim != 2 or features.shape[0] != labels.size:
            raise ValueError(
                f"features of shape {features.shape} do not match labels of shape "
                f"{labels.shape}: need an (n, d) matrix and n labels"
            )
        names = self.feature_names
        _check_finite(labels, "row {}: label".format)
        _check_finite(
            features, lambda r, c: f"row {r}, feature {names[c] if c < len(names) else c!r}:"
        )

    @property
    def n_rows(self) -> int:
        return int(self.labels.size)


# ---------------------------------------------------------------------------
# Data ingestion
# ---------------------------------------------------------------------------


def _is_number(token: str) -> bool:
    """Whether ``token`` parses as :func:`_parse_field` parses a float; ``nan`` and ``inf`` do."""
    try:
        float(token)
    except ValueError:
        return False
    return True


def load_tabular_csv(
    path, label_column: str, grouping_columns: Sequence[str], discretize_bins: int | None = None
) -> TabularDataset:
    """Load a CSV with a header row; the response column is standardized.

    A grouping column with a token that is not a number (nan and inf are
    numbers) is categorical and enters the features as category codes.
    Every other column, the label included, must hold finite numbers: a bad
    token raises ValueError reading ``line N: column 'c': 'tok' is not
    numeric | finite`` (``label column 'y'`` for the label). A numeric
    grouping column must be integer-valued, or bucketed into
    ``discretize_bins`` (at least 1) equal-frequency bins. The label may
    not be a grouping column; every other column becomes a model feature.
    """
    bins = None if discretize_bins is None else _integer("discretize_bins", discretize_bins, 1)
    if label_column in grouping_columns:
        raise ValueError(f"label column {label_column!r} is also a grouping column")
    with _read_csv(path, [label_column, *grouping_columns]) as (header, rows):
        numbered = list(rows)
    n = len(numbered)
    if n == 0:
        raise ValueError(f"{path}: no data rows")
    line_nos, table = zip(*numbered)

    columns: dict[str, np.ndarray] = {}
    group_values: dict[str, tuple] = {}
    for j, col in enumerate(header):
        raw = [row[j].strip() for row in table]
        if col in grouping_columns and not all(map(_is_number, raw)):
            group_values[col] = tuple(raw)
            columns[col] = np.unique(raw, return_inverse=True)[1].astype(float)
            continue
        name = f"{'label ' if col == label_column else ''}column {col!r}"
        values = np.array([_parse_field(t, ln, name) for t, ln in zip(raw, line_nos)])
        columns[col] = values
        if col not in grouping_columns:
            continue
        if np.array_equal(values, np.floor(values)):
            group_values[col] = tuple(map(int, values.tolist()))
        elif bins:
            qs = np.quantile(values, np.linspace(0, 1, bins + 1)[1:-1])
            group_values[col] = tuple(np.searchsorted(qs, values).tolist())
        else:
            raise ValueError(
                f"grouping column {col!r} is continuous; pass discretize_bins to bucket it"
            )

    labels = columns.pop(label_column)
    sd = float(labels.std())
    if sd > 0:
        labels = (labels - labels.mean()) / sd
    else:
        logger.warning("constant label column %r standardized to zeros", label_column)
        labels = np.zeros(n)
    return TabularDataset(
        features=np.column_stack(list(columns.values()) or [np.zeros(n)]),
        labels=labels,
        group_values=group_values,
        feature_names=tuple(columns) or ("_const",),
    )


def build_groups_by_category(
    dataset: TabularDataset,
    grouping_columns: Sequence[str],
    indices: Iterable[int] | None = None,
) -> list[IndexGroup]:
    """One group per distinct grouping-value combination; disjoint by design."""
    cols = []
    for c in grouping_columns:
        if c not in dataset.group_values:
            raise ValueError(f"grouping column {c!r} not present in dataset")
        cols.append(dataset.group_values[c])
    n = dataset.n_rows
    idx = np.arange(n) if indices is None else _index_array("row position", indices)
    bad = (idx < 0) | (idx >= n)
    if bad.any():
        raise ValueError(f"row position {idx[bad][0]} is outside [0, {n})")
    buckets: dict[tuple, list[int]] = {}
    for i in idx.tolist():
        buckets.setdefault(tuple(col[i] for col in cols), []).append(i)
    return [
        IndexGroup(group_id=gid, members=frozenset(buckets[key]))
        for gid, key in enumerate(sorted(buckets))
    ]


# the noise kinds :func:`generate_synthetic` draws
NOISE_KINDS = ("gaussian", "student_t")


def generate_synthetic(
    n_samples: int,
    n_groups: int,
    noise_kind: str = "gaussian",
    rng_seed: int = 0,
    n_features: int = 3,
) -> tuple[TabularDataset, list[IndexGroup]]:
    """Linear data with chosen noise, plus a uniform disjoint group partition.

    Samples are i.i.d. and the partition is an exchangeable random one, so
    the groups satisfy the exchangeability the coverage guarantee needs.
    """
    n_samples = _integer("n_samples", n_samples)
    n_groups = _integer("n_groups", n_groups, 1)
    n_features = _integer("n_features", n_features, 1)
    rng = _rng(rng_seed)
    if n_groups > n_samples:
        raise ValueError("n_groups cannot exceed n_samples")
    if noise_kind not in NOISE_KINDS:
        raise ValueError(f"unknown noise kind {noise_kind!r}")
    X = rng.standard_normal((n_samples, n_features))
    beta = rng.uniform(0.5, 1.5, size=n_features)
    noise = (
        rng.standard_normal(n_samples)
        if noise_kind == "gaussian"
        else rng.standard_t(3, size=n_samples)
    )
    y = X @ beta + 0.5 + noise
    perm = rng.permutation(n_samples)
    groups = [
        IndexGroup(group_id=gid, members=frozenset(chunk.tolist()))
        for gid, chunk in enumerate(np.array_split(perm, n_groups))
    ]
    return TabularDataset(features=X, labels=y), groups


# ---------------------------------------------------------------------------
# The rep engine
# ---------------------------------------------------------------------------


@dataclass
class _Prep:
    universe: np.ndarray  # sorted row positions outside training
    y: np.ndarray
    y_hat: np.ndarray  # predictions on the universe (nan elsewhere)
    quant: dict[float, tuple[np.ndarray, np.ndarray]]
    sigma_iqr: np.ndarray | None
    groups: tuple[np.ndarray, np.ndarray] | None = None  # fixed CSR groups (tabular)
    cost: np.ndarray | None = None  # per-edge routing costs (graph mode)


def _fit_and_predict(features, labels, config) -> _Prep:
    """Split off the training rows, fit on them, and predict on the rest (the
    universe): point predictions and quantile bands, one rule per input.

    With features: a least-squares point model, and bands from one kNN
    selection per fit (the k nearest training rows of each universe row,
    selected once, their labels sorted once). Without them (``features``
    is None, a graph with no edge features) every training row is a
    neighbour: the point prediction is the mean of the training labels in
    training-row order, and the bands are order statistics of the sorted
    training labels, and ``config.knn_k`` is a ValueError. Every α's (α/2,
    1−α/2) band and the (0.25, 0.75) IQR use :func:`~ciarith.models.quantile_index`.
    """
    train_pos, universe = _train_universe(labels.size, config)
    y = labels[train_pos]
    need_cqr = bool(_CQR_METHODS & set(config.methods))
    need_hetero = "normal_hetero" in config.methods
    y_hat = np.full(labels.size, np.nan)
    if features is None:
        if config.knn_k is not None:
            raise ValueError("knn_k applies to inputs with features; this graph has none")
        y_hat[universe] = y.mean()
        ranked = np.sort(y)
    else:
        X, Q = features[train_pos], features[universe]
        y_hat[universe] = predict_point(fit_arrays(X, y, "linear_ls"), Q)
        if need_cqr or need_hetero:
            knn = fit_arrays(X, y, "knn", k_neighbors=config.knn_k)
            ranked = np.sort(neighbor_labels(knn, Q), axis=1)

    def column(level):  # the level's order statistic of each universe row
        out = np.full(labels.size, np.nan)
        out[universe] = ranked[..., quantile_index(ranked.shape[-1], level)]
        return out

    quant = {a: (column(a / 2), column(1 - a / 2)) for a in config.alphas} if need_cqr else {}
    sigma_iqr = baselines.iqr_sigma(column(0.25), column(0.75)) if need_hetero else None
    return _Prep(universe=universe, y=labels.astype(float), y_hat=y_hat, quant=quant,
                 sigma_iqr=sigma_iqr)


def _train_universe(n, config):
    if n < 3:
        raise ValueError(
            f"need at least 3 rows or edges (training, calibration, test), got {n}"
        )
    rng = np.random.default_rng(derive_seed(config.seed, _STREAM_TRAIN))
    n_train = int(n * config.train_frac)
    n_train = min(max(n_train, 1), n - 2)
    perm = rng.permutation(n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


@dataclass(frozen=True)
class _Session:
    """Shared read-only state plus the per-rep evaluation logic."""

    config: ExperimentConfig
    prep: _Prep
    graph: WeightedGraph | None = None
    path_spec: PathSampling | None = None
    collect_deltas: bool = False

    def _groups_for_rep(self, rep: int) -> tuple[np.ndarray, np.ndarray]:
        """This rep's groups as CSR (offsets, members), members sorted."""
        prep = self.prep
        if prep.groups is not None:
            return prep.groups
        paths = sample_path_groups(
            self.graph,
            self.path_spec.n_paths,
            derive_seed(self.config.seed, _STREAM_PATHS, rep),
            min_path_len=self.path_spec.min_path_len,
            cost_fn=prep.cost,
        )
        ids = np.fromiter(
            itertools.chain.from_iterable(p.edge_ids for p in paths), dtype=np.int64
        )
        # rows are in edge-id order, so a row is its id's rank among the ids
        rows = np.searchsorted(self.graph.edge_ids, ids)
        owner = np.repeat(np.arange(len(paths)), [len(p) for p in paths])
        keep = np.isin(rows, prep.universe)
        rows, owner = rows[keep], owner[keep]
        # a tree path repeats no edge, so a sort within each path gives unique rows
        sizes = np.bincount(owner, minlength=len(paths))
        return csr_offsets(sizes[sizes > 0]), rows[np.lexsort((rows, owner))]

    def run_rep(self, rep: int):
        """(outcome, overlap deltas or None) of one rep. The (methods x alphas
        x 3) ``outcome`` holds per (method, alpha) the coverage, the mean
        finite width (nan if none) and the infinite count; a method that fails
        at a level gets nan for all three, so a nan coverage marks a failure."""
        offsets, members = self._groups_for_rep(rep)
        if offsets.size == 1:
            raise ValueError(f"rep {rep}: no usable groups")
        split = self._split(rep, offsets, members)
        deltas = _overlap_deltas(offsets, members) if self.collect_deltas else None
        true_sums = per_group(row_sum, split.test, self.prep.y)

        config = self.config
        outcome = np.full((len(config.methods), len(config.alphas), 3), math.nan)
        for j, alpha in enumerate(config.alphas):
            for i, method in enumerate(config.methods):
                try:
                    lower, upper = self._bounds(method, alpha, rep, split)
                except ValueError as exc:
                    logger.warning("rep %d: %s at alpha=%g failed: %s", rep, method, alpha, exc)
                    continue
                covered = (lower <= true_sums) & (true_sums <= upper)
                widths = upper - lower
                finite = np.isfinite(widths)
                outcome[i, j] = (
                    covered.mean(),
                    widths[finite].mean() if finite.any() else math.nan,
                    (~finite).sum(),
                )
        return outcome, deltas

    def _split(self, rep: int, offsets: np.ndarray, members: np.ndarray) -> _SplitArrays:
        """Split the rep's CSR groups into calibration and test sides, and
        plan each side's size classes once for every reduction of the rep."""
        config, prep = self.config, self.prep
        assignment = symmetric_split(
            prep.universe, derive_seed(config.seed, _STREAM_SPLIT, rep), config.split_mode
        )
        is_cal = np.zeros(prep.y.size, dtype=bool)
        is_cal[np.fromiter(assignment.cal, dtype=np.int64, count=len(assignment.cal))] = True
        on_cal = is_cal[members]
        owner = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
        n_cal = np.bincount(owner[on_cal], minlength=offsets.size - 1)
        n_test = np.diff(offsets) - n_cal
        targets = np.flatnonzero(n_test)
        if targets.size == 0:
            raise ValueError(f"rep {rep}: no group has a non-empty test side")
        strata = None
        if any(m.endswith("_strat") for m in config.methods):
            strata = StrataSpec.from_cal_sizes(n_cal)
        return _SplitArrays(
            cal=size_classes(csr_offsets(n_cal), members[on_cal]),
            test=size_classes(csr_offsets(n_test[targets]), members[~on_cal]),
            cal_sizes=n_cal,
            test_sizes=n_test[targets],
            targets=targets,
            cal_rows=prep.universe[is_cal[prep.universe]],
            strata=strata,
        )

    def _bounds(self, method: str, alpha: float, rep: int, split: _SplitArrays):
        """(lower, upper) of every target of the split under one method."""
        kind = "cqr" if method in _CQR_METHODS else "split"
        score, _ = scoring.score_kind(kind)
        prep = self.prep
        cols = (prep.y, prep.y_hat) if kind == "split" else (prep.y, *prep.quant[alpha])
        if (kind, alpha) not in split.pooled:
            split.pooled[(kind, alpha)] = (
                per_group(score, split.cal, *cols),
                [per_group(row_sum, split.test, c) for c in cols[1:]],
            )
        scores, sums = split.pooled[(kind, alpha)]
        sizes = split.test_sizes
        cal_cols = [c[split.cal_rows] for c in cols]
        if method == "normal_homo":
            sigma = baselines.pooled_residual_sigma(*cal_cols)
            return baselines.normal_interval(sums[0], np.sqrt(sizes) * sigma, alpha)
        if method == "normal_hetero":
            spread = np.sqrt(per_group(baselines.sum_of_squares, split.test, prep.sigma_iqr))
            return baselines.normal_interval(sums[0], spread, alpha)
        if method.startswith("bonf_"):
            per_sample = score(*(c[:, None] for c in cal_cols))
            q = {m: score_threshold(per_sample, alpha / m).value
                 for m in np.unique(sizes).tolist()}
            return baselines.bonferroni_interval(q, split.test, cols[1:])
        if method.startswith("group_"):
            # target t draws from default_rng(derive_seed(seed, stream, rep, method, t))
            rngs = _seeded_generators(
                (self.config.seed, _STREAM_GSAMP, rep, METHOD_IDS.index(method)), sizes.size
            )
            q = baselines.group_sampling_threshold(cal_cols, sizes, alpha, score, None, rngs)
        else:  # cia_*: the plain pool is the one-bucket stratum
            strata = split.strata if method.endswith("_strat") else _ONE_BUCKET
            q = stratified_thresholds(scores, split.cal_sizes, sizes, split.targets, strata, alpha)
        return interval_from_threshold(q, sums)


@dataclass(frozen=True)
class _SplitArrays:
    """One rep's calibration/test split of the groups, as arrays."""

    cal: tuple  # size-class plan (core.size_classes) of all groups' calibration sides
    test: tuple  # size-class plan of the targets' test sides
    cal_sizes: np.ndarray  # calibration-side size of every group
    test_sizes: np.ndarray  # test-side size of every target
    targets: np.ndarray  # positions of the groups with a non-empty test side
    cal_rows: np.ndarray  # every calibration row, sorted
    strata: StrataSpec | None  # from all groups' calibration sizes
    # (score kind, alpha) -> (group scores, target test sums), shared by methods
    pooled: dict = field(default_factory=dict)


def _aggregate(config, outcomes: np.ndarray) -> list[MethodResult]:
    """One result per (method, alpha) from the :meth:`_Session.run_rep` arrays
    stacked in rep order, (methods x alphas x 3 x reps). A nan coverage marks
    a failed rep, left out of ``reps`` and of every mean and std; sizes cover
    the reps with a finite mean width, and infinite counts are summed."""
    results = []
    for method, by_alpha in zip(config.methods, outcomes):
        for alpha, rows in zip(config.alphas, by_alpha):
            cov, widths, n_infinite = rows[:, ~np.isnan(rows[0])]
            if not cov.size:
                logger.warning("%s at alpha=%g failed in every rep", method, alpha)
                continue
            sizes = widths[np.isfinite(widths)]
            results.append(
                MethodResult(
                    method=method,
                    alpha=alpha,
                    mean_coverage=float(cov.mean()),
                    coverage_std=float(cov.std()),
                    mean_size=float(sizes.mean()) if sizes.size else math.inf,
                    size_std=float(sizes.std()) if sizes.size else 0.0,
                    reps=cov.size,
                    infinite_interval_count=int(n_infinite.sum()),
                )
            )
    return sorted(results, key=lambda r: (r.method, r.alpha))


def _run_session(session: _Session):
    """Run the reps in order; a graph's cached path trees carry over. A rep
    that fails entirely keeps a nan outcome, a failure of every method."""
    config = session.config
    outcomes = np.full((len(config.methods), len(config.alphas), 3, config.reps), math.nan)
    deltas: list[tuple[float, float]] = []
    for rep in range(config.reps):
        try:
            outcomes[..., rep], d = session.run_rep(rep)
        except ValueError as exc:
            logger.warning("rep %d failed entirely: %s", rep, exc)
            continue
        if d is not None:
            deltas.append(d)
    return _aggregate(config, outcomes), deltas


def _prepare_tabular(dataset: TabularDataset, groups, config) -> _Prep:
    prep = _fit_and_predict(dataset.features, dataset.labels, config)
    kept = restrict_groups(groups, prep.universe.tolist())
    prep.groups = group_csr(sorted(g.members) for g in kept)
    return prep


def _prepare_graph(graph: WeightedGraph, config) -> _Prep:
    labels = graph.labels
    if np.isnan(labels).any():
        raise ValueError(
            "path-cost experiments need a label on every edge; "
            f"{int(np.isnan(labels).sum())} edges are unlabeled"
        )
    prep = _fit_and_predict(graph.features, labels, config)
    y_hat = prep.y_hat[prep.universe]
    clipped = int(np.sum(y_hat < 0))
    if clipped:
        logger.debug("%d negative predicted edge costs clamped to 0", clipped)
    prep.cost = labels.copy()
    prep.cost[prep.universe] = np.maximum(y_hat, 0.0)
    return prep


def run_experiment(data, grouping, config: ExperimentConfig) -> list[MethodResult]:
    """Run the Monte-Carlo loop and aggregate per-method coverage and size.

    ``data`` is a :class:`TabularDataset` with a list of
    :class:`~ciarith.core.IndexGroup` in ``grouping``, or a
    :class:`~ciarith.graph.WeightedGraph` with a :class:`PathSampling`
    spec. Coverage is the within-rep mean indicator over target groups,
    then averaged over reps; infinite intervals count as covered but are
    excluded from sizes and tallied separately.
    """
    if isinstance(data, WeightedGraph):
        if not isinstance(grouping, PathSampling):
            raise ValueError("graph experiments need a PathSampling spec")
        session = _Session(config, _prepare_graph(data, config), graph=data,
                           path_spec=grouping)
    else:
        groups = list(grouping)
        if not groups:
            raise ValueError("tabular experiments need a non-empty group list")
        session = _Session(config, _prepare_tabular(data, groups, config))
    results, _ = _run_session(session)
    return results


def overlap_gap_study(
    graph: WeightedGraph,
    config: ExperimentConfig,
    min_len_grid: Sequence[int],
    n_paths: int = 100,
) -> list[OverlapStudyRow]:
    """Path experiment per minimum path length, with overlap diagnostics.

    Each row records the mean (over reps) pairwise-Jaccard and worst-case
    overlap measures of the sampled groups together with the empirical
    coverage gap, coverage - (1 - alpha). The model is fitted once for all
    rows; a row whose path sampling yields no usable rep is skipped with a
    warning.
    """
    min_len_grid = [_integer("min_len_grid", m) for m in min_len_grid]
    _check_distinct("min_len_grid", min_len_grid)
    prep = _prepare_graph(graph, config)
    rows: list[OverlapStudyRow] = []
    for min_len in min_len_grid:
        session = _Session(
            config, prep, graph=graph,
            path_spec=PathSampling(n_paths=n_paths, min_path_len=min_len),
            collect_deltas=True,
        )
        results, deltas = _run_session(session)
        if not deltas:
            logger.warning("overlap study: min_len=%d produced no usable reps", min_len)
            continue
        d_avg = float(np.mean([d[0] for d in deltas]))
        d_max = float(np.mean([d[1] for d in deltas]))
        for r in results:
            rows.append(
                OverlapStudyRow(
                    min_len=min_len,
                    method=r.method,
                    alpha=r.alpha,
                    delta_avg=d_avg,
                    delta_max=d_max,
                    coverage=r.mean_coverage,
                    coverage_gap=r.mean_coverage - (1.0 - r.alpha),
                    mean_size=r.mean_size,
                    reps=r.reps,
                )
            )
    return rows
