"""Data model shared by the design, estimation, and simulation layers.

Covariates are partitioned by role: ``psi`` columns drive the matching of
units into groups, ``h`` columns enter the balance criterion during
rerandomization, ``w`` columns are used for ex-post adjustment, and ``x``
columns are heterogeneity regressors for treatment-effect models. A single
CSV column may serve several roles; it is stored once and exposed through
per-role views.
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np


class FinestratError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(FinestratError, ValueError):
    """Invalid design configuration (group sizes, roles, thresholds)."""


class LoadError(FinestratError, ValueError):
    """Malformed input data, reported with row/column context."""


class SingularityError(FinestratError, ValueError):
    """A matrix that must be invertible is (numerically) singular."""


class EstimationError(FinestratError, RuntimeError):
    """An iterative solver failed; carries its iteration trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


ROLE_NAMES = ("psi", "h", "w", "x")


def read_only(a):
    """A read-only view of `a`: the stored array is frozen, the caller's is not."""
    a = a.view()
    a.setflags(write=False)
    return a


def _as_matrix(a, n, name):
    if a is None:
        return np.zeros((n, 0), dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise LoadError(f"{name}: expected 2-d array, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class CovariateTable:
    """Per-unit covariates split into stratification / balance / adjustment /
    heterogeneity roles. Immutable after construction."""

    psi: np.ndarray
    h: np.ndarray
    w: np.ndarray
    x: np.ndarray
    ids: np.ndarray
    psi_names: tuple = ()
    h_names: tuple = ()
    w_names: tuple = ()
    x_names: tuple = ()

    def __post_init__(self):
        n = None
        for role in ROLE_NAMES + ("ids",):
            arr = getattr(self, role)
            if arr is not None and (arr.ndim > 0 and arr.shape[0] > 0 or role in ROLE_NAMES):
                n = arr.shape[0]
                break
        if n is None:
            raise LoadError("empty covariate table")
        for role in ROLE_NAMES:
            mat = _as_matrix(getattr(self, role), n, role)
            if mat.shape[0] != n:
                raise LoadError(
                    f"role '{role}' has {mat.shape[0]} rows, expected {n}"
                )
            if mat.size and not np.isfinite(mat).all():
                bad = np.argwhere(~np.isfinite(mat))[0]
                raise LoadError(
                    f"non-finite value in role '{role}' at row {bad[0] + 1}, column {bad[1]}"
                )
            object.__setattr__(self, role, read_only(mat))
            names = getattr(self, role + "_names")
            if not names:
                names = tuple(f"{role}{j}" for j in range(mat.shape[1]))
            object.__setattr__(self, role + "_names", tuple(names))
        ids = self.ids
        if ids is None:
            ids = np.arange(n)
        ids = np.asarray(ids)
        if ids.shape[0] != n:
            raise LoadError("ids length does not match covariate rows")
        object.__setattr__(self, "ids", read_only(ids))

    @property
    def n(self):
        return self.psi.shape[0]

    @property
    def d_psi(self):
        return self.psi.shape[1]

    @property
    def d_h(self):
        return self.h.shape[1]

    @property
    def d_w(self):
        return self.w.shape[1]

    @property
    def d_x(self):
        return self.x.shape[1]

    def role_names(self, role):
        return getattr(self, role + "_names")


def check_keys(doc, allowed, what, required=()):
    """Refuse a JSON document that is not an object, lacks a required key or
    has a key outside ``allowed``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(doc).__name__}")
    for key in required:
        if key not in doc:
            raise ConfigError(f"{what} is missing required key '{key}'")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"{what} has unknown keys {sorted(unknown)}")


# rows whose cell strings are held at once; each block becomes float64 as
# soon as it is full, so a large file never holds all its cells as strings
_BLOCK_ROWS = 1 << 16


def _parse_block(cells, rows, columns, what):
    """float64 array of one block of selected cells (``rows`` numbers them),
    or, unraised, the LoadError naming its first non-numeric or non-finite
    cell."""
    # numpy parses a string cell exactly as float() does; the cell-by-cell
    # scan runs only to name a bad cell
    try:
        data = np.array(cells, dtype=np.float64)
    except ValueError:
        data = None
    if data is not None and np.isfinite(data).all():
        return data
    for row, r in zip(cells, rows):
        for raw, col in zip(row, columns):
            try:
                fault = None if np.isfinite(float(raw)) else "non-finite"
            except ValueError:
                fault = "non-numeric"
            if fault:
                return LoadError(f"{fault} value {raw!r} in {what} row {r}, column '{col}'")


def read_csv(source, columns, id_col, what, optional=()):
    """Numeric columns of a header-bearing CSV file (a path or an open text
    file) under one row policy, as ``(data, ids)``.

    Header names are stripped, and each column read must appear once in the
    header. Blank rows are skipped. Every other row must have the header's
    field count, every selected cell must be a finite number, and ids in
    ``id_col`` (unless None) must be unique; otherwise LoadError names the
    file kind ``what``, the 1-based row (blank rows counted) and the column.
    Field counts and ids are checked before cells. ``data`` holds ``columns``
    and then the ``optional`` columns the header has; other columns are
    ignored. ``ids`` is None without ``id_col``.
    """
    with (nullcontext(source) if hasattr(source, "read")
          else open(source, "r", newline="", encoding="utf-8")) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise LoadError(f"{what} file is empty: missing header row")
        header = [c.strip() for c in header]
        names = [*columns, *(c for c in optional if c in header)]
        for col in [id_col, *names]:
            if col is not None and header.count(col) != 1:
                fault = "repeated" if col in header else "missing"
                raise LoadError(f"{what} file: {fault} column '{col}' (file has {header})")
        idx = [header.index(c) for c in names]
        id_idx = None if id_col is None else header.index(id_col)
        blocks, cells, rows, ids, id_row = [], [], [], [], {}
        for r, record in enumerate(reader, start=1):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            if len(record) != len(header):
                raise LoadError(
                    f"{what} row {r} has {len(record)} fields, expected {len(header)}")
            if id_idx is not None:
                uid = record[id_idx].strip()
                first = id_row.setdefault(uid, r)
                if first != r:
                    raise LoadError(f"duplicate id {uid!r} in {what} at rows {first} and {r}")
                ids.append(uid)
            cells.append([record[j] for j in idx])
            rows.append(r)
            if len(cells) == _BLOCK_ROWS:
                blocks.append(_parse_block(cells, rows, names, what))
                cells, rows = [], []
    if cells:
        blocks.append(_parse_block(cells, rows, names, what))
    if not blocks:
        raise LoadError(f"{what} file has no data rows")
    # a bad cell is reported only once every row has passed the checks above
    for block in blocks:
        if isinstance(block, LoadError):
            raise block
    data = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    return data, (None if id_col is None else np.array(ids))


def load_covariates(source, role_map):
    """Read a header-bearing CSV and assign columns to roles.

    ``role_map`` maps column name -> role (one of psi/h/w/x/id) or a list of
    roles. Columns absent from the map are ignored, and rows follow
    ``read_csv``'s policy. A column shared by several roles is read once.
    """
    roles = {r: [] for r in ROLE_NAMES}
    id_col = None
    for col, role_spec in role_map.items():
        for role in [role_spec] if isinstance(role_spec, str) else list(role_spec):
            if role == "id":
                id_col = col
            elif role in roles:
                roles[role].append(col)
            else:
                raise ConfigError(f"unknown role '{role}' for column '{col}'")
    used = list(dict.fromkeys(c for cols in roles.values() for c in cols))
    data, ids = read_csv(source, used, id_col, "covariates")
    views = {role: data[:, [used.index(c) for c in cols]] if cols
             else np.zeros((data.shape[0], 0)) for role, cols in roles.items()}
    names = {role + "_names": tuple(cols) for role, cols in roles.items()}
    return CovariateTable(ids=ids, **views, **names)


def write_covariates(table, path_or_fh):
    """Serialize a CovariateTable back to CSV; floats use shortest round-trip
    formatting so load -> write -> load is bit-exact."""
    cols = []
    seen = {}
    for role in ROLE_NAMES:
        mat = getattr(table, role)
        for j, name in enumerate(table.role_names(role)):
            if name not in seen:
                seen[name] = True
                cols.append((name, mat[:, j]))
    with (nullcontext(path_or_fh) if hasattr(path_or_fh, "write")
          else open(path_or_fh, "w", newline="", encoding="utf-8")) as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [name for name, _ in cols])
        for i in range(table.n):
            writer.writerow([table.ids[i]] + [repr(float(v[i])) for _, v in cols])


@dataclass(frozen=True)
class GroupPartition:
    """Disjoint groups of size k with l treated per group, plus the matching
    quality statistic and an optional pairing between groups used when
    strata must be merged for within-arm variance estimation."""

    groups: np.ndarray  # (G, k) unit indices
    k: int
    l: int
    homogeneity: float | None = None
    pairing: np.ndarray | None = None  # involution on group indices
    pairing_stat: float | None = None

    def __post_init__(self):
        groups = np.asarray(self.groups, dtype=np.intp)
        if groups.ndim != 2 or groups.shape[1] != self.k:
            raise ConfigError(f"groups must be (G, {self.k}), got {groups.shape}")
        object.__setattr__(self, "groups", read_only(groups))
        if not (1 <= self.l <= self.k - 1):
            raise ConfigError(f"need 1 <= l <= k-1, got l={self.l}, k={self.k}")
        flat = groups.ravel()
        n = flat.size
        seen = np.zeros(n, dtype=bool)
        if flat.min(initial=0) < 0 or flat.max(initial=-1) >= n:
            raise ConfigError("group indices out of range")
        seen[flat] = True
        if not seen.all() or np.unique(flat).size != n:
            raise ConfigError("groups must partition 0..n-1 disjointly")
        if self.pairing is not None:
            rho = np.asarray(self.pairing, dtype=np.intp)
            G = groups.shape[0]
            if rho.shape != (G,):
                raise ConfigError("pairing must map each group to a partner")
            if np.any(rho == np.arange(G)) or not np.array_equal(rho[rho], np.arange(G)):
                raise ConfigError("pairing must be a fixed-point-free involution")
            object.__setattr__(self, "pairing", read_only(rho))

    @property
    def n(self):
        return self.groups.size

    @property
    def n_groups(self):
        return self.groups.shape[0]

    @property
    def p(self):
        return self.l / self.k

    def group_of(self):
        """n-vector mapping each unit to its group index."""
        out = np.empty(self.n, dtype=np.intp)
        out[self.groups.ravel()] = np.repeat(np.arange(self.n_groups), self.k)
        return out

    def merged_groups(self):
        """(G/2, 2k) index matrix after merging paired groups."""
        if self.pairing is None:
            raise ConfigError(
                "no pairing recorded: collapse strata with pair_groups_by_centroid first"
            )
        first = np.where(np.arange(self.n_groups) < self.pairing)[0]
        return np.hstack([self.groups[first], self.groups[self.pairing[first]]])

    def to_json_dict(self):
        d = {
            "k": int(self.k),
            "l": int(self.l),
            "groups": self.groups.tolist(),
            "homogeneity": None if self.homogeneity is None else float(self.homogeneity),
        }
        if self.pairing is not None:
            d["pairing"] = self.pairing.tolist()
            d["pairing_stat"] = None if self.pairing_stat is None else float(self.pairing_stat)
        return d

    @classmethod
    def from_json_dict(cls, d):
        check_keys(d, {"groups", "k", "l", "homogeneity", "pairing", "pairing_stat"},
                   "partition", ("groups", "k", "l"))
        return cls(
            groups=np.asarray(d["groups"], dtype=np.intp),
            k=int(d["k"]),
            l=int(d["l"]),
            homogeneity=d.get("homogeneity"),
            pairing=None if d.get("pairing") is None else np.asarray(d["pairing"], dtype=np.intp),
            pairing_stat=d.get("pairing_stat"),
        )


@dataclass(frozen=True)
class RngSpec:
    """Deterministic randomness contract: identical (seed, stream) reproduce
    identical draws bit-for-bit. One stream per independent consumer."""

    seed: int
    stream: int = 0

    def generator(self):
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        )

    def substream(self, *key):
        """Independent generator derived from this spec and an integer key."""
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream,) + tuple(int(k) for k in key))
        )


def as_generator(rng):
    """Accept an RngSpec, Generator, or integer seed."""
    if isinstance(rng, RngSpec):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return RngSpec(int(rng)).generator()
    raise TypeError(f"cannot interpret {type(rng).__name__} as a random source")


@dataclass(frozen=True)
class ExperimentFrame:
    """Covariates plus a realized binary assignment and, once the experiment
    has run, outcomes. ``d`` is the randomized indicator (the instrument in
    noncompliance settings, with ``d_endog`` the endogenous treatment)."""

    covariates: CovariateTable
    d: np.ndarray
    p: float
    y: np.ndarray | None = None
    d_endog: np.ndarray | None = None

    def __post_init__(self):
        d = np.asarray(self.d)
        n = self.covariates.n
        if d.shape != (n,):
            raise ConfigError(f"d must have shape ({n},), got {d.shape}")
        if not np.isin(d, (0, 1)).all():
            raise ConfigError("d must be binary")
        if not 0.0 < self.p < 1.0:
            raise ConfigError(f"p must lie in (0, 1), got {self.p}")
        m = self.p * n
        if abs(m - round(m)) > 1e-9 or int(d.sum()) != round(m):
            raise ConfigError(
                f"sum(d) = {int(d.sum())} but n*p = {m}: assignment does not match p"
            )
        object.__setattr__(self, "d", read_only(d.astype(np.int8)))
        for name in ("y", "d_endog"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=np.float64)
                if arr.shape != (n,):
                    raise LoadError(f"{name} must have shape ({n},)")
                if name == "d_endog" and not np.isin(arr, (0, 1)).all():
                    raise LoadError("d_endog (the realized treatment, an outcomes 'd' "
                                    "column) must be 0 or 1")
                object.__setattr__(self, name, read_only(arr))

    @property
    def n(self):
        return self.covariates.n


def horvitz_thompson_weights(frame_or_d, p=None):
    """Signed inverse-propensity contrast: 1/p for treated, -1/(1-p) for
    control. Averages to zero exactly whenever sum(d) = n*p."""
    if isinstance(frame_or_d, ExperimentFrame):
        d, p = frame_or_d.d, frame_or_d.p
    else:
        d = np.asarray(frame_or_d)
    if p is None or not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    return np.where(d == 1, 1.0 / p, -1.0 / (1.0 - p))


def cov_n(a, b=None):
    """Covariance with 1/n normalization between the columns of a and b
    (b defaults to a)."""
    ac = a - a.mean(axis=0)
    bc = ac if b is None else b - b.mean(axis=0)
    return ac.T @ bc / a.shape[0]


def psd_root(mat, label=None):
    """Symmetric square root of a positive semidefinite matrix, with
    eigenvalues clipped at zero. Given a label, a materially negative
    eigenvalue raises ConfigError naming the matrix instead."""
    mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
    evals, evecs = np.linalg.eigh((mat + mat.T) / 2.0)
    if label is not None and evals.min() < -1e-10 * max(evals.max(), 1.0):
        raise ConfigError(f"{label} must be positive semidefinite")
    return evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T
