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
import io
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


def _as_matrix(a, n=None, name="array"):
    if a is None:
        if n is None:
            raise ValueError(f"{name}: cannot infer row count for empty role")
        return np.zeros((n, 0), dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError(f"{name}: expected 2-d array, got shape {a.shape}")
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
            raise ValueError("empty covariate table")
        for role in ROLE_NAMES:
            mat = _as_matrix(getattr(self, role), n, role)
            if mat.shape[0] != n:
                raise ValueError(
                    f"role '{role}' has {mat.shape[0]} rows, expected {n}"
                )
            if mat.size and not np.isfinite(mat).all():
                bad = np.argwhere(~np.isfinite(mat))[0]
                raise LoadError(
                    f"non-finite value in role '{role}' at row {bad[0] + 1}, column {bad[1]}"
                )
            mat.setflags(write=False)
            object.__setattr__(self, role, mat)
            names = getattr(self, role + "_names")
            if not names:
                names = tuple(f"{role}{j}" for j in range(mat.shape[1]))
            object.__setattr__(self, role + "_names", tuple(names))
        ids = self.ids
        if ids is None:
            ids = np.arange(n)
        ids = np.asarray(ids)
        if ids.shape[0] != n:
            raise ValueError("ids length does not match covariate rows")
        ids.setflags(write=False)
        object.__setattr__(self, "ids", ids)

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


def _parse_cell(raw, row, col):
    try:
        v = float(raw)
    except ValueError:
        raise LoadError(f"non-numeric value {raw!r} at row {row}, column '{col}'") from None
    if not np.isfinite(v):
        raise LoadError(f"non-finite value {raw!r} at row {row}, column '{col}'")
    return v


def load_covariates(source, role_map):
    """Read a header-bearing CSV and assign columns to roles.

    ``role_map`` maps column name -> role (one of psi/h/w/x/id) or a list of
    roles. Columns absent from the map are ignored. Data rows are reported
    1-based in errors. Shared columns are stored once; the per-role matrices
    are views into one backing array.
    """
    if isinstance(source, (str, bytes)) and "\n" not in str(source):
        fh = open(source, "r", newline="", encoding="utf-8")
        close = True
    elif isinstance(source, str):
        fh = io.StringIO(source)
        close = False
    else:
        fh = source
        close = False
    try:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LoadError("empty file: missing header row") from None
        header = [c.strip() for c in header]
        col_index = {c: j for j, c in enumerate(header)}

        roles = {r: [] for r in ROLE_NAMES}
        id_col = None
        for col, role_spec in role_map.items():
            if col not in col_index:
                raise LoadError(f"missing column '{col}' (file has {header})")
            specs = [role_spec] if isinstance(role_spec, str) else list(role_spec)
            for role in specs:
                if role == "id":
                    id_col = col
                elif role in roles:
                    roles[role].append(col)
                else:
                    raise ConfigError(f"unknown role '{role}' for column '{col}'")

        used_cols = sorted(
            {c for cols in roles.values() for c in cols},
            key=lambda c: col_index[c],
        )
        used_idx = {c: j for j, c in enumerate(used_cols)}

        rows = []
        ids = []
        id_row = {}
        for r, record in enumerate(reader, start=1):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            if len(record) != len(header):
                raise LoadError(f"row {r} has {len(record)} fields, expected {len(header)}")
            rows.append(
                [_parse_cell(record[col_index[c]].strip(), r, c) for c in used_cols]
            )
            if id_col is not None:
                uid = record[col_index[id_col]].strip()
                first = id_row.setdefault(uid, r)
                if first != r:
                    raise LoadError(f"duplicate id {uid!r} at rows {first} and {r}")
                ids.append(uid)
        if not rows:
            raise LoadError("no data rows")
        data = np.array(rows, dtype=np.float64)
        data.setflags(write=False)

        def view(role):
            cols = roles[role]
            if not cols:
                return np.zeros((data.shape[0], 0)), ()
            return data[:, [used_idx[c] for c in cols]], tuple(cols)

        psi, psi_names = view("psi")
        h, h_names = view("h")
        w, w_names = view("w")
        x, x_names = view("x")
        id_arr = np.array(ids) if id_col is not None else None
        return CovariateTable(
            psi=psi, h=h, w=w, x=x, ids=id_arr,
            psi_names=psi_names, h_names=h_names, w_names=w_names, x_names=x_names,
        )
    finally:
        if close:
            fh.close()


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
    fh = open(path_or_fh, "w", newline="", encoding="utf-8") if isinstance(path_or_fh, str) else path_or_fh
    try:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [name for name, _ in cols])
        for i in range(table.n):
            writer.writerow([table.ids[i]] + [repr(float(v[i])) for _, v in cols])
    finally:
        if isinstance(path_or_fh, str):
            fh.close()


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
        groups.setflags(write=False)
        object.__setattr__(self, "groups", groups)
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
            rho.setflags(write=False)
            object.__setattr__(self, "pairing", rho)

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
            raise ValueError(f"d must have shape ({n},)")
        if not np.isin(d, (0, 1)).all():
            raise ValueError("d must be binary")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")
        m = self.p * n
        if abs(m - round(m)) > 1e-9 or int(d.sum()) != round(m):
            raise ValueError(
                f"sum(d) = {int(d.sum())} but n*p = {m}: assignment does not match p"
            )
        d = d.astype(np.int8)
        d.setflags(write=False)
        object.__setattr__(self, "d", d)
        for name in ("y", "d_endog"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=np.float64)
                if arr.shape != (n,):
                    raise ValueError(f"{name} must have shape ({n},)")
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

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
