"""Data model shared by the design, estimation, and simulation layers.

Covariates are partitioned by role: ``psi`` columns drive the matching of
units into groups, ``h`` columns enter the balance criterion during
rerandomization, ``w`` columns are used for ex-post adjustment, and ``x``
columns are heterogeneity regressors for treatment-effect models. A single
CSV column may serve several roles; it is read once, and each role holds
its own copy of its columns.
"""

from __future__ import annotations

import csv
import reprlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import itemgetter

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


def as_matrix(a, name):
    """``a`` as a float64 matrix; a 1-d input becomes one column."""
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
            mat = getattr(self, role)
            mat = np.zeros((n, 0)) if mat is None else as_matrix(mat, role)
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


def spec_number(doc, key, what, default=None, kind=float, low=None):
    """doc[key], or the default when it is absent, as a ``kind`` (int or
    float) of at least ``low``. A bool, a string, null or, for an int, a
    number with a fractional part is refused naming the key, not truncated
    or left to fail later."""
    value = doc.get(key, default)
    number = isinstance(value, (int, float, np.integer, np.floating)) and type(value) is not bool
    if number and (kind is float or value % 1 == 0):
        if low is None or value >= low:
            return kind(value)
        raise ConfigError(f"{what}: {key} must be >= {low}, got {value!r}")
    noun = "an integer" if kind is int else "a number"
    raise ConfigError(f"{what}: {key} must be {noun}, got {value!r}")


def spec_array(doc, key, what, kind=float):
    """doc[key] as a float64 array (an intp one for ``kind`` int): a number,
    or a list (nested to any depth) of numbers. A bool, a string or null
    anywhere in it, a ragged list or, for an int, a number with a fractional
    part is refused naming the key, as spec_number refuses a scalar. The
    message shows the value abridged, as a manifest array has n entries."""
    value = doc.get(key)
    try:
        cells = np.array(value, dtype=object)  # the rows of a ragged list stay lists
        if all(issubclass(t, (int, float)) and t is not bool
               for t in set(map(type, cells.ravel().tolist()))):
            out = cells.astype(np.float64)
            if kind is float:
                return out
            if (out == np.floor(out)).all():  # an infinity then overflows the intp
                return cells.astype(np.intp)
    except (ValueError, OverflowError):  # ragged below the top level, or past the dtype
        pass
    noun = ("a number or a rectangular list of numbers" if kind is float
            else "an integer or a rectangular list of integers")
    raise ConfigError(f"{what}: {key} must be {noun}, got {reprlib.repr(value)}")


def unit_interval(value, name):
    """``value`` (a level or a share), refused naming ``name`` unless it lies
    in (0, 1)."""
    if value is None or not 0.0 < value < 1.0:
        raise ConfigError(f"{name} must lie in (0, 1), got {value}")
    return value


@contextmanager
def open_input(path, what, binary=False, error=LoadError):
    """``path`` open for reading, as UTF-8 text or as bytes. A file that is
    missing, cannot be read or is not UTF-8 is an ``error`` that names the
    file kind ``what`` and the path."""
    try:
        with open(path, "rb") if binary else open(path, "r", newline="", encoding="utf-8") as fh:
            yield fh
    except FileNotFoundError:
        raise error(f"{what} file not found: {path}") from None
    except UnicodeDecodeError:
        raise error(f"{what} file is not UTF-8 text: {path}") from None
    except OSError as exc:
        raise error(f"{what} file cannot be read: {path} ({exc.strerror or exc})") from None


# lines (past a quote, csv rows) read at once; each block becomes float64 as
# soon as it is read, so a large file never holds all its cells as strings
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


def _plain(lines, text, fields):
    """Whether NumPy's C reader converts every line of a block (``text``
    joined) as the row policy would: one row per line, none blank, each with
    ``fields`` fields, and no \\x1c-\\x1f, which np.loadtxt strips from a
    number and float() refuses. A quote is ruled out before; np.loadtxt
    refuses a carriage return inside a line, as csv.reader does."""
    return (not any(c in text for c in "\x1c\x1d\x1e\x1f")
            and set(map(str.count, lines, repeat(","))) == {fields - 1}
            and not any(map(str.isspace, lines)))


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
    ignored. ``ids`` is None without ``id_col``. A path that cannot be
    opened or is not UTF-8 (``open_input``), or a row that csv.reader refuses
    in a file read from a path, is a LoadError too.

    Lines are read ``_BLOCK_ROWS`` at a time. A plain block (``_plain``)
    with unique ids and finite cells is converted by np.loadtxt, which gives
    the bits float() gives; csv.reader reads every other block row by row,
    and the rest of the file from the first quote on, and names the fault.
    """
    by_path = not hasattr(source, "read")

    def csv_rows(records, where=None):
        """``records``, where a csv.Error (a field over csv.field_size_limit(),
        say) is a LoadError naming its row; from the caller's open file, whose
        newline mode may be at fault, it is raised as it is."""
        try:
            yield from records
        except csv.Error as exc:
            if not by_path:
                raise
            raise LoadError(f"{what} {where or f'row {r + 1}'}: {exc}") from None

    with open_input(source, what) if by_path else nullcontext(source) as fh:
        header = next(csv_rows(csv.reader(fh), "file header"), None)
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
        # each id read so far, in file order, and the row it is on
        blocks, ids, r = [], {}, 0

        def by_rows(records):
            """Read records one by one, checking each as it comes; whether
            there was any."""
            nonlocal r
            start = r
            cells, rows = [], []
            for record in csv_rows(records):
                r += 1
                if not record or (len(record) == 1 and not record[0].strip()):
                    continue
                if len(record) != len(header):
                    raise LoadError(
                        f"{what} row {r} has {len(record)} fields, expected {len(header)}")
                if id_idx is not None:
                    uid = record[id_idx].strip()
                    if uid in ids:
                        raise LoadError(
                            f"duplicate id {uid!r} in {what} at rows {ids[uid]} and {r}")
                    ids[uid] = r
                cells.append([record[j] for j in idx])
                rows.append(r)
            if cells:
                blocks.append(_parse_block(cells, rows, names, what))
            return r > start

        for lines in iter(lambda: list(islice(fh, _BLOCK_ROWS)), []):
            text = "".join(lines)
            if '"' in text:  # a quoted cell may hold a comma or a newline
                records = csv.reader(chain(lines, fh))
                while by_rows(islice(records, _BLOCK_ROWS)):
                    pass
                break
            data = None
            if _plain(lines, text, len(header)):
                new = [] if id_idx is None else list(map(str.strip, map(itemgetter(id_idx), map(
                    str.split, lines, repeat(","), repeat(id_idx + 1)))))
                if len(set(new)) == len(new) and ids.keys().isdisjoint(new):
                    try:
                        data = np.loadtxt(lines, delimiter=",", usecols=idx, dtype=np.float64,
                                          comments=None, quotechar=None, ndmin=2)
                    except ValueError:
                        pass
            if data is None or not np.isfinite(data).all():
                by_rows(csv.reader(lines))
                continue
            blocks.append(data)
            ids.update(zip(new, range(r + 1, r + 1 + len(lines))))
            r += len(lines)
    if not blocks:
        raise LoadError(f"{what} file has no data rows")
    # a bad cell is reported only once every row has passed the checks above
    for block in blocks:
        if isinstance(block, LoadError):
            raise block
    data = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    return data, (None if id_col is None else np.array(list(ids)))


def role_columns(role_map):
    """The columns of each role, and the id column (or None), of a
    ``role_map``: column name -> role (one of psi/h/w/x/id) or a list of
    roles."""
    if not isinstance(role_map, dict):
        raise ConfigError(f"roles must map column names to roles, got {role_map!r}")
    roles = {r: [] for r in ROLE_NAMES}
    id_col = None
    for col, role_spec in role_map.items():
        for role in role_spec if isinstance(role_spec, (list, tuple)) else [role_spec]:
            if role == "id":
                id_col = col
            elif isinstance(role, str) and role in roles:
                roles[role].append(col)
            else:
                raise ConfigError(f"unknown role '{role}' for column '{col}'")
    return roles, id_col


def load_covariates(source, role_map):
    """Read a header-bearing CSV and assign columns to roles
    (``role_columns``). Columns absent from the map are ignored, and rows
    follow ``read_csv``'s policy. A column shared by several roles is read
    once."""
    roles, id_col = role_columns(role_map)
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


def collapsed_strata(n, k, l):
    """Whether n units in matched groups of k, l treated in each, are paired
    into collapsed strata: groups with a single treated or a single control
    unit need them for their variance bounds. An odd group count, which
    cannot be paired, is refused."""
    collapse = min(l, k - l) < 2
    if collapse and n % (2 * k) == k:
        raise ConfigError(f"n={n} in groups of k={k} gives an odd number of groups "
                          f"({n // k}), which cannot be paired into collapsed strata")
    return collapse


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
        if not seen.all():  # n indices in range that cover 0..n-1 are a permutation
            raise ConfigError("groups must partition 0..n-1 disjointly")
        if self.pairing is not None:
            rho = np.asarray(self.pairing, dtype=np.intp)
            G = groups.shape[0]
            if rho.shape != (G,):
                raise ConfigError("pairing must map each group to a partner")
            if rho.min(initial=0) < 0 or rho.max(initial=0) >= G:
                raise ConfigError(f"pairing entries must be group indices 0..{G - 1}")
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
            groups=spec_array(d, "groups", "partition", int),
            k=spec_number(d, "k", "partition", kind=int),
            l=spec_number(d, "l", "partition", kind=int),
            homogeneity=d.get("homogeneity"),
            pairing=None if d.get("pairing") is None else spec_array(d, "pairing", "partition", int),
            pairing_stat=d.get("pairing_stat"),
        )


def within_tuple_demean(v, partition):
    """Subtract each unit's group mean; group sums of the output vanish."""
    v = np.asarray(v, dtype=np.float64)
    squeeze = v.ndim == 1
    if squeeze:
        v = v[:, None]
    out = np.empty_like(v)
    groups = partition.groups
    vg = v[groups]
    out[groups.ravel()] = (vg - vg.mean(axis=1, keepdims=True)).reshape(-1, v.shape[1])
    return out[:, 0] if squeeze else out


@dataclass(frozen=True)
class RngSpec:
    """Deterministic randomness contract: identical (seed, stream) reproduce
    identical draws bit-for-bit. One stream per independent consumer."""

    seed: int
    stream: int = 0

    def generator(self):
        return self.substream()

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
        unit_interval(self.p, "p")
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
    unit_interval(p, "p")
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


def rank_checked_cholesky(mat):
    """Cholesky factor of a symmetric matrix, or None when it is numerically
    singular. chol[j, j]**2 / mat[j, j] is 1 - R^2 of column j on the columns
    before it, so the rank test does not depend on the units of the columns,
    and a duplicated column that factors with a rounding-size pivot fails it."""
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None
    return chol if (np.diag(chol) ** 2 > 1e-10 * np.diag(mat)).all() else None
