"""Batch drivers: SNR sweeps, DoF fits (pre-log slopes), gap statistics over
random channels and the cut-set/genie crossover search, each of which returns
its report table; the reports of a bound evaluation, a rate region and a trace;
and `export_report`, the one writer that turns every report into text.

Every driver is a pure function of (spec, seed).  Ensemble trial t draws from
its own stream default_rng([seed, t]), so statistics are identical whether
trials run serially or in parallel.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import operator
import sys

import numpy as np

from . import bounds, region, sim
from ._version import __version__
from .model import _MAX_LENGTH, ChannelGains, ValidationError, _bound_inputs, _canonical_rows

# sweep table columns, in emission order: the fields of bounds.BoundReport before the gap
BOUND_COLUMNS = bounds._BOUND_FIELDS[:bounds._BOUND_FIELDS.index("gap")]
DOF_FIELDS = ("achievable_lower", "outgoing_cutset_sum", "theorem2_upper")  # the DoF fit's bounds: 2, 3, 2
# the `bounds` report's fields after its config echo and cut-sets, in CSV column order
_REPORT_FIELDS = bounds._BOUND_FIELDS[bounds._BOUND_FIELDS.index("lemma1"):]
_TRACE_COLUMNS = ("x1", "x2", "x3", "y1", "y2", "y3", "z1", "z2", "z3")  # after the step i
_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "))  # a table's JSON rows: see export_report
_CUTSET_SUM, _TIGHTENED = map(bounds._BOUND_FIELDS.index, ("outgoing_cutset_sum", "tightened_upper"))
# rows per CSV block: its arrays stay below glibc malloc's trim threshold, so each block reuses
# the heap (one 1000-row block faulted ~240 fresh pages in on every call, 512-row blocks none)
_CSV_BLOCK = 512
_DOF_POINTS = 10 ** 5  # the largest grid a DoF fit takes
# trials per gap-ensemble block: a power of two below 2**32, so no block crosses a multiple
# of 2**32, where trial t's seed words grow by one
_GAP_BLOCK = 256
# trials per seed hash: a _seed_states call costs ~110 us of fixed numpy overhead whatever its
# size, so one call serves four blocks; still a power of two, so no batch crosses 2**32 either
_SEED_BATCH = 4 * _GAP_BLOCK
_EXACT_BELOW = 2.0 ** 33  # |x| * 1e6 < 2**53 below it, so rounding and digits stay exact
# four-byte tokens read as uint32.  _GROUPS: "\0ddd" for a three-digit group g < 1000, at
# 1000 + g the lead group g without leading zeros, at 2000 nothing; then ".ddd" and "ddd\0"
# of the fraction, with nothing at 1000 for an int cell; the sign and separators are OR-ed in
_GROUPS = np.frombuffer(b"\0%03d" * 1000 % (*range(1000),)
                        + (b"%4d" * 1000 % (*range(1000),)).replace(b" ", b"\0") + bytes(4), np.uint32)
_POINT = np.frombuffer(b".%03d" * 1000 % (*range(1000),) + bytes(4), np.uint32)
_TAIL = np.frombuffer(b"%03d\0" * 1000 % (*range(1000),) + bytes(4), np.uint32)
_MINUS, _COMMA, _NEWLINE = np.frombuffer(b"-\0\0\0\0\0\0,\0\0\0\n", np.uint32)


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """A log-spaced power grid [p_lo, p_hi] of `points` powers and an ensemble; checked when built."""
    p_lo: float
    p_hi: float
    points: int
    gains: ChannelGains | None = None  # sweeps and DoF fits fix it; gap ensembles draw theirs
    ensemble: int = 1
    seed: int = 0

    def __post_init__(self):
        for name, value in (("p_lo", self.p_lo), ("p_hi", self.p_hi)):
            if not math.isfinite(value):  # before the exponents, where it would warn
                raise ValidationError(f"power bound {name} must be finite, got {value!r}")
        if self.points < 1:
            raise ValidationError("points must be >= 1")
        if self.points > sys.maxsize:  # before the float step and the exponent array, which fail on it
            raise ValidationError(f"points must be <= {sys.maxsize}")
        if not (0 < self.p_lo and 0 < self.p_hi):
            raise ValidationError("power bounds must be positive")
        if self.points > 1 and not self.p_lo < self.p_hi:
            raise ValidationError("power grid must be strictly increasing: need p_lo < p_hi")
        if self.ensemble < 1:
            raise ValidationError("ensemble size must be >= 1")
        if self.seed < 0:  # numpy seeds with no negative entropy, and its seed words would never end
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclasses.dataclass(frozen=True)
class ReportTable:
    kind: str
    header: tuple[str, ...]
    columns: tuple[np.ndarray, ...]  # equal-length 1-D arrays, one per header name
    meta: dict


def power_grid(spec: SweepSpec, count: int | None = None) -> np.ndarray:
    """The first `count` (default: all) points of np.logspace(log10(p_lo), log10(p_hi), points),
    bit for bit, without the rest: np.linspace forms i * step + start and sets its last point
    to stop.  That last point, 10**stop, must not overflow whatever `count` is."""
    if spec.points == 1:
        return np.array([spec.p_lo])
    k = spec.points if count is None else min(count, spec.points)
    if k >= _MAX_LENGTH:  # np.arange below fails on the byte size, or at sys.maxsize returns nothing
        raise ValidationError(f"a grid of {k} points is too large to hold in memory")
    start, stop = math.log10(spec.p_lo), math.log10(spec.p_hi)
    # the first min(k, points - 1) exponents, then stop: the exponent of the grid's last point
    exponents = np.arange(min(k, spec.points - 1) + 1, dtype=np.float64)
    exponents *= (stop - start) / (spec.points - 1)
    exponents += start
    exponents[-1] = stop
    with np.errstate(over="ignore"):  # 10**stop can round past the largest double
        grid = 10.0 ** exponents
    if not math.isfinite(grid[-1]):
        raise ValidationError(f"power bound p_hi={spec.p_hi!r} is too large: "
                              "its log-spaced grid point overflows")
    return grid[:k]


def _meta(spec: SweepSpec, **extra) -> dict:
    echo = dataclasses.asdict(spec)  # nests the gains as {"h1", "h2", "h3"}, or None
    echo["bounds"] = list(BOUND_COLUMNS)  # the sweep's columns
    return {"spec": echo, **extra, "version": __version__}


def _row_table(kind: str, header: tuple[str, ...], row, meta: dict) -> ReportTable:
    """A one-row table: one one-cell column per value of row."""
    return ReportTable(kind=kind, header=header, columns=tuple(np.array([v]) for v in row), meta=meta)


def bounds_report(report: bounds.BoundReport, mapping: tuple[int, int, int],
                  format: str) -> dict | ReportTable:
    """The `bounds` report of `report`: the config echo in pair-gain names, the cut-sets and
    the rest.  As JSON a dict that also holds the permutation; as CSV a one-row table of the
    same values, floats printed with 6 decimals and relay_improves as 0/1."""
    g = report.config.gains
    echo = {"g12": g.h3, "g13": g.h2, "g23": g.h1, "power": report.config.power}
    cutset = {name: getattr(report, field) for name, field in bounds._CUTSETS.items()}
    rest = {name: getattr(report, name) for name in _REPORT_FIELDS}
    if format == "csv":
        cells = {**echo, **cutset, **rest}
        return _row_table("bounds", tuple(cells), cells.values(), {})
    return {"config": echo, "cutset": cutset, **rest, "permutation": list(mapping)}


def region_report(rhs: dict[str, float], mapping: tuple[int, int, int]) -> dict:
    """The `region` report: the constraints of `rhs` (a `region.build_region` result) with
    their 0/1 coefficients over RATE_ORDER, the sum-rate LP over them and the permutation."""
    constraints = [{"label": label, "coeffs": row, "rhs": value}
                   for (label, value), row in zip(rhs.items(), region._coeffs(rhs).tolist())]
    return {"region": {"rate_order": list(region.RATE_ORDER), "constraints": constraints},
            "sum_rate_lp": region.max_weighted_sum(rhs), "permutation": list(mapping)}


def trace_table(trace: sim.TransmissionTrace) -> ReportTable:
    """The `simulate` trace: the int64 step i from 1, then x, y and z of every user."""
    columns = tuple(getattr(trace, name) for name in _TRACE_COLUMNS)
    steps = np.arange(1, len(columns[0]) + 1, dtype=np.int64)
    return ReportTable(kind="trace", header=("i", *_TRACE_COLUMNS), columns=(steps, *columns), meta={})


def _kernel_columns(spec: SweepSpec, grid: np.ndarray, fields: tuple[str, ...]) -> list[np.ndarray]:
    """The BoundReport fields `fields` at each power of grid and spec's gains, one array per
    field, from one array call of the bound kernel `bounds._bound_terms` over the grid."""
    if spec.gains is None:
        raise ValidationError("sweeps and DoF fits need a fixed gain triple")
    with np.errstate(over="ignore"):  # h^2 P can overflow: the kernel's log branch takes it
        terms = bounds._bound_terms(*spec.gains.bound_inputs(), grid, bounds._cap_array,
                                    np.minimum, np.maximum)
    return [terms[bounds._BOUND_FIELDS.index(f)] for f in fields]


def sweep_snr(spec: SweepSpec) -> ReportTable:
    """One row per grid power: (P, the BOUND_COLUMNS, gap)."""
    grid = power_grid(spec)
    return ReportTable(kind="sweep", header=("P", *BOUND_COLUMNS, "gap"),
                       columns=(grid, *_kernel_columns(spec, grid, (*BOUND_COLUMNS, "gap"))),
                       meta=_meta(spec, seed=spec.seed))


def dof_estimate(spec: SweepSpec) -> ReportTable:
    """Least-squares slope of each bound in DOF_FIELDS against 0.5*log2(P), as a one-row
    table in that order; its meta echoes spec, with no seed of its own.

    Fits only the last half of spec's grid: the low-SNR transient is not the
    asymptote the slope is meant to expose.  Requires 8 to 10**5 strictly
    increasing points (log-spaced points can round equal) spanning >= 4 decades.
    """
    if spec.points > _DOF_POINTS:  # np.polyfit needs the whole half-grid in memory
        raise ValidationError(f"a DoF fit takes at most {_DOF_POINTS} points, got {spec.points}")
    grid = power_grid(spec).tolist()
    if len(grid) < 8:
        raise ValidationError(f"power grid needs >= 8 points, got {len(grid)}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("power grid must be strictly increasing")
    if grid[-1] / grid[0] < 1e4:
        raise ValidationError("power grid must span at least 4 decades")
    top = grid[len(grid) // 2:]
    xs = [0.5 * math.log2(P) for P in top]
    slopes = [float(np.polyfit(xs, ys, 1)[0]) for ys in _kernel_columns(spec, np.array(top), DOF_FIELDS)]
    return _row_table("dof", DOF_FIELDS, slopes, _meta(spec))


def _seed_words(seed: int, start: int, stop: int) -> np.ndarray:
    """Row t - start for each t in [start, stop): the uint32 words numpy makes of the list
    [seed, t], each int little-endian and [0] for 0.  They are the entropy SeedSequence([seed,
    t]) hashes, so default_rng(row) has the state of default_rng([seed, t]).  The range must
    not cross a multiple of 2**32: its trials share the words of t above the lowest.
    seed >= 0, as SweepSpec checks."""
    head, tail = (n.to_bytes(4 * ((n.bit_length() + 31) // 32 or 1), "little") for n in (seed, start))
    words = np.tile(np.frombuffer(head + tail, "<u4").astype(np.uint32), (stop - start, 1))
    words[:, len(head) // 4] += np.arange(stop - start, dtype=np.uint32)
    return words


@functools.cache
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0..count, as a uint32 column: the constants of numpy's
    seed hash, which run the same whatever the words.  Built once per process, so read only."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    column = np.array(h, np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hash(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """numpy's hashmix, and its output hash, row by row: xor h[k], multiply by h[k + 1],
    xorshift 16, with h a column one longer than values has rows."""
    values = values ^ h[:-1]
    values *= h[1:]
    values ^= values >> 16
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's mix of two uint32 rows: L*x - R*y, xorshift 16."""
    x = x * 0xCA01F9DD - y * 0x4973F715
    x ^= x >> 16
    return x


def _seed_states(words: np.ndarray) -> np.ndarray:
    """Row i: SeedSequence(words[i]).generate_state(4, np.uint64), for all rows at once.

    numpy's bit_generator.pyx step for step (O'Neill's seed_seq_fe), on uint32 rows of one
    word per trial: mix_entropy hashes the first 4 words (0 past the end) into a pool of 4,
    mixes each pool word in turn into the 3 others, then each word past the 4th into all 4;
    generate_state hashes the pool, cycled, into 8 words, read in pairs as little-endian
    uint64."""
    n, length = words.shape
    entropy = np.zeros((max(length, 4), n), np.uint32)
    entropy[:length] = words.T
    h = _hash_constants(0x43B0D7E5, 0x931E8875, 16 + 4 * (len(entropy) - 4))
    pool = _hash(entropy[:4], h[:5])
    for src in range(4):  # the hashes of pool[src] take the next 3 constants, dst by dst
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], h[4 + 3 * src:8 + 3 * src]))
    for k, word in enumerate(entropy[4:]):
        pool = _mix(pool, _hash(word, h[16 + 4 * k:21 + 4 * k]))
    out = _hash(np.tile(pool, (2, 1)), _hash_constants(0x8B51F9DD, 0x58F38DED, 8))
    return out.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


@functools.cache
def _seed_class() -> type:
    """The seed class for default_rng: an instance holds one row of _seed_states.  PCG64 makes
    one call of its seed, generate_state(4, np.uint64), and gets that row, so the generator is
    that of the row's seed list.  numpy takes a seed that is no SeedSequence only as an
    ISeedSequence, so the class subclasses it.  A subclass, not a registered class: isinstance
    caches a subclass's answer, but asks the registry anew on every call for a registered one.
    Built on first use, not at import: numpy.random costs every other command ~16 ms to load."""

    class _SeedState(np.random.bit_generator.ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return _SeedState


def gap_ensemble(spec: SweepSpec) -> ReportTable:
    """Sample configurations, evaluate the sum-capacity interval, aggregate gaps: a one-row
    table of the ensemble size, min, max and mean gap, the count of gaps outside [0, 2]
    (violations, which must stay 0), and the worst config's canonical gains, in pair-gain
    names, and power.

    Trial t uses gains drawn from default_rng([seed, t]), canonicalized, and
    the grid power at index t mod points, so a large ensemble covers every
    grid power evenly.  Trials run in blocks of _GAP_BLOCK.  Every _SEED_BATCH
    trials, the words of each trial's [seed, t] (`_seed_words`) are hashed at
    once into the state SeedSequence([seed, t]) would give PCG64
    (`_seed_states`).  Each trial then draws its gains from default_rng of an
    instance of `_seed_class()` holding its state, the generator of
    default_rng([seed, t]), and the block canonicalizes and checks them at once
    with one stable sort per row (`model._canonical_rows`); then each trial is
    one call of bounds.sum_capacity_interval.  min, max, the first trial at the max
    (the worst config) and the running sum of the gaps, in trial order, are
    those of a loop over the trials one at a time: the block adds its gaps to
    the sum one by one, and counts violations only if its min or max is out of
    [0, 2].
    """
    if spec.gains is not None:
        raise ValidationError("gap ensembles draw their gains: need no fixed gain triple")
    seed_class, default_rng, interval = _seed_class(), np.random.default_rng, bounds.sum_capacity_interval
    powers = power_grid(spec, spec.ensemble)  # trial t < ensemble reads index t % points
    gaps_min, gaps_max, total, violations = math.inf, -math.inf, 0.0, 0
    for start in range(0, spec.ensemble, _GAP_BLOCK):
        stop = min(start + _GAP_BLOCK, spec.ensemble)
        if start % _SEED_BATCH == 0:
            states = _seed_states(_seed_words(spec.seed, start, min(start + _SEED_BATCH, spec.ensemble)))
        block_powers = powers[np.arange(start, stop) % spec.points].tolist()
        draws = np.empty((stop - start, 3))
        for state, row in zip(states[start % _SEED_BATCH:], draws):
            default_rng(seed_class(state)).standard_normal(out=row)
        gains = _canonical_rows(draws)[0]
        gaps = [interval(_bound_inputs(h1, h2, h3), P)[2]
                for h1, h2, h3, P in zip(*gains.T.tolist(), block_powers)]
        total = functools.reduce(operator.add, gaps, total)  # the same additions, in trial order
        low, top = min(gaps), max(gaps)
        if low < 0.0 or top > 2.0:
            violations += sum(gap < 0.0 or gap > 2.0 for gap in gaps)
        gaps_min = min(gaps_min, low)
        if top > gaps_max:  # the block's first trial at its max; always so in block one: gaps are finite
            k = gaps.index(top)
            gaps_max, worst = top, (gains[k].tolist(), block_powers[k])
    (h1, h2, h3), power = worst
    header = ("ensemble", "min_gap", "max_gap", "mean_gap", "violations",
              "worst_g12", "worst_g13", "worst_g23", "worst_power")
    row = (float(spec.ensemble), gaps_min, gaps_max, total / spec.ensemble, float(violations), h3, h2, h1, power)
    return _row_table("gap-ensemble", header, row, _meta(spec, seed=spec.seed))


def find_crossover(gains: ChannelGains, p_lo: float, p_hi: float) -> ReportTable:
    """Smallest P in [p_lo, p_hi] where the lemma sum beats the outgoing cut-set sum: a
    one-row table of that P (p_star), the status code, gains in pair-gain names and the
    bracket, with the status (found, already-crossed or none) in its meta.

    Bisection on d(P) = outgoing cut-set sum - tightened upper, down to a
    bracket 1e-6 wide relative to its top.  d > 0 already at p_lo reports the
    bracket as already crossed, with p_star = p_lo; no sign change reports
    none, with p_star NaN.  d at each probe is one call of the bound kernel
    `bounds._bound_terms`.

    d has at most one sign change on P > 0, so bisection finds the only one.
    The out1 terms cancel, and with r = h1^2/h2^2, a = h3^2 + h1^2,
    b = h2^2 + h1^2 and c = h3^2 (1 + r), d(P) > 0 exactly when
    (1 + aP)(1 + bP) > 2(1 + r)(1 + cP), that is when
    ab P^2 + (a + b - 2(1 + r)c) P - (1 + 2r) > 0.  For h2 != 0 the constant
    term is negative and ab > 0, so the quadratic has exactly one positive
    root and is positive beyond it.  For h2 = 0 (so h1 = 0), d(P) = -1/2 at
    every P: status none.
    """
    if not (0 < p_lo < p_hi) or not (math.isfinite(p_lo) and math.isfinite(p_hi)):
        raise ValidationError(f"invalid bracket [{p_lo!r}, {p_hi!r}]")
    lo, hi = float(p_lo), float(p_hi)
    inputs = gains.bound_inputs()

    def margin(P: float) -> float:
        terms = bounds._bound_terms(*inputs, P)
        return terms[_CUTSET_SUM] - terms[_TIGHTENED]

    if margin(lo) > 0:
        p_star, code, status = lo, 1.0, "already-crossed"
    elif margin(hi) <= 0:
        p_star, code, status = math.nan, 2.0, "none"
    else:
        while hi - lo > 1e-6 * hi:
            mid = 0.5 * (lo + hi)
            if mid == math.inf:  # lo + hi overflowed; both are >= 2^970 here, so halving each is exact
                mid = 0.5 * lo + 0.5 * hi
            if margin(mid) > 0:
                hi = mid
            else:
                lo = mid
        p_star, code, status = hi, 0.0, "found"
    header = ("p_star", "status_code", "g12", "g13", "g23", "p_lo", "p_hi")
    row = (p_star, code, gains.h3, gains.h2, gains.h1, float(p_lo), float(p_hi))
    return _row_table("crossover", header, row, {"status": status, "version": __version__})


def _round6(a: np.ndarray) -> np.ndarray:
    """round(a * 1e6), halves to even, of the exact product, for 0 <= a < 2**33: as %.6f rounds.

    p = a * 1e6 lies on the same side of every half-integer as the exact
    product, so rint(p) is right unless p is a half-integer that the product is
    not.  There the exact error e of p, from Dekker's two-product with
    Veltkamp's split (1e6 needs none), says which way to round.
    """
    p = a * 1e6
    q = np.rint(p)
    tie = np.abs(p - q) == 0.5
    if tie.any():
        a, p = a[tie], p[tie]
        c = a * 134217729.0  # 2**27 + 1
        high = c - (c - a)
        e = (high * 1e6 - p) + (a - high) * 1e6
        q[tie] = np.where(e > 0, np.ceil(p), np.where(e < 0, np.floor(p), q[tie]))
    return q.astype(np.intp)


def _exact_block(columns, as_int) -> str | None:
    """The %d / %.6f lines of one block of columns, computed over arrays; None if a
    cell is not finite or |cell| >= 2**33, where the kernel is no longer exact.

    q = round(|x| * 1e6) < 2**53 splits exactly into the integer part and six
    fraction digits.  Each cell becomes a row of tokens in a uint32 matrix: the
    sign and the integer part in groups of three digits, then ".ddd" and "ddd"
    plus the separator, padded with NUL bytes that one bytes.translate
    removes.  An int cell is the same with no fraction: its q is |x| * 1e6.
    """
    x = np.array(columns, np.float64)  # (column, row)
    a = np.abs(x)
    if not a.max() < _EXACT_BELOW:  # also False for inf and NaN
        return None
    q = _round6(a)
    whole = q // 10 ** 6
    fraction = q - whole * 10 ** 6
    high = fraction // 1000
    point = np.array(as_int, np.intp)[:, None] * 1000  # an int column takes the empty token
    tokens = [_POINT[high + point], _TAIL[fraction - high * 1000 + point]]
    tokens[1][:-1] |= _COMMA
    tokens[1][-1] |= _NEWLINE
    groups = (len(str(whole.max())) + 2) // 3
    for k in range(groups):  # integer digit groups, last first; one with nothing above it leads its cell
        rest = whole // 1000 if k < groups - 1 else 0
        group = whole - rest * 1000 + (rest == 0) * 1000
        if k:
            group[whole == 0] = 2000
        tokens.insert(0, _GROUPS[group])
        whole = rest
    np.bitwise_or(tokens[0], _MINUS, out=tokens[0], where=np.signbit(x))  # so -0.0 prints -0.000000
    return np.stack(tokens).T.tobytes().translate(None, b"\0").decode("ascii")


def export_report(obj, format: str) -> str:
    """The one report writer: returns the exact text a report is written as.

    It takes two inputs.  A dict is JSON only: the text of json.dumps(obj,
    indent=2, sort_keys=True).  A ReportTable, whose columns are equal-length
    1-D bool, integer or float numpy arrays, is JSON or CSV: as JSON its kind,
    meta, header and rows (its columns zipped); as CSV a header line plus one
    line per row, a cell of an integer or bool column as %d, any other as
    %.6f.  Identical inputs give identical bytes.

    A table's JSON rows are one call of the C encoder (json.dumps with an
    indent runs the pure-Python one value by value), whose item separator is
    the comma plus a cell's newline and indent.  json escapes a newline inside
    a string, so "]", separator, "[" stands only between two rows: one replace
    gives those the newline and indent of the rows' brackets.

    CSV rows go out in blocks of up to 512 rows.  A block is formatted over
    arrays, exactly as % formats it: q = round(|x| * 1e6) with halves to even
    on the exact product (Dekker's two-product decides a tie of the rounded
    one), the digits of q, and the sign from signbit, so -0.0 prints
    -0.000000.  That is exact for every finite |x| < 2**33 of those dtypes,
    which numpy converts to float64 exactly.  A block with any other cell
    (inf, NaN, |x| >= 2**33) goes through one %-operation instead; the choice
    depends on the cells alone and never changes the text.
    """
    if format == "json":
        if not isinstance(obj, ReportTable):
            return json.dumps(obj, indent=2, sort_keys=True) + "\n"
        # "rows" sorts last, so the text ends in its null, which the rows text takes the place of
        head = json.dumps({"header": obj.header, "kind": obj.kind, "meta": obj.meta, "rows": None},
                          indent=2, sort_keys=True).removesuffix("null\n}")
        rows = list(zip(*(c.tolist() for c in obj.columns)))
        if not rows:
            return f"{head}[]\n}}\n"
        text = _ENCODER.encode(rows)[2:-2].replace("],\n      [", "\n    ],\n    [\n      ")
        return f"{head}[\n    [\n      {text}\n    ]\n  ]\n}}\n"
    if format == "csv":
        header, columns = obj.header, obj.columns
        as_int = [c.dtype.kind in "biu" for c in columns]
        fmt = ",".join("%d" if i else "%.6f" for i in as_int) + "\n"
        parts = [",".join(header) + "\n"]
        for start in range(0, len(columns[0]) if columns else 0, _CSV_BLOCK):
            block = [c[start:start + _CSV_BLOCK] for c in columns]
            text = _exact_block(block, as_int)
            if text is None:  # a cell out of the kernel's range: one %-operation
                cells = itertools.chain.from_iterable(zip(*(c.tolist() for c in block)))
                text = (fmt * len(block[0])) % tuple(cells)
            parts.append(text)
        return "".join(parts)
    raise ValidationError(f"format must be csv or json, got {format!r}")
