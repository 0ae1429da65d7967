"""Closed-form counting estimates carried on the natural-log scale.

Every estimate is returned as a LogEstimate: a log prefactor, an exponent
correction, and the evaluated magnitude of the leading error expression with
implied constant 1.  The error magnitude is diagnostic; it is never folded
into the estimate itself.  Exactness at desk scale is the oracle module's
job, so integer-valued prefactors are not special-cased here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple, Sequence

from .core import (
    BipartiteGraph,
    DegreePair,
    DegreeSequenceError,
    DomainError,
    ForbiddenGraph,
    ParityError,
    SquareOnlyError,
    _as_degree_tuple,
    derive_stats,
    erdos_gallai_feasible,
    loop_weight,
)
from .oracles import count_partial_matchings

__all__ = [
    "LogEstimate",
    "RegularPermanentEstimate",
    "SummationInput",
    "SummationBounds",
    "PermutationFunctionalStats",
    "q_correction",
    "estimate_bipartite",
    "avoidance_factor",
    "estimate_bipartite_avoiding",
    "subgraph_probability",
    "loopfree_probability",
    "estimate_loopfree_digraphs",
    "estimate_loopfree_avoiding",
    "twocycle_free_probability",
    "estimate_oriented",
    "estimate_undirected",
    "expected_orientations",
    "pauling_and_residual_entropy",
    "expected_permanent_sparse",
    "expected_permanent_dense",
    "permanent_complement_ie",
    "expected_permanent_regular",
    "summation_bounds",
    "permutation_functional_stats",
]


def _log_factorial(k: int) -> float:
    return math.lgamma(k + 1)


def _log_binomial(a: int, b: int) -> float:
    if b < 0 or b > a:
        raise DomainError(f"binomial ({a}, {b}) outside 0 <= b <= a")
    return _log_factorial(a) - _log_factorial(b) - _log_factorial(a - b)


@dataclass(frozen=True)
class LogEstimate:
    """A count or probability estimate in log space.

    ``log_value == log_prefactor + correction`` holds by construction, and
    ``error_magnitude >= 0`` is the evaluated argument of the trailing error
    bound.  ``notes`` carries non-fatal caveats (e.g. a vacuous expectation).
    """

    context: str
    log_prefactor: float
    correction: float
    error_magnitude: float
    log_value: float
    notes: tuple[str, ...] = ()

    @classmethod
    def assemble(
        cls,
        context: str,
        log_prefactor: float,
        correction: float,
        error_magnitude: float,
        notes: Sequence[str] = (),
    ) -> "LogEstimate":
        pref = float(log_prefactor)
        corr = float(correction)
        err = float(error_magnitude)
        if math.isnan(err) or err < 0:
            raise DomainError(f"error magnitude must be >= 0, got {err}")
        return cls(context, pref, corr, err, pref + corr, tuple(notes))

    @property
    def value(self) -> float:
        """exp(log_value); +inf on overflow."""
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return math.inf

    def to_json(self) -> dict:
        out = {
            "context": self.context,
            "log_value": self.log_value,
            "log_prefactor": self.log_prefactor,
            "correction": self.correction,
            "error_magnitude": self.error_magnitude,
        }
        if self.notes:
            out["notes"] = list(self.notes)
        return out


@dataclass(frozen=True)
class RegularPermanentEstimate(LogEstimate):
    """Headline regular-margin permanent estimate plus cross-check forms.

    ``forms`` holds the log values of the alternative expressions used in
    different density regimes; ``density_range`` labels the regime of (n, d);
    ``exact`` is the exact integer value when one is available (d == n).
    """

    density_range: str = ""
    forms: tuple[tuple[str, float], ...] = ()
    exact: int | None = None

    def form(self, name: str) -> float:
        table = dict(self.forms)
        if name not in table:
            raise DomainError(f"unknown form {name!r}; available: {sorted(table)}")
        return table[name]

    def to_json(self) -> dict:
        out = super().to_json()
        out["density_range"] = self.density_range
        out["forms"] = {k: v for k, v in self.forms}
        out["exact"] = None if self.exact is None else str(self.exact)
        return out


def q_correction(dp: DegreePair) -> float:
    """Second-order exponent correction for the bipartite count.

    Six terms in the falling-factorial sums s2, s3, t2, t3 and the edge count
    S; exact rational inputs, evaluated in double precision.
    """
    st = derive_stats(dp)
    big_s = st.total
    if big_s == 0:
        raise DomainError("correction undefined for degree sum 0")
    s2, s3, t2, t3 = st.s2, st.s3, st.t2, st.t3
    return (
        -s2 * t2 / (2 * big_s**2)
        - s2 * t2 / (2 * big_s**3)
        + s3 * t3 / (3 * big_s**3)
        - s2 * t2 * (s2 + t2) / (4 * big_s**4)
        - (s2**2 * t3 + s3 * t2**2) / (2 * big_s**4)
        + s2**2 * t2**2 / (2 * big_s**5)
    )


def _q_or_zero(dp: DegreePair) -> float:
    # all numerators vanish identically when the degree sum is zero
    return 0.0 if dp.total == 0 else q_correction(dp)


def estimate_bipartite(dp: DegreePair) -> LogEstimate:
    """Estimated number of simple bipartite graphs with degrees (s, t)."""
    st = derive_stats(dp)
    big_s = st.total
    pref = (
        _log_factorial(big_s)
        - sum(_log_factorial(v) for v in dp.s)
        - sum(_log_factorial(v) for v in dp.t)
    )
    corr = q_correction(dp)
    err = st.s_max**3 * st.t_max**3 / big_s**2
    return LogEstimate.assemble("bipartite-count", pref, corr, err)


def avoidance_factor(dp: DegreePair, x: ForbiddenGraph) -> LogEstimate:
    """Multiplicative factor by which forbidding the cells of x scales the count.

    Exact factor 1 when no forbidden cell meets the degree support (F = 0).
    """
    x._check_shape(dp)
    f_mass = x.mass(dp)
    if f_mass == 0:
        return LogEstimate.assemble("avoidance-factor", 0.0, 0.0, 0.0)
    big_s = dp.total
    dmax = x.delta_max(dp)
    corr = -f_mass / big_s - 3 * f_mass**2 / (2 * big_s**3)
    err = dmax * f_mass / big_s**2 + f_mass**3 / big_s**5
    return LogEstimate.assemble("avoidance-factor", 0.0, corr, err)


def estimate_bipartite_avoiding(dp: DegreePair, x: ForbiddenGraph) -> LogEstimate:
    """Estimated number of realisations of (s, t) using no cell of x."""
    base = estimate_bipartite(dp)
    factor = avoidance_factor(dp, x)
    return LogEstimate.assemble(
        "bipartite-avoiding-count",
        base.log_prefactor,
        base.correction + factor.correction,
        base.error_magnitude + factor.error_magnitude,
    )


def subgraph_probability(dp: DegreePair, x: ForbiddenGraph) -> LogEstimate:
    """Estimated probability that a uniform realisation contains every cell of x.

    The prefactor is the ratio of the reduced-margin estimate to the full
    estimate; the exponential factor re-forbids the pinned cells inside the
    reduced model.  The empty set gives probability exactly 1.
    """
    x._check_shape(dp)
    if x.size == 0:
        return LogEstimate.assemble("subgraph-probability", 0.0, 0.0, 0.0)
    reduced = dp.reduced_by(x.x, x.y)
    base = estimate_bipartite(dp)
    top = estimate_bipartite(reduced)
    f_hat = x.mass(reduced)
    d_hat = x.delta_max(reduced)
    s_hat = reduced.total
    pref = top.log_value - base.log_value
    corr = -f_hat / s_hat - 3 * f_hat**2 / (2 * s_hat**3)
    err = (
        d_hat * f_hat / s_hat**2
        + f_hat**3 / s_hat**5
        + top.error_magnitude
        + base.error_magnitude
    )
    return LogEstimate.assemble("subgraph-probability", pref, corr, err)


def loopfree_probability(dp: DegreePair) -> LogEstimate:
    """Estimated probability that a uniform square realisation has no loops.

    Exactly 1 when the loop weight W vanishes: no realisation can place a
    diagonal cell then.
    """
    w = loop_weight(dp)
    if w == 0:
        return LogEstimate.assemble("loopfree-probability", 0.0, 0.0, 0.0)
    st = derive_stats(dp)
    big_s = st.total
    corr = -w / big_s
    err = st.s_max * st.t_max * w / big_s**2
    return LogEstimate.assemble("loopfree-probability", 0.0, corr, err)


def estimate_loopfree_digraphs(dp: DegreePair) -> LogEstimate:
    """Estimated number of loop-free digraphs with out/in degrees (s, t)."""
    w = loop_weight(dp)
    base = estimate_bipartite(dp)
    st = derive_stats(dp)
    big_s = st.total
    corr = base.correction - w / big_s
    err = base.error_magnitude + st.s_max * st.t_max * w / big_s**2
    return LogEstimate.assemble("loopfree-count", base.log_prefactor, corr, err)


def estimate_loopfree_avoiding(dp: DegreePair, x: ForbiddenGraph) -> LogEstimate:
    """Estimated number of loop-free digraphs avoiding the off-diagonal set x.

    x must itself be loop-free: diagonal cells are already forbidden by the
    model, so listing one is treated as a caller error.
    """
    if not x.is_loop_free():
        raise DomainError(
            "forbidden set contains a diagonal cell, which the loop-free "
            "model already excludes"
        )
    base = estimate_loopfree_digraphs(dp)
    x._check_shape(dp)
    st = derive_stats(dp)
    big_s = st.total
    w = st.loop_weight
    f_mass = x.mass(dp)
    dmax = x.delta_max(dp)
    corr = base.correction - f_mass / big_s - 3 * f_mass**2 / (2 * big_s**3)
    err = (
        st.s_max**3 * st.t_max**3 / big_s**2
        + dmax * (f_mass + w) / big_s**2
        + f_mass**2 * (f_mass + w) / big_s**5
    )
    return LogEstimate.assemble(
        "loopfree-avoiding-count", base.log_prefactor, corr, err
    )


def twocycle_free_probability(dp: DegreePair) -> LogEstimate:
    """Estimated probability that a loop-free realisation has no 2-cycles.

    Exactly 1 when W = 0, since a 2-cycle needs positive degree on both
    sides of two indices.
    """
    w = loop_weight(dp)
    if w == 0:
        return LogEstimate.assemble("twocycle-free-probability", 0.0, 0.0, 0.0)
    st = derive_stats(dp)
    big_s = st.total
    corr = -w * w / (2 * big_s**2)
    err = st.s_max * st.t_max * (st.s_max + st.t_max) * w / big_s**2
    return LogEstimate.assemble("twocycle-free-probability", 0.0, corr, err)


def estimate_oriented(dp: DegreePair) -> LogEstimate:
    """Estimated number of digraphs with no loops and no 2-cycles."""
    w = loop_weight(dp)
    base = estimate_bipartite(dp)
    st = derive_stats(dp)
    big_s = st.total
    corr = base.correction - w / big_s - w * w / (2 * big_s**2)
    err = (
        st.s_max**3 * st.t_max**3 / big_s**2
        + st.s_max * st.t_max * (st.s_max + st.t_max) * w / big_s**2
    )
    return LogEstimate.assemble("oriented-count", base.log_prefactor, corr, err)


@dataclass(frozen=True)
class UndirectedCountEstimate(LogEstimate):
    """Undirected count estimate whose prefactor is also kept as a rational.

    The pairing-model prefactor D! / ((D/2)! 2^(D/2) prod d_i!) is an exact
    rational number; keeping it exact lets anchor tests assert equality
    without float round-off (a locally-tree-like sequence with d2 = 0 makes
    the whole estimate equal the prefactor).
    """

    exact_prefactor: Fraction | None = None

    def to_json(self) -> dict:
        out = super().to_json()
        if self.exact_prefactor is not None:
            out["exact_prefactor"] = _unlimited_str(self.exact_prefactor)
        return out


def _unlimited_str(value: Fraction) -> str:
    """str(value), past the interpreter's 4300-digit int-to-str limit.

    Decimal converts an int exactly and is not subject to that limit.
    """
    numerator = str(Decimal(value.numerator))
    if value.denominator == 1:
        return numerator
    return f"{numerator}/{Decimal(value.denominator)}"


def estimate_undirected(d: Sequence[int]) -> UndirectedCountEstimate:
    """Estimated number of simple undirected graphs with degree sequence d.

    Requires an even, positive degree sum.  The prefactor is computed in
    exact integer arithmetic and logged once, so sequences with no
    second-order correction reproduce the exact pairing count.
    """
    degrees = _as_degree_tuple(d, "undirected")
    big_d = sum(degrees)
    if big_d % 2:
        raise ParityError(f"degree sum {big_d} is odd; no realisation exists")
    if big_d < 2:
        raise DomainError("degree sum must be at least 2")
    d2 = sum(v * (v - 1) for v in degrees)
    half = big_d // 2
    numer = math.factorial(big_d)
    denom = math.factorial(half) * (1 << half)
    for v in degrees:
        denom *= math.factorial(v)
    exact_pref = Fraction(numer, denom)
    pref = math.log(exact_pref.numerator) - math.log(exact_pref.denominator)
    corr = -d2 / (2 * big_d) - d2 * d2 / (4 * big_d**2)
    err = max(degrees) ** 4 / big_d
    base = UndirectedCountEstimate.assemble("undirected-count", pref, corr, err)
    return replace(base, exact_prefactor=exact_pref)


def expected_orientations(d: Sequence[int], delta: Sequence[int]) -> LogEstimate:
    """Estimated mean number of orientations with out-degrees d_i/2 + delta_i.

    The mean is over a uniform simple graph with degree sequence d; delta = 0
    is the Eulerian-orientation case.  Requires even degrees, integer
    imbalances summing to zero, and |delta_i| <= d_i / 2 so every binomial
    target is inside its range.  If no simple graph realises d the formula
    still evaluates; the estimate is flagged as vacuous.
    """
    degrees = _as_degree_tuple(d, "undirected")
    if len(delta) != len(degrees):
        raise DegreeSequenceError("delta length must match the degree sequence")
    for v in delta:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ParityError(f"imbalance entries must be integers, got {v!r}")
    for dv in degrees:
        if dv % 2:
            raise ParityError(
                f"degree {dv} is odd; half-degree orientation targets need even degrees"
            )
    if sum(delta) != 0:
        raise DomainError(f"imbalances must sum to zero, got {sum(delta)}")
    for dv, dl in zip(degrees, delta):
        if abs(dl) > dv // 2:
            raise DomainError(
                f"imbalance {dl} exceeds half the degree {dv}; "
                "the out-degree target leaves its range"
            )
    big_d = sum(degrees)
    if big_d < 2:
        raise DomainError("degree sum must be at least 2")
    notes = []
    if not erdos_gallai_feasible(degrees):
        notes.append("vacuous expectation: no simple graph has these degrees")
    pref = (
        (big_d / 2) * math.log(2)
        - _log_binomial(big_d, big_d // 2)
        + sum(
            _log_binomial(dv, dv // 2 + dl) for dv, dl in zip(degrees, delta)
        )
    )
    imb2 = sum(v * v for v in delta)
    cross = sum(dl * dv for dl, dv in zip(delta, degrees))
    corr = (
        -0.75
        + 4 * imb2 / big_d
        - 4 * imb2 * imb2 / big_d**2
        + 2 * cross * cross / big_d**2
    )
    err = max(degrees) ** 4 / big_d
    return LogEstimate.assemble(
        "orientation-expectation", pref, corr, err, notes=notes
    )


def pauling_and_residual_entropy(d: Sequence[int]) -> tuple[float, float]:
    """Residual entropy per vertex: the product-form value and its sharpening.

    Returns (plain, sharpened) in nats.  All degrees must be even and
    positive.  The plain value is the independence heuristic; the sharpened
    one adds the second-order size correction.
    """
    degrees = _as_degree_tuple(d, "undirected")
    for dv in degrees:
        if dv == 0:
            raise DomainError("degrees must be positive")
        if dv % 2:
            raise ParityError(f"degree {dv} is odd; entropy needs even degrees")
    n = len(degrees)
    big_d = sum(degrees)
    # exact central binomials, one log each: keeps regular cases at 0 noise
    plain = -(big_d / (2 * n)) * math.log(2) + (
        sum(math.log(math.comb(dv, dv // 2)) for dv in degrees) / n
    )
    sharpened = (
        plain + math.log(math.pi * big_d / 2) / (2 * n) - 3 / (4 * n)
    )
    return plain, sharpened


def expected_permanent_sparse(dp: DegreePair) -> LogEstimate:
    """Estimated mean permanent of a uniform 0-1 matrix with margins (s, t).

    Sparse-regime formula; margins must be square with no zero entries.
    """
    if not dp.is_square:
        raise SquareOnlyError("expected permanent requires m == n")
    if min(dp.s) == 0 or min(dp.t) == 0:
        raise DomainError("margins must have no zero entries")
    st = derive_stats(dp)
    big_s = st.total
    n = dp.n
    pref = sum(
        math.log(si * ti) for si, ti in zip(dp.s, dp.t)
    ) - _log_binomial(big_s, n)
    ones = (1,) * n
    reduced = dp.reduced_by(ones, ones)
    corr = -(big_s - n) / n + _q_or_zero(reduced) - q_correction(dp)
    err = (st.s_max * st.t_max) ** 1.5 / big_s
    return LogEstimate.assemble("expected-permanent-sparse", pref, corr, err)


def expected_permanent_dense(dp: DegreePair) -> LogEstimate:
    """Estimated mean permanent when dp gives the margins of the zero pattern.

    A matrix drawn with hole margins (s, t) is the all-ones matrix minus a
    uniform realisation of (s, t).  Margins of zero give exactly n!.
    """
    if not dp.is_square:
        raise SquareOnlyError("expected permanent requires m == n")
    n = dp.n
    if max(dp.s) > n or max(dp.t) > n:
        raise DomainError("hole margins cannot exceed the matrix order")
    big_s = dp.total
    if big_s == 0:
        return LogEstimate.assemble(
            "expected-permanent-dense", _log_factorial(n), 0.0, 0.0
        )
    st = derive_stats(dp)
    corr = -big_s / n
    err = (st.s_max * st.t_max) ** 1.5 / big_s
    return LogEstimate.assemble(
        "expected-permanent-dense", _log_factorial(n), corr, err
    )


def permanent_complement_ie(
    dp: DegreePair, holes: BipartiteGraph
) -> tuple[int, tuple[float, float]]:
    """Exact permanent of the all-ones matrix with the given cells zeroed.

    Inclusion-exclusion over non-attacking zero selections gives the exact
    integer; the returned window is the closed-form additive sandwich around
    n! exp(-S/n) implied by the margin sizes.  dp must restate the hole
    margins and exists to make the window's inputs explicit.
    """
    if holes.m != holes.n:
        raise SquareOnlyError("hole pattern must be square")
    if holes.degree_pair() != dp:
        raise DegreeSequenceError("dp does not match the hole-pattern margins")
    n = holes.n
    p = count_partial_matchings(holes)
    exact = sum(
        (-1) ** k * p[k] * math.factorial(n - k) for k in range(n + 1)
    )
    big_s = dp.total
    st = derive_stats(dp)
    fact = float(math.factorial(n))
    mid = fact * math.exp(-big_s / n)
    slack = (
        fact
        * math.exp(big_s / n)
        * (st.s_max + st.t_max)
        * big_s
        / (2 * n * n)
    )
    return exact, (mid - slack, mid + slack)


def expected_permanent_regular(n: int, d: int) -> RegularPermanentEstimate:
    """Estimated mean permanent of a uniform d-regular 0-1 matrix of order n.

    One headline formula covers 2 <= d <= n; the estimate also reports which
    density regime (n, d) falls in and the log values of the regime-specific
    cross-check expressions.  At d == n the matrix is all ones and the exact
    value n! is attached.
    """
    if not isinstance(n, int) or not isinstance(d, int):
        raise DomainError("n and d must be integers")
    if d < 2 or d > n:
        raise DomainError(f"need 2 <= d <= n, got d={d}, n={n}")
    pref = 2 * n * math.log(d) - _log_binomial(d * n, n)
    corr = -0.5
    err = n ** (-1 / 7)

    log_n = math.log(n)
    # regime label; the bands can overlap at desk scale, so classify from the
    # sparse side up and let the first match win
    if d == n:
        regime = "exact"
    elif d <= n ** (1 / 3):
        regime = "sparse"
    elif d <= 2 * n / log_n:
        regime = "low"
    elif d < n - 2 * n / log_n:
        regime = "middle"
    elif d < n - n ** (1 / 3):
        regime = "high"
    else:
        regime = "dense"

    lam = d / n
    forms = {
        "headline": pref + corr,
        "stirling": (
            0.5 * math.log(2 * math.pi * (d - 1) * n / d)
            + n * ((d - 1) * math.log(d - 1) - (d - 2) * math.log(d))
            - 0.5
        ),
        "lw": (
            _log_factorial(n)
            + 2 * n * math.log(d)
            + _log_binomial(n * n, n * d)
            - 2 * n * log_n
            - _log_binomial(n * (n - 1), n * (d - 1))
        ),
        "gm-lambda": _log_factorial(n)
        + n * math.log(lam)
        + (1 - lam) / (2 * lam),
        "sparse": expected_permanent_sparse(DegreePair.regular(n, d)).log_value,
        "dense": expected_permanent_dense(
            DegreePair.regular(n, n - d)
        ).log_value,
    }
    base = RegularPermanentEstimate.assemble(
        "expected-permanent-regular", pref, corr, err
    )
    return replace(
        base,
        density_range=regime,
        forms=tuple(sorted(forms.items())),
        exact=math.factorial(n) if d == n else None,
    )


@dataclass(frozen=True)
class SummationInput:
    """Inputs to the ratio-recurrence partial-sum sandwich.

    The implied sequence starts at term 1 and follows

        term_i = (gain_i - (i - 1) * drag_i) / i * term_{i-1},   i = 1..size.

    ``cap`` must lie in (0, 1/3) and dominate max(gain)/size and every
    |drag_i|; those bounds are what make the closed-form sandwich valid.
    """

    gain: tuple[float, ...]
    drag: tuple[float, ...]
    cap: float

    def __init__(
        self, gain: Sequence[float], drag: Sequence[float], cap: float
    ):
        gain_t = tuple(float(v) for v in gain)
        drag_t = tuple(float(v) for v in drag)
        cap_f = float(cap)
        if len(gain_t) < 1:
            raise DomainError("need at least one recurrence step")
        if len(drag_t) != len(gain_t):
            raise DomainError("gain and drag must have equal length")
        if not 0 < cap_f < 1 / 3:
            raise DomainError(f"cap must lie in (0, 1/3), got {cap_f}")
        for i, (a, c) in enumerate(zip(gain_t, drag_t), start=1):
            if a < 0:
                raise DomainError(f"gain[{i - 1}] = {a} is negative")
            if a - (i - 1) * c < 0:
                raise DomainError(
                    f"step {i} ratio (gain - (i-1) drag) = {a - (i - 1) * c} "
                    "is negative"
                )
        worst = max(max(gain_t) / len(gain_t), max(abs(c) for c in drag_t))
        if worst > cap_f:
            raise DomainError(
                f"cap {cap_f} does not dominate the inputs (need >= {worst})"
            )
        object.__setattr__(self, "gain", gain_t)
        object.__setattr__(self, "drag", drag_t)
        object.__setattr__(self, "cap", cap_f)

    @property
    def size(self) -> int:
        return len(self.gain)


class SummationBounds(NamedTuple):
    terms: tuple[float, ...]
    total: float
    lower: float
    upper: float


def summation_bounds(inp: SummationInput) -> SummationBounds:
    """Terms, their sum, and the two-sided closed-form sandwich.

    The sum includes the leading term 1; both bounds carry the geometric
    tail allowance (2 e cap)^size.  The sandwich is asserted before return.
    """
    size = inp.size
    terms = [1.0]
    for i in range(1, size + 1):
        terms.append((inp.gain[i - 1] - (i - 1) * inp.drag[i - 1]) / i * terms[-1])
    total = math.fsum(terms)
    a_lo, a_hi = min(inp.gain), max(inp.gain)
    c_lo, c_hi = min(inp.drag), max(inp.drag)
    tail = (2 * math.e * inp.cap) ** size
    lower = math.exp(a_lo - 0.5 * a_lo * c_hi) - tail
    upper = math.exp(a_hi - 0.5 * a_hi * c_lo + 0.5 * a_hi * c_lo * c_lo) + tail
    assert lower <= total <= upper, (lower, total, upper)
    return SummationBounds(tuple(terms), total, lower, upper)


class PermutationFunctionalStats(NamedTuple):
    mean: float
    variance: float
    exp_moment_window: tuple[float, float]


def permutation_functional_stats(
    u: Sequence[float], v: Sequence[float]
) -> PermutationFunctionalStats:
    """Moments of sum_j u[j] v[sigma(j)] over a uniform permutation sigma.

    The mean and variance are exact closed forms; the exponential moment is
    bracketed by exp(mean + variance/2 +- K) where K grows with the cube of
    the value ranges.
    """
    n = len(u)
    if len(v) != n:
        raise DomainError("u and v must have equal length")
    if n < 2:
        raise DomainError("need at least two positions")
    uf = [float(x) for x in u]
    vf = [float(x) for x in v]
    u_bar = math.fsum(uf) / n
    v_bar = math.fsum(vf) / n
    mean = n * u_bar * v_bar
    variance = (
        math.fsum((x - u_bar) ** 2 for x in uf)
        * math.fsum((y - v_bar) ** 2 for y in vf)
        / (n - 1)
    )
    alpha = (max(uf) - min(uf)) * (max(vf) - min(vf))
    k_bound = 1.5 * n * alpha**3 + 11 * n * alpha**4
    centre = mean + 0.5 * variance

    def safe_exp(x: float) -> float:
        # wide inputs push the window past float range; saturate, stay valid
        try:
            return math.exp(x)
        except OverflowError:
            return math.inf

    return PermutationFunctionalStats(
        mean,
        variance,
        (safe_exp(centre - k_bound), safe_exp(centre + k_bound)),
    )
