"""Symbolic function presets with tabulated fallback.

One ``FunctionSpec`` type covers the three roles in the model problem:

* the nonlinearity m(sigma), evaluated on [0, inf) and required nonnegative
  where it multiplies the operator;
* continuity moduli omega(sigma), whose values matter near 0; the preset
  modulus kinds therefore follow their formula on an initial interval and
  continue with the tangent line (or a constant, when the formula peaks),
  which keeps them nondecreasing, concave and subadditive on all of [0, inf);
* weight functions phi(sigma) with codomain [1, inf), which matter only for
  large sigma; the preset weight kinds clamp the formula with max(1, .) and
  guard logarithms with sigma -> max(sigma, e).

Specs are plain frozen records that serialize to/from nested dicts (tabulated
specs additionally load from two-column CSV).  Each kind writes its formula
once, in one evaluator that takes a numpy array (``FunctionSpec.__call__``) or
a float (``scalar_callable``, the right-hand sides' path).
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import DomainError

_E = math.e

# the named range rules of a number param: (test, what a failing value is told)
RULES = {
    "finite": (math.isfinite, "must be finite"),
    "positive": (lambda x: 0.0 < x < math.inf, "must be positive and finite"),
    "nonnegative": (lambda x: 0.0 <= x < math.inf, "must be nonnegative and finite"),
    "positive_or_inf": (lambda x: x > 0.0, "must be > 0 (inf allowed)"),
    "unit_interval": (lambda x: 0.0 < x <= 1.0, "must lie in (0, 1]"),
}


def _is_number(value) -> bool:
    """True for a real number; Python counts true and false as ints, JSON does not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class FunctionSpec:
    """A named scalar function of sigma >= 0, checked against its row of ``KINDS``."""

    kind: str
    params: Mapping[str, float] = field(default_factory=dict)
    base: "FunctionSpec | None" = None
    knots: "tuple[tuple[float, ...], tuple[float, ...]] | None" = None

    def __post_init__(self):
        kind = KINDS.get(self.kind)
        if kind is None:
            raise DomainError(f"unknown function kind {self.kind!r}")
        for name in self.params:
            if name not in kind.params:
                raise DomainError(f"{self.kind} takes no parameter {name!r}; it takes "
                                  f"{', '.join(map(repr, kind.params)) or 'none'}")
        for name, rule in kind.params.items():
            if name not in self.params:
                raise DomainError(f"{self.kind} spec needs parameter {name!r}")
            value = self.params[name]
            holds, text = RULES[rule]
            if not _is_number(value):
                raise DomainError(f"{self.kind} parameter {name!r} {text}; "
                                  f"got {value!r}, not a number")
            if not holds(value):
                raise DomainError(f"{self.kind} parameter {name!r} {text}; got {value!r}")
        if (self.base is not None) != kind.base:
            raise DomainError(f"{self.kind} spec {'needs' if kind.base else 'takes no'} "
                              f"'base' function")
        if (self.knots is not None) != (kind.knots is not None):
            raise DomainError(f"{self.kind} spec {'needs' if kind.knots else 'takes no'} "
                              f"knots 'sigma' and 'value'")
        if kind.knots is not None:
            kind.knots(self.knots)
        if kind.check is not None:
            kind.check(self)

    def __call__(self, sigma):
        sig = np.asarray(sigma, dtype=float)
        if np.any(sig < 0.0):
            raise DomainError("sigma must be nonnegative")
        out = scalar_callable(self)(sig)
        if np.isscalar(sigma) or np.ndim(sigma) == 0:
            return float(out)
        return out if np.shape(out) == sig.shape else np.full_like(sig, out)

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        d.update({k: v for k, v in self.params.items()})
        if self.base is not None:
            d["base"] = self.base.to_dict()
        if self.knots is not None:
            d["sigma"] = list(self.knots[0])
            d["value"] = list(self.knots[1])
        return d

    @staticmethod
    def from_dict(d: Mapping) -> "FunctionSpec":
        d = dict(d)
        kind = d.pop("kind", None)
        if kind is None:
            raise DomainError("function spec needs a 'kind' tag")
        base = d.pop("base", None)
        if base is not None:
            base = FunctionSpec.from_dict(base)
        knots = None
        if "sigma" in d or "value" in d:
            sig = d.pop("sigma", None)
            val = d.pop("value", None)
            if sig is None or val is None:
                raise DomainError("tabulated spec needs both 'sigma' and 'value'")
            for name, values in (("sigma", sig), ("value", val)):
                if not isinstance(values, (list, tuple)) or not all(map(_is_number, values)):
                    raise DomainError(f"knots {name!r} must be a list of numbers; got {values!r}")
            knots = (tuple(float(x) for x in sig), tuple(float(y) for y in val))
        # numbers come in as floats; anything else is left for __post_init__ to refuse
        params = {k: float(v) if _is_number(v) else v for k, v in d.items()}
        return FunctionSpec(kind, params, base=base, knots=knots)

    def __repr__(self) -> str:
        parts = [f"{name}={self.params[name]:g}" for name in KINDS[self.kind].params]
        if self.base is not None:
            parts.append(f"base={self.base!r}")
        if self.knots is not None:
            parts.append(f"knots={len(self.knots[0])}")
        return f"{self.kind}({', '.join(parts)})"


# ---------------------------------------------------------------------------
# constructors


def constant(c: float) -> FunctionSpec:
    return FunctionSpec("constant", {"c": float(c)})


def affine(a: float, b: float) -> FunctionSpec:
    """a + b*sigma."""
    return FunctionSpec("affine", {"a": float(a), "b": float(b)})


def power(beta: float) -> FunctionSpec:
    """sigma**beta with the convention 0**0 = 1."""
    return FunctionSpec("power", {"beta": float(beta)})


def pohozaev(a: float, b: float) -> FunctionSpec:
    """(a + b*sigma)**(-2), the special nonlinearity with a second invariant."""
    return FunctionSpec("pohozaev", {"a": float(a), "b": float(b)})


def table(sigmas, values) -> FunctionSpec:
    """Piecewise-linear interpolation of (sigma_i, y_i), clamped at the ends."""
    return FunctionSpec(
        "table",
        {},
        knots=(tuple(float(s) for s in sigmas), tuple(float(y) for y in values)),
    )


def offset(c: float, base: FunctionSpec) -> FunctionSpec:
    """c + base(sigma)."""
    return FunctionSpec("offset", {"c": float(c)}, base=base)


def modulus_power(beta: float) -> FunctionSpec:
    """Hoelder modulus sigma**beta on [0, 1], tangent line beyond."""
    return FunctionSpec("modulus_power", {"beta": float(beta)})


def modulus_sigma_log(q: float) -> FunctionSpec:
    """Modulus sigma*|log sigma|**q on [0, e**-q], constant beyond the peak."""
    return FunctionSpec("modulus_sigma_log", {"q": float(q)})


def modulus_inv_log(q: float) -> FunctionSpec:
    """Modulus |log sigma|**(-q) on (0, e**-(q+1)], tangent line beyond."""
    return FunctionSpec("modulus_inv_log", {"q": float(q)})


def weight_power_log(p: float, ell: float = 0.0) -> FunctionSpec:
    """Weight max(1, s**p * (log s)**ell) with s = max(sigma, e) when ell != 0."""
    return FunctionSpec("weight_power_log", {"p": float(p), "ell": float(ell)})


def weight_scaled_modulus(omega: FunctionSpec) -> FunctionSpec:
    """Weight max(1, sigma * omega(1/sigma))."""
    return FunctionSpec("weight_scaled_modulus", {}, base=omega)


def load_table_csv(path) -> FunctionSpec:
    """Read a two-column CSV (sigma, value) with strictly increasing sigma."""
    sigmas: list[float] = []
    values: list[float] = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            if len(row) < 2:
                raise DomainError(f"table row needs two columns, got {row!r}")
            try:
                sigmas.append(float(row[0]))
                values.append(float(row[1]))
            except ValueError:
                if sigmas:
                    raise DomainError(f"non-numeric table row {row!r}")
                continue  # header line
    return table(sigmas, values)


# ---------------------------------------------------------------------------
# per-kind records


@dataclass(frozen=True)
class _Kind:
    """Everything the package knows about one function kind.

    ``params`` maps each param name, in order, to its rule in ``RULES``;
    ``base`` says whether a spec of the kind wraps another spec, and
    ``knots``, when not None, checks the (sigma, value) knots the kind takes,
    and ``check`` what no param rule can see.  ``FunctionSpec`` refuses
    whatever this declaration does not allow.  ``evaluate`` binds a spec's
    params once and returns its one evaluator, which takes a float (the
    right-hand side's path) or an array and may return one float for any
    array; it checks the domain only where the params make a point outside it
    reachable.  ``antiderivative`` builds M with M' = spec and M(0) = 0, for a
    modulus kind through an incomplete gamma function.  A weight kind leaves
    it None: it has no M and cannot be m.
    """

    params: Mapping[str, str]
    evaluate: Callable[[FunctionSpec], Callable]
    antiderivative: Callable[[FunctionSpec], Callable] | None = None
    base: bool = False
    knots: Callable[[tuple], None] | None = None
    check: Callable[[FunctionSpec], object] | None = None


def _eval_constant(spec):
    c = float(spec.params["c"])
    return lambda s: c


def _antiderivative_constant(spec):
    c = spec.params["c"]
    return lambda s: c * np.asarray(s, dtype=float) + 0.0


def _eval_affine(spec):
    a, b = spec.params["a"], spec.params["b"]
    return lambda s: a + b * s


def _antiderivative_affine(spec):
    a, b = spec.params["a"], spec.params["b"]
    return lambda s: a * np.asarray(s, float) + 0.5 * b * np.asarray(s, float) ** 2


def _eval_power(spec):
    q = spec.params["beta"]

    def f(s):
        if q < 0.0 and np.any(s == 0.0):
            raise DomainError("negative power is singular at sigma = 0")
        try:
            return s**q
        except OverflowError:  # a float's **; an array's reads inf, as here
            return math.inf

    return f if q else (lambda s: 1.0)


def _antiderivative_power(spec):
    q = spec.params["beta"]
    if q <= -1.0:
        raise DomainError("power antiderivative needs p > -1")
    return lambda s: np.asarray(s, float) ** (q + 1.0) / (q + 1.0)


def _eval_pohozaev(spec):
    a, b = spec.params["a"], spec.params["b"]

    def f(s):
        den = a + b * s
        if b < 0.0 and np.any(den <= 0.0):  # a > 0, so b >= 0 keeps den > 0
            raise DomainError("pohozaev nonlinearity needs a + b*sigma > 0")
        try:
            return den**-2.0
        except OverflowError:  # a float's **; an array's reads inf, as here
            return math.inf

    return f


def _antiderivative_pohozaev(spec):
    a, b = spec.params["a"], spec.params["b"]

    def M(s):
        s = np.asarray(s, dtype=float)
        den = a + b * s
        if np.any(den <= 0.0):
            raise DomainError("pohozaev antiderivative needs a + b*sigma > 0")
        return s / (a * den)

    return M


def _check_table_knots(knots):
    sig, val = knots
    if len(sig) != len(val) or len(sig) < 2:
        raise DomainError("table needs at least two (sigma, value) rows")
    s = np.asarray(sig)
    if s[0] < 0.0 or np.any(np.diff(s) <= 0.0):
        raise DomainError("table sigmas must be strictly increasing and >= 0")
    if not np.all(np.isfinite(s)) or not np.all(np.isfinite(val)):
        raise DomainError("table entries must be finite")


def _eval_table(spec):
    s, y = np.asarray(spec.knots)
    return lambda sig: _float_if_0d(np.interp(sig, s, y))


def _antiderivative_table(spec):
    sig = np.asarray(spec.knots[0])
    val = np.asarray(spec.knots[1])
    # running exact integral of the clamped piecewise-linear interpolant
    head = val[0] * sig[0]
    seg = 0.5 * (val[1:] + val[:-1]) * np.diff(sig)
    cum = head + np.concatenate([[0.0], np.cumsum(seg)])

    def M(sigma):
        s = np.asarray(sigma, dtype=float)
        below = np.minimum(s, sig[0])
        out = val[0] * below
        idx = np.clip(np.searchsorted(sig, s, side="right") - 1, 0, sig.size - 2)
        inside = (s > sig[0]) & (s <= sig[-1])
        ds = s - sig[idx]
        y_at = val[idx] + (val[idx + 1] - val[idx]) / (sig[idx + 1] - sig[idx]) * ds
        out = np.where(inside, cum[idx] + 0.5 * (val[idx] + y_at) * ds, out)
        out = np.where(s > sig[-1], cum[-1] + val[-1] * (s - sig[-1]), out)
        return _float_if_0d(out)

    return M


def _eval_offset(spec):
    c, inner = spec.params["c"], scalar_callable(spec.base)
    return lambda s: c + inner(s)


def _antiderivative_offset(spec):
    c = spec.params["c"]
    inner = antiderivative(spec.base)
    return lambda s: c * np.asarray(s, float) + inner(s)


def _float_if_0d(out):  # so that a float in gives a float out
    return out if np.ndim(out) else float(out)


def _abs_log(s):
    # |ln s| for s > 0; finite at s <= 0, where the cores read 0
    return np.abs(np.log(np.where(s > 0.0, s, 1e-320)))


def _modulus_kind(param: str, rule: str, terms, core, integral) -> _Kind:
    """The ``KINDS`` row of a modulus: ``core`` on [0, knee], then the line
    through the knee.  ``terms`` maps the kind's one param p to (knee, value
    at the knee, slope beyond); ``core(p, s)`` and ``integral(p, s)``, the
    core's integral from 0, take s in [0, knee]."""

    def check(spec):
        p = spec.params[param]
        try:
            knee, value, slope = terms(p)
        except (OverflowError, ZeroDivisionError):
            knee = value = slope = math.nan
        if not (knee > 0.0 and 0.0 < value < math.inf and math.isfinite(slope)):
            raise DomainError(f"{spec.kind} parameter {param!r} = {p!r} puts the knee or its "
                              "value there at 0 or the value or slope out of float range")
        return p, knee, value, slope

    def evaluate(spec):
        p, knee, value, slope = check(spec)

        def f(sig):
            # ``core`` masks what these flag: log 0, 0 * inf and modulus_sigma_log's overflow
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                inner = core(p, np.minimum(sig, knee))
            # a flat line (slope 0) stays flat at sigma = inf
            return _float_if_0d(np.where(sig <= knee, inner,
                                         value + slope * (sig - knee) if slope else value))

        return f

    def antiderivative(spec):
        p, knee, value, slope = check(spec)

        def big_m(sig):
            d = np.asarray(sig, dtype=float) - knee
            with np.errstate(divide="ignore"):
                return np.where(d <= 0.0, integral(p, np.minimum(sig, knee)),
                                integral(p, knee) + d * (value + 0.5 * slope * d))

        return big_m

    return _Kind({param: rule}, evaluate, antiderivative, check=check)


def _sigma_log_core(q, s):
    """s |ln s|**q, or exp(ln s + q ln|ln s|) where |ln s|**q overflows before s scales it
    down: only for q above 107, since |ln s| <= 745 on s > 0."""
    if q == 0.0:
        return s
    out = np.where(s > 0.0, s * _abs_log(s) ** q, 0.0)
    if q > 107.0:
        big = np.isinf(out)
        if big.any():
            s_big = np.asarray(s)[big]
            out[big] = np.exp(np.log(s_big) + q * np.log(-np.log(s_big)))
    return out


def _gamma_fraction(p, x):
    """Gamma(1-p, x) / (x**(1-p) e**-x): 80 terms of DLMF 8.9.2's fraction, modified Lentz."""
    b, c = x + p, np.inf
    h = d = 1.0 / b
    for i in range(1, 80):
        an, b = -i * (i - 1.0 + p), b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h = h * d * c
    return h


def _sigma_log_integral(q, s):
    """The integral of x |ln x|**q over [0, s], Gamma(a, X) / 2**a with a = q + 1, X = 2 ln(1/s)
    (DLMF 8.2).  With P = exp(2 ln s + a ln ln(1/s)) = X**a e**-X / 2**a it is Gamma(a)/2**a - P S
    (S the series of DLMF 8.7.3, 40 terms) where X < a + 1, which needs q < 2 and X < 4, and P times
    the fraction of DLMF 8.9.2 elsewhere: the split of Numerical Recipes, section 6.2."""
    a, x = q + 1.0, 2.0 * np.asarray(_abs_log(s))
    out, low = np.asarray(np.exp(2.0 * np.log(s) + a * np.log(0.5 * x))), x < a + 1.0
    series = 1.0 + np.cumprod(np.divide.outer(x[low], a + np.arange(1.0, 40.0)), -1).sum(-1)
    out[low] = math.gamma(a) / 2.0**a - out[low] * series / a
    out[~low] *= _gamma_fraction(-q, x[~low])
    return out


def _inv_log_integral(q, s):
    """The integral of |ln x|**-q over [0, s], Gamma(1-q, ln(1/s)), to 5e-15 (q in [1e-6, 7])."""
    x = _abs_log(s)
    return s * x ** (1.0 - q) * _gamma_fraction(q, x)


def _eval_weight_power_log(spec):
    p, ell = spec.params["p"], spec.params["ell"]
    if ell == 0.0:  # np.power, not libm's pow, also for a float sigma
        return lambda sig: np.maximum(np.power(sig, p) if p else 1.0, 1.0)

    def f(sig):
        s = np.maximum(sig, _E)
        return np.maximum(s**p * np.log(s) ** ell, 1.0)

    return f


def _eval_weight_scaled_modulus(spec):
    def f(sig):
        s = np.maximum(sig, 1e-300)
        return np.maximum(s * spec.base(1.0 / s), 1.0)

    return f


KINDS: Mapping[str, _Kind] = {
    "constant": _Kind({"c": "finite"}, _eval_constant, _antiderivative_constant),
    "affine": _Kind({"a": "finite", "b": "finite"}, _eval_affine, _antiderivative_affine),
    "power": _Kind({"beta": "finite"}, _eval_power, _antiderivative_power),
    "pohozaev": _Kind({"a": "positive", "b": "finite"}, _eval_pohozaev,
                      _antiderivative_pohozaev),
    "table": _Kind({}, _eval_table, _antiderivative_table, knots=_check_table_knots),
    "offset": _Kind({"c": "finite"}, _eval_offset, _antiderivative_offset, base=True),
    "modulus_power": _modulus_kind(
        "beta", "unit_interval", lambda b: (1.0, 1.0, b), lambda b, s: s**b,
        lambda b, s: s ** (b + 1.0) / (b + 1.0)),
    "modulus_sigma_log": _modulus_kind(
        "q", "nonnegative", lambda q: (math.exp(-q), math.exp(-q) * q**q, 0.0),
        _sigma_log_core, _sigma_log_integral),
    "modulus_inv_log": _modulus_kind(
        "q", "positive", lambda q: (math.exp(-(q + 1.0)), (q + 1.0) ** -q,
                                    q * (q + 1.0) ** -(q + 1.0) / math.exp(-(q + 1.0))),
        lambda q, s: np.where(s > 0.0, _abs_log(s) ** -q, 0.0), _inv_log_integral),
    "weight_power_log": _Kind({"p": "finite", "ell": "finite"}, _eval_weight_power_log),
    "weight_scaled_modulus": _Kind({}, _eval_weight_scaled_modulus, base=True),
}


def scalar_callable(spec: FunctionSpec) -> Callable:
    """The one evaluator of ``spec``, params bound once (see ``_Kind``).

    The right-hand sides call it with a float, ``FunctionSpec.__call__``
    with an array; each path keeps the bits of its own arithmetic.
    """
    return KINDS[spec.kind].evaluate(spec)


def antiderivative(spec: FunctionSpec) -> Callable:
    """Return M with M' = spec and M(0) = 0.

    Closed forms for the algebraic kinds, exact piecewise integration for
    tables, an upper incomplete gamma function Gamma(a, x) for the modulus
    kinds: one continued fraction (DLMF 8.9.2) for both log kinds, with a
    series (DLMF 8.7.3) where x < a + 1 for modulus_sigma_log.  A weight kind
    has none and cannot be m: ``DomainError``.
    """
    build = KINDS[spec.kind].antiderivative
    if build is None:
        raise DomainError(f"{spec.kind} is a weight kind and has no antiderivative; "
                          "it cannot be the nonlinearity m")
    return build(spec)
