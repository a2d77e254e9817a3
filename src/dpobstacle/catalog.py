"""Built-in multivalued reaction laws and nonsmooth boundary potentials.

Reactions are intervals ``[f_lo(x, s, g), f_hi(x, s, g)]`` depending on the
point, the state, and the (nodal) gradient; the solver works with a
single-valued *selection* picked by a rule (``lower``, ``upper``,
``midpoint``, or an affine blend).  Each entry declares the growth constants
used by the assumption checker.

Boundary potentials ``j`` are locally Lipschitz in the trace value; each entry
provides the value, the generalized-gradient interval ``[lo, hi]``, and a
gradient selection (with its derivative) for assembly, smoothed at the
potential's own ``delta`` (default 1e-6), which must be finite and >= 0, and
> 0 for the entries with a kink.  The generalized directional derivative is
the interval's support function ``j°(s; t) = max(lo t, hi t)`` (Clarke
1983, Prop. 2.1.2), derived for every entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "GrowthConstants",
    "BoundaryGrowth",
    "ReactionSpec",
    "BoundaryPotentialSpec",
    "reaction",
    "boundary_potential",
    "REACTION_NAMES",
    "BOUNDARY_NAMES",
    "REACTION_PARAMETERS",
    "BOUNDARY_PARAMETERS",
    "SELECTION_RULES",
]

SELECTION_RULES = ("lower", "upper", "midpoint", "blend")


@dataclass(frozen=True)
class GrowthConstants:
    """Constants of the reaction growth bounds.

    ``|eta| <= a_f |g|^(p/q1') + b_f |s|^(q1-1) + c_f`` and
    ``|eta s| <= e_f |g|^theta2 + g_f |s|^theta3 + d_f``.
    """

    a_f: float = 0.0
    b_f: float = 0.0
    c_f: float = 0.0
    e_f: float = 0.0
    g_f: float = 0.0
    d_f: float = 0.0
    theta2: float = 1.0
    theta3: float = 1.0
    q1: float = 2.0


@dataclass(frozen=True)
class BoundaryGrowth:
    """Constants of the boundary-potential growth bounds.

    ``|xi| <= a_j |s|^(q2-1) + b_j`` for ``xi`` in the gradient interval and
    ``|xi s| <= c_j |s|^theta1 + d_j``.
    """

    a_j: float = 0.0
    b_j: float = 0.0
    c_j: float = 0.0
    d_j: float = 0.0
    theta1: float = 1.0
    q2: float = 2.0


# --- reaction entries -------------------------------------------------------


@dataclass(frozen=True)
class ReactionSpec:
    """An interval reaction together with a selection rule.

    ``bounds(x, s, g)`` returns ``(lo, hi)``; ``select`` applies the rule;
    ``select_with_partials`` additionally returns the closed-form state and
    gradient partial derivatives of the selection.
    """

    name: str
    params: tuple  # sorted (key, value) pairs; kept hashable for reports
    rule: str
    blend: float | None
    growth: GrowthConstants
    state_dependent: bool
    reads_gradient: bool
    _bounds: callable = field(repr=False)
    _partials: callable = field(repr=False)

    def __post_init__(self):
        if self.rule not in SELECTION_RULES:
            raise ConfigurationError(
                f"unknown selection rule {self.rule!r}; choose from {SELECTION_RULES}",
                param="rule",
            )
        if self.rule == "blend":
            if self.blend is None or not (0.0 <= self.blend <= 1.0):
                raise ConfigurationError("blend selection needs a weight in [0, 1]",
                                         param="blend")

    @property
    def _weight(self):
        return {"lower": 0.0, "upper": 1.0, "midpoint": 0.5}.get(self.rule, self.blend)

    def bounds(self, x, s, g):
        lo, hi = self._bounds(dict(self.params), x, s, g)
        return np.asarray(lo, float), np.asarray(hi, float)

    def select(self, x, s, g):
        lo, hi = self.bounds(x, s, g)
        t = self._weight
        return lo + t * (hi - lo)

    def select_with_partials(self, x, s, g):
        """Selection value plus d/ds and d/dg (shape (n,) and (n, dim))."""
        s = np.asarray(s, float)
        g = np.atleast_2d(np.asarray(g, float).T).T  # (n, dim)
        eta = self.select(x, s, g)
        t = self._weight
        dlo_ds, dhi_ds, dlo_dg, dhi_dg = self._partials(dict(self.params), x, s, g)
        deta_ds = np.asarray(dlo_ds + t * (dhi_ds - dlo_ds), float)
        deta_dg = np.asarray(dlo_dg + t * (dhi_dg - dlo_dg), float)
        return eta, deta_ds, deta_dg

    def with_growth(self, **kwargs):
        """Copy with overridden growth constants (for what-if assumption checks)."""
        return replace(self, growth=replace(self.growth, **kwargs))


def _constant_bounds(params, x, s, g):
    c = params["value"]
    arr = np.full(np.shape(s), c, dtype=float)
    return arr, arr.copy()


def _constant_partials(params, x, s, g):
    z = np.zeros(np.shape(s))
    zg = np.zeros(g.shape)
    return z, z, zg, zg


def _interval_bounds(params, x, s, g):
    shape = np.shape(s)
    return (np.full(shape, params["lo"], float), np.full(shape, params["hi"], float))


def _sign_band_bounds(params, x, s, g):
    a, c = params["slope"], params["offset"]
    hi = a * np.abs(s) + c
    return -hi, hi.copy()


def _sign_band_partials(params, x, s, g):
    a = params["slope"]
    dhi = a * np.sign(s)
    zg = np.zeros(g.shape)
    return -dhi, dhi, zg, zg


def _step_bounds(params, x, s, g):
    lo_v, hi_v = params["lo"], params["hi"]
    s = np.asarray(s, float)
    lo = np.where(s <= 0.0, lo_v, hi_v)
    hi = np.where(s < 0.0, lo_v, hi_v)
    return lo.astype(float), hi.astype(float)


def _convective_bounds(params, x, s, g):
    c0, c1, c2 = params["c0"], params["c1"], params["c2"]
    gn = np.sqrt(np.sum(np.atleast_2d(np.asarray(g, float).T).T ** 2, axis=1))
    v = c0 - c1 * np.asarray(s, float) + c2 * gn
    return v, v.copy()


def _convective_partials(params, x, s, g):
    c1, c2 = params["c1"], params["c2"]
    ds = np.full(np.shape(s), -c1, dtype=float)
    gn = np.sqrt(np.sum(g * g, axis=1))
    safe = np.where(gn > 0, gn, 1.0)
    dg = c2 * g / safe[:, None]
    dg[gn == 0] = 0.0
    return ds, ds.copy(), dg, dg.copy()


def _growth_constant(c):
    m = abs(c)
    return GrowthConstants(c_f=m, g_f=m, theta3=1.0)


_REACTIONS = {
    # name: (defaults, bounds, partials, growth, state_dependent, reads_gradient)
    "constant": (
        {"value": 1.0},
        _constant_bounds,
        _constant_partials,
        lambda p: _growth_constant(p["value"]),
        False, False,
    ),
    "interval": (
        {"lo": 0.0, "hi": 1.0},
        _interval_bounds,
        _constant_partials,
        lambda p: _growth_constant(max(abs(p["lo"]), abs(p["hi"]))),
        False, False,
    ),
    "sign_band": (
        {"slope": 1.0, "offset": 1.0},
        _sign_band_bounds,
        _sign_band_partials,
        lambda p: GrowthConstants(
            b_f=abs(p["slope"]),
            c_f=abs(p["offset"]),
            g_f=abs(p["slope"]) + 0.5 * abs(p["offset"]),
            d_f=0.5 * abs(p["offset"]),
            theta3=2.0,
        ),
        True, False,
    ),
    "step": (
        {"lo": 0.0, "hi": 1.0},
        _step_bounds,
        _constant_partials,
        lambda p: _growth_constant(max(abs(p["lo"]), abs(p["hi"]))),
        True, False,
    ),
    "convective_linear": (
        {"c0": 0.0, "c1": 0.0, "c2": 0.0},
        _convective_bounds,
        _convective_partials,
        lambda p: GrowthConstants(
            a_f=abs(p["c2"]),
            b_f=abs(p["c1"]),
            c_f=abs(p["c0"]),
            e_f=0.5 * abs(p["c2"]),
            g_f=abs(p["c1"]) + 0.5 * abs(p["c2"]) + 0.5 * abs(p["c0"]),
            d_f=0.5 * abs(p["c0"]),
            theta2=2.0,
            theta3=2.0,
        ),
        True, True,
    ),
}

REACTION_NAMES = tuple(sorted(_REACTIONS))
# every parameter name some reaction entry takes
REACTION_PARAMETERS = frozenset(k for entry in _REACTIONS.values() for k in entry[0])


def _entry_params(defaults, params, entry):
    """An entry's defaults overridden by ``params``, as floats; an unknown
    name or a value that is not finite (NaN included) raises."""
    unknown = set(params) - set(defaults)
    if unknown:
        raise ConfigurationError(f"unknown parameter(s) {sorted(unknown)} for {entry}")
    full = {**defaults, **{k: float(v) for k, v in params.items()}}
    for key, value in full.items():
        if not -np.inf < value < np.inf:
            raise ConfigurationError(f"{key} must be finite, got {value}", param=key)
    return full


def reaction(name, rule="midpoint", blend=None, **params):
    """Build a :class:`ReactionSpec` from the catalog.

    Unknown names or parameters and non-finite parameter values raise
    :class:`ConfigurationError`; the interval must satisfy ``f_lo <= f_hi``
    on a probe grid, checked at construction.
    """
    if name not in _REACTIONS:
        raise ConfigurationError(
            f"unknown reaction {name!r}; choose from {REACTION_NAMES}", param="name"
        )
    defaults, bounds, partials, growth_fn, state_dep, reads_grad = _REACTIONS[name]
    full = _entry_params(defaults, params, f"reaction {name!r}")
    spec = ReactionSpec(
        name=name,
        params=tuple(sorted(full.items())),
        rule=rule,
        blend=blend,
        growth=growth_fn(full),
        state_dependent=state_dep,
        reads_gradient=reads_grad,
        _bounds=bounds,
        _partials=partials,
    )
    s_probe = np.linspace(-3.0, 3.0, 41)
    g_probe = np.linspace(-2.0, 2.0, 41)[:, None]
    lo, hi = spec.bounds(None, s_probe, g_probe)
    if np.any(lo > hi + 1e-12):
        raise ConfigurationError(
            f"reaction {name!r} with {full} violates f_lo <= f_hi"
        )
    return spec


# --- boundary potentials ----------------------------------------------------


@dataclass(frozen=True)
class BoundaryPotentialSpec:
    """A locally Lipschitz boundary potential with generalized-gradient data
    and the smoothing ``delta`` of its assembled gradient, checked here."""

    name: str
    params: tuple
    growth: BoundaryGrowth
    smooth: bool
    quadratic: bool  # value is a (possibly zero) quadratic: usable by QP oracles
    clarke_shift_bound: float
    delta: float
    _value: callable = field(repr=False)
    _interval: callable = field(repr=False)
    _smoothed: callable = field(repr=False)
    _smoothed_deriv: callable = field(repr=False)

    def __post_init__(self):
        if not (0 < self.delta < np.inf or self.smooth and self.delta == 0):
            kink = "" if self.smooth else f", and > 0 as {self.name!r} has a kink"
            raise ConfigurationError(
                f"delta must be finite and >= 0{kink}, got {self.delta}", param="delta")

    def value(self, s):
        return np.asarray(self._value(dict(self.params), np.asarray(s, float)), float)

    def clarke_interval(self, s):
        lo, hi = self._interval(dict(self.params), np.asarray(s, float))
        return np.asarray(lo, float), np.asarray(hi, float)

    def clarke_directional(self, s, t):
        """``max(lo t, hi t)`` over :meth:`clarke_interval`, for one direction
        per node or a stack of them (``t`` of shape ``(rows, len(s))``)."""
        lo, hi = self.clarke_interval(s)
        return np.maximum(lo * t, hi * t)

    def smoothed_grad(self, s):
        return np.asarray(
            self._smoothed(dict(self.params), np.asarray(s, float), self.delta), float
        )

    def smoothed_grad_deriv(self, s):
        return np.asarray(
            self._smoothed_deriv(dict(self.params), np.asarray(s, float), self.delta),
            float,
        )


def _zero_val(p, s):
    return np.zeros_like(s)


def _zero_interval(p, s):
    z = np.zeros_like(s)
    return z, z.copy()


def _abs_val(p, s):
    return p["alpha"] * np.abs(s)


def _abs_interval(p, s):
    a = p["alpha"]
    sgn = np.sign(s)
    return np.where(s == 0, -a, a * sgn), np.where(s == 0, a, a * sgn)


def _abs_smoothed(p, s, delta):
    return p["alpha"] * np.clip(s / delta, -1.0, 1.0)


def _abs_smoothed_deriv(p, s, delta):
    return np.where(np.abs(s) < delta, p["alpha"] / delta, 0.0)


def _quad_val(p, s):
    return 0.5 * p["alpha"] * s * s


def _quad_interval(p, s):
    g = p["alpha"] * s
    return g, g.copy()


def _quad_smoothed(p, s, delta):
    return p["alpha"] * s


def _quad_smoothed_deriv(p, s, delta):
    return np.full_like(np.asarray(s, float), p["alpha"])


def _well_branch(p, s):
    """Derivative on the smooth branches: alpha (s - center sign(s))."""
    a, c = p["alpha"], p["center"]
    return a * (s - c * np.sign(s))


def _well_val(p, s):
    a, c = p["alpha"], p["center"]
    return 0.5 * a * (np.abs(s) - c) ** 2


def _well_interval(p, s):
    a, c = p["alpha"], p["center"]
    branch = _well_branch(p, s)
    return np.where(s == 0, -a * c, branch), np.where(s == 0, a * c, branch)


def _well_smoothed(p, s, delta):
    a, c = p["alpha"], p["center"]
    inner = a * s * (delta - c) / delta
    return np.where(np.abs(s) < delta, inner, _well_branch(p, s))


def _well_smoothed_deriv(p, s, delta):
    a, c = p["alpha"], p["center"]
    return np.where(np.abs(s) < delta, a * (delta - c) / delta, a)


_BOUNDARIES = {
    # name: (defaults, value, interval, smoothed, smoothed_deriv,
    #        growth builder, smooth, quadratic, shift bound)
    "zero": (
        {},
        _zero_val, _zero_interval, lambda p, s, d: np.zeros_like(s),
        lambda p, s, d: np.zeros_like(s),
        lambda p: BoundaryGrowth(),
        True, True, 0.0,
    ),
    "abs": (
        {"alpha": 1.0},
        _abs_val, _abs_interval, _abs_smoothed, _abs_smoothed_deriv,
        lambda p: BoundaryGrowth(b_j=abs(p["alpha"]), c_j=abs(p["alpha"]),
                                 theta1=1.0),
        False, False, 1.0,
    ),
    "smooth_quadratic": (
        {"alpha": 1.0},
        _quad_val, _quad_interval, _quad_smoothed, _quad_smoothed_deriv,
        lambda p: BoundaryGrowth(a_j=abs(p["alpha"]), c_j=abs(p["alpha"]),
                                 theta1=2.0),
        True, True, 0.0,
    ),
    "nonconvex_well": (
        {"alpha": 1.0, "center": 1.0},
        _well_val, _well_interval, _well_smoothed, _well_smoothed_deriv,
        lambda p: BoundaryGrowth(
            a_j=abs(p["alpha"]),
            b_j=abs(p["alpha"] * p["center"]),
            c_j=abs(p["alpha"]) * (1.0 + 0.5 * abs(p["center"])),
            d_j=0.5 * abs(p["alpha"] * p["center"]),
            theta1=2.0,
        ),
        False, False, 1.0,
    ),
}

BOUNDARY_NAMES = tuple(sorted(_BOUNDARIES))
# every parameter name some boundary potential takes, the smoothing included
BOUNDARY_PARAMETERS = frozenset(
    {"delta", *(k for entry in _BOUNDARIES.values() for k in entry[0])})


def boundary_potential(name, delta=1e-6, **params):
    """Build a :class:`BoundaryPotentialSpec` from the catalog, smoothed at
    ``delta``."""
    if name not in _BOUNDARIES:
        raise ConfigurationError(
            f"unknown boundary potential {name!r}; choose from {BOUNDARY_NAMES}",
            param="name",
        )
    (defaults, val, interval, smoothed, smoothed_deriv,
     growth_fn, smooth, quadratic, shift) = _BOUNDARIES[name]
    full = _entry_params(defaults, params, f"boundary potential {name!r}")
    if "alpha" in full and full["alpha"] < 0:
        raise ConfigurationError("boundary potential strength alpha must be >= 0",
                                 param="alpha")
    if "center" in full and full["center"] <= 0:
        raise ConfigurationError("the well center must be positive", param="center")
    return BoundaryPotentialSpec(
        name=name,
        params=tuple(sorted(full.items())),
        growth=growth_fn(full),
        smooth=smooth,
        quadratic=quadratic,
        clarke_shift_bound=shift,
        delta=float(delta),
        _value=val,
        _interval=interval,
        _smoothed=smoothed,
        _smoothed_deriv=smoothed_deriv,
    )
