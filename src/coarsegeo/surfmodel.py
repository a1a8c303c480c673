"""Combinatorial model spaces on zero-complexity surfaces.

Supported surfaces are disjoint unions of once-punctured tori and
four-punctured spheres.  On each component the curve graph is the Farey
graph (slopes p/q, edges where |ps - qr| = 1), which makes every
subsurface projection exactly computable:

* component projections are pants slopes,
* annular projections are twisting numbers (plus an inverse-length
  height in the augmented flavor, where the annular complex is a
  horoball in the upper half-plane),
* the global metric is the thresholded sum of projection distances.

Three flavors are exposed: ``pants`` (annuli inessential), ``marking``
(annular complex is Z) and ``augmented`` (annular complex is the region
y >= 1/B of H^2).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterable, Sequence

Matrix = tuple[int, int, int, int]  # row-major 2x2 integer matrix

IDENTITY: Matrix = (1, 0, 0, 1)



class InessentialSubsurfaceError(ValueError):
    """Raised when a flavor is asked for something it lacks (see `Flavor`)."""


# ---------------------------------------------------------------------------
# Slopes and the Farey graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=False, slots=True)
class Slope:
    """A slope p/q in lowest terms; (1, 0) encodes infinity.

    Canonical form has q > 0, or (p, q) = (1, 0).  The sort key used for
    deterministic tie-breaking everywhere is (q, p).
    """

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if q == 0 and p == 0:
            raise ValueError("0/0 is not a slope")
        g = math.gcd(abs(p), abs(q))
        p, q = p // g, q // g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def key(self) -> tuple[int, int]:
        return (self.q, self.p)

    def __lt__(self, other: "Slope") -> bool:
        return self.key() < other.key()

    def __repr__(self) -> str:
        return "oo" if self.q == 0 else f"{self.p}/{self.q}"

    def to_json(self) -> list[int]:
        return [self.p, self.q]

    @classmethod
    def from_json(cls, doc: Sequence[int]) -> "Slope":
        return cls(_json_int(doc[0], "slope entries"), _json_int(doc[1], "slope entries"))


def _json_int(v, what: str) -> int:
    """An integer read from JSON: a float must be a finite integer, so
    nothing is truncated."""
    if isinstance(v, float) and not v.is_integer():
        raise ValueError(f"{what} are integers, got {v}")
    return int(v)


INFINITY = Slope(1, 0)
ZERO = Slope(0, 1)


def det(a: Slope, b: Slope) -> int:
    return a.p * b.q - a.q * b.p


def farey_adjacent(a: Slope, b: Slope) -> bool:
    return abs(det(a, b)) == 1


_set_p, _set_q = Slope.p.__set__, Slope.q.__set__  # slot setters: no frozen check


def _trusted_slope(p: int, q: int) -> Slope:
    """A `Slope` from a pair already primitive and sign-normalized."""
    s = object.__new__(Slope)
    _set_p(s, p)
    _set_q(s, q)
    return s


def apply_matrix(m: Matrix, s: Slope) -> Slope:
    """The image of a slope under a unimodular matrix.  Such a matrix
    sends a primitive vector to a primitive vector, so the image needs a
    sign normalization but no gcd."""
    a, b, c, d = m
    if a * d - b * c not in (1, -1):
        raise ValueError("matrix is not unimodular")
    p, q = a * s.p + b * s.q, c * s.p + d * s.q
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return _trusted_slope(p, q)


def mat_inv(m: Matrix) -> Matrix:
    a, b, c, d = m
    dm = a * d - b * c
    if dm not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return (d // dm, -b // dm, -c // dm, a // dm)


@lru_cache(maxsize=100_000)
def _transport_at(p: int, q: int) -> Matrix:
    """`transport_matrix` of the slope p/q, cached at its two ints."""
    if q == 0:
        return IDENTITY
    s = pow(p, -1, q) if q > 1 else 0
    r = (p * s - 1) // q
    return (s, -r, -q, p)


def transport_matrix(core: Slope) -> Matrix:
    """The canonical unimodular matrix taking `core` to infinity.

    For core p/q (q >= 1) the matrix is [[s, -r], [-q, p]] where (r, s)
    is the extended-Euclid solution of ps - qr = 1 with 0 <= s < q
    (s = 0 when q = 1).  For the core at infinity it is the identity.
    This fixed choice makes twisting numbers deterministic.
    """
    return _transport_at(core.p, core.q)


def twist_number(core: Slope, curve: Slope) -> int:
    """Twisting of `curve` around `core`: transport core to infinity and
    take the floor of the image slope.

    Coarsely well defined (alternate admissible transports shift the
    answer by a bounded amount); exactly equivariant under powers of the
    Dehn twist about the core.
    """
    if curve.p == core.p and curve.q == core.q:
        raise ValueError("no projection from core to its own annulus via slopes")
    # floor(num / den) is the floor of the image slope without reducing it:
    # dividing both by their gcd or flipping both signs leaves it unchanged
    a, b, c, d = _transport_at(core.p, core.q)
    num = a * curve.p + b * curve.q
    den = c * curve.p + d * curve.q
    if den == 0:
        raise ValueError("only the core transports to infinity")
    return num // den


def twist_table(cores: Sequence[tuple[int, int]]) -> list[list[int]]:
    """Square rows T[u][v] = twist_number(core_u, core_v) for distinct
    (p, q) cores, with 0 on the diagonal: the int kernel of
    `twist_number`, one cached transport per row."""
    rows = []
    for u, (p, q) in enumerate(cores):
        a, b, c, d = _transport_at(p, q)
        rows.append([0 if v == u else (a * s + b * t) // (c * s + d * t)
                     for v, (s, t) in enumerate(cores)])
    return rows


# -- exact Farey distance ---------------------------------------------------
#
# d(oo, p/q) for q >= 2 satisfies d = 1 + min(d(k, p/q), d(k+1, p/q)) with
# k = floor(p/q): every vertex strictly between k and k+1 has all of its
# neighbors inside [k, k+1], so any path from infinity enters through k or
# k+1.  Moving k to infinity sends p/q to 1/f and k + 1 to infinity sends
# it to 1/(1 - f), f = frac(p/q); integer translations and x -> -x fix
# infinity.  Unrolled over the continued fraction of f this is a single
# backward pass.


def _dist_to_inf(p: int, q: int) -> int:
    """d(oo, p/q) from frac(p/q) = [0; a_1, ..., a_n]: with e_{n+1} = 1
    (an integer) and e_{n+2} = 0 (infinity), e_i = min(1 + e_{i+1},
    a_i + e_{i+2}) and the distance is e_1; infinity itself is at 0."""
    if q == 0:
        return 0
    quotients = []
    num, den = q, p % q  # f = den / num
    while den:
        a, rest = divmod(num, den)
        quotients.append(a)
        num, den = den, rest
    e1, e2 = 1, 0
    for a in reversed(quotients):
        e1, e2 = min(1 + e1, a + e2), e1
    return e1


def _geo_from_inf(p: int, q: int) -> list[Slope]:
    """A geodesic from infinity to p/q; ties prefer the floor branch
    (lexicographically least integer vertex under the (q, p) key); p/q
    is not infinity."""
    if q == 1:
        return [INFINITY, Slope(p, 1)]
    k = p // q
    r = p - k * q
    if r == 1:  # the floor integer is already adjacent to p/q
        return [INFINITY, Slope(k, 1), Slope(p, q)]
    if r == q - 1:
        return [INFINITY, Slope(k + 1, 1), Slope(p, q)]
    if _dist_to_inf(q, r) <= _dist_to_inf(-q, q - r):
        n = k
    else:
        n = k + 1
    # M_n = [[0, 1], [1, -n]] sends n -> oo; its inverse is [[n, 1], [1, 0]].
    # The mapped-back recursive path starts at the integer vertex n.
    nxt = apply_matrix((0, 1, 1, -n), Slope(p, q))
    inv: Matrix = (n, 1, 1, 0)
    tail = [apply_matrix(inv, s) for s in _geo_from_inf(nxt.p, nxt.q)]
    return [INFINITY] + tail


@lru_cache(maxsize=200_000)
def _distance_at(ap: int, aq: int, bp: int, bq: int) -> int:
    """`farey_distance` of the slopes ap/aq and bp/bq, cached at their ints."""
    if ap == bp and aq == bq:
        return 0
    img = apply_matrix(_transport_at(ap, aq), _trusted_slope(bp, bq))
    return _dist_to_inf(img.p, img.q)


def farey_distance(a: Slope, b: Slope) -> int:
    """Graph distance in the Farey graph (edges where |ps - qr| = 1)."""
    return _distance_at(a.p, a.q, b.p, b.q)


@lru_cache(maxsize=50_000)
def _geodesic_at(ap: int, aq: int, bp: int, bq: int) -> tuple[Slope, ...]:
    """`farey_geodesic` of the slopes ap/aq and bp/bq, cached at their ints."""
    a, b = _trusted_slope(ap, aq), _trusted_slope(bp, bq)
    if a == b:
        return (a,)
    if b < a:
        return _geodesic_at(bp, bq, ap, aq)[::-1]
    m = _transport_at(ap, aq)
    inv = mat_inv(m)
    img = apply_matrix(m, b)
    path = tuple(apply_matrix(inv, s) for s in _geo_from_inf(img.p, img.q))
    if path[0] != a or path[-1] != b:
        raise RuntimeError(f"Farey geodesic from {a} to {b} has ends {path[0]}, {path[-1]}")
    if not all(farey_adjacent(u, v) for u, v in zip(path, path[1:])):
        raise RuntimeError(f"Farey geodesic from {a} to {b} has a non-edge step: {path}")
    return path


def farey_geodesic(a: Slope, b: Slope) -> tuple[Slope, ...]:
    """A geodesic vertex path from a to b, symmetric under endpoint swap
    (the path is computed from the endpoint with smaller key)."""
    return _geodesic_at(a.p, a.q, b.p, b.q)


def farey_ball(lo: int, hi: int, depth: int) -> list[Slope]:
    """Vertices of the mediant fan over the intervals [lo, hi]: infinity,
    the integers lo..hi, and mediants to the given subdivision depth.

    This is the explicit finite chunk of the Farey graph used by ball
    oracles and calibration scans; adjacency is recovered from the
    determinant condition.  A reversed interval or a negative depth is a
    ValueError.
    """
    if hi < lo or depth < 0:
        raise ValueError(f"need lo <= hi and depth >= 0, got lo={lo}, hi={hi}, depth={depth}")
    verts: set[Slope] = {INFINITY}
    verts.update(Slope(n, 1) for n in range(lo, hi + 1))

    def gen(u: Slope, v: Slope, d: int) -> None:
        if d <= 0:
            return
        m = Slope(u.p + v.p, u.q + v.q)
        verts.add(m)
        gen(u, m, d - 1)
        gen(m, v, d - 1)

    for n in range(lo, hi):
        gen(Slope(n, 1), Slope(n + 1, 1), depth)
    return sorted(verts, key=Slope.key)


def common_neighbors(a: Slope, b: Slope) -> list[Slope]:
    """Farey vertices adjacent to both a and b (finite for a != b)."""
    d = det(a, b)
    if d == 0:
        raise ValueError("equal slopes have infinitely many common neighbors")
    out = []
    for ea in (1, -1):
        for eb in (1, -1):
            # solve det(a, w) = ea, det(b, w) = eb
            num_p = -(ea * b.p - eb * a.p)
            num_q = -(ea * b.q - eb * a.q)
            if num_p % d == 0 and num_q % d == 0:
                w = (num_p // d, num_q // d)
                if w != (0, 0):
                    out.append(Slope(*w))
    return sorted(set(out), key=Slope.key)


# ---------------------------------------------------------------------------
# Surfaces, points, subsurfaces
# ---------------------------------------------------------------------------

ALLOWED_COMPONENTS = {(1, 1), (0, 4)}


@dataclass(frozen=True)
class ModelSurface:
    """A disjoint union of (1,1) and (0,4) components with a flavor.

    `bers` is the Bers length bound B of the augmented flavor; `threshold`
    is the cutoff T of the distance formula.  `_key`, the tuple
    (components, flavor, bers, threshold), is built and hashed once, at
    construction: it heads every distance-cache key.  `fl` is its `Flavor`.
    """

    components: tuple[tuple[int, int], ...]
    flavor: str = "marking"
    bers: float = 1.0
    threshold: float = 10.0
    _key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    fl: Flavor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(tuple(c) for c in self.components))
        if not self.components:
            raise ValueError("surface needs at least one component")
        for c in self.components:
            if c not in ALLOWED_COMPONENTS:
                raise ValueError(f"component {c} is not an exactly computable piece")
        fl = Flavor.named(self.flavor)
        if not (0 < self.bers < math.inf and 0 < self.threshold < math.inf):
            raise ValueError("bers bound and threshold must be finite and positive")
        object.__setattr__(self, "fl", replace(fl, bers=self.bers))
        key = (self.components, self.flavor, self.bers, self.threshold)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through the constructor, so the hash is the loading
        # process's own (str hashes differ between processes)
        return (ModelSurface, (self.components, self.flavor, self.bers, self.threshold))

    @property
    def n_components(self) -> int:
        return len(self.components)

    def validate_threshold(self, constants) -> None:
        """The distance-formula threshold must dominate the frozen bounded
        geodesic image constant, otherwise candidate enumeration leaks."""
        m0 = constants["m0_bgit"]
        if self.threshold <= m0:
            raise ValueError(
                f"threshold T={self.threshold} must exceed the frozen image bound {m0}"
            )

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "components": [list(c) for c in self.components],
            "flavor": self.flavor,
            "bers": self.bers,
            "threshold": self.threshold,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ModelSurface":
        return cls(
            components=tuple(tuple(c) for c in doc["components"]),
            flavor=doc["flavor"],
            bers=float(doc["bers"]),
            threshold=float(doc["threshold"]),
        )


@dataclass(frozen=True, slots=True)
class Subsurface:
    """Either a whole component or an annulus about a core slope."""

    kind: str  # "component" | "annulus"
    comp: int
    core: Slope | None = None

    def __post_init__(self):
        if self.kind not in ("component", "annulus"):
            raise ValueError(f"bad subsurface kind {self.kind!r}")
        if (self.kind == "annulus") != (self.core is not None):
            raise ValueError("annuli need a core slope, components must not have one")

    def key(self):
        return (self.comp, 0 if self.kind == "component" else 1,
                self.core.key() if self.core else (0, 0))

    def __repr__(self) -> str:
        return f"W{self.comp}" if self.kind == "component" else f"A{self.comp}({self.core})"


@dataclass(frozen=True, slots=True)
class AnnularPoint:
    """A point of an annular complex: a twist, plus a height >= 1/B in the
    augmented flavor (the horoball model of C(A)); height None otherwise."""

    twist: int
    height: float | None = None

    def coords(self) -> tuple[float, float]:
        return (float(self.twist), float(self.height if self.height is not None else 0.0))


@dataclass(frozen=True, slots=True)
class ComponentState:
    alpha: Slope
    tau: Slope | None = None
    length: float | None = None


@dataclass(frozen=True)
class Flavor:
    """What a model flavor can do, at the Bers bound `bers`.  With
    `annuli` (all but pants) points carry transversals, and flats twist
    factors and noise bursts.  With `heights` (augmented) an annular
    complex is the horoball y >= 1/B, not Z: points carry lengths in
    (0, B], other curves are seen at the height `boundary` = 1/B, and
    flats have ray factors."""

    name: str
    annuli: bool
    heights: bool
    bers: float = 1.0
    boundary: float | None = field(init=False, repr=False, compare=False)
    factor_kinds: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "boundary", 1.0 / self.bers if self.heights else None)
        object.__setattr__(self, "factor_kinds",
                           ("path",) + ("twist",) * self.annuli + ("ray",) * self.heights)

    def lacks(self, what: str) -> InessentialSubsurfaceError:
        """The refusal of something the flavor does not have."""
        return InessentialSubsurfaceError(f"the {self.name} flavor has no {what}")

    @staticmethod
    def named(flavor: str) -> "Flavor":
        """The `FLAVORS` entry of a flavor name (at B = 1), or a ValueError."""
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {flavor!r}")
        return FLAVORS[flavor]


FLAVORS = {fl.name: fl for fl in (Flavor("pants", annuli=False, heights=False),
                                  Flavor("marking", annuli=True, heights=False),
                                  Flavor("augmented", annuli=True, heights=True))}


@dataclass(frozen=True, slots=True, init=False, eq=False)
class ModelPoint:
    """A pants / marking / augmented-marking point on a model surface.

    The point is stored once, as `_key`, built from plain ints and
    floats: the surface's key, then one `_state_key` per component.
    `state(comp)`, `states` and `alpha(comp)` are views built from it on
    demand.  Equality compares keys, and the distance caches are keyed
    by them, so a cached distance keeps no point, state or slope alive."""

    surface: ModelSurface = field(repr=False)
    _key: tuple
    _hash: int = field(repr=False)

    def __init__(self, surface: ModelSurface, states: Sequence[ComponentState]):
        if len(states) != surface.n_components:
            raise ValueError("one state per component required")
        key = (surface._key, *map(_state_key, states))
        for k in key[1:]:
            _check_state(surface, k)
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    @classmethod
    def _trusted(cls, surface: ModelSurface, state_keys: Iterable[tuple]) -> "ModelPoint":
        """A point from one state key per component, unchecked: `with_state`
        checks the key it changes, `StandardFlat.eval_rows` builds valid keys."""
        key = (surface._key, *state_keys)
        x = object.__new__(cls)
        object.__setattr__(x, "surface", surface)
        object.__setattr__(x, "_key", key)
        object.__setattr__(x, "_hash", hash(key))
        return x

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not ModelPoint:
            return NotImplemented
        return self._key == other._key

    def __reduce__(self):
        # rebuilt through the constructor: revalidated, and hashed in the
        # loading process
        return (ModelPoint, (self.surface, self.states))

    @property
    def state_keys(self) -> tuple:
        """One `_state_key` per component, indexed as `states` is."""
        return self._key[1:]

    @property
    def states(self) -> tuple[ComponentState, ...]:
        return tuple(map(_state_view, self.state_keys))

    def state(self, comp: int) -> ComponentState:
        return _state_view(self.state_keys[comp])

    def alpha(self, comp: int) -> Slope:
        k = self.state_keys[comp]
        return _trusted_slope(k[0], k[1])

    def with_state(self, comp: int, key: tuple) -> "ModelPoint":
        """This point with component comp's state key replaced by `key`,
        which is checked as the constructor checks a state."""
        _check_state(self.surface, key)
        keys = list(self.state_keys)
        keys[comp] = key
        return ModelPoint._trusted(self.surface, keys)

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "components": [
                {
                    "alpha": st.alpha.to_json(),
                    "tau": st.tau.to_json() if st.tau else None,
                    "length": st.length,
                }
                for st in self.states
            ],
        }

    @classmethod
    def from_json(cls, surface: ModelSurface, doc: dict) -> "ModelPoint":
        states = tuple(
            ComponentState(
                alpha=Slope.from_json(c["alpha"]),
                tau=Slope.from_json(c["tau"]) if c.get("tau") else None,
                length=c.get("length"),
            )
            for c in doc["components"]
        )
        return cls(surface, states)


def _state_key(st: ComponentState) -> tuple:
    """One state's part of `ModelPoint._key`: (alpha.p, alpha.q) with neither
    transversal nor length, else (alpha.p, alpha.q, tau.p, tau.q, length)."""
    a, t = st.alpha, st.tau
    if t is None:  # a length without a transversal keeps its place, to be refused
        return (a.p, a.q) if st.length is None else (a.p, a.q, None, None, st.length)
    return (a.p, a.q, t.p, t.q, st.length)


def _check_state(surface: ModelSurface, k: tuple) -> None:
    """Refuse a state key the surface's flavor cannot hold: the checks and
    messages of the `ModelPoint` constructor, run on the stored key."""
    fl = surface.fl
    if not fl.annuli:
        if len(k) != 2:
            raise ValueError(f"{fl.name} points carry no transversal or length")
    elif len(k) == 2 or k[2] is None:
        raise ValueError(f"{fl.name} points need transversals")
    elif abs(k[0] * k[3] - k[1] * k[2]) != 1:
        raise ValueError("transversal must intersect the pants slope minimally")
    elif fl.heights:
        if k[4] is None or not (0 < k[4] <= surface.bers):
            raise ValueError(f"{fl.name} length must lie in (0, B]")
    elif k[4] is not None:
        raise ValueError(f"{fl.name} points carry no length")


def _state_view(k: tuple) -> ComponentState:
    """The state whose `_state_key` is k."""
    if len(k) == 2:
        return ComponentState(_trusted_slope(k[0], k[1]))
    return ComponentState(_trusted_slope(k[0], k[1]), _trusted_slope(k[2], k[3]), k[4])


def base_point(surface: ModelSurface) -> ModelPoint:
    """The canonical origin: alpha = 0/1, tau = infinity, length = B, each
    where the flavor has it."""
    fl = surface.fl
    base = ComponentState(ZERO, INFINITY if fl.annuli else None, fl.bers if fl.heights else None)
    return ModelPoint(surface, (base,) * surface.n_components)


# ---------------------------------------------------------------------------
# Topology statistics
# ---------------------------------------------------------------------------


def topology_stats(g: int, p: int, c: int, fl: Flavor) -> tuple[int, int]:
    """Complexity and top rank of a surface given total genus, punctures
    and component count.

    Complexity is 3g + p - 4c.  The rank is 3g + p - 3c where annuli are
    essential (marking and augmented) and floor((3g + p - 2c) / 2)
    without them (pants).
    """
    if c < 1 or 3 * g + p - 4 * c < 0:
        raise ValueError("inessential surface")
    xi = 3 * g + p - 4 * c
    rank = 3 * g + p - 3 * c if fl.annuli else (3 * g + p - 2 * c) // 2
    return xi, rank


def surface_stats(surface: ModelSurface) -> tuple[int, int]:
    g = sum(c[0] for c in surface.components)
    p = sum(c[1] for c in surface.components)
    return topology_stats(g, p, surface.n_components, surface.fl)


# ---------------------------------------------------------------------------
# Projections and distances
# ---------------------------------------------------------------------------


def project(x: ModelPoint, w: Subsurface) -> Slope | AnnularPoint:
    """Subsurface projection of a model point.

    Components project to the pants slope.  An annulus about the pants
    curve sees the transversal's twisting (and the inverse length in the
    augmented flavor); any other annulus sees the pants slope's twisting
    at boundary height 1/B.
    """
    return _project_state(x.surface, x.state_keys[w.comp], w)


def _project_state(surf: ModelSurface, k: tuple, w: Subsurface) -> Slope | AnnularPoint:
    """`project` on the state key k of the subsurface's component."""
    if w.kind == "component":
        return _trusted_slope(k[0], k[1])
    fl = surf.fl
    if not fl.annuli:
        raise fl.lacks("annular coordinates")
    core = w.core
    # build only the slope the annulus reads: tau about the pants curve, else alpha
    if core.p == k[0] and core.q == k[1]:
        tw = twist_number(core, _trusted_slope(k[2], k[3]))
        return AnnularPoint(tw, 1.0 / k[4]) if fl.heights else AnnularPoint(tw)
    return boundary_point(core, _trusted_slope(k[0], k[1]), fl)


def boundary_point(core: Slope, curve: Slope, fl: Flavor) -> AnnularPoint:
    """What the annulus about `core` sees of another curve: its twisting
    number, at the flavor's boundary height."""
    return AnnularPoint(twist_number(core, curve), fl.boundary)


def horoball_distance(u: tuple[float, float], v: tuple[float, float]) -> float:
    """Hyperbolic distance in the upper half-plane, which is the induced
    metric on a horoball (geodesics between horoball points stay in it):
    cosh d = 1 + (dx^2 + dy^2) / (2 y1 y2)."""
    (x1, y1), (x2, y2) = u, v
    if y1 <= 0 or y2 <= 0:
        raise ValueError("horoball points need positive height")
    arg = 1.0 + ((x1 - x2) ** 2 + (y1 - y2) ** 2) / (2.0 * y1 * y2)
    return math.acosh(arg)


def _mobius(m: tuple[float, float, float, float], z: complex) -> complex:
    a, b, c, d = m
    return (a * z + b) / (c * z + d)


def geodesic_chart(a: tuple[float, float], b: tuple[float, float]):
    """For horoball points a and b: a Moebius map T of the upper
    half-plane (on complex numbers) sending the geodesic through them
    onto the imaginary axis, its inverse, and the log-heights
    la = log|T(a)|, lb = log|T(b)|.  On the axis arclength is the
    log-height, and the nearest point to w is i|w|.  A vertical
    geodesic (or a == b) needs only a translation; otherwise
    T(z) = (z - u)/(v - z) sends the semicircle's feet u < v to 0 and
    infinity."""
    za, zb = complex(*a), complex(*b)
    if abs(za.real - zb.real) < 1e-12:
        m = (1.0, -za.real, 0.0, 1.0)
    else:
        c = (za.real + zb.real) / 2 + (za.imag ** 2 - zb.imag ** 2) / (2.0 * (za.real - zb.real))
        rho = abs(za - c)
        m = (1.0, rho - c, -1.0, c + rho)

    def to(z: complex) -> complex:
        return _mobius(m, z)

    def back(w: complex) -> complex:
        return _mobius((m[3], -m[1], -m[2], m[0]), w)

    return to, back, math.log(abs(to(za))), math.log(abs(to(zb)))


def horoball_point_to_segment(p: tuple[float, float], a: tuple[float, float],
                              b: tuple[float, float]) -> tuple[float, float]:
    """(distance, position from a) of the point of the geodesic arc
    [a, b] nearest p: in the chart of `geodesic_chart` the distance from
    w to i e^t grows with |t - log|w||, so the nearest point of the arc
    is at the clamped log-height t, |t - log|T(a)|| along the arc."""
    to, _, la, lb = geodesic_chart(a, b)
    w = to(complex(*p))
    t = min(max(math.log(abs(w)), min(la, lb)), max(la, lb))
    return horoball_distance((w.real, w.imag), (0.0, math.exp(t))), abs(t - la)


def annular_distance(u: AnnularPoint, v: AnnularPoint, fl: Flavor) -> float:
    if not fl.heights:
        return float(abs(u.twist - v.twist))
    if u.height is None or v.height is None:
        raise ValueError("augmented annular points need heights")
    return horoball_distance(u.coords(), v.coords())


def annular_row(u: AnnularPoint, twists: Sequence[int], fl: Flavor) -> list[float]:
    """[annular_distance(u, boundary_point(core, c, fl), fl) for each
    twist_number(core, c) in `twists`]: the same floats from the same
    operations in the same operand order, and the same ValueErrors,
    without building a boundary point per entry."""
    if not fl.heights:
        t = u.twist
        return [float(abs(t - s)) for s in twists]
    if not twists:
        return []
    if u.height is None:
        raise ValueError("augmented annular points need heights")
    # horoball_distance((x1, y1), (s, y2)) with the row's constant terms hoisted
    x1, y1 = u.coords()
    y2 = fl.boundary
    if y1 <= 0 or y2 <= 0:
        raise ValueError("horoball points need positive height")
    dy, den = (y1 - y2) ** 2, 2.0 * y1 * y2
    return [math.acosh(1.0 + ((x1 - float(s)) ** 2 + dy) / den) for s in twists]


def annular_coordinate_point(surface: ModelSurface, twist: int | float,
                             height: float | None) -> AnnularPoint:
    """A coordinate of an annular complex of the surface's flavor, or a
    ValueError: the pants flavor has none, a twist is an integer, a
    marking coordinate has no height, and an augmented one needs a
    positive finite height."""
    fl = surface.fl
    if not fl.annuli:
        raise fl.lacks("annular coordinates")
    twist = _json_int(twist, "annular twists")
    if not fl.heights:
        if height is not None:
            raise ValueError("marking annular coordinates have no height")
        return AnnularPoint(twist)
    if height is None:
        raise ValueError("augmented annular points need heights")
    h = float(height)
    if not (h > 0 and math.isfinite(h)):
        raise ValueError(f"augmented annular heights are positive and finite, got {h}")
    return AnnularPoint(twist, h)


def complex_distance(w: Subsurface, a, b, fl: Flavor) -> float:
    """Distance between two points of the complex of w: the Farey graph
    for a component, the annular complex of the flavor for an annulus."""
    if w.kind == "component":
        return float(farey_distance(a, b))
    return annular_distance(a, b, fl)


def subsurface_distance(x: ModelPoint, y: ModelPoint, w: Subsurface) -> float:
    surf, kx, ky = x.surface, x.state_keys[w.comp], y.state_keys[w.comp]
    return complex_distance(w, _project_state(surf, kx, w), _project_state(surf, ky, w),
                            surf.fl)


def _candidate_cores(kx: tuple, ky: tuple) -> list[tuple[int, int]]:
    """The candidate annulus cores of one component from its two state
    keys, as (q, p) pairs in `Slope.key` order: the Farey geodesic
    between the pants slopes plus both transversals (none in pants)."""
    cores = {(s.q, s.p) for s in _geodesic_at(kx[0], kx[1], ky[0], ky[1])}
    if len(kx) > 2:
        cores.add((kx[3], kx[2]))
        cores.add((ky[3], ky[2]))
    return sorted(cores)


def window_subsurfaces(surface: ModelSurface,
                       window: dict[int, Sequence[Slope]]) -> list[Subsurface]:
    """Per component: the component, then the annuli about its window
    cores where the flavor has annuli (the window is not read in pants)."""
    out: list[Subsurface] = []
    for comp in range(surface.n_components):
        out.append(Subsurface("component", comp))
        if surface.fl.annuli:
            out.extend(Subsurface("annulus", comp, s) for s in window[comp])
    return out


def candidate_subsurfaces(x: ModelPoint, y: ModelPoint) -> list[Subsurface]:
    """The finite subsurface list that can carry a large projection
    distance between x and y.

    Per component: the component itself plus annuli whose cores sit on
    the canonical geodesic between the pants slopes or are one of the
    four endpoint curves (`_candidate_cores`).  The bounded geodesic
    image property caps every other annulus, which is what the
    wide-enumeration acceptance test checks.
    """
    window = {}
    if x.surface.fl.annuli:
        window = {i: [_trusted_slope(p, q) for q, p in _candidate_cores(kx, ky)]
                  for i, (kx, ky) in enumerate(zip(x.state_keys, y.state_keys))}
    return window_subsurfaces(x.surface, window)


def working_window(x: ModelPoint, y: ModelPoint) -> dict[int, tuple[Slope, ...]]:
    """Finite core sets per component, in `Slope.key` order: the
    candidate cores (the canonical geodesic between the pants slopes,
    which holds both of them, and both transversals) plus the mediant
    fan at distance one from the geodesic's edges.  Cores beyond this
    window contribute a bounded amount by the bounded geodesic image
    property."""
    out = {}
    for i, (kx, ky) in enumerate(zip(x.state_keys, y.state_keys)):
        cores = set(_candidate_cores(kx, ky))
        geo = _geodesic_at(kx[0], kx[1], ky[0], ky[1])
        for u, v in zip(geo, geo[1:]):
            cores.update((s.q, s.p) for s in common_neighbors(u, v))
        out[i] = tuple(_trusted_slope(p, q) for q, p in sorted(cores))
    return out


def _component_terms(fl: Flavor, kx: tuple, ky: tuple,
                     t: float) -> tuple[tuple[Slope | None, float], ...]:
    """The kept (core, distance) terms of one component at threshold t:
    the component term first, with core None, then the annuli in
    candidate order.  `distance_formula` lists them, and `formula_total`
    caches their distances on a miss of `_terms`.  Every subsurface lies
    in one component, so the terms depend only on the flavor and that
    component's two state keys kx and ky, and are computed on their
    ints: a twisting number is (a p + b q) // (c p + d q) for the core's
    cached transport (a, b; c, d), as in `twist_number`, and the annular
    distance is `annular_distance`'s float of the two projections."""
    ap, aq, bp, bq = kx[0], kx[1], ky[0], ky[1]
    d = float(_distance_at(ap, aq, bp, bq))
    terms = [(None, d)] if d >= t else []
    if not fl.annuli:
        return tuple(terms)
    aug = fl.heights
    # the heights of `project`: 1/length about the pants curve, else 1/B
    hx, hy, hb = (1.0 / kx[4], 1.0 / ky[4], fl.boundary) if aug else (None,) * 3
    for cq, cp in _candidate_cores(kx, ky):
        m0, m1, m2, m3 = _transport_at(cp, cq)
        # each state's curve in this annulus: tau about its own pants curve, else alpha
        px, qx, ux = (kx[2], kx[3], hx) if cp == ap and cq == aq else (ap, aq, hb)
        py, qy, uy = (ky[2], ky[3], hy) if cp == bp and cq == bq else (bp, bq, hb)
        tx = (m0 * px + m1 * qx) // (m2 * px + m3 * qx)
        ty = (m0 * py + m1 * qy) // (m2 * py + m3 * qy)
        d = horoball_distance((float(tx), ux), (float(ty), uy)) if aug else float(abs(tx - ty))
        if d >= t:
            terms.append((_trusted_slope(cp, cq), d))
    return tuple(terms)


def _terms_key(fl: Flavor, t: float, kx: tuple, ky: tuple) -> tuple:
    """The `_terms` key (flavor, bers, t, x's state, y's state) of one
    component's state keys kx and ky.

    On the marking flavor above t = 3 the states are moved by the M in
    SL2(Z) with M(alpha_x) = 0/1 and M(tau_x) = 1/0: M^-1 has columns
    tau_x and alpha_x, tau_x's sign flipped when det(alpha_x, tau_x) = 1.
    The moved pair keeps the pair's kept distances, in some order.  Farey
    distance is invariant.  For a core c, T_Mc M T_c^-1 (T the transports
    of `twist_number`) fixes infinity with determinant 1, so it is
    z -> z + k: twisting numbers about Mc are those about c plus k, and
    their differences stay (a reflection would negate twists, and floor
    is not odd).  Candidate cores move too, but for ties: `_geodesic_at`
    breaks them by key order, so the sets can differ by a core c interior
    to one geodesic and not the other (pants curves and transversals are
    always candidates), which sees both pants slopes.  Their twist gap is
    at most 3: with c at infinity, the edge (k, k + 1) cuts off the
    interval of a slope of floor k, so a path avoiding infinity leaves
    alpha_x's interval at an integer i in {k_x, k_x + 1} and walks every
    integer to j in {k_y, k_y + 1}, at least
    d(alpha_x, oo) - 1 + |i - j| + d(oo, alpha_y) - 1 long.  As c is on a
    geodesic, a geodesic avoiding c has |i - j| <= 2, so the floors
    differ by at most 3, and above t = 3 no such term is kept.  The kept
    distances are integers, whose sum is exact in any order, so for a
    moved key it is a function of the key alone.  Augmented sums are not
    (order can change the last bit), and pants has no transversal to fix
    M: there, and at t <= 3, the key holds kx and ky."""
    if fl.heights or not fl.annuli or not t > 3.0:
        return (fl.name, fl.bers, t, kx, ky)
    ap, aq, tp, tq, lx = kx
    if ap * tq - aq * tp == 1:
        tp, tq = -tp, -tq
    # M = [[aq, -ap], [-tq, tp]], the inverse of M^-1 = [[tp, ap], [tq, aq]]
    bp, bq, sp, sq, ly = ky
    p, q = aq * bp - ap * bq, tp * bq - tq * bp
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    r, s = aq * sp - ap * sq, tp * sq - tq * sp
    if s < 0 or (s == 0 and r < 0):
        r, s = -r, -s
    return (fl.name, fl.bers, t, (0, 1, 1, 0, lx), (p, q, r, s, ly))


# The two distance caches are dicts keyed by plain tuples of ints,
# floats, strings and None: `_distances` by the pair of point keys
# (`ModelPoint._key`), and `_terms` by `_terms_key`, a component pair's
# position up to SL2(Z) on the marking flavor above t = 3 (the raw pair
# otherwise), with no surface key and no component index.  `_terms`
# holds each key's kept distances, a tuple of floats.  The collector
# untracks such tuples, so no entry keeps a point alive, and a hit
# hashes and compares in C.  A full cache is emptied by its next miss.
_terms: dict[tuple, tuple[float, ...]] = {}
_TERMS_MAX = 200_000
_distances: dict[tuple, float] = {}
_DISTANCES_MAX = 400_000
_distance_hits = _distance_misses = 0


def _formula_scope(x: ModelPoint, y: ModelPoint, threshold: float | None,
                   comps: Iterable[int] | None) -> tuple[float, Iterable[int]]:
    """The threshold and the components the distance formula sums over."""
    surf = x.surface
    if x._key[0] != y._key[0]:
        raise ValueError("points live on different surfaces")
    t = surf.threshold if threshold is None else threshold
    if comps is None:
        return t, range(surf.n_components)
    comps = tuple(comps)  # x._key[i + 1] is component i's state: no index counts from the end
    if any(i < 0 for i in comps):
        raise IndexError(f"components are numbered from 0, got {comps}")
    return t, comps


def formula_total(x: ModelPoint, y: ModelPoint, threshold: float | None = None,
                  comps: Iterable[int] | None = None) -> float:
    """`distance_formula`'s total, bit for bit, from each component's kept
    distances in `_terms` (a miss runs `_component_terms` on the pair's
    own state keys), added in cached order: the pair's own for a raw
    key, and integers, exact in any order, for a moved one."""
    t, comps = _formula_scope(x, y, threshold, comps)
    fl, total = x.surface.fl, 0.0
    for i in comps:
        kx, ky = x._key[i + 1], y._key[i + 1]
        key = _terms_key(fl, t, kx, ky)
        terms = _terms.get(key)
        if terms is None:
            if len(_terms) >= _TERMS_MAX:
                _terms.clear()
            terms = _terms[key] = tuple(d for _, d in _component_terms(fl, kx, ky, t))
        for d in terms:
            total += d
    return total


def distance_formula(
    x: ModelPoint,
    y: ModelPoint,
    threshold: float | None = None,
    comps: Iterable[int] | None = None,
) -> tuple[float, list[tuple[Subsurface, float]]]:
    """Thresholded sum of projection distances, with the contributing
    subsurfaces.  This is the model metric; it is symmetric and obeys
    the triangle inequality up to a multiplicative slack.  Each
    component's terms come from `_component_terms` on the pair's own
    state keys, uncached, added as `formula_total` adds them."""
    t, comps = _formula_scope(x, y, threshold, comps)
    fl, total, contributing = x.surface.fl, 0.0, []
    for i in comps:
        for core, d in _component_terms(fl, x._key[i + 1], y._key[i + 1], t):
            total += d
            contributing.append((Subsurface("component", i) if core is None else
                                 Subsurface("annulus", i, core), d))
    contributing.sort(key=lambda wd: wd[0].key())
    return total, contributing


def model_distance(x: ModelPoint, y: ModelPoint) -> float:
    """`formula_total` at the surface's own threshold, cached at
    (x._key, y._key)."""
    global _distance_hits, _distance_misses
    key = (x._key, y._key)
    d = _distances.get(key)
    if d is not None:
        _distance_hits += 1
        return d
    _distance_misses += 1
    if len(_distances) >= _DISTANCES_MAX:
        _distances.clear()
    d = _distances[key] = formula_total(x, y)
    return d


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
# the counters `functools.lru_cache` reports, for callers that read them
model_distance.cache_info = lambda: _CacheInfo(_distance_hits, _distance_misses,
                                               _DISTANCES_MAX, len(_distances))
farey_distance.cache_info = lambda: _distance_at.cache_info()
farey_geodesic.cache_info = lambda: _geodesic_at.cache_info()


def component_distance(x: ModelPoint, y: ModelPoint, comp: int) -> float:
    """The distance formula restricted to one component's subsurfaces,
    i.e. distance in that component's own model space."""
    return formula_total(x, y, comps=(comp,))


def threshold_audit(x: ModelPoint, y: ModelPoint, t: float, tp: float) -> float:
    """Ratio of the distance formula at two thresholds, infinity-safe."""
    if tp < t:
        raise ValueError("audit expects T' >= T")
    lo = formula_total(x, y, threshold=t)
    hi = formula_total(x, y, threshold=tp)
    if lo == hi == 0.0:
        return 1.0
    if hi == 0.0:
        return math.inf
    return lo / hi


# ---------------------------------------------------------------------------
# Elementary moves and product regions
# ---------------------------------------------------------------------------


def twist_state(k: tuple, n: int) -> tuple:
    """A state key after n Dehn twists about its own pants curve: the
    twist sends tau to tau + n det(alpha, tau) alpha, which is primitive
    and Farey-adjacent to alpha, so only its sign is normalized."""
    p, q, tp, tq, length = k
    d = n * (p * tq - q * tp)
    tp, tq = tp + d * p, tq + d * q
    if tq < 0 or (tq == 0 and tp < 0):
        tp, tq = -tp, -tq
    return (p, q, tp, tq, length)


def flip_state(k: tuple, bers: float) -> tuple:
    """A state key with pants slope and transversal swapped, which keeps
    |det| = 1; the new pants curve takes the Bers length if the state has
    a length."""
    p, q, tp, tq, length = k
    return (tp, tq, p, q, bers if length is not None else None)


def twist_move(x: ModelPoint, comp: int, n: int = 1) -> ModelPoint:
    """Apply n Dehn twists about the pants curve of one component."""
    if not x.surface.fl.annuli:
        raise x.surface.fl.lacks("transversal to twist")
    return x.with_state(comp, twist_state(x.state_keys[comp], n))


def flip_move(x: ModelPoint, comp: int) -> ModelPoint:
    """Swap pants slope and transversal in one component."""
    if not x.surface.fl.annuli:
        raise x.surface.fl.lacks("flip move")
    return x.with_state(comp, flip_state(x.state_keys[comp], x.surface.bers))


def length_move(x: ModelPoint, comp: int, factor: float) -> ModelPoint:
    fl = x.surface.fl
    if not fl.heights:
        raise fl.lacks("lengths")
    k = x.state_keys[comp]
    return x.with_state(comp, k[:4] + (min(x.surface.bers, k[4] * factor),))


def annular_coordinate(x: ModelPoint, comp: int, core: Slope) -> AnnularPoint:
    return project(x, Subsurface("annulus", comp, core))  # type: ignore[return-value]


def pinned_state(surface: ModelSurface, core: Slope,
                 coord: AnnularPoint | None) -> tuple:
    """The state key pinned on `core` at an annular coordinate: transversal
    M^-1(n/1) for the transport M of `core`, whose twisting number about
    `core` is n = coord.twist, or 0 without a coordinate, and length
    min(B, 1/height), or B without one, each where the flavor has it."""
    fl = surface.fl
    if not fl.annuli:
        return (core.p, core.q)
    want = coord.twist if coord is not None else 0
    tau = apply_matrix(mat_inv(transport_matrix(core)), _trusted_slope(want, 1))
    length = None
    if fl.heights:
        height = coord.height if coord is not None else None
        length = min(surface.bers, 1.0 / height) if height else surface.bers
    return (core.p, core.q, tau.p, tau.q, length)


def product_project(x: ModelPoint, pins: dict[int, Slope]) -> ModelPoint:
    """Project onto the region whose pants decomposition contains the
    pinned curves: replace pants slopes, rebuild transversals so the
    twisting about each pinned curve is preserved exactly, and keep the
    annular height where the augmented flavor has one."""
    surf, y = x.surface, x
    for comp, pin in pins.items():
        coord = annular_coordinate(x, comp, pin) if surf.fl.annuli else None
        y = y.with_state(comp, pinned_state(surf, pin, coord))
    return y


def product_region_distance(x: ModelPoint, y: ModelPoint,
                            pins: dict[int, Slope]) -> float:
    """Distance between the projections onto the pinned product region."""
    return model_distance(product_project(x, pins), product_project(y, pins))


def product_factor_sum(x: ModelPoint, y: ModelPoint, pins: dict[int, Slope]) -> float:
    """The per-factor sum over the region's complementary pieces: the
    annular complexes of pinned curves plus the untouched components."""
    total = 0.0
    for comp in range(x.surface.n_components):
        if comp in pins:
            pin = pins[comp]
            u = annular_coordinate(x, comp, pin)
            v = annular_coordinate(y, comp, pin)
            total += annular_distance(u, v, x.surface.fl)
        else:
            total += component_distance(x, y, comp)
    return total


def sum_distance_audit(x: ModelPoint, y: ModelPoint) -> tuple[float, float]:
    """Both sides of the chain bound: the model distance against the sum
    of product-region distances along component 0's pants-slope geodesic."""
    chain = farey_geodesic(x.alpha(0), y.alpha(0))
    rhs = sum(product_region_distance(x, y, {0: a}) for a in chain)
    lhs = model_distance(x, y)
    return lhs, rhs


def clear_caches() -> None:
    """Empty every cache of the module: the int-keyed Farey caches
    `_transport_at` (at most 100,000 slopes), `_distance_at` (200,000
    slope pairs) and `_geodesic_at` (50,000 slope pairs), and the
    distance caches `_terms` (200,000 component pairs, each up to SL2(Z)
    on the marking flavor above t = 3) and `_distances` (400,000 point
    pairs) with their counters."""
    global _distance_hits, _distance_misses
    _transport_at.cache_clear()
    _distance_at.cache_clear()
    _geodesic_at.cache_clear()
    _terms.clear()
    _distances.clear()
    _distance_hits = _distance_misses = 0
