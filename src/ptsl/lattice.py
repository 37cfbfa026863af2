"""Superlattice definitions and PT-symmetry checks.

A superlattice is a one-dimensional tight-binding chain whose complex on-site
energies ``V_1..V_q`` and real hopping rates ``kappa_1..kappa_q`` repeat with
period ``q`` (``kappa_n`` couples sites ``n`` and ``n+1``).  Energies are
measured in units of a reference hopping rate, so the numbers here are O(1).

The PT check asks whether some parity center ``c`` (integer or half-integer,
i.e. a site or a bond midpoint) exists such that reflecting the chain about
``c`` and conjugating the potential reproduces the lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LatticeError",
    "SuperlatticeSpec",
    "ParametricLattice",
    "HarperParams",
    "PTSymmetryReport",
    "build_harper",
    "harper_family",
    "check_pt_symmetry",
    "family_from_json",
    "spec_from_json",
]


class LatticeError(ValueError):
    """Invalid superlattice data."""


@dataclass(frozen=True)
class SuperlatticeSpec:
    """One period of a superlattice: complex on-site energies, real hoppings.

    ``onsite[j]`` is ``V_{j+1}`` and ``hopping[j]`` is ``kappa_{j+1}``; the
    chain extends periodically in both directions.
    """

    onsite: tuple[complex, ...]
    hopping: tuple[float, ...]

    def __post_init__(self) -> None:
        onsite = tuple(complex(v) for v in self.onsite)
        if len(onsite) < 1:
            raise LatticeError("period must be at least 1")
        if len(self.hopping) != len(onsite):
            raise LatticeError(
                f"need as many hoppings as on-site energies, got {len(self.hopping)} vs {len(onsite)}"
            )
        hopping = []
        for k in self.hopping:
            kc = complex(k)
            if kc.imag != 0:
                raise LatticeError("hopping rates must be real")
            if not math.isfinite(kc.real) or kc.real == 0.0:
                raise LatticeError("hopping rates must be finite and non-vanishing")
            hopping.append(kc.real)
        if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in onsite):
            raise LatticeError("on-site energies must be finite")
        object.__setattr__(self, "onsite", onsite)
        object.__setattr__(self, "hopping", tuple(hopping))

    @property
    def q(self) -> int:
        return len(self.onsite)

    def onsite_at(self, n: int) -> complex:
        """V_n for any integer site index (periodic extension)."""
        return self.onsite[(n - 1) % self.q]

    def hopping_at(self, n: int) -> float:
        """kappa_n for any integer bond index (periodic extension)."""
        return self.hopping[(n - 1) % self.q]


@dataclass(frozen=True)
class ParametricLattice:
    """Family V_n = V_n^(R) + i*lam*V_n^(I) with tunable non-Hermitian strength."""

    onsite_real: tuple[float, ...]
    onsite_imag: tuple[float, ...]
    hopping: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.onsite_real) == len(self.onsite_imag) == len(self.hopping)):
            raise LatticeError("onsite_real, onsite_imag and hopping must share one period")
        object.__setattr__(self, "onsite_real", tuple(float(v) for v in self.onsite_real))
        object.__setattr__(self, "onsite_imag", tuple(float(v) for v in self.onsite_imag))
        object.__setattr__(self, "hopping", tuple(float(k) for k in self.hopping))

    @property
    def q(self) -> int:
        return len(self.onsite_real)

    def at(self, lam: float) -> SuperlatticeSpec:
        """Instantiate the lattice at non-Hermiticity ``lam >= 0``."""
        if lam < 0:
            raise LatticeError("non-Hermitian strength must be nonnegative")
        onsite = tuple(
            complex(re, lam * im) for re, im in zip(self.onsite_real, self.onsite_imag)
        )
        return SuperlatticeSpec(onsite, self.hopping)


@dataclass(frozen=True)
class HarperParams:
    """Sinusoidal-potential lattice: V_n = delta*cos(2*pi*alpha*(n-n0)) + i*lam*sin(...).

    ``alpha = p/q`` must be a reduced fraction so the potential is periodic
    with period exactly ``q``; ``n0`` sets where the pattern is anchored.
    """

    delta: float
    lam: float
    p: int
    q: int
    n0: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.delta):
            raise LatticeError(f"cosine amplitude delta must be finite, got {self.delta}")
        if self.q < 1:
            raise LatticeError("period q must be a positive integer")
        if self.p < 1:
            raise LatticeError("numerator p must be a positive integer")
        if math.gcd(self.p, self.q) != 1:
            raise LatticeError(f"p/q must be irreducible, got {self.p}/{self.q}")
        if self.lam < 0:
            raise LatticeError("sine amplitude lam must be nonnegative")


def build_harper(params: HarperParams) -> SuperlatticeSpec:
    """Harper superlattice with unit hoppings, evaluated at sites 1..q."""
    return harper_family(params.delta, params.p, params.q, params.n0).at(params.lam)


def harper_family(delta: float, p: int, q: int, n0: int = 0) -> ParametricLattice:
    """The Harper lattice as a family over the non-Hermitian strength."""
    HarperParams(delta=delta, lam=0.0, p=p, q=q, n0=n0)  # validates delta, p, q
    sites = np.arange(1, q + 1)
    phase = 2.0 * np.pi * (p / q) * (sites - n0 % q)  # V depends on n0 mod q only
    return ParametricLattice(
        onsite_real=tuple(delta * np.cos(phase)),
        onsite_imag=tuple(np.sin(phase)),
        hopping=(1.0,) * q,
    )


@dataclass(frozen=True)
class PTSymmetryReport:
    """Outcome of the parity-center scan."""

    symmetric: bool
    center: float | None = None

    @property
    def center_kind(self) -> str | None:
        if self.center is None:
            return None
        return "site" if float(self.center).is_integer() else "bond"


def check_pt_symmetry(spec: SuperlatticeSpec) -> PTSymmetryReport:
    """Scan the 2q candidate parity centers c in {0, 1/2, ..., q - 1/2}.

    The lattice is PT symmetric about c iff the periodic extensions satisfy
    ``V_{2c-n} = V_n*`` and ``kappa_{2c-n-1} = kappa_n`` for all n; the
    smallest matching center is reported.  Comparisons allow 1e-12 times
    the largest |V| or |kappa| of the lattice.
    """
    doubled = _doubled_centres(np.asarray([spec.onsite]), spec.hopping)[0]
    if doubled < 0:
        return PTSymmetryReport(symmetric=False, center=None)
    return PTSymmetryReport(symmetric=True, center=doubled / 2.0)


def _doubled_centres(onsite: np.ndarray, hopping) -> np.ndarray:
    """Twice the smallest parity center of each on-site row, or -1 if none.

    ``onsite`` has shape ``(S, q)``, one lattice per row, all sharing
    ``hopping``.  With 0-based site j, the center c = d/2 maps site j to
    ``(d - 2 - j) mod q`` and bond j to ``(d - 3 - j) mod q``; all S x 2q
    candidates are tested in one comparison, within 1e-12 times the row's
    largest |V| or |kappa|.
    """
    q = onsite.shape[-1]
    hopping = np.asarray(hopping, dtype=float)
    limit = 1e-12 * np.maximum(np.abs(onsite).max(axis=-1), np.abs(hopping).max())[:, None, None]
    doubled = np.arange(2 * q)
    partner = (doubled[:, None] - 2 - np.arange(q)) % q
    # near the float limit a difference may overflow to inf; inf exceeds
    # every limit, which is the right verdict, so the warning is noise
    with np.errstate(over="ignore", invalid="ignore"):
        bonds_ok = np.all(np.abs(hopping[(partner - 1) % q] - hopping) <= limit, axis=-1)
        sites_ok = np.all(np.abs(onsite[:, partner] - onsite.conj()[:, None, :]) <= limit, axis=-1)
    ok = sites_ok & bonds_ok
    return np.where(ok.any(axis=-1), np.argmax(ok, axis=-1), -1)


# ---------------------------------------------------------------------------
# JSON lattice schema
# ---------------------------------------------------------------------------


def _harper_params(h) -> HarperParams:
    try:
        return HarperParams(
            delta=float(h["delta"]),
            lam=float(h.get("lambda", 0.0)),
            p=int(h["p"]),
            q=int(h["q"]),
            n0=int(h.get("n0", 0)),
        )
    except (KeyError, TypeError) as exc:
        raise LatticeError(f"invalid harper shorthand: {exc}") from exc


def spec_from_json(obj: dict) -> SuperlatticeSpec:
    """Parse the lattice JSON schema.

    Either an explicit lattice ``{"q": int, "onsite": [[re, im], ...],
    "hopping": [real, ...]}`` or the shorthand ``{"harper": {"delta": r,
    "lambda": r, "p": int, "q": int, "n0": int}}``.
    """
    if not isinstance(obj, dict):
        raise LatticeError("lattice JSON must be an object")
    if "harper" in obj:
        return build_harper(_harper_params(obj["harper"]))
    try:
        q = int(obj["q"])
        onsite = tuple(complex(re, im) for re, im in obj["onsite"])
        hopping = tuple(float(k) for k in obj["hopping"])
    except (KeyError, TypeError, ValueError) as exc:
        raise LatticeError(f"invalid lattice JSON: {exc}") from exc
    if len(onsite) != q:
        raise LatticeError(f"q={q} but {len(onsite)} on-site energies given")
    return SuperlatticeSpec(onsite, hopping)


def family_from_json(obj: dict) -> ParametricLattice:
    """Parse the lattice JSON schema as a family over the non-Hermitian strength.

    The Harper shorthand gives :func:`harper_family` (its ``"lambda"`` is
    ignored); an explicit lattice is read as ``V(lam) = Re V + i lam Im V``,
    i.e. its Im V is the unit-strength gain/loss profile.
    """
    if isinstance(obj, dict) and "harper" in obj:
        h = _harper_params(obj["harper"])
        return harper_family(h.delta, h.p, h.q, h.n0)
    spec = spec_from_json(obj)
    return ParametricLattice(
        onsite_real=tuple(v.real for v in spec.onsite),
        onsite_imag=tuple(v.imag for v in spec.onsite),
        hopping=spec.hopping,
    )
