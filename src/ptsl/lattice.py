"""Superlattice definitions and PT-symmetry checks.

A superlattice is a one-dimensional tight-binding chain whose complex on-site
energies ``V_1..V_q`` and real hopping rates ``kappa_1..kappa_q`` repeat with
period ``q`` (``kappa_n`` couples sites ``n`` and ``n+1``).  Energies are
measured in units of a reference hopping rate, so the numbers here are O(1).

The PT check, ``_doubled_centre``, asks whether some parity center ``c``
(integer or half-integer, i.e. a site or a bond midpoint) exists such that
reflecting the chain about ``c`` and conjugating the potential reproduces
the lattice; ``bloch`` uses the centre it finds.
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
    "build_harper",
    "harper_family",
    "family_from_json",
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
    """Family V_n = V_n^(R) + i*lam*V_n^(I) with tunable non-Hermitian strength.

    Its data must pass :class:`SuperlatticeSpec`'s checks at lam = 1: a period
    of at least 1, finite on-site parts, and finite, non-zero real hoppings.
    """

    onsite_real: tuple[float, ...]
    onsite_imag: tuple[float, ...]
    hopping: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.onsite_real) != len(self.onsite_imag):
            raise LatticeError("onsite_real, onsite_imag and hopping must share one period")
        object.__setattr__(self, "onsite_real", tuple(float(v) for v in self.onsite_real))
        object.__setattr__(self, "onsite_imag", tuple(float(v) for v in self.onsite_imag))
        object.__setattr__(self, "hopping", self.at(1.0).hopping)

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
    return ParametricLattice(delta * np.cos(phase), np.sin(phase), (1.0,) * q)


def _energy_scale(onsite, hopping) -> np.ndarray:
    """Largest |V_n| or |kappa_n| of each on-site row ``(..., q)`` sharing ``hopping``.

    Tolerances on energies are this scale times a relative factor, so a
    verdict does not change when a lattice is multiplied by a constant.
    """
    return np.maximum(np.abs(onsite).max(axis=-1), np.abs(hopping).max())


def _doubled_centre(onsite: np.ndarray, hopping) -> int:
    """Twice the smallest parity center of one on-site row ``(q,)``, or -1 if none.

    With 0-based site j, the center c = d/2 maps site j to ``(d - 2 - j)
    mod q`` and bond j to ``(d - 3 - j) mod q``, within 1e-12 times the
    row's :func:`_energy_scale`.  Centres d and d + q reflect alike, so the
    smallest lies below q.  One comparison of site 0 and bond 0 rules out
    candidates; the survivors are tested in full in order of d, so memory
    stays O(q).
    """
    q = len(onsite)
    hopping = np.asarray(hopping, dtype=float)
    limit = 1e-12 * _energy_scale(onsite, hopping)
    sites = np.arange(q)
    # near the float limit a difference may overflow to inf; inf exceeds
    # every limit, which is the right verdict, so the warning is noise
    with np.errstate(over="ignore", invalid="ignore"):
        first = (np.abs(onsite[(sites - 2) % q] - onsite[0].conjugate()) <= limit) & (
            np.abs(hopping[(sites - 3) % q] - hopping[0]) <= limit
        )
        for d in np.flatnonzero(first):
            partner = (d - 2 - sites) % q
            if np.all(np.abs(onsite[partner] - onsite.conj()) <= limit) and np.all(
                np.abs(hopping[(partner - 1) % q] - hopping) <= limit
            ):
                return int(d)
    return -1


# ---------------------------------------------------------------------------
# JSON lattice schema
# ---------------------------------------------------------------------------


def family_from_json(obj: dict) -> tuple[ParametricLattice, float]:
    """Parse the lattice JSON schema into a family and the strength it names.

    An explicit lattice ``{"q": int, "onsite": [[re, im], ...], "hopping":
    [real, ...]}`` is the family ``V(lam) = Re V + i lam Im V`` at
    ``lam = 1``, i.e. its Im V is the unit-strength gain/loss profile.  The
    shorthand ``{"harper": {"delta": r, "lambda": r, "p": int, "q": int,
    "n0": int}}`` is :func:`harper_family` at its ``"lambda"`` (default 0).
    """
    if not isinstance(obj, dict):
        raise LatticeError("lattice JSON must be an object")
    if "harper" in obj:
        h = obj["harper"]
        try:
            params = HarperParams(
                delta=float(h["delta"]),
                lam=float(h.get("lambda", 0.0)),
                p=int(h["p"]),
                q=int(h["q"]),
                n0=int(h.get("n0", 0)),
            )
        except (KeyError, TypeError) as exc:
            raise LatticeError(f"invalid harper shorthand: {exc}") from exc
        return harper_family(params.delta, params.p, params.q, params.n0), params.lam
    try:
        q = int(obj["q"])
        onsite = [complex(re, im) for re, im in obj["onsite"]]
        hopping = tuple(float(k) for k in obj["hopping"])
    except (KeyError, TypeError, ValueError) as exc:
        raise LatticeError(f"invalid lattice JSON: {exc}") from exc
    if len(onsite) != q:
        raise LatticeError(f"q={q} but {len(onsite)} on-site energies given")
    return ParametricLattice([v.real for v in onsite], [v.imag for v in onsite], hopping), 1.0
