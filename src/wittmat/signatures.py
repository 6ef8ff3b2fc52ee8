"""Arbitrary-signature generator sets G(p,q) inside the complexified rank-n algebra.

The ambient complexified algebra supplies e_1..e_n (square +1),
f_1..f_n (square -1) and the extra vector

    f_{n+1} := e_{1..n} f_{1..n}^dagger i = e_1..e_n f_n..f_1 i,

which squares to -1 and anticommutes with every e_i, f_i.  Any signature with
p + q <= 2n + 1 is reached by flipping generators: multiplying by the central
formal scalar i turns a +1 square into -1 and vice versa.  Flips consume f's
from the lowest index up when p > n, and e's from the highest index down when
q > n + 1, which reproduces the published generator lists verbatim.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from . import _EXPORTS
from .errors import DomainError
from .exact import GaussianRational
from .witt import Multivector, e, f, one

__all__ = _EXPORTS["signatures"]


class SignatureSpec(NamedTuple("SignatureSpec", [("p", int), ("q", int), ("n", int)])):
    __slots__ = ()

    def __new__(cls, p: int, q: int, n: int):
        if p < 0 or q < 0 or n < 1:
            raise DomainError("signature parts must be nonnegative and rank positive")
        if p + q > 2 * n + 1:
            raise DomainError(f"signature ({p},{q}) too large for ambient rank {n}")
        return super().__new__(cls, p, q, n)


class GeneratorSet(NamedTuple):
    n: int
    plus: tuple[Multivector, ...]
    minus: tuple[Multivector, ...]
    plus_labels: tuple[str, ...] = ()
    minus_labels: tuple[str, ...] = ()


class SignatureReport(NamedTuple):
    ok: bool
    failures: tuple[str, ...]


def pseudoscalar_candidate(n: int) -> Multivector:
    """The real 2n-generator product e_n...e_1 f_1...f_n (the unit lacking f_{n+1})."""
    out = one(n)
    for i in range(n, 0, -1):
        out = out * e(n, i)
    for i in range(1, n + 1):
        out = out * f(n, i)
    return out


def f_extra(n: int) -> Multivector:
    """The extra anticommuting vector e_1..e_n f_n..f_1 i with square -1."""
    out = one(n)
    for i in range(1, n + 1):
        out = out * e(n, i)
    for i in range(n, 0, -1):
        out = out * f(n, i)
    return out.scale(GaussianRational.I)


def generators(spec: SignatureSpec) -> GeneratorSet:
    n, p, q = spec.n, spec.p, spec.q
    base_plus = [(f"e{k}", e(n, k).complexify()) for k in range(1, n + 1)]
    base_minus = [(f"f{k}", f(n, k).complexify()) for k in range(1, n + 1)]
    base_minus.append((f"f{n + 1}", f_extra(n)))

    def flipped(pairs):
        return [(f"i{lab}", mv.scale(GaussianRational.I)) for lab, mv in pairs]

    fp = max(0, p - n)  # f's flipped to +1, lowest index first
    keep = n - max(0, q - n - 1)  # e's kept at +1; the rest flip to -1, highest index first
    plus = (base_plus[:keep] + flipped(base_minus[:fp]))[:p]
    minus = (flipped(base_plus[keep:]) + base_minus[fp:])[:q]
    if len(plus) != p or len(minus) != q:
        raise DomainError(f"G({p},{q}) got {len(plus)} plus and {len(minus)} minus generators")
    return GeneratorSet(
        n=n,
        plus=tuple(mv for _, mv in plus),
        minus=tuple(mv for _, mv in minus),
        plus_labels=tuple(lab for lab, _ in plus),
        minus_labels=tuple(lab for lab, _ in minus),
    )


def verify_signature(gs: GeneratorSet) -> SignatureReport:
    """Check every square and every pairwise anticommutator by multiplication."""
    labeled = []
    for side, gens, labels, want in (("plus", gs.plus, gs.plus_labels, 1),
                                     ("minus", gs.minus, gs.minus_labels, -1)):
        for k, mv in enumerate(gens):
            labeled.append((labels[k] if k < len(labels) else f"{side}{k + 1}", mv, want))
    failures = []
    for lab, mv, want in labeled:
        sq = mv * mv
        if sq != want * one(gs.n):
            got = str(sq.scalar_part()) if sq.is_scalar() else sq.pretty()
            failures.append(f"square({lab}) = {got}, expected {want:+d}")
    for (lab1, g1, _), (lab2, g2, _) in combinations(labeled, 2):
        if not (g1 * g2 + g2 * g1).is_zero():
            failures.append(f"pair ({lab1}, {lab2}) does not anticommute")
    return SignatureReport(ok=not failures, failures=tuple(failures))
