"""Quasi-kernels and k-kernels.

A quasi-kernel is an independent set with every outside vertex at distance
at most 2 from it. A k-kernel is k-independent (pairwise distance at least k
in both directions) and (k-1)-absorbent; a kernel is a 2-kernel.

Both are checked by one rule: a set is j-independent when no member's
out-reach of radius j-1 holds another member, and a-absorbent when its
in-reach of radius a is every vertex. (j, a) is (2, 2) for a quasi-kernel
and (k, k-1) for a k-kernel. Every certificate the module returns has passed
that check on the digraph or composition (never flattened) it is claimed for.

Deciding k-kernel existence is polynomial for strong semicomplete
compositions when k >= 4 (a singleton inside the right factor always works)
and NP-complete for k in {2, 3}; accordingly this module offers the
polynomial decision only for k >= 4, a capped brute-force oracle for every
k, and the three-copy gadget that carries 3-kernel hardness over to
semicomplete compositions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from itertools import combinations

from .composition import (
    Composition,
    _composition_reach,
    compose,
    flatten,
    require_semicomplete_composition,
    require_strong_semicomplete_composition,
)
from .digraph import Digraph, _is_semicomplete, _reach, build_digraph
from .errors import PreconditionError, TheoremViolation

DEFAULT_ORACLE_CAP = 16


class CertificateKind(Enum):
    QUASI_KERNEL = "QUASI_KERNEL"
    K_KERNEL = "K_KERNEL"


@dataclass(frozen=True)
class KernelCertificate:
    """A claimed quasi-kernel or k-kernel. k is None for quasi-kernels;
    validated records that validate_certificate has confirmed the claim."""

    kind: CertificateKind
    vertices: frozenset[int]
    k: int | None
    validated: bool


def validate_certificate(d: Digraph | Composition, cert: KernelCertificate) -> bool:
    """Exact check of the defining conditions: the set is j-independent and
    a-absorbent, with (j, a) = (2, 2) for a quasi-kernel and (k, k-1) for a
    k-kernel. On a composition every reach is `_composition_reach`."""
    if isinstance(d, Composition):
        n = d.total_vertices
        out = partial(_composition_reach, d)
        inn = partial(_composition_reach, d, inward=True)
    else:
        n, out, inn = d.n, partial(_reach, d.out_masks), partial(_reach, d.in_masks)
    for v in cert.vertices:
        if not 0 <= v < n:
            raise PreconditionError(f"certificate vertex {v} out of range for n={n}")
    if cert.kind is CertificateKind.QUASI_KERNEL:
        j, a = 2, 2
    else:
        if cert.k is None or cert.k < 2:
            raise PreconditionError("K_KERNEL certificate requires k >= 2")
        j, a = cert.k, cert.k - 1
    mask = sum(1 << v for v in cert.vertices)
    independent = not any(out(1 << v, j - 1) & mask & ~(1 << v) for v in cert.vertices)
    return independent and inn(mask, a) == (1 << n) - 1


def _certified(
    d: Digraph | Composition,
    kind: CertificateKind,
    vertices: frozenset[int],
    k: int | None,
    failure: str,
) -> KernelCertificate:
    """The certificate claiming `vertices` for d, marked validated once
    validate_certificate confirms it. A failed check means a construction
    the theory guarantees went wrong: TheoremViolation(failure, d)."""
    cert = KernelCertificate(kind=kind, vertices=vertices, k=k, validated=False)
    if not validate_certificate(d, cert):
        raise TheoremViolation(failure, instance=d)
    return replace(cert, validated=True)


def _lift(c: Composition, members: frozenset[int]) -> KernelCertificate:
    """quasi_kernel(H_i) of every factor i in members, certified on c."""
    return _certified(
        c,
        CertificateKind.QUASI_KERNEL,
        frozenset(c.offsets[i] + x for i in members for x in quasi_kernel(c.factors[i]).vertices),
        None,
        f"quasi-kernel lifted from factors {sorted(members)} failed validation",
    )


def quasi_kernel(d: Digraph | Composition) -> KernelCertificate:
    """A quasi-kernel, which every digraph has.

    Construction: repeatedly take the smallest remaining vertex as pivot and
    discard its closed in-neighborhood; then, unwinding in reverse, keep each
    pivot exactly when none of its out-neighbors was kept later. The result
    is re-validated before being returned.

    On a composition it lifts quasi_kernel(T) (`_lift`) and gets the same
    set: the vertices of H_i share their neighbours outside H_i, so the flat
    greedy runs H_i's own greedy and keeps it exactly when T keeps u_i.
    """
    if isinstance(d, Composition):
        return _lift(d, quasi_kernel(d.outer).vertices)
    alive = (1 << d.n) - 1
    pivots: list[int] = []
    while alive:
        v = (alive & -alive).bit_length() - 1
        pivots.append(v)
        alive &= ~(d.in_masks[v] | 1 << v)
    chosen = 0
    for v in reversed(pivots):
        if not d.out_masks[v] & chosen:
            chosen |= 1 << v
    return _certified(
        d,
        CertificateKind.QUASI_KERNEL,
        frozenset(v for v in reversed(pivots) if chosen >> v & 1),
        None,
        "constructed quasi-kernel failed validation",
    )


def singleton_quasi_kernels(d: Digraph) -> frozenset[int]:
    """All vertices v of a semicomplete digraph whose singleton {v} is a
    quasi-kernel, i.e. every other vertex reaches v within two steps
    (the kings of the converse digraph).

    A sink-free semicomplete digraph is guaranteed at least two such
    vertices; coming up short is a theorem violation."""
    if not _is_semicomplete(d):
        raise PreconditionError("digraph is not semicomplete")
    full = (1 << d.n) - 1
    found = frozenset(v for v in range(d.n) if _reach(d.in_masks, 1 << v, 2) == full)
    if d.n > 0 and all(d.out_masks) and len(found) < 2:
        raise TheoremViolation(
            "sink-free semicomplete digraph with fewer than two singleton "
            "quasi-kernels",
            instance=d,
        )
    return found


def disjoint_quasi_kernels(
    c: Composition,
) -> tuple[KernelCertificate, KernelCertificate]:
    """A pair of disjoint quasi-kernels of a semicomplete composition whose
    outer digraph has no sink: quasi-kernels of two distinct factors whose
    outer vertices absorb the outer digraph within two steps, lifted to flat
    ids as quasi_kernel lifts T's. Both certificates are validated on c."""
    sinks = require_semicomplete_composition(c).sinks
    if sinks:
        raise PreconditionError(f"outer digraph has sink(s) {sorted(sinks)}")
    first, second = sorted(singleton_quasi_kernels(c.outer))[:2]
    return _lift(c, frozenset({first})), _lift(c, frozenset({second}))


def composition_k_kernel(c: Composition, k: int) -> KernelCertificate | None:
    """Polynomial k-kernel decision for strong semicomplete compositions,
    k >= 4: a k-kernel exists exactly when some outer vertex u_i has every
    outer vertex within distance k-1 of it, and then the smallest vertex of
    factor i is one on its own. One depth-(k-1) backward BFS per outer
    vertex, stopping at the first that reaches every outer vertex.

    k in {2, 3} is NP-complete and deliberately not offered here; use
    k_kernel_brute_force."""
    require_strong_semicomplete_composition(c)
    if k < 4:
        raise PreconditionError(
            f"polynomial decision requires k >= 4, got {k}; "
            "use k_kernel_brute_force for k in {2, 3}"
        )
    full = (1 << c.t) - 1
    for i in range(c.t):
        if _reach(c.outer.in_masks, 1 << i, k - 1) == full:
            return _certified(
                c,
                CertificateKind.K_KERNEL,
                frozenset({c.flat_id(i, 0)}),
                k,
                f"singleton k-kernel in factor {i} failed validation",
            )
    return None


def k_kernel_brute_force(
    d: Digraph | Composition, k: int, max_n: int = DEFAULT_ORACLE_CAP
) -> KernelCertificate | None:
    """Minimum-cardinality k-kernel by exhaustive search, or None when no
    k-kernel exists. Subsets are tried by increasing size and
    lexicographically within a size, so the returned certificate is
    deterministic. A composition is searched on its flattened digraph.

    Exponential: refuses inputs with more than max_n vertices. A composition
    is sized by its vertex count before it is flattened."""
    if k < 2:
        raise PreconditionError(f"kernel order must be >= 2, got {k}")
    n = d.total_vertices if isinstance(d, Composition) else d.n
    if n > max_n:
        raise PreconditionError(f"oracle cap exceeded: n={n} > cap={max_n}")
    if isinstance(d, Composition):
        d = flatten(d)
    # Bitmask prefilters from reaches of radius k-1; the winner is re-checked
    # against the certificate definition.
    full = (1 << d.n) - 1
    # y-mask per x: d(x, y) <= k-1
    absorb = [_reach(d.out_masks, 1 << x, k - 1) for x in range(d.n)]
    # y-mask per x: d(x, y) >= k and d(y, x) >= k, so x, y may share a
    # k-independent set
    compat = [
        full & ~(absorb[x] | _reach(d.in_masks, 1 << x, k - 1)) for x in range(d.n)
    ]
    # the empty set is a k-kernel only of the empty digraph
    for size in range(d.n + 1):
        for combo in combinations(range(d.n), size):
            mask = 0
            independent = True
            for v in combo:
                if mask & ~compat[v]:
                    independent = False
                    break
                mask |= 1 << v
            if not independent:
                continue
            if any(
                not (absorb[x] & mask)
                for x in range(d.n)
                if not (mask >> x) & 1
            ):
                continue
            return _certified(
                d,
                CertificateKind.K_KERNEL,
                frozenset(combo),
                k,
                f"oracle {k}-kernel {sorted(combo)} failed validation",
            )
    return None


def c3_gadget(d: Digraph) -> Composition:
    """The composition of a directed triangle with three copies of d. It has
    a 3-kernel exactly when d does, which transfers 3-kernel hardness to
    semicomplete compositions."""
    if d.n == 0:
        raise PreconditionError("gadget factor must be nonempty")
    outer = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
    return compose(outer, (d, d, d))
