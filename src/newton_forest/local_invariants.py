"""Per-vertex invariants on the positive-multiplicity subtree, and the global ledger.

The subtree script-N collects the vertices of positive multiplicity; script-D
the dicriticals.  For v in script-N the ledger carries the dead-end value a,
the vertex-neighbour count r, the node data (adjacent dicriticals, their
degrees and k-values, the sorted type), sigma, epsilon, the genus defects
Delta and Delta-tilde, the degree gcd d(v), the unit-degree weight xi, purity
and the auxiliary epsilon' = a* + b + epsilon, b being the number of adjacent
dicriticals of degree below N_v.  The part of R(v, A) that does not depend on
A is read from a and the k's (`characteristic.R_table`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Mapping

from .errors import InternalInconsistencyError, NotMinimallyCompleteError
from .multiplicity import DicriticalInfo, MultiplicityTable
from .tree_model import CellRef, DecoratedRootedTree


@dataclass(frozen=True)
class VertexData:
    a: int
    r: int
    is_node: bool
    dicriticals: tuple[CellRef, ...]  # adjacent dicriticals, sorted by id
    type: tuple[int, ...]  # their degrees, ascending; empty for non-nodes
    k: Mapping[CellRef, int]
    sigma: int
    epsilon: int
    delta: int
    delta_tilde: int
    d: int
    xi: int
    pure: bool
    a_star: int
    epsilon_prime: int


@dataclass(frozen=True)
class VertexLedger:
    per_vertex: Mapping[CellRef, VertexData]

    def delta_tilde(self, vertices) -> int:
        """Sum of the per-vertex genus defects over a subset of script-N."""
        per = self.per_vertex
        return sum(per[v].delta_tilde for v in vertices)


@dataclass(frozen=True)
class GlobalLedger:
    script_N: frozenset[CellRef]
    script_D: frozenset[CellRef]
    nd: frozenset[CellRef]  # nodes
    nd_star: frozenset[CellRef]  # nodes of degree gcd 1
    delta_N: int
    delta_tilde_N: int
    xi_N: int
    D_of_T: int
    D_prime_of_T: int
    genus: int | None  # defined only when delta_tilde_N is even and >= 0


def vertex_ledger(
    tree: DecoratedRootedTree, table: MultiplicityTable, info: DicriticalInfo
) -> VertexLedger:
    """All per-vertex invariants over script-N.  Requires minimal completeness."""
    if not info.minimally_complete:
        raise NotMinimallyCompleteError(
            "analysis requires a minimally complete tree: " + "; ".join(info.reasons)
        )

    fold = table.fold
    script_N = sorted(v for v in tree.vertices if table.N[v] > 0)
    n_set = set(script_N)
    out: dict[CellRef, VertexData] = {}

    for v in script_N:
        N = table.N[v]
        a = fold.dead[v]  # the one dead end's decoration (axiom 2), or 1
        if N % a != 0:
            raise InternalInconsistencyError(f"a-value {a} does not divide N={N} at {v!r}")
        vertex_neighbors = [n for n, _, _ in fold.vertex_edges(v)]
        r = len(vertex_neighbors) - 1
        dics = tuple(sorted(n for n in vertex_neighbors if n in info.dicriticals))
        is_node = bool(dics)
        k = {}
        for u in dics:
            k[u] = -fold.determinant(v, u)
        typ = tuple(sorted(info.degree[u] for u in dics))
        sigma = sum((k[u] - 1) * info.degree[u] for u in dics)
        epsilon = sum(1 for n in vertex_neighbors if n in n_set)

        delta = (r - 1) * (N - 1) + (N - N // a)
        delta_tilde = delta - sum(du - 1 for du in typ)

        d = N if not is_node else gcd(*typ)
        if d != 1:
            xi = 0
        elif N == 1:
            xi = 1
        else:
            xi = max(1, typ.count(1))
        pure = all(du in (1, N) for du in typ)
        a_star = 1 if a > 1 else 0
        b = sum(1 for u in dics if info.degree[u] < N)

        out[v] = VertexData(
            a=a,
            r=r,
            is_node=is_node,
            dicriticals=dics,
            type=typ,
            k=k,
            sigma=sigma,
            epsilon=epsilon,
            delta=delta,
            delta_tilde=delta_tilde,
            d=d,
            xi=xi,
            pure=pure,
            a_star=a_star,
            epsilon_prime=a_star + b + epsilon,
        )
    return VertexLedger(per_vertex=out)


def global_ledger(info: DicriticalInfo, ledger: VertexLedger) -> GlobalLedger:
    """Global invariants, script-N being the ledger's vertices.  The genus
    defect is the per-vertex sum; its other routes (delta_N - D' and
    2 - M - D) are compared by the audit check `global-defect-routes`."""
    script_N = frozenset(ledger.per_vertex)
    script_D = frozenset(info.dicriticals)
    nd = frozenset(v for v in script_N if ledger.per_vertex[v].is_node)
    nd_star = frozenset(v for v in nd if ledger.per_vertex[v].d == 1)

    D = sum(info.degree[u] for u in script_D)
    D_prime = sum(info.degree[u] - 1 for u in script_D)
    delta_N = sum(ledger.per_vertex[v].delta for v in script_N)
    dt_sum = sum(ledger.per_vertex[v].delta_tilde for v in script_N)

    xi_N = sum(ledger.per_vertex[v].xi for v in script_N)
    genus = dt_sum // 2 if (dt_sum >= 0 and dt_sum % 2 == 0) else None

    return GlobalLedger(
        script_N=script_N,
        script_D=script_D,
        nd=nd,
        nd_star=nd_star,
        delta_N=delta_N,
        delta_tilde_N=dt_sum,
        xi_N=xi_N,
        D_of_T=D,
        D_prime_of_T=D_prime,
        genus=genus,
    )
