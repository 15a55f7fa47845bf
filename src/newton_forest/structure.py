"""Global structure: trivial chains, teeth, the skeleton, and comb decompositions.

A chain hanging off the positive subtree is "trivial" when its interior
vertices have exactly two positive neighbours and zero genus defect.  The
structure ledger walks the maximal trivial chain out of each vertex of
valency one once and keeps it (`walks`); the audit checks read those walks
rather than walk again.  The qualifying chains (the set Gamma) define
teeth, the vertex sets W / V / V-bar, the loose-end set Omega, the skeleton
S, and per-vertex tooth counts.  The comb test is a property of one
skeleton pair (v, f): v has two positive neighbours and R(v, [f]) < 1, or
three, R(v, [f]) = 0 and a tooth.  The ledger keeps the pairs that pass it
(`combs`), and the decomposition and the audit read that one set.  The comb
relation partitions the skeleton pairs into totally ordered classes.  The
decomposition relative to an initial vertex z comes from one breadth-first
search over the skeleton from z: each skeleton vertex u joins the class of
its neighbour p toward z when p's pair toward z is in `combs`, and starts a
class otherwise.  It carries per-class extremal pairs, the drop of the
characteristic number, the covered vertex sets, the quotient tree and its
shape statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .characteristic import CharacteristicTable, Pair, R_of
from .errors import InternalInconsistencyError, NotInitialVertexError
from .local_invariants import VertexLedger
from .tree_model import CellRef, DecoratedRootedTree, Edge


@dataclass(frozen=True)
class StructureLedger:
    Z: frozenset[CellRef]
    # the maximal trivial walk from each vertex of valency one in the
    # positive subtree, in id order of the starts
    walks: Mapping[CellRef, tuple[CellRef, ...]]
    Gamma: tuple[tuple[CellRef, ...], ...]  # trivial chains, one per start
    W: frozenset[CellRef]
    V: Mapping[CellRef, frozenset[CellRef]]
    V_bar: Mapping[CellRef, frozenset[CellRef]]
    Omega: frozenset[CellRef]
    is_brush: bool
    S: frozenset[CellRef]
    delta_star: Mapping[CellRef, int]
    t: Mapping[CellRef, int]
    teeth: frozenset[Pair]
    In: frozenset[CellRef]
    # the skeleton pairs (v, f), f an edge to a skeleton neighbour, that pass
    # the comb test; not rendered
    combs: frozenset[Pair]


def _maximal_trivial_walk(
    per, edges_at: Mapping[CellRef, tuple[Edge, ...]], start: CellRef
) -> tuple[CellRef, ...] | None:
    """The longest trivial chain out of a valency-one vertex of the positive
    subtree: interior cells must keep two positive neighbours and zero defect."""
    if per[start].epsilon != 1:
        return None
    (e,) = edges_at[start]
    prev, cur = start, e.other(start)
    cells = [start, cur]
    while per[cur].epsilon == 2 and per[cur].delta_tilde == 0:
        (e,) = [f for f in edges_at[cur] if prev not in f.ends]
        prev, cur = cur, e.other(cur)
        cells.append(cur)
    return tuple(cells)


def structure_ledger(
    tree: DecoratedRootedTree, ledger: VertexLedger, chars: CharacteristicTable
) -> StructureLedger:
    per = ledger.per_vertex
    script_N = set(per)

    Z = frozenset(
        z for z in script_N if per[z].epsilon == 1 and per[z].delta_tilde <= 0
    )

    walks: dict[CellRef, tuple[CellRef, ...]] = {}
    for start in sorted(script_N):
        walk = _maximal_trivial_walk(per, chars.edges_at, start)
        if walk is not None:
            walks[start] = walk
    gamma = [
        w
        for start, w in walks.items()
        if per[start].delta_tilde <= 0 < ledger.delta_tilde(w)
        and tree.parent(w[-2]) == w[-1]
    ]

    V = {v: frozenset() for v in sorted(script_N)}
    V_bar = {v: frozenset({v}) for v in sorted(script_N)}
    for w in gamma:
        V[w[-1]] |= {w[0]}
        V_bar[w[-1]] |= frozenset(w)
    W = frozenset(w[-1] for w in gamma)

    Omega = Z.difference(*V.values())
    is_brush = any(V_bar[w] == script_N for w in W)
    S = frozenset(script_N).difference(*(V_bar[w] - {w} for w in W))

    gamma_edges: set[Edge] = set()
    for w in gamma:
        for i in range(len(w) - 1):
            gamma_edges.add(tree.edge_between(w[i], w[i + 1]))
    t: dict[CellRef, int] = {}
    delta_star: dict[CellRef, int] = {}
    for v in sorted(script_N):
        n_edges = chars.edges_at[v]
        t[v] = sum(1 for e in n_edges if e in gamma_edges)
        delta_star[v] = len(n_edges) - t[v]

    teeth = frozenset(
        (w[-1], tree.edge_between(w[-1], w[-2])) for w in gamma
    )

    if Omega:
        initial = Omega
    else:
        initial = frozenset(v for v in S if delta_star[v] <= 1)

    # A pair above (v, f) in a skeleton chain comes in over a skeleton edge,
    # never a tooth, so at three positive neighbours any tooth at v sits on
    # the third edge: the comb test needs the pair alone.
    def comb(v: CellRef, f: Edge) -> bool:
        eps = per[v].epsilon
        if eps == 2:
            return R_of(ledger, chars, v, [f]) < 1
        return eps == 3 and v in W and R_of(ledger, chars, v, [f]) == 0

    combs = frozenset(
        (v, f) for v in S for f in chars.edges_at[v] if f.other(v) in S and comb(v, f)
    )

    return StructureLedger(
        Z=Z,
        walks=walks,
        Gamma=tuple(sorted(gamma)),
        W=W,
        V=V,
        V_bar=V_bar,
        Omega=Omega,
        is_brush=is_brush,
        S=S,
        delta_star=delta_star,
        t=t,
        teeth=teeth,
        In=initial,
        combs=combs,
    )


@dataclass(frozen=True)
class CombClass:
    pairs: tuple[Pair, ...]  # ascending: least element first
    c_dot: int
    Y: frozenset[CellRef]
    t_count: int

    @property
    def least(self) -> Pair:
        return self.pairs[0]

    @property
    def greatest(self) -> Pair:
        return self.pairs[-1]

    @property
    def u(self) -> CellRef:
        return self.pairs[-1][0]


@dataclass(frozen=True)
class CombStats:
    B: int
    L: int
    n1: int  # classes (other than the root class) whose top has skeleton valency 1
    n2: int
    n_gt2: int
    T: int
    x0: int
    x_C: tuple[int, ...]  # aligned with the non-root classes in class order
    H: int


@dataclass(frozen=True)
class CombDecomposition:
    z: CellRef
    O: tuple[Pair, ...]
    classes: tuple[CombClass, ...]
    c0_index: int | None
    quotient_edges: tuple[tuple[int, int], ...]
    stats: CombStats | None

    @property
    def u0(self) -> CellRef | None:
        return None if self.c0_index is None else self.classes[self.c0_index].u


def comb_decomposition(
    z: CellRef,
    ledger: VertexLedger,
    chars: CharacteristicTable,
    struct: StructureLedger,
) -> CombDecomposition:
    """Decompose the skeleton pairs pointing at `z` into comb classes.

    The classes are produced by joining each pair to the one below it when
    that lower pair is in `struct.combs`, and listed by the distance of
    their nearest vertex from `z`, ties by least cell id.  Their agreement with the
    pairwise comb relation is checked by the audit check `comb-relation`,
    and the statistics identity by `comb-decomposition`.
    """
    if z not in struct.In:
        raise NotInitialVertexError(f"{z!r} is not an initial vertex")

    # One breadth-first search from z over the skeleton, a subtree (the
    # check `skeleton-facts` holds it connected), walking script-E, gives
    # each skeleton vertex its neighbour toward z, its pair (the edge it was
    # reached by) and its distance from z.  In search order, every vertex
    # comes after its neighbour toward z.
    toward_z: dict[CellRef, CellRef] = {}
    pair_of: dict[CellRef, Pair] = {}
    dist = {z: 0}
    order = [z]
    for c in order:
        for e in chars.edges_at[c]:
            d = e.other(c)
            if d in struct.S and d not in dist:
                toward_z[d] = c
                pair_of[d] = (d, e)
                dist[d] = dist[c] + 1
                order.append(d)
    members = order[1:]
    if not members:
        return CombDecomposition(
            z=z, O=(), classes=(), c0_index=None, quotient_edges=(), stats=None
        )
    O = tuple(sorted(pair_of.values()))

    # The comb relation joins a vertex only to its neighbour p toward z,
    # whose class is settled by then: join it when p's pair toward z is a
    # comb pair, or start a class of its own.
    run_of: dict[CellRef, list[CellRef]] = {}
    runs: list[list[CellRef]] = []
    for u in members:
        p = toward_z[u]
        if p != z and pair_of[p] in struct.combs:
            run = run_of[p]
            run.append(u)
        else:
            run = [u]
            runs.append(run)
        run_of[u] = run
    runs.sort(key=lambda r: (dist[r[0]], min(r)))

    class_index_of = {u: i for i, run in enumerate(runs) for u in run}
    classes: list[CombClass] = []
    for run in runs:
        pairs = tuple(pair_of[u] for u in run)
        least, greatest = pairs[0], pairs[-1]
        c_drop = chars.pairs[least].c - chars.pairs[greatest].c
        u_C = greatest[0]
        Y = frozenset(
            struct.V_bar[u_C]
            | (chars.pairs[greatest].n_side - chars.pairs[least].n_side)
        )
        t_count = sum(1 for u in run[:-1] if struct.t[u] > 0)
        classes.append(
            CombClass(pairs=pairs, c_dot=int(c_drop), Y=Y, t_count=t_count)
        )

    z_prime = [u for u in members if toward_z[u] == z]
    if len(z_prime) != 1:
        raise InternalInconsistencyError(
            f"initial vertex {z!r} has {len(z_prime)} skeleton neighbours"
        )
    c0_index = class_index_of[z_prime[0]]

    quotient_edges = sorted(
        {
            tuple(sorted((class_index_of[u], class_index_of[toward_z[u]])))
            for u in members
            if toward_z[u] != z and class_index_of[u] != class_index_of[toward_z[u]]
        }
    )

    stats = None
    if len(classes) > 1:
        stats = _stats(ledger, chars, struct, classes, c0_index)
    return CombDecomposition(
        z=z,
        O=O,
        classes=tuple(classes),
        c0_index=c0_index,
        quotient_edges=tuple((a, b) for a, b in quotient_edges),
        stats=stats,
    )


def _stats(ledger, chars, struct, classes: Sequence[CombClass], c0: int) -> CombStats:
    per = ledger.per_vertex
    dt = ledger.delta_tilde
    u0_class = classes[c0]
    u0 = u0_class.u
    ds_u0 = struct.delta_star[u0]
    B = 2 if ds_u0 == 2 else 0
    L = sum(1 for v in struct.S if struct.delta_star[v] == 1)
    n1 = n2 = n_gt2 = 0
    T = 0
    x_C: list[int] = []
    for i, cls in enumerate(classes):
        if i == c0:
            continue
        ds = struct.delta_star[cls.u]
        tt = struct.t[cls.u]
        if ds == 1:
            n1 += 1
            T += max(0, tt - 2)
        elif ds == 2:
            n2 += 1
            T += max(0, tt - 1)
        else:
            n_gt2 += 1
            T += tt
        x_C.append(dt(struct.V_bar[cls.u]) - max(1, per[cls.u].epsilon - 2))

    x0 = dt(
        struct.V_bar[u0] | chars.pairs[u0_class.greatest].n_side
    ) - abs(ds_u0 - 3)
    H = B + 2 * (L - 2) + n2
    return CombStats(B=B, L=L, n1=n1, n2=n2, n_gt2=n_gt2, T=T, x0=x0, x_C=tuple(x_C), H=H)


def rooted_tree_H(n: int, edges: Sequence[tuple[int, int]], root: int) -> int:
    """2*(number of valency-1 vertices, root included) + (number of non-root
    valency-2 vertices) - 2, for an abstract rooted tree on 0..n-1."""
    val = [0] * n
    for a, b in edges:
        val[a] += 1
        val[b] += 1
    lam = sum(1 for v in range(n) if val[v] == 1)
    n2 = sum(1 for v in range(n) if v != root and val[v] == 2)
    return 2 * lam + n2 - 2


def quotient_tree_H(decomp: CombDecomposition) -> int:
    """H of the quotient tree.  The audit check `comb-decomposition` compares
    it with stats.H = B + 2(L-2) + n2."""
    if len(decomp.classes) <= 1:
        raise ValueError("the quotient statistic needs at least two classes")
    return rooted_tree_H(len(decomp.classes), decomp.quotient_edges, decomp.c0_index)
