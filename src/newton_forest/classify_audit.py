"""Rational-tree classification, canonical recognition, and the theorem audits.

The audit registry is data driven: every check carries an id, an
applicability predicate and an evaluator returning failure witnesses.  Each
check encodes a proven statement about valid minimally complete trees, so on
such input every applicable check passes; a failure therefore flags either an
engine bug or a report whose stored values were tampered with.  The
registry is the only place that re-checks a proven identity: the engine
modules compute and do not re-prove.  It doubles as the property suite run
over generated corpora.

One check is deliberately gated: the root-degree lower bound
delta_tilde(N) >= (deg(root)-1)(deg(root)-2) is checked only when the root
degree is at least 3 or the global defect is nonnegative.  Outside that
regime the bound is falsified by honest trees (the shipped two-vertex chain
fixture has root degree 1 with defect -4), so the gate reflects what is
actually provable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, NamedTuple

from .characteristic import R_of, R_table, node_h_products, rational_divides
from .errors import InternalInconsistencyError
from .multiplicity import VertexFold, source_multiplicities
from .report import Analysis
from .structure import quotient_tree_H
from .tree_model import CellRef, DecoratedRootedTree, Edge


class CheckResult(NamedTuple):
    check_id: str
    passed: bool
    witness: str = ""


class RootFanEdge(NamedTuple):
    edge: Edge
    far_end: CellRef
    a: int
    d: int
    k: int
    x: int


class RootFanData(NamedTuple):
    """Per-root-edge invariants in the one-skeleton-vertex case."""

    N: int
    delta: int  # root valency
    entries: tuple[RootFanEdge, ...]


@dataclass(frozen=True)
class CanonicalMatch:
    family: str  # "T_A" | "T_B" | "T_C"
    params: tuple[int, ...]

    def __str__(self) -> str:
        if not self.params:
            return self.family
        return f"{self.family}({','.join(map(str, self.params))})"


@dataclass(frozen=True)
class ClassificationReport:
    recognized: CanonicalMatch | None
    chain: tuple[CellRef, ...]  # empty for canonical trees
    trichotomy_case: str | None  # case at the chain end, when applicable
    nd_shape: str | None  # bare-chain / one-branch / two-branch, when Nd == Nd*
    clauses: tuple[CheckResult, ...]

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.clauses if not c.passed)


# ---------------------------------------------------------------------------
# basic classification


def is_rational_tree(analysis: Analysis) -> bool:
    """Zero global defect and coprime dicritical degrees."""
    degs = [analysis.info.degree[u] for u in sorted(analysis.glob.script_D)]
    return analysis.glob.delta_tilde_N == 0 and gcd(*degs) == 1


def divisor_trichotomy(analysis: Analysis, u: CellRef) -> str | None:
    """Classify the merged divisor tuple at `u` (requires every pair at `u`
    nonpositive): 'a' all-ones, 'b' two units, 'c' the (2,b,b) shape; None
    when no case matches, or when a = 0 leaves N/a undefined."""
    per = analysis.ledger.per_vertex[u]
    if not all(
        analysis.chars.pairs[(u, e)].nonpositive for e in analysis.chars.edges_at[u]
    ):
        raise ValueError(f"not every pair at {u!r} is nonpositive")
    if not per.a:
        return None
    N = analysis.table.N[u]
    parts: list[int] = [analysis.info.degree[x] for x in per.dicriticals]
    for e in analysis.chars.edges_at[u]:
        c = analysis.chars.pairs[(u, e)].c
        if c.denominator != 1:
            return None
        parts.append(int(c))
    parts.append(N // per.a)
    parts.sort()
    if any(p <= 0 or N % p for p in parts):
        return None
    if N == 1 and all(p == 1 for p in parts):
        return "a"
    m0 = sum(1 for p in parts if p < N)
    if len(parts) >= 2 and N >= 2 and parts[:2] == [1, 1] and m0 == 2:
        return "b"
    if len(parts) >= 3 and m0 == 3:
        b = N // 2
        if N == 2 * b and b % 2 == 1 and b >= 3 and parts[:3] == [2, b, b]:
            return "c"
    return None


def root_fan_data(analysis: Analysis) -> RootFanData:
    """The per-edge table at the root when the skeleton is a single vertex.

    The fan identity `defect = 2 + sum[(deg-2)a(e) - 1]d(e)` and the
    equivalence `defect > 0 <=> defect >= 2 <=> root valency > 2` are checked
    by `single-skeleton-fan`, the defect parity by `single-vertex-parity`.
    """
    if len(analysis.struct.S) != 1:
        raise ValueError("root fan data requires a single-vertex skeleton")
    tree = analysis.tree
    root = tree.root
    N = analysis.table.N[root]
    entries = []
    for e in tree.incident_edges(root):
        far = e.other(root)
        if far in analysis.info.dicriticals:
            a = analysis.table.fold.dead[far]  # its one dead end (axiom 2)
            d = analysis.info.degree[far]
        else:
            data = analysis.chars.pairs[(root, e)]
            if data.c.denominator != 1 or data.p % int(data.c):
                raise InternalInconsistencyError(
                    f"fan entries at {e} are not integral"
                )
            d = int(data.c)
            a = data.p // d
        if d <= 0 or N % d:
            raise InternalInconsistencyError(f"fan degree {d} does not divide {N}")
        entries.append(
            RootFanEdge(edge=e, far_end=far, a=a, d=d, k=N // d, x=e.q_near(far))
        )
    return RootFanData(N=N, delta=tree.valency(root), entries=tuple(entries))


# ---------------------------------------------------------------------------
# canonical recognition


def recognize_canonical(analysis: Analysis) -> CanonicalMatch | None:
    """Match against the three canonical families, up to cell renaming.

    Decorations must match exactly: T_A is the single degree-1 dicritical,
    T_B(a1,a2) the two coprime degree-1 dicriticals with crossed decorations,
    T_C(d1,d2,d3) the three-dicritical fan with its forced decorations.
    """
    tree = analysis.tree
    fold = analysis.table.fold
    info = analysis.info
    if len(analysis.glob.script_N) != 1:
        return None
    dics = sorted(info.dicriticals)
    if set(tree.neighbors(tree.root)) != set(dics):
        return None
    near = {}  # each dicritical's decoration on its root edge
    for u in dics:
        # each dicritical carries exactly its arrows, one dead end, one root
        # edge (to its parent, the root)
        arrows, ones = fold.arrows[u], fold.ones[u]
        if len(arrows) != ones + 1 or fold.children[u]:
            return None
        if any(q != 1 for _, q, _ in arrows[:ones]):
            return None
        _, near[u], q_root = fold.parent[u]
        if q_root != 1:
            return None
    a_value = fold.dead  # the one dead end's decoration

    if len(dics) == 1:
        u = dics[0]
        if info.degree[u] == 1 and a_value[u] == 1 and near[u] == 0:
            return CanonicalMatch("T_A", ())
        return None

    if len(dics) == 2:
        u1, u2 = dics
        a1, a2 = a_value[u1], a_value[u2]
        if (info.degree[u1], info.degree[u2]) != (1, 1) or gcd(a1, a2) != 1:
            return None
        if near[u1] != -a2 or near[u2] != -a1:
            return None
        return CanonicalMatch("T_B", tuple(sorted((a1, a2))))

    if len(dics) == 3:
        rows = sorted(
            (info.degree[u], u) for u in dics
        )
        d = tuple(deg for deg, _ in rows)
        if d not in ((1, 1, 1), (1, 1, 2), (1, 2, 3)):
            return None
        total = sum(d)
        for deg, u in rows:
            if a_value[u] != 1 or near[u] != -((total - deg) // deg):
                return None
        return CanonicalMatch("T_C", d)

    return None


# ---------------------------------------------------------------------------
# rational structure report


def _clause(out: list[CheckResult], cid: str, ok: bool, witness: str = "") -> None:
    out.append(CheckResult(cid, bool(ok), "" if ok else witness))


def rational_structure_report(analysis: Analysis) -> ClassificationReport:
    """Audit a rational tree against its proven global shape.

    Either the tree is canonical, or its skeleton is a single chain whose end
    behaviour, tooth budget and node types are all pinned down; every clause
    is evaluated and reported.
    """
    if not is_rational_tree(analysis):
        raise ValueError("not a rational tree")
    recognized = recognize_canonical(analysis)
    clauses: list[CheckResult] = []
    st = analysis.struct
    per = analysis.ledger.per_vertex
    tree = analysis.tree

    def chainless() -> ClassificationReport:
        return ClassificationReport(
            recognized=recognized,
            chain=(),
            trichotomy_case=None,
            nd_shape=None,
            clauses=tuple(clauses),
        )

    if len(st.S) == 1:
        _clause(
            clauses,
            "rational-canonical",
            recognized is not None,
            "single-skeleton rational tree is not canonical",
        )
        return chainless()

    _clause(clauses, "rational-omega", len(st.Omega) in (1, 2), f"Omega={sorted(st.Omega)}")

    if len(st.Omega) == 2 and not st.Gamma:
        # spanning trivial chain; orient it with the root away from the end
        ends = sorted(st.Omega)
        z = ends[0]
        chain = analysis.tree.path(z, ends[1])
        if chain[-1] == tree.root:
            chain = chain[::-1]
    else:
        # In = Omega = {z}; without a decomposition at z there is no chain
        z = min(st.Omega) if len(st.Omega) == 1 else None
        dec = analysis.decompositions.get(z)
        if dec is None:
            _clause(clauses, "rational-omega-decomposed", False,
                    f"Omega={sorted(st.Omega)} names no decomposed initial vertex")
            return chainless()
        _clause(clauses, "rational-one-comb", len(dec.classes) == 1,
                f"{len(dec.classes)} comb classes")
        chain = tree.path(z, dec.u0) if dec.u0 is not None else (z,)

    n = len(chain)
    _clause(clauses, "chain-nontrivial", n > 1, "chain has a single vertex")
    _clause(clauses, "chain-is-skeleton", set(chain) == set(st.S),
            f"chain {chain} != skeleton {sorted(st.S)}")
    _clause(clauses, "teeth-on-chain", st.W <= set(chain), f"W={sorted(st.W)}")

    z1, zn = chain[0], chain[-1]
    _clause(clauses, "first-not-toothed", z1 not in st.W, f"{z1!r} carries teeth")
    d1 = per[z1]
    if not d1.is_node:
        ok = z1 == tree.root and tree.valency(z1) == 1
        _clause(clauses, "first-end-bare", ok,
                f"non-node chain end {z1!r} is not a valency-1 root")
    else:
        typ = d1.type
        ok = typ == (d1.d,) + (analysis.table.N[z1],) * (len(typ) - 1) and (
            d1.d == analysis.table.N[z1] or d1.a == 1
        )
        _clause(clauses, "first-end-type", ok, f"type {typ} at {z1!r}")

    idx_v0 = chain.index(tree.root) if tree.root in chain else -1
    _clause(clauses, "root-on-chain", 0 <= idx_v0 < n - 1,
            f"root position {idx_v0} of {n}")
    toothed = [i for i in range(1, n - 1) if chain[i] in st.W]
    if toothed:
        _clause(clauses, "root-before-teeth", idx_v0 < min(toothed),
                f"root at {idx_v0}, first tooth at {min(toothed)}")
    _clause(clauses, "root-valency", tree.valency(tree.root) <= 2,
            f"root valency {tree.valency(tree.root)}")

    all_nonpos = all(
        analysis.chars.pairs[(zn, e)].nonpositive for e in analysis.chars.edges_at[zn]
    )
    _clause(clauses, "last-end-nonpositive", all_nonpos, f"at {zn!r}")
    tri = divisor_trichotomy(analysis, zn) if all_nonpos else None
    _clause(clauses, "last-end-trichotomy", tri is not None, f"at {zn!r}")
    _clause(clauses, "last-end-teeth", st.t[zn] in (0, 1, 2, 3), f"t={st.t[zn]}")
    _clause(clauses, "last-end-epsilon-prime", per[zn].epsilon_prime <= 4,
            f"epsilon'={per[zn].epsilon_prime}")

    for i in range(1, n - 1):
        v = chain[i]
        f = tree.edge_between(v, chain[i - 1])
        if (v, f) in st.combs:
            _clause(clauses, "interior-comb", True)
        else:
            r1 = R_of(analysis.ledger, analysis.chars, v, [f])
            _clause(clauses, "interior-comb", False,
                    f"{v!r}: epsilon={per[v].epsilon}, R={r1}")
        _clause(clauses, "interior-epsilon-prime", per[v].epsilon_prime <= 3,
                f"{v!r}: epsilon'={per[v].epsilon_prime}")

    for walk in st.Gamma:
        for x in walk[:-1]:
            ok = per[x].is_node and per[x].epsilon_prime <= 2
            _clause(clauses, "tooth-vertices", ok,
                    f"{x!r}: node={per[x].is_node}, epsilon'={per[x].epsilon_prime}")

    # unit-degree node budget and locations
    _clause(clauses, "ndstar-budget",
            len(analysis.glob.nd_star) <= analysis.glob.xi_N <= 2,
            f"|Nd*|={len(analysis.glob.nd_star)}, xi={analysis.glob.xi_N}")
    if len(st.Omega) == 1:
        allowed = {zn} | set(st.V[zn]) if zn in st.W else {zn}
        _clause(clauses, "ndstar-location", analysis.glob.nd_star <= allowed,
                f"Nd*={sorted(analysis.glob.nd_star)} allowed={sorted(allowed)}")
    elif len(st.Omega) == 2:
        _clause(clauses, "ndstar-location", analysis.glob.nd_star <= st.Omega,
                f"Nd*={sorted(analysis.glob.nd_star)}")

    nd_shape = None
    if analysis.glob.nd == analysis.glob.nd_star:
        nd_shape, shape_clauses = _nd_star_shape(analysis, chain)
        clauses.extend(shape_clauses)

    return ClassificationReport(
        recognized=recognized,
        chain=chain,
        trichotomy_case=tri,
        nd_shape=nd_shape,
        clauses=tuple(clauses),
    )


def _nd_star_shape(analysis: Analysis, chain) -> tuple[str | None, list[CheckResult]]:
    """The three permitted pictures when every node has unit degree gcd."""
    out: list[CheckResult] = []
    st = analysis.struct
    per = analysis.ledger.per_vertex
    tree = analysis.tree
    zn = chain[-1]
    N_of = analysis.table.N

    if len(st.Omega) == 2:
        n = len(chain)
        ok = n in (2, 3) and (n != 3 or chain[1] == tree.root)
        _clause(out, "ndstar-shape-endpoints", ok, f"n={n}")
        _clause(out, "ndstar-shape-a", all(per[v].a == 1 for v in chain),
                "a-value above 1 on the chain")
        ok = analysis.glob.nd == {chain[0], chain[-1]}
        _clause(out, "ndstar-shape-nodes", ok, f"nodes {sorted(analysis.glob.nd)}")
        for v in (chain[0], chain[-1]):
            typ = per[v].type
            want = (1,) + (N_of[v],) * (len(typ) - 1)
            ok = typ == want and ((len(typ) == 1) == (v == tree.root))
            _clause(out, "ndstar-shape-types", ok, f"{v!r}: type {typ}")
        return "two-ended", out

    teeth_at_end = sorted(st.V[zn]) if zn in st.W else []
    shape = {0: "bare-chain", 1: "one-branch", 2: "two-branch"}.get(len(teeth_at_end))
    _clause(out, "ndstar-shape-branches", shape is not None,
            f"{len(teeth_at_end)} branches at {zn!r}")
    _clause(out, "ndstar-shape-root", chain[0] == tree.root and tree.valency(tree.root) == 1,
            f"root {tree.root!r} vs chain start {chain[0]!r}")
    for y in teeth_at_end:
        ok = tree.path(y, zn) == (y, zn)
        _clause(out, "ndstar-shape-adjacent", ok, f"branch {y!r} not adjacent to {zn!r}")
        typ = per[y].type
        _clause(out, "ndstar-shape-branch-type",
                typ == (1,) + (N_of[y],) * (len(typ) - 1), f"{y!r}: type {typ}")
    expected_nodes = set(teeth_at_end) | ({zn} if per[zn].is_node else set())
    _clause(out, "ndstar-shape-node-set", analysis.glob.nd == expected_nodes,
            f"nodes {sorted(analysis.glob.nd)}")
    if per[zn].is_node:
        ok = per[zn].type in ((1,), (1, 1)) and not (
            len(teeth_at_end) == 1 and per[zn].type == (1, 1)
        )
        _clause(out, "ndstar-shape-end-type", ok, f"{zn!r}: type {per[zn].type}")
    if len(teeth_at_end) == 2:
        _clause(out, "ndstar-shape-end-nodes", set(teeth_at_end) == set(analysis.glob.nd),
                f"nodes {sorted(analysis.glob.nd)}")
    return shape, out


# ---------------------------------------------------------------------------
# theorem audits

Check = tuple[str, Callable[[Analysis], bool], Callable[[Analysis], list[str]]]


def _always(_: Analysis) -> bool:
    return True


def _chk_mult_bounds(a: Analysis) -> list[str]:
    n_ones = len(a.tree.arrows1)
    root_N = a.table.N[a.tree.root]
    pts = a.table.points_at_infinity
    if not (root_N >= n_ones >= pts >= 1):
        return [f"N(root)={root_N}, arrows={n_ones}, points={pts}"]
    return []


def _chk_connected(a: Analysis) -> list[str]:
    out = []
    nonneg = [v for v in a.tree.vertices if a.table.N[v] >= 0]
    pos = [v for v in a.tree.vertices if a.table.N[v] > 0]
    if not a.tree.connected(nonneg):
        out.append("nonnegative-multiplicity vertices are disconnected")
    if not a.tree.connected(pos):
        out.append("positive-multiplicity vertices are disconnected")
    return out


def _chk_dead_end_mult(a: Analysis) -> list[str]:
    out = []
    N, fold = a.table.N, a.table.fold
    for v in sorted(fold.order):
        for alpha, q, _ in fold.arrows[v][fold.ones[v]:]:
            if N[v] != q * N[alpha]:
                out.append(f"{v!r}: N={N[v]} != {q}*N({alpha!r})")
    return out


def _chk_unit_edge(a: Analysis) -> list[str]:
    # each vertex edge from the parent x to the child y; the witnesses in
    # the order of the tree's edges
    fold, N, info = a.table.fold, a.table.N, a.info
    failed = []
    for y, (x, _, _) in fold.parent.items():
        if N[x] == 1 and (
            y not in info.dicriticals or info.degree[y] != 1 or fold.determinant(x, y) != -1
        ):
            failed.append((a.tree.edge_between(x, y), x))
    return [
        f"edge {e}: N({x!r})=1 but far end is not a unit dicritical"
        for e, x in sorted(failed)
    ]


def _linear_paths(fold: VertexFold) -> list[tuple[CellRef, CellRef, CellRef, CellRef]]:
    """(v, v', first, last) for every path v..v' between vertices, v < v',
    whose inner cells all have valency 2; first and last are the cells next
    to v and v' on it.  Sorted by (v, v')."""
    out = []
    for v in fold.order:
        for first, _, _ in fold.vertex_edges(v):
            prev, cur = v, first
            while True:
                if v < cur:
                    out.append((v, cur, first, prev))
                ahead = fold.vertex_edges(cur)
                if len(ahead) + len(fold.arrows[cur]) != 2:
                    break
                beyond = [n for n, _, _ in ahead if n != prev]
                if not beyond:  # cur's other edge leads to an arrow
                    break
                prev, cur = cur, beyond[0]
    out.sort()
    return out


def _chk_linear_paths(a: Analysis) -> list[str]:
    # both determinant identities on every linear path between vertices; the
    # x-hat sums over the arrows on each side are F of its two end edges
    out = []
    fold, N, F = a.table.fold, a.table.N, a.table.F
    for v, vp, first, last in _linear_paths(fold):
        q, Q = fold.near(v, first)
        qp, Qp = fold.near(vp, last)
        det = q * qp - Q * Qp
        if (
            q * N[vp] - Qp * N[v] != det * F[v, first]
            or qp * N[v] - Q * N[vp] != det * F[vp, last]
        ):
            out.append(f"linear path {v!r}..{vp!r}")
    return out


def _chk_dicritical_apart(a: Analysis) -> list[str]:
    out = []
    for u in sorted(a.info.dicriticals):
        if a.info.degree[u] < 1:
            out.append(f"dicritical {u!r} has degree {a.info.degree[u]}")
        for n in a.tree.neighbors(u):
            if n in a.info.dicriticals:
                out.append(f"adjacent dicriticals {u!r}, {n!r}")
    if a.tree.root in a.info.dicriticals:
        out.append("root is dicritical")
    return out


def _chk_node_factorization(a: Analysis) -> list[str]:
    out = []
    for v, d in sorted(a.ledger.per_vertex.items()):
        for u in d.dicriticals:
            if d.k[u] < 1 or a.table.N[v] != d.k[u] * a.info.degree[u]:
                out.append(f"{v!r}/{u!r}: N={a.table.N[v]}, k={d.k[u]}, d={a.info.degree[u]}")
    return out


def _chk_epsilon_r(a: Analysis) -> list[str]:
    out = []
    for v, d in sorted(a.ledger.per_vertex.items()):
        if d.epsilon != d.r + 1 - len(d.dicriticals):
            out.append(f"{v!r}: epsilon={d.epsilon}, r={d.r}, |D_v|={len(d.dicriticals)}")
    return out


def _chk_delta_formulas(a: Analysis) -> list[str]:
    out = []
    for v, d in sorted(a.ledger.per_vertex.items()):
        if not d.a:
            out.append(f"{v!r}: N/a undefined")
            continue
        N = a.table.N[v]
        via_sigma = d.sigma + (d.epsilon - 2) * (N - 1) + (N - N // d.a)
        via_delta = d.delta - sum(du - 1 for du in d.type)
        if not (d.delta_tilde == via_sigma == via_delta):
            out.append(f"{v!r}: stored {d.delta_tilde}, formulas {via_sigma}/{via_delta}")
    return out


def _chk_unit_vertex(a: Analysis) -> list[str]:
    out = []
    for v, d in sorted(a.ledger.per_vertex.items()):
        if a.table.N[v] == 1:
            ok = (
                d.delta_tilde == 0
                and d.sigma == 0
                and d.a == 1
                and d.epsilon <= 1
                and d.is_node
                and all(t == 1 for t in d.type)
            )
            if not ok:
                out.append(f"{v!r}")
    return out


def _chk_epsilon_sign(a: Analysis) -> list[str]:
    out = []
    for v, d in sorted(a.ledger.per_vertex.items()):
        if d.epsilon > 2 and not d.delta_tilde > 0:
            out.append(f"{v!r}: epsilon={d.epsilon}, defect {d.delta_tilde}")
        if d.delta_tilde < 0 and d.epsilon not in (0, 1):
            out.append(f"{v!r}: defect {d.delta_tilde}, epsilon={d.epsilon}")
    return out


def _chk_sigma_ratio(a: Analysis) -> list[str]:
    # sigma/N = sum of 1 - 1/k over the dicriticals at v, times N*lcm(k)
    out = []
    for v, d in sorted(a.ledger.per_vertex.items()):
        ks = [d.k[u] for u in d.dicriticals]
        if 0 in ks:
            out.append(f"{v!r}: 1/k undefined")
            continue
        L = lcm(*ks)
        N = a.table.N[v]
        if d.sigma * L != N * sum(L - L // k for k in ks):
            lhs = Fraction(d.sigma, N) if N else f"{d.sigma}/0"
            rhs = sum((1 - Fraction(1, k) for k in ks), Fraction(0))
            out.append(f"{v!r}: sigma/N={lhs} != {rhs}")
    return out


def _chk_low_end(a: Analysis) -> list[str]:
    out = []
    for v, d in sorted(a.ledger.per_vertex.items()):
        if d.epsilon == 1 and d.delta_tilde <= 0:
            N = a.table.N[v]
            if (1 - d.delta_tilde) * d.a != d.d:
                out.append(f"{v!r}: defect {d.delta_tilde} != 1 - d/a")
            if d.is_node:
                want = (d.d,) + (N,) * (len(d.type) - 1)
                if tuple(sorted(want)) != d.type:
                    out.append(f"{v!r}: type {d.type} not [d,N,...,N]")
                if d.d != N and d.a != 1:
                    out.append(f"{v!r}: d != N but a={d.a}")
                if sum(1 for u in d.dicriticals if d.k[u] > 1) > 1:
                    out.append(f"{v!r}: several k above 1")
    return out


def _chk_d_divides(a: Analysis) -> list[str]:
    out = []
    for v, d in sorted(a.ledger.per_vertex.items()):
        N = a.table.N[v]
        if d.d <= 0 or N % d.d:
            out.append(f"{v!r}: d={d.d} does not divide N={N}")
        if (d.d == N) != (d.sigma == 0):
            out.append(f"{v!r}: d=N iff sigma=0 failed")
    return out


def _chk_xi_sigma(a: Analysis) -> list[str]:
    out = []
    for v, d in sorted(a.ledger.per_vertex.items()):
        bound = d.xi * (a.table.N[v] - 1)
        if d.sigma < bound:
            out.append(f"{v!r}: sigma={d.sigma} < xi(N-1)={bound}")
        if (d.sigma == bound) != d.pure:
            out.append(f"{v!r}: equality/purity mismatch")
    return out


def _chk_global_routes(a: Analysis) -> list[str]:
    g = a.glob
    dt_sum = sum(a.ledger.per_vertex[v].delta_tilde for v in g.script_N)
    routes = {
        "sum": dt_sum,
        "corrected": g.delta_N - g.D_prime_of_T,
        "euler": 2 - a.table.M_of_T - g.D_of_T,
        "stored": g.delta_tilde_N,
    }
    if len(set(routes.values())) != 1:
        return [", ".join(f"{k}={v}" for k, v in routes.items())]
    return []


def _chk_ndstar_bound(a: Analysis) -> list[str]:
    out = []
    g = a.glob
    bound = 2 + max(0, g.delta_tilde_N)
    if not (len(g.nd_star) <= g.xi_N <= bound):
        out.append(f"|Nd*|={len(g.nd_star)}, xi={g.xi_N}, bound={bound}")
    per = a.ledger.per_vertex
    if g.xi_N == bound:
        for x in sorted(g.nd_star):
            if not (per[x].pure and per[x].a == 1):
                out.append(f"xi extremal but {x!r} impure or a>1")
    if len(g.nd_star) == bound:
        for x in sorted(g.nd_star):
            want = (1,) + (a.table.N[x],) * (len(per[x].type) - 1)
            if per[x].type != tuple(sorted(want)) or per[x].a != 1:
                out.append(f"count extremal but {x!r} has type {per[x].type}")
    return out


def _chk_root_facts(a: Analysis) -> list[str]:
    out = []
    root = a.tree.root
    fold = a.table.fold
    if fold.arrows[root]:
        out.append("arrow adjacent to root")
    if fold.dead[root] != 1:
        out.append(f"a(root)={fold.dead[root]}")
    if a.tree.valency(root) != a.table.points_at_infinity:
        out.append("root valency != points at infinity")
    if root not in a.glob.script_N:
        out.append("root multiplicity not positive")
    return out


def _gate_root_degree(a: Analysis) -> bool:
    # The bound is provable for root valency >= 3 and trivially true for
    # nonnegative defect; outside that it fails on honest trees (e.g. the
    # shipped T_D), so it is not audited there.
    return a.tree.valency(a.tree.root) >= 3 or a.glob.delta_tilde_N >= 0


def _chk_root_degree(a: Analysis) -> list[str]:
    delta = a.tree.valency(a.tree.root)
    dt = a.glob.delta_tilde_N
    # This is also delta <= (3 + sqrt(1 + 4 dt)) / 2, since
    # (2 delta - 3)^2 = 4 (delta - 1)(delta - 2) + 1.
    if dt < (delta - 1) * (delta - 2):
        return [f"defect {dt} < ({delta}-1)({delta}-2)"]
    return []


def _chk_char_divides(a: Analysis) -> list[str]:
    out = []
    near = a.table.fold.near
    for (u, e), data in a.chars.pairs.items():
        N = a.table.N[u]
        c = data.c
        if c.numerator <= 0:
            out.append(f"{u}|{e}: c={c} not positive")
        for name, val in (("p", data.p), ("p'", data.p_prime), ("N", N)):
            if not rational_divides(c, val):
                out.append(f"{u}|{e}: c does not divide {name}={val}")
        if data.M < 1 or N * c.denominator != data.M * c.numerator:
            out.append(f"{u}|{e}: M={data.M}")
        if N != near(u, e.other(u))[1] * data.p + e.q_near(u) * data.p_prime:
            out.append(f"{u}|{e}: N != Q*p + q*p'")
    return out


def _chk_M_one_order(a: Analysis) -> list[str]:
    out = []
    for (u, e), data in sorted(a.chars.pairs.items(), key=lambda kv: str(kv[0])):
        if data.M == 1 and a.tree.parent(u) != e.other(u):
            out.append(f"{u}|{e}: M=1 but u is not above")
    return out


def _dead_end_products(fold: VertexFold, u: CellRef) -> dict[CellRef, int]:
    """For every vertex x, the product of the dead-end values a over the path
    x..u leaving out u, carried outward from u (a vertex has at most one dead
    end, so a is the fold's `dead`)."""
    dead = fold.dead
    alpha = {u: 1}
    walk = [u]
    for x in walk:
        for y, _, _ in fold.vertex_edges(x):
            if y not in alpha:
                alpha[y] = alpha[x] * dead[y]
                walk.append(y)
    return alpha


def _chk_char_chain_div(a: Analysis) -> list[str]:
    # alpha(x, u) c(u, e) divides c at every pair (x, f) below (u, e), and
    # d(z) at every node z on the n-side of (u, e)
    out = []
    pairs = a.chars.pairs
    per = a.ledger.per_vertex
    alpha = {u: _dead_end_products(a.table.fold, u) for u in {u for u, _ in pairs}}
    for top, dtop in pairs.items():
        u, side, c = top[0], dtop.n_side, dtop.c
        for bot, dbot in pairs.items():
            x = bot[0]
            if x in side and u not in dbot.n_side and bot != top:
                if not rational_divides(alpha[u][x] * c, dbot.c):
                    out.append(f"{x}|{bot[1]} under {u}|{top[1]}")
        for z in sorted(a.glob.nd & side):
            if not rational_divides(alpha[u][z] * c, per[z].d):
                out.append(f"d({z!r}) under {u}|{top[1]}")
    return out


def _dicritical_sums(
    a: Analysis,
) -> Iterator[tuple[CellRef, CellRef, int, int, int, int]]:
    """(z, w, sum of x, sum of x-hat, h, h-hat) for every node z and base
    vertex w, in that order, over the set A of (1)-arrows at z's
    dicriticals.  A reaches each pass as the fold terms at those vertices:
    one pass over the vertices per node gives N[w], the sum of x, and the F
    of w's vertex edges, whose sum with the number of w's arrows in A is the
    sum of x-hat; one walk out from the hull of A gives h and h-hat."""
    fold = a.table.fold
    ones = fold.ones
    # each base with the keys of F on its vertex edges
    bases = [(w, [(w, n) for n, _, _ in fold.vertex_edges(w)]) for w in sorted(fold.order)]
    for z in sorted(a.glob.nd):
        sources = frozenset(a.ledger.per_vertex[z].dicriticals)
        N, F = source_multiplicities(fold, sources)
        hs = node_h_products(fold, sources)
        for w, keys in bases:
            sxh = sum(map(F.__getitem__, keys))
            if w in sources:
                sxh += ones[w]
            h, h_hat = hs[w]
            yield z, w, N[w], sxh, h, h_hat


def _chk_dic_sum_div(a: Analysis) -> list[str]:
    # d | sx/a is tested in integers as (d a) | sx, the dead-end value a
    # being nonzero; a vertex has at most one dead end (axiom 2), so a is
    # the fold's product of dead-end decorations
    out = []
    per = a.ledger.per_vertex
    a_value = a.table.fold.dead
    for z, w, sx, sxh, h, h_hat in _dicritical_sums(a):
        d = per[z].d
        if not rational_divides(h * d, sx) or not rational_divides(h_hat * d, sxh):
            out.append(f"node {z!r}, base {w!r}")
        if not rational_divides(d * a_value[w], sx):
            out.append(f"node {z!r}, base {w!r}: sum/a not divisible")
    return out


def _chk_R_identity(a: Analysis) -> list[str]:
    # R + (epsilon - |A| - 1)(1 - 1/N) = 1 + (Delta-bar - 1 - sum eta)/N,
    # multiplied through by N*L
    out = []
    per = a.ledger.per_vertex
    for u in sorted(per):
        N = a.table.N[u]
        table = R_table(a.ledger, a.chars, u)
        if table is None:
            out.append(f"{u!r}: R undefined")
            continue
        L, base, rows = table
        for size in range(0, min(3, len(rows)) + 1):
            for A in combinations(rows.values(), size):
                R = base + sum(term for term, _, _ in A)
                bar = per[u].delta_tilde + sum(side for _, _, side in A)
                eta_sum = sum(eta for _, eta, _ in A)
                lhs = N * R + (per[u].epsilon - size - 1) * (N - 1) * L
                rhs = N * L + (bar - 1) * L - eta_sum
                if lhs != rhs:
                    out.append(f"{u!r}, |A|={size}")
                    break
    return out


def _chk_global_R(a: Analysis) -> list[str]:
    # Delta-tilde(N) = (R(u, all edges) - 2) N + 2 + sum eta, multiplied
    # through by L
    out = []
    dt_N = a.glob.delta_tilde_N
    for u in sorted(a.ledger.per_vertex):
        table = R_table(a.ledger, a.chars, u)
        if table is None:
            out.append(f"{u!r}: R undefined")
            continue
        L, base, rows = table
        R = base + sum(term for term, _, _ in rows.values())
        eta_sum = sum(eta for _, eta, _ in rows.values())
        if dt_N * L != (R - 2 * L) * a.table.N[u] + 2 * L + eta_sum:
            out.append(f"{u!r}")
    return out


def _chk_eta_nonneg(a: Analysis) -> list[str]:
    return [
        f"{u}|{e}: eta={data.eta}"
        for (u, e), data in sorted(a.chars.pairs.items(), key=lambda kv: str(kv[0]))
        if data.eta < 0
    ]


def _chk_monotonic(a: Analysis) -> list[str]:
    out = []
    pairs = a.chars.pairs
    for top, dtop in pairs.items():
        dt_top = dtop.side_dt
        for bot, dbot in pairs.items():
            if bot == top or not a.chars.precedes(bot, top):
                continue
            dt_bot = dbot.side_dt
            if not dbot.n_side <= dtop.n_side:
                out.append(f"{bot} !<= {top}: side sets")
            if not (dtop.c <= dbot.c and dtop.eta >= dbot.eta and dt_top >= dt_bot):
                out.append(f"{bot} / {top}: monotonicity")
            if dt_top - dt_bot != (dbot.c - dtop.c) + (dtop.eta - dbot.eta):
                out.append(f"{bot} / {top}: difference identity")
    return out


def _chk_nonpositive_iff(a: Analysis) -> list[str]:
    out = []
    for pair, data in sorted(a.chars.pairs.items(), key=lambda kv: str(kv[0])):
        dt = data.side_dt
        nonpos = dt <= 0
        if data.nonpositive != nonpos:
            out.append(f"{pair}: stored flag")
        if nonpos != (data.eta == 0):
            out.append(f"{pair}: nonpositive vs eta")
        if nonpos and (1 - dt) * data.c.denominator != data.c.numerator:
            out.append(f"{pair}: defect != 1 - c")
        if nonpos and (data.c.denominator != 1 or data.c < 1):
            out.append(f"{pair}: c={data.c} not a positive integer")
    return out


def _chk_sharp_bound(a: Analysis) -> list[str]:
    out = []
    per = a.ledger.per_vertex
    for u in sorted(per):
        d = per[u]
        k_big = sum(1 for x in d.dicriticals if d.k[x] > 1)
        m_big = sum(1 for e in a.chars.edges_at[u] if a.chars.pairs[(u, e)].M > 1)
        sharp = k_big + d.a_star + m_big
        hi = max(3, a.glob.delta_tilde_N + 2)
        if not (k_big + d.a_star + d.epsilon - 1 <= sharp <= hi):
            out.append(f"{u!r}: #={sharp}")
    return out


def _chk_trivial_chain_c(a: Analysis) -> list[str]:
    out = []
    per = a.ledger.per_vertex
    for start, walk in a.struct.walks.items():
        if not per[start].a:
            out.append(f"chain from {start!r}: d/a undefined")
            continue
        want = Fraction(per[start].d, per[start].a)
        for i in range(1, len(walk)):
            e = a.tree.edge_between(walk[i], walk[i - 1])
            if a.chars.pairs[(walk[i], e)].c != want:
                out.append(f"chain from {start!r} at {walk[i]!r}")
    return out


def _chk_tooth_facts(a: Analysis) -> list[str]:
    out = []
    per = a.ledger.per_vertex
    for u, e in sorted(a.struct.teeth, key=str):
        data = a.chars.pairs[(u, e)]
        dt = data.side_dt
        ok = (
            data.nonpositive
            and data.eta == 0
            and (1 - dt) * data.c.denominator == data.c.numerator
            and dt + per[u].delta_tilde > 0
            and data.M > 1
        )
        if not ok:
            out.append(f"tooth {u}|{e}")
    # A descending maximal trivial walk from a start of defect <= 0 qualifies
    # exactly when its far end has positive defect.
    for start, walk in a.struct.walks.items():
        if per[start].delta_tilde > 0:
            continue
        if a.tree.parent(walk[-2]) == walk[-1]:
            if (walk in a.struct.Gamma) != (per[walk[-1]].delta_tilde > 0):
                out.append(f"walk from {start!r}: Gamma membership")
    return out


def _chk_brush_W(a: Analysis) -> list[str]:
    out = []
    if a.struct.is_brush:
        return out
    dt = a.ledger.delta_tilde
    per = a.ledger.per_vertex
    for w in sorted(a.struct.W):
        if not per[w].epsilon > len(a.struct.V[w]):
            out.append(f"{w!r}: epsilon <= |V|")
        if dt(a.struct.V_bar[w]) < max(1, per[w].epsilon - 2):
            out.append(f"{w!r}: defect of covered set too small")
    return out


def _chk_omega(a: Analysis) -> list[str]:
    out = []
    st = a.struct
    per = a.ledger.per_vertex
    if len(st.Omega) > 2:
        out.append(f"|Omega|={len(st.Omega)}")
    spanning = next((w for w in st.walks.values() if per[w[-1]].epsilon == 1), None)
    if len(st.Omega) == 2:
        if spanning is None:
            out.append("two loose ends without a spanning trivial chain")
        else:
            ends = {spanning[0], spanning[-1]}
            if set(spanning) != set(per) or st.Omega != ends:
                out.append("loose ends are not the chain ends")
            if any(per[x].delta_tilde > 0 for x in ends):
                out.append("loose end with positive defect")
            if a.glob.delta_tilde_N > 0:
                out.append("two loose ends with positive global defect")
    if spanning is None:
        if len(st.Omega) > 1:
            out.append("no spanning chain but several loose ends")
        for z in sorted(st.Omega):
            walk = st.walks.get(z)
            if walk is None or a.tree.parent(walk[-1]) != walk[-2]:
                out.append(f"maximal chain from {z!r} does not ascend")
    return out


def _chk_skeleton(a: Analysis) -> list[str]:
    out = []
    st = a.struct
    g = a.glob
    if not st.S:
        out.append("empty skeleton")
    if a.tree.root not in st.S:
        out.append("root outside the skeleton")
    if not st.W <= st.S:
        out.append("toothed vertices outside the skeleton")
    if not st.Omega <= st.S:
        out.append("loose ends outside the skeleton")
    if not a.tree.connected(st.S):
        out.append("skeleton disconnected")
    covered: set[str] = set()
    for v in sorted(st.S):
        bar = st.V_bar[v]
        if covered & bar:
            out.append(f"covered sets overlap at {v!r}")
        covered |= bar
    if covered != g.script_N:
        out.append("covered sets do not partition the positive subtree")
    if (len(st.S) == 1) != (st.is_brush or len(g.script_N) == 1):
        out.append("single-skeleton criterion failed")
    if st.Omega == st.S and len(st.Omega) != 2:
        out.append("Omega equals the skeleton but is not a pair")
    if not st.In or not all(st.delta_star[z] <= 1 for z in st.In):
        out.append("initial vertices missing or with high skeleton valency")
    for v in sorted(g.script_N):
        eps = a.ledger.per_vertex[v].epsilon
        if st.delta_star[v] + st.t[v] != eps:
            out.append(f"{v!r}: delta*+t != epsilon")
        if v not in st.S and st.delta_star[v] != 0:
            out.append(f"{v!r}: off-skeleton vertex with skeleton edges")
        if v in st.S:
            # on the skeleton, a type-Gamma edge at v is the same as a tooth
            if (st.t[v] > 0) != (v in st.W):
                out.append(f"{v!r}: tooth count vs W")
            if st.t[v] > 0 and st.t[v] != len(st.V[v]):
                out.append(f"{v!r}: tooth count vs |V|")
        if v in st.W and not a.ledger.per_vertex[v].delta_tilde > 0:
            out.append(f"{v!r}: toothed vertex with nonpositive defect")
    return out


def _chk_brush_defect(a: Analysis) -> list[str]:
    if a.struct.is_brush and a.glob.delta_tilde_N < 2:
        return [f"brush with defect {a.glob.delta_tilde_N}"]
    return []


def _gate_fan(a: Analysis) -> bool:
    return len(a.struct.S) == 1


def _chk_fan(a: Analysis) -> list[str]:
    out = []
    try:
        fan = root_fan_data(a)
    except InternalInconsistencyError as exc:
        return [str(exc)]
    N = fan.N
    dt = a.glob.delta_tilde_N
    for en in fan.entries:
        if en.a < 1 or en.d < 1 or en.k < 1 or N != en.k * en.d:
            out.append(f"entry at {en.edge}")
    if N != sum(en.a * en.d for en in fan.entries):
        out.append("N != sum a*d")
    if dt != 2 + sum(((fan.delta - 2) * en.a - 1) * en.d for en in fan.entries):
        out.append("fan defect identity failed")
    if not ((dt > 0) == (dt >= 2) == (fan.delta > 2)):
        out.append("fan defect/valency equivalence failed")
    degs = [a.info.degree[u] for u in sorted(a.glob.script_D)]
    if degs and gcd(*degs) == 1 and gcd(*(en.d for en in fan.entries)) != 1:
        out.append("degree gcd transfer failed")
    # an entry with k < 1 fails its clause above and leaves no 1/k to sum
    if all(en.k >= 1 for en in fan.entries):
        edges_at_root = a.chars.edges_at.get(a.tree.root, ())
        R = R_of(a.ledger, a.chars, a.tree.root, edges_at_root)
        if R != sum((1 - Fraction(1, en.k) for en in fan.entries), Fraction(0)):
            out.append("R(root) != sum(1 - 1/k)")
    if fan.delta > 3:
        sum_d = sum(en.d for en in fan.entries)
        if not (
            fan.delta <= fan.delta * (fan.delta - 3) <= (fan.delta - 3) * sum_d <= dt - 2
        ):
            out.append("high-valency inequality chain failed")
    return out


def _gate_single_N(a: Analysis) -> bool:
    return len(a.glob.script_N) == 1


def _chk_parity(a: Analysis) -> list[str]:
    if a.glob.delta_tilde_N % 2 != 0:
        return [f"odd defect {a.glob.delta_tilde_N} on a single positive vertex"]
    return []


def _chk_decompositions(a: Analysis) -> list[str]:
    out = []
    st = a.struct
    per = a.ledger.per_vertex
    dt = a.ledger.delta_tilde
    dt_N = a.glob.delta_tilde_N
    for z in sorted(a.decompositions):
        dec = a.decompositions[z]
        tag = f"z={z!r}"
        if set(dec.O) != {p for cls in dec.classes for p in cls.pairs}:
            out.append(f"{tag}: classes do not partition the pair set")
        total_pairs = sum(len(cls.pairs) for cls in dec.classes)
        if total_pairs != len(dec.O):
            out.append(f"{tag}: classes overlap")
        for ci, cls in enumerate(dec.classes):
            for i in range(len(cls.pairs) - 1):
                if not a.chars.precedes(cls.pairs[i], cls.pairs[i + 1]):
                    out.append(f"{tag}: class {ci} not totally ordered")
            drop = a.chars.pairs[cls.least].c - a.chars.pairs[cls.greatest].c
            if drop != cls.c_dot or cls.c_dot < 0:
                out.append(f"{tag}: class {ci} drop mismatch")
            if not 0 <= cls.t_count <= cls.c_dot:
                out.append(f"{tag}: class {ci} tooth budget")
            if dt(cls.Y) != dt(st.V_bar[cls.u]) + cls.c_dot:
                out.append(f"{tag}: class {ci} covered-defect identity")
            interior_flat = all(
                per[x].epsilon == 2 and per[x].delta_tilde == 0
                for x, _ in cls.pairs[:-1]
            )
            if (cls.c_dot == 0) != interior_flat:
                out.append(f"{tag}: class {ci} zero-drop criterion")
            if len(st.Omega) <= 1:
                if dt(st.V_bar[cls.u]) < max(1, per[cls.u].epsilon - 2):
                    out.append(f"{tag}: class {ci} covered-defect bound")
            elif dt(st.V_bar[cls.u]) >= max(1, per[cls.u].epsilon - 2):
                out.append(f"{tag}: class {ci} bound should fail with two loose ends")
            ds = st.delta_star[cls.u]
            top_side = dt(st.V_bar[cls.u] | a.chars.pairs[cls.greatest].n_side)
            if ds >= 2 and top_side < abs(ds - 3):
                out.append(f"{tag}: class {ci} upward bound")
            if ds >= 3 and top_side == ds - 3:
                e_top = cls.greatest[1]
                r1 = R_of(a.ledger, a.chars, cls.u, [e_top])
                if (
                    r1 != 0
                    or st.t[cls.u] != 0
                    or not a.chars.pairs[cls.greatest].nonpositive
                    or a.tree.parent(cls.u) != e_top.other(cls.u)
                ):
                    out.append(f"{tag}: class {ci} tight-bound consequences")
        covered: set[str] = set()
        for cls in dec.classes:
            if covered & cls.Y:
                out.append(f"{tag}: covered sets overlap")
            covered |= cls.Y
        want = set(a.glob.script_N) - set(st.V_bar[z])
        if dec.classes and covered != want:
            out.append(f"{tag}: covered sets do not partition")
        n_classes = len(dec.classes)
        extra = sum(
            cls.c_dot for i, cls in enumerate(dec.classes) if i != dec.c0_index
        )
        if n_classes + extra > 1 + max(0, dt_N):
            out.append(f"{tag}: class-count bound")
        if n_classes > 1:
            s = dec.stats
            if s is None:
                out.append(f"{tag}: missing statistics")
            else:
                parts = [s.B, s.L - 2, s.n2, s.T, s.x0] + list(s.x_C)
                if any(p < 0 for p in parts):
                    out.append(f"{tag}: negative statistic")
                if dt_N < s.H or s.H < 2:
                    out.append(f"{tag}: H bound")
                total = (
                    s.B
                    + 2 * (s.L - 2)
                    + s.n2
                    + s.T
                    + s.x0
                    + sum(s.x_C)
                    + extra
                )
                if total != dt_N:
                    out.append(f"{tag}: statistics identity")
                if quotient_tree_H(dec) != s.H:
                    out.append(f"{tag}: quotient-tree H")
        if len(st.Omega) == 2:
            other = sorted(st.Omega - {z})
            if n_classes != 1 or dec.classes[0].c_dot != 0 or [dec.u0] != other:
                out.append(f"{tag}: two-loose-end decomposition shape")
        if len(st.S) > 1 and dec.c0_index is not None:
            c0 = dec.classes[dec.c0_index]
            nonpos0 = a.chars.pairs[c0.greatest].nonpositive
            if (len(st.Omega) > 0) != (dt(st.V_bar[z]) <= 0):
                out.append(f"{tag}: loose-end criterion (covered set)")
            if (len(st.Omega) > 0) != nonpos0:
                out.append(f"{tag}: loose-end criterion (root class)")
            if nonpos0:
                above = [
                    p
                    for p in a.chars.pairs
                    if p[0] in st.S
                    and a.chars.precedes(c0.greatest, p)
                    and a.chars.pairs[p].side_dt <= 0
                ]
                if above:
                    out.append(f"{tag}: root-class top not maximal nonpositive")
    return out


def _chk_comb_relation(a: Analysis) -> list[str]:
    # Two pairs share a class exactly when the upper one is a comb over the
    # lower one, for every two pairs of the decomposition.  The pairs below
    # (u, e) lie on the tree path from u to z, and (u, e) is a comb over
    # each of them down to the first pair on the path not in `struct.combs`.
    # The chains are read off the tree, not off the decomposition.
    out = []
    combs = a.struct.combs
    for z in sorted(a.decompositions):
        dec = a.decompositions[z]
        class_of = {p: i for i, cls in enumerate(dec.classes) for p in cls.pairs}
        related: set[tuple[CellRef, CellRef]] = set()
        for q in dec.O:
            path = a.tree.path(q[0], z)
            for w, n in zip(path[1:], path[2:]):
                if (w, a.tree.edge_between(w, n)) not in combs:
                    break
                related.add((w, q[0]))
        for i, p in enumerate(dec.O):
            for q in dec.O[i + 1 :]:
                comb = (p[0], q[0]) in related or (q[0], p[0]) in related
                if (class_of.get(p) == class_of.get(q)) != comb:
                    out.append(f"z={z!r}: classes disagree with the relation at {p} / {q}")
    return out


def _chk_rational(a: Analysis) -> list[str]:
    out = []
    rep = a.rational_report
    for clause in rep.failures:
        out.append(f"{clause.check_id}: {clause.witness}")
    st = a.struct
    om = len(st.Omega)
    single = len(st.S) == 1
    canonical = rep.recognized is not None
    chain = [single, len(a.glob.script_N) == 1, om == 0, canonical]
    if any(chain) != all(chain):
        out.append("single-skeleton equivalence chain failed")
    if not single:
        for z in sorted(a.decompositions):
            dec = a.decompositions[z]
            if len(dec.classes) != 1:
                out.append(f"z={z!r}: rational tree with several comb classes")
            elif dec.u0 is not None:
                d0 = a.ledger.per_vertex[dec.u0]
                k_big = sum(1 for x in d0.dicriticals if d0.k[x] > 1)
                if st.delta_star[dec.u0] != 1:
                    out.append(f"z={z!r}: top of the comb not a skeleton leaf")
                if k_big + d0.a_star + st.t[dec.u0] > 3:
                    out.append(f"z={z!r}: top-of-comb budget exceeded")
    for u in sorted(a.glob.script_N):
        if a.chars.edges_at[u] and all(
            a.chars.pairs[(u, e)].nonpositive for e in a.chars.edges_at[u]
        ):
            if divisor_trichotomy(a, u) is None:
                out.append(f"{u!r}: divisor trichotomy failed")
    return out


def _gate_defect2(a: Analysis) -> bool:
    return a.glob.delta_tilde_N == 2


def _chk_defect2(a: Analysis) -> list[str]:
    out = []
    st = a.struct
    per = a.ledger.per_vertex
    for z in sorted(a.decompositions):
        dec = a.decompositions[z]
        n = len(dec.classes)
        tag = f"z={z!r}"
        u0 = dec.u0
        if n not in (0, 1, 2, 3):
            out.append(f"{tag}: {n} classes")
            continue
        if n >= 2 and len(st.Omega) != 1:
            out.append(f"{tag}: several classes but |Omega| != 1")
        if n >= 2 and dec.stats is not None and dec.stats.H != 2:
            out.append(f"{tag}: H={dec.stats.H}")
        if n == 3:
            e0 = dec.classes[dec.c0_index].greatest[1]
            if st.delta_star[u0] != 3 or st.t[u0] != 0:
                out.append(f"{tag}: hub shape")
            if R_of(a.ledger, a.chars, u0, [e0]) != 0:
                out.append(f"{tag}: hub R")
        if n == 2:
            if st.delta_star[u0] != 2 or st.t[u0] > 2:
                out.append(f"{tag}: hub shape")
            A = [dec.classes[dec.c0_index].greatest[1]] + [
                e for e in a.chars.edges_at[u0] if (u0, e) in st.teeth
            ]
            if R_of(a.ledger, a.chars, u0, A) != 1:
                out.append(f"{tag}: hub R(A) != 1")
        if n in (2, 3):
            for i, cls in enumerate(dec.classes):
                if i == dec.c0_index:
                    continue
                if st.t[cls.u] > 2 or a.ledger.delta_tilde(st.V_bar[cls.u]) != 1:
                    out.append(f"{tag}: side class {i}")
                for x in a.tree.path(u0, cls.u)[1:-1]:
                    if per[x].epsilon != 2 or per[x].delta_tilde != 0:
                        out.append(f"{tag}: interior {x!r}")
        if n == 1:
            d0 = per[u0]
            k_big = sum(1 for x in d0.dicriticals if d0.k[x] > 1)
            if k_big + d0.a_star + st.t[u0] > 4:
                out.append(f"{tag}: single-class budget")
    degs = [a.info.degree[u] for u in sorted(a.glob.script_D)]
    if len(st.S) == 1 and degs and gcd(*degs) == 1:
        try:
            fan = root_fan_data(a)
        except InternalInconsistencyError as exc:
            out.append(str(exc))
        else:
            if fan.delta != 3 or any(en.a != 1 for en in fan.entries):
                out.append("defect-2 fan shape")
            d_sorted = tuple(sorted(en.d for en in fan.entries))
            if d_sorted not in ((1, 1, 1), (1, 1, 2), (1, 2, 3)):
                out.append(f"defect-2 fan degrees {d_sorted}")
        if len(a.glob.script_N) == 1:
            match = recognize_canonical(a)
            if match is None or match.family != "T_C":
                out.append("defect-2 single-vertex tree not canonical")
    return out


def _gate_defect4(a: Analysis) -> bool:
    return a.glob.delta_tilde_N == 4


def _chk_defect4(a: Analysis) -> list[str]:
    out = []
    for z in sorted(a.decompositions):
        dec = a.decompositions[z]
        n = len(dec.classes)
        if n > 5:
            out.append(f"z={z!r}: {n} classes")
        if n >= 4 and len(a.struct.Omega) != 1:
            out.append(f"z={z!r}: many classes but |Omega| != 1")
        if n > 1 and dec.stats is not None and dec.stats.H > 4:
            out.append(f"z={z!r}: H={dec.stats.H}")
    return out


REGISTRY: tuple[Check, ...] = (
    ("multiplicity-bounds", _always, _chk_mult_bounds),
    ("multiplicity-connected", _always, _chk_connected),
    ("dead-end-multiplicity", _always, _chk_dead_end_mult),
    ("unit-multiplicity-edge", _always, _chk_unit_edge),
    ("linear-path-determinants", _always, _chk_linear_paths),
    ("dicriticals-apart", _always, _chk_dicritical_apart),
    ("node-factorization", _always, _chk_node_factorization),
    ("epsilon-neighbour-count", _always, _chk_epsilon_r),
    ("defect-formulas", _always, _chk_delta_formulas),
    ("unit-multiplicity-vertex", _always, _chk_unit_vertex),
    ("epsilon-defect-signs", _always, _chk_epsilon_sign),
    ("sigma-ratio", _always, _chk_sigma_ratio),
    ("low-end-vertices", _always, _chk_low_end),
    ("degree-gcd-divides", _always, _chk_d_divides),
    ("xi-sigma-bound", _always, _chk_xi_sigma),
    ("global-defect-routes", _always, _chk_global_routes),
    ("unit-node-budget", _always, _chk_ndstar_bound),
    ("root-facts", _always, _chk_root_facts),
    ("root-degree-bound", _gate_root_degree, _chk_root_degree),
    ("characteristic-divisibility", _always, _chk_char_divides),
    ("unit-quotient-order", _always, _chk_M_one_order),
    ("characteristic-chain-divisibility", _always, _chk_char_chain_div),
    ("dicritical-sum-divisibility", _always, _chk_dic_sum_div),
    ("local-R-identity", _always, _chk_R_identity),
    ("global-R-identity", _always, _chk_global_R),
    ("eta-nonnegative", _always, _chk_eta_nonneg),
    ("poset-monotonicity", _always, _chk_monotonic),
    ("nonpositive-equivalences", _always, _chk_nonpositive_iff),
    ("nonunit-term-budget", _always, _chk_sharp_bound),
    ("trivial-chain-characteristics", _always, _chk_trivial_chain_c),
    ("tooth-facts", _always, _chk_tooth_facts),
    ("toothed-vertex-bounds", _always, _chk_brush_W),
    ("loose-end-bound", _always, _chk_omega),
    ("skeleton-facts", _always, _chk_skeleton),
    ("brush-defect", _always, _chk_brush_defect),
    ("single-skeleton-fan", _gate_fan, _chk_fan),
    ("single-vertex-parity", _gate_single_N, _chk_parity),
    ("comb-decomposition", _always, _chk_decompositions),
    ("comb-relation", _always, _chk_comb_relation),
    ("rational-structure", is_rational_tree, _chk_rational),
    ("defect-two-structure", _gate_defect2, _chk_defect2),
    ("defect-four-structure", _gate_defect4, _chk_defect4),
)


# A passing check's result is one tuple, the same on every analysis.
_PASSED = {check_id: CheckResult(check_id, True) for check_id, _, _ in REGISTRY}


def audit_analysis(analysis: Analysis) -> list[CheckResult]:
    """Run every applicable check; one result per check, failures carry a witness."""
    results: list[CheckResult] = []
    for check_id, applies, run in REGISTRY:
        if not applies(analysis):
            continue
        failures = run(analysis)
        if failures:
            results.append(
                CheckResult(check_id, False, "; ".join(failures[:4]))
            )
        else:
            results.append(_PASSED.get(check_id) or CheckResult(check_id, True))
    return results


def theorem_audit(tree: DecoratedRootedTree) -> list[CheckResult]:
    """Build the analysis of a tree and audit it against every proven statement."""
    return audit_analysis(Analysis.build(tree))


def audit_failures(results: Iterable[CheckResult]) -> list[CheckResult]:
    return [r for r in results if not r.passed]
