"""One-stop analysis bundle and deterministic report rendering.

`Analysis.build` runs the pipeline, in order: validation, multiplicities and
classification, then `Analysis.from_classification` runs the ledgers,
characteristic table, structure, and one comb decomposition per initial
vertex (or at the given initial vertex z).  `audit --gen` enters at the
latter with the table and classification that the generator's screen
computed.  Each stage function takes every upstream result it reads as a
required argument and computes nothing upstream itself.  The renderers
below serialize the bundle byte-deterministically: mappings sorted by key,
rationals printed reduced as "p/q", integers plain.  The report holds the
tree itself, which `tree_io.json_text` writes as its canonical document.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Mapping

from .characteristic import CharacteristicTable, Pair, characteristic_numbers
from .errors import NewtonForestError
from .local_invariants import (
    GlobalLedger,
    VertexLedger,
    global_ledger,
    vertex_ledger,
)
from .multiplicity import DicriticalInfo, MultiplicityTable, classify, multiplicities
from .structure import CombDecomposition, StructureLedger, comb_decomposition, structure_ledger
from .tree_io import to_document
from .tree_model import (
    CellRef,
    DecoratedRootedTree,
    ValidationDiagnostic,
    validate_axioms,
)


class ValidationFailedError(NewtonForestError):
    """The tree violates the defining axioms; carries all diagnostics."""

    def __init__(self, diagnostics: list[ValidationDiagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__(self.diagnostics)

    def __str__(self) -> str:
        return "; ".join(str(d) for d in self.diagnostics)


@dataclass
class Analysis:
    """Every computed artifact for one validated, minimally complete tree."""

    tree: DecoratedRootedTree
    table: MultiplicityTable
    info: DicriticalInfo
    ledger: VertexLedger
    glob: GlobalLedger
    chars: CharacteristicTable
    struct: StructureLedger
    decompositions: dict[CellRef, CombDecomposition]

    @staticmethod
    def build(tree: DecoratedRootedTree, z: CellRef | None = None) -> "Analysis":
        diagnostics = validate_axioms(tree)
        if diagnostics:
            raise ValidationFailedError(diagnostics)
        table = multiplicities(tree)
        return Analysis.from_classification(tree, table, classify(tree, table), z)

    @staticmethod
    def from_classification(
        tree: DecoratedRootedTree,
        table: MultiplicityTable,
        info: DicriticalInfo,
        z: CellRef | None,
    ) -> "Analysis":
        """The analysis of a tree that satisfies the axioms, from its
        multiplicity table and classification: the stages after them, in
        order, with the decompositions at every initial vertex when z is
        None."""
        ledger = vertex_ledger(tree, table, info)  # raises if not minimally complete
        glob = global_ledger(info, ledger)
        chars = characteristic_numbers(tree, table, ledger)
        struct = structure_ledger(tree, ledger, chars)
        starts = sorted(struct.In) if z is None else [z]  # z must lie in In
        decomps = {
            s: comb_decomposition(s, ledger, chars, struct) for s in starts
        }
        return Analysis(
            tree=tree,
            table=table,
            info=info,
            ledger=ledger,
            glob=glob,
            chars=chars,
            struct=struct,
            decompositions=decomps,
        )

    @cached_property
    def rational_report(self):
        """The rational structure report, built on first read (by the audit
        or `analysis_to_dict`) and kept; None when the tree is not rational."""
        from . import classify_audit  # which imports this module

        if not classify_audit.is_rational_tree(self):
            return None
        return classify_audit.rational_structure_report(self)


def _pair_key(pair: Pair) -> str:
    u, e = pair
    return f"{u}|{e}"


def _sorted_map(m: Mapping) -> dict:
    return {k: m[k] for k in sorted(m)}


def decompositions_to_dict(analysis: Analysis) -> dict[str, Any]:
    """The report's decompositions section: one entry per initial vertex."""
    decomps = {}
    for z in sorted(analysis.decompositions):
        dec = analysis.decompositions[z]
        classes = []
        for i, cls in enumerate(dec.classes):
            classes.append(
                {
                    "pairs": [_pair_key(p) for p in cls.pairs],
                    "u": cls.u,
                    "c_dot": cls.c_dot,
                    "Y": sorted(cls.Y),
                    "t": cls.t_count,
                    "is_root_class": i == dec.c0_index,
                }
            )
        entry: dict[str, Any] = {
            "classes": classes,
            "quotient_edges": [list(e) for e in dec.quotient_edges],
        }
        if dec.stats is not None:
            s = dec.stats
            entry["stats"] = {
                "B": s.B,
                "L": s.L,
                "count_ds1": s.n1,
                "count_ds2": s.n2,
                "count_ds_gt2": s.n_gt2,
                "T": s.T,
                "x0": s.x0,
                "x_C": list(s.x_C),
                "H": s.H,
            }
        decomps[z] = entry
    return decomps


def analysis_to_dict(analysis: Analysis, audits: list) -> dict[str, Any]:
    """The full report: every section, the audit verdicts, and the rational
    structure report when the tree is rational (`Analysis.rational_report`).
    The `tree` section holds the tree itself, which `json_text` writes as
    its canonical document and `render_text` expands through `to_document`."""
    per = analysis.ledger.per_vertex
    g = analysis.glob

    vertex_rows = {}
    for v in sorted(per):
        d = per[v]
        vertex_rows[v] = {
            "N": analysis.table.N[v],
            "a": d.a,
            "r": d.r,
            "is_node": d.is_node,
            "type": list(d.type),
            "k": _sorted_map(dict(d.k)),
            "sigma": d.sigma,
            "epsilon": d.epsilon,
            "delta": d.delta,
            "delta_tilde": d.delta_tilde,
            "d": d.d,
            "xi": d.xi,
            "pure": d.pure,
            "epsilon_prime": d.epsilon_prime,
        }

    char_rows = {}
    for pair in sorted(analysis.chars.pairs, key=_pair_key):
        data = analysis.chars.pairs[pair]
        char_rows[_pair_key(pair)] = {
            "c": str(data.c),
            "M": data.M,
            "p": data.p,
            "p_prime": data.p_prime,
            "eta": str(data.eta),
            "nonpositive": data.nonpositive,
            "n_side": sorted(data.n_side),
        }

    st = analysis.struct
    structure = {
        "Z": sorted(st.Z),
        "Gamma": [list(w) for w in st.Gamma],
        "W": sorted(st.W),
        "V_bar": {v: sorted(st.V_bar[v]) for v in sorted(st.V_bar)},
        "Omega": sorted(st.Omega),
        "is_brush": st.is_brush,
        "S": sorted(st.S),
        "delta_star": _sorted_map(dict(st.delta_star)),
        "t": _sorted_map(dict(st.t)),
        "teeth": [_pair_key(p) for p in sorted(st.teeth, key=_pair_key)],
        "In": sorted(st.In),
    }

    doc: dict[str, Any] = {
        "tree": analysis.tree,
        "classification": {
            "generic": analysis.info.generic,
            "complete": analysis.info.complete,
            "minimally_complete": analysis.info.minimally_complete,
            "dicriticals": sorted(analysis.info.dicriticals),
            "degrees": _sorted_map(dict(analysis.info.degree)),
        },
        "global": {
            "M_of_T": analysis.table.M_of_T,
            "points_at_infinity": analysis.table.points_at_infinity,
            "script_N": sorted(g.script_N),
            "script_D": sorted(g.script_D),
            "nd": sorted(g.nd),
            "nd_star": sorted(g.nd_star),
            "delta_N": g.delta_N,
            "delta_tilde_N": g.delta_tilde_N,
            "xi_N": g.xi_N,
            "D": g.D_of_T,
            "D_prime": g.D_prime_of_T,
            "genus": g.genus if g.genus is not None else "no genus interpretation",
        },
        "vertices": vertex_rows,
        "characteristic": char_rows,
        "structure": structure,
        "decompositions": decompositions_to_dict(analysis),
    }
    rep = analysis.rational_report
    if rep is not None:
        doc["rational_structure"] = {
            "is_rational": True,  # the section is written for rational trees only
            "recognized": str(rep.recognized) if rep.recognized else None,
            "chain": list(rep.chain),
            "trichotomy_case": rep.trichotomy_case,
            "nd_shape": rep.nd_shape,
            "clauses": _check_rows(rep.clauses),
        }
    doc["audit"] = _check_rows(audits)
    return doc


def _check_rows(results) -> list[dict[str, Any]]:
    """One row per audit check or rational-report clause."""
    return [{"check": r.check_id, "passed": r.passed, "witness": r.witness} for r in results]


def _scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        return "[" + ", ".join(_scalar(v) for v in value) + "]"
    return str(value)


def _emit(lines: list[str], key: str, value: Any, depth: int) -> None:
    pad = "  " * depth
    if isinstance(value, dict):
        lines.append(f"{pad}{key}:")
        for k in value:
            _emit(lines, str(k), value[k], depth + 1)
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        lines.append(f"{pad}{key}:")
        for i, item in enumerate(value):
            _emit(lines, f"[{i}]", item, depth + 1)
    else:
        lines.append(f"{pad}{key}: {_scalar(value)}")


def render_text(doc: dict[str, Any]) -> str:
    """Stable plain-text rendering of a report dictionary; the tree is
    rendered as its canonical document (`to_document`)."""
    lines: list[str] = []
    for key in doc:
        value = doc[key]
        if type(value) is DecoratedRootedTree:
            value = to_document(value)
        _emit(lines, key, value, 0)
    return "\n".join(lines) + "\n"
