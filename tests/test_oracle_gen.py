import copy
import dataclasses
import hashlib
import random
import time
from fractions import Fraction

import pytest

from newton_forest import oracle_gen as og
from newton_forest.classify_audit import audit_analysis
from newton_forest.errors import GenerationError
from newton_forest.multiplicity import multiplicities
from newton_forest.oracle_gen import GeneratorConfig, generate
from newton_forest.report import Analysis, analysis_to_dict
from newton_forest.tree_io import json_text, serialize
from newton_forest.tree_model import DecoratedRootedTree, build_tree, validate_axioms

import corpora
from corpora import CORPUS_A, CORPUS_B, FIXTURES, RATIONAL
from oracles import _oracle_x, fixture_T_D, oracle_c, oracle_delta_tilde_N, oracle_N


def test_oracle_N_matches_engine_on_fixtures():
    for name in FIXTURES:
        tree = corpora.tree(name)
        table = multiplicities(tree)
        for v in sorted(tree.vertices | tree.arrows0):
            assert oracle_N(tree, v) == table.N[v], (name, v)


def test_oracle_c_T_D():
    t = fixture_T_D()
    e = t.edge_between("v0", "w")
    assert oracle_c(t, "v0", e) == Fraction(3, 2)
    assert oracle_c(t, "w", e) == 6


def test_oracle_c_rejects_bad_pairs():
    t = fixture_T_D()
    with pytest.raises(ValueError):
        oracle_c(t, "u", t.edge_between("w", "u"))


def test_oracle_delta_tilde_T_D():
    assert oracle_delta_tilde_N(fixture_T_D()) == -4


def test_oracle_delta_tilde_fixtures():
    for name in FIXTURES:
        want = corpora.analysis(name).glob.delta_tilde_N
        assert oracle_delta_tilde_N(corpora.tree(name)) == want, name


@pytest.mark.own_generation
def test_generate_reproducible():
    a = generate(GeneratorConfig(seed=42, max_cells=40))
    b = generate(GeneratorConfig(seed=42, max_cells=40))
    assert serialize(a) == serialize(b)
    c = generate(GeneratorConfig(seed=43, max_cells=40))
    assert serialize(c) != serialize(a)


def test_generated_trees_validate():
    from newton_forest.multiplicity import classify

    for tree in corpora.trees(CORPUS_A[:25]):
        assert validate_axioms(tree) == []
        info = classify(tree, multiplicities(tree))
        assert info.generic and info.minimally_complete
        assert len(tree.cells) <= 40


def test_generate_rational_filter():
    import math

    a = corpora.analysis(RATIONAL[5])
    assert a.glob.delta_tilde_N == 0
    degs = [a.info.degree[u] for u in sorted(a.glob.script_D)]
    assert math.gcd(*degs) == 1


def test_generator_rational_pinned():
    """The seed->tree mapping of the rational filter: seeds 0..199 at 40 cells."""
    digest = hashlib.sha256()
    for tree in corpora.trees(RATIONAL):
        digest.update(serialize(tree).encode("utf-8"))
    assert digest.hexdigest() == (
        "f18cfd0bab2a479eca2131d8a33a43b1cb3d9de6ace0ad07f9106a668345855e"
    )


@pytest.mark.own_generation
def test_rational_filter_reads_the_screen(monkeypatch):
    """The rational filter tests 2 - M - D and the degree gcd on the table
    and classification that `_screen` computed: one `multiplicities` and one
    `classify` call per screened tree."""
    calls = {"validate_axioms": 0, "multiplicities": 0, "classify": 0}
    for name in calls:

        def counted(*args, _name=name, _real=getattr(og, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(og, name, counted)
    for seed in range(50):
        generate(GeneratorConfig(seed=seed, max_cells=40, rational=True))
    assert calls == {"validate_axioms": 175, "multiplicities": 175, "classify": 175}


@pytest.mark.own_generation
def test_screened_analysis_equals_the_built_one():
    """The analysis built from the table and classification that the screen
    returned with a tree equals `Analysis.build` of that tree, and so do
    their audits: corpus A seeds 0..199, each tree the generator's own."""
    for config in CORPUS_A[:200]:
        tree, table, info = og.generate_verdict(config, lambda s: s, {})
        assert serialize(tree) == serialize(corpora.tree(config)), config
        screened = Analysis.from_classification(tree, table, info, None)
        built = Analysis.build(tree)
        assert screened == built, config
        assert audit_analysis(screened) == audit_analysis(built), config


@pytest.mark.own_generation
def test_generate_verdict_screens_each_assembly_once(monkeypatch):
    """`generate_verdict` returns the verdict on `generate`'s tree, with one
    screen per distinct assembly and one verdict per distinct tree kept:
    over corpus A's seeds 0..199, and the rational filter's seeds 0..99,
    whose screen rejects 190 assembled trees, some again on later seeds."""
    want = {c: serialize(t) for c, t in zip(RATIONAL[:100], corpora.trees(RATIONAL[:100]))}
    want.update((c, serialize(t)) for c, t in zip(CORPUS_A[:200], corpora.trees(CORPUS_A[:200])))
    screened = []
    real = og._screen

    def counted(tree, cfg):
        screened.append(tree)
        return real(tree, cfg)

    monkeypatch.setattr(og, "_screen", counted)
    for configs in (CORPUS_A[:200], RATIONAL[:100]):
        screened.clear()
        memo, judged = {}, []

        def verdict(found):
            judged.append(found[0])
            return serialize(found[0])

        for config in configs:
            assert og.generate_verdict(config, verdict, memo) == want[config]
        kept = {want[config] for config in configs}
        assert len(judged) == len(kept) < len(configs)
        assert len(screened) == len(memo)
        assert sorted(v for v in memo.values() if v is not None) == sorted(kept)
    assert len(memo) - len(kept) == 190


@pytest.mark.own_generation
def test_generation_budget_error():
    # no attempt of any mode fits in 3 cells, so the whole budget is spent
    with pytest.raises(GenerationError) as err:
        generate(GeneratorConfig(seed=0, max_cells=3))
    assert err.value.attempts == og.MAX_ATTEMPTS == 3000


def test_oracle_agreement_on_generated():
    for seed in (3, 17, 31):
        a = corpora.analysis(CORPUS_A[seed])
        tree = a.tree
        for v in sorted(tree.vertices | tree.arrows0):
            assert oracle_N(tree, v) == a.table.N[v]
        for (u, e), data in a.chars.pairs.items():
            assert oracle_c(tree, u, e) == data.c
        assert oracle_delta_tilde_N(tree) == a.glob.delta_tilde_N


def test_coverage_over_a_small_corpus():
    # the acceptance corpus asserts this over 1000 seeds; keep a quick gate here
    seen = {"single": 0, "brush": 0, "omega0": 0, "omega1": 0, "omega2": 0, "multi": 0}
    for a in corpora.analyses(CORPUS_A[:150]):
        seen["single"] += len(a.glob.script_N) == 1
        seen["brush"] += a.struct.is_brush
        seen[f"omega{len(a.struct.Omega)}"] += 1
        seen["multi"] += any(len(d.classes) >= 2 for d in a.decompositions.values())
    assert all(count > 0 for count in seen.values()), seen


def test_draws_match_random_random():
    """`_Draws` and `random.Random`, seeded alike, return equal values for
    random(), choices(weights=...), the attempt-mode draw, randrange with
    one and two arguments, randint and choice, interleaved over widths
    1..70 (so 2^k - 1, 2^k and 2^k + 1 up to 65), and end in equal states.
    A Python whose `random` draws otherwise fails here, not only in the
    generator pins."""
    weights = (41, 490, 235, 566, 245, 6)
    draws = 0
    for seed in range(200):
        ours, theirs = og._Draws(seed), random.Random(seed)
        for n in range(1, 71):
            seq = tuple(range(-3, n - 3))
            low = n - 35
            pairs = (
                (ours.random(), theirs.random()),
                (ours.choices(seq, weights=range(n, 0, -1)),
                 theirs.choices(seq, weights=range(n, 0, -1))),
                (og._draw_mode(ours), theirs.choices(og._MODES, weights=weights)[0]),
                (ours.randrange(n), theirs.randrange(n)),
                (ours.randrange(low, low + n), theirs.randrange(low, low + n)),
                (ours.randint(low, low + n - 1), theirs.randint(low, low + n - 1)),
                (ours.choice(seq), theirs.choice(seq)),
            )
            for got, want in pairs:
                assert got == want, (seed, n, got, want)
                draws += 1
        assert ours.getstate() == theirs.getstate(), seed
    assert draws == 200 * 70 * 7


def _planned():
    """(seed, k, plan): twelve plans from the rng stream of each seed
    0..149, cycling through the fan, chain, star and random planners."""
    planners = (og._plan_fan, og._plan_chain, og._plan_star, og._plan_random)
    for seed in range(150):
        rng = random.Random(seed)
        cfg = GeneratorConfig(seed=seed)
        for k in range(12):
            yield seed, k, planners[k % len(planners)](rng, cfg)


def test_plan_screen_is_sound():
    """Every plan the support-free screen rejects is also rejected after
    solving its supports, assembling it and screening the tree, and the
    assembled tree breaks axiom 5 or 6."""
    rejected = passed = 0
    for seed, k, plan in _planned():
        near = og._skeleton_near(plan)
        if og._plan_screen(plan, near):
            passed += 1
            continue
        rejected += 1
        supports = og._solve_supports(plan, near)
        if supports is None:
            continue
        tree = build_tree(*og._assemble(plan, supports), "v0")
        assert og._screen(tree, GeneratorConfig(seed=seed)) is None, (seed, k)
        assert {d.axiom_id for d in validate_axioms(tree)} & {5, 6}, (seed, k)
    assert rejected > 600 and passed > 300, (rejected, passed)


def test_screen_rejects_trees_not_minimally_complete():
    # v0 -(1, q)- u with a dead end and a (1)-arrow at u and a dead end
    # decorated 1 at v0: both trees satisfy the axioms, but q = -3 is not
    # generic and q = 0 is complete without being minimally complete
    from newton_forest.multiplicity import classify
    from newton_forest.tree_model import ARROW, VERTEX, Cell, make_edge

    for q in (-3, 0):
        tree = build_tree(
            [
                Cell("v0", VERTEX),
                Cell("u", VERTEX),
                Cell("o0", ARROW, 0),
                Cell("o1", ARROW, 0),
                Cell("t1", ARROW, 1),
            ],
            [
                make_edge("v0", 1, "u", q),
                make_edge("v0", 1, "o0", 1),
                make_edge("u", 1, "o1", 1),
                make_edge("u", 1, "t1", 1),
            ],
            "v0",
        )
        assert validate_axioms(tree) == []
        assert not classify(tree, multiplicities(tree)).minimally_complete
        assert og._screen(tree, GeneratorConfig(seed=0)) is None, q


def test_slot_contributions_match_oracle():
    """What one (1)-arrow at the dicritical of slot s2 contributes to the
    arrow sum of slot s, g[i][i2] (`_path_products`) times the dead end of
    s2, equals x-hat(u_s, t_{s2,0}) measured path by path on the tree
    assembled with one arrow per dicritical; and `_arrow_sums`, which sums
    by vertex, equals the sum over s2 != s of degree times that value."""
    zero_down = big_up = pairs = 0
    for seed, k, plan in _planned():
        probe = [
            og._VertexPlan(p.parent, p.down_q, p.up_big, p.big_child, p.dead_end,
                           [(1, a_u) for _deg, a_u in p.dics])
            for p in plan
        ]
        draft = build_tree(*og._assemble(probe, {}), "v0")
        g = og._path_products(og._skeleton_near(plan))
        slots = [(i, j, a_u) for i, p in enumerate(plan) for j, (_, a_u) in enumerate(p.dics)]
        degrees = [plan[i].dics[j][0] for i, j, _ in slots]
        sums = og._arrow_sums(g, slots, degrees)
        for (i, j, _), total in zip(slots, sums):
            want = 0
            for (i2, j2, a_u2), degree in zip(slots, degrees):
                if (i2, j2) == (i, j):
                    continue
                x_hat = _oracle_x(draft, f"u{i}_{j}", f"t{i2}_{j2}_0", hat=True)
                assert g[i][i2] * a_u2 == x_hat, (seed, k, (i, j), (i2, j2))
                want += degree * x_hat
                pairs += 1
            assert total == want, (seed, k, (i, j))
        zero_down += any(p.parent is not None and p.down_q == 0 for p in plan)
        big_up += any(p.big_child is not None for p in plan)
    assert zero_down > 100 and big_up > 100 and pairs > 10000, (zero_down, big_up, pairs)


def _dicritical_cells(diagnostic):
    cells = set()
    for part in diagnostic.location:
        cells.update(part.strip("{}").split(","))
    return {c for c in cells if c.startswith("u")}


def test_support_screen_is_sound():
    """Every plan the support screen rejects is also rejected after
    assembling it and screening the tree, on axiom 5 or 6 at a dicritical;
    every plan it passes assembles into a tree with no axiom diagnostic."""
    rejected = passed = 0
    for seed, k, plan in _planned():
        near = og._skeleton_near(plan)
        if not og._plan_screen(plan, near):
            continue
        supports = og._solve_supports(plan, near)
        if supports is None:
            continue
        tree = build_tree(*og._assemble(plan, supports), "v0")
        if og._support_screen(plan, supports, near):
            passed += 1
            assert validate_axioms(tree) == [], (seed, k)
            continue
        rejected += 1
        assert og._screen(tree, GeneratorConfig(seed=seed)) is None, (seed, k)
        assert any(
            d.axiom_id in (5, 6) and _dicritical_cells(d) for d in validate_axioms(tree)
        ), (seed, k)
    assert rejected > 300 and passed > 100, (rejected, passed)


def test_support_solve_is_quadratic_on_a_wide_fan(monkeypatch):
    # one vertex with 256 degree-1 dicriticals; the supports come from the
    # plan alone, with no tree assembled and no path product measured
    def forbidden(*args, **kwargs):
        raise AssertionError("the support solve built or walked a tree")

    monkeypatch.setattr(og, "_assemble", forbidden)
    monkeypatch.setattr(og, "_oracle_x", forbidden)
    best = float("inf")
    for _ in range(3):
        plan = [og._VertexPlan(None, 1, 1, None, 0, [(1, 1)] * 256)]
        start = time.perf_counter()
        near = og._skeleton_near(plan)
        supports = og._solve_supports(plan, near)
        ok = og._support_screen(plan, supports, near)
        best = min(best, time.perf_counter() - start)
    assert ok and set(supports.values()) == {-255}
    assert best < 0.5, best


@pytest.mark.own_generation
def test_generated_trees_carry_no_analysis_cache():
    # a caller may keep many generated trees alive, as the benchmark's
    # corpus-small keeps 1000: the screen may leave on a tree only its own
    # fields and the cell sets it reads, not its axiom diagnostics, the fold
    # of `multiplicities` or any other per-analysis view
    fields = [f.name for f in dataclasses.fields(DecoratedRootedTree)]
    allowed = set(fields) | {"arrows0", "arrows1", "vertices"}
    configs = [GeneratorConfig(seed=s) for s in range(40)]
    configs += [
        GeneratorConfig(seed=s, max_cells=400, max_dicritical_degree=120) for s in range(4)
    ]
    configs += [GeneratorConfig(seed=s, rational=True) for s in range(4)]
    for config in configs:
        assert set(generate(config).__dict__) <= allowed, config

    # Nor does an analysis, its audit or its report leave anything on the
    # tree, which the corpora share between tests: every field keeps its
    # value, and the tree holds no more than the screen may leave, no edge
    # lookup, depths or other cache of its own.
    for key in FIXTURES + CORPUS_A[:200] + CORPUS_B[:12]:
        tree = corpora.fresh(key)
        before = copy.deepcopy({name: getattr(tree, name) for name in fields})
        a = Analysis.build(tree)
        audits = audit_analysis(a)
        json_text(analysis_to_dict(a, audits), sort_keys=True)
        assert {name: getattr(tree, name) for name in fields} == before, key
        assert set(tree.__dict__) <= allowed, key
