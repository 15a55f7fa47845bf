"""The named test corpora, each built once per test session.

A corpus is a tuple of keys.  A key is a fixture name or a frozen
`GeneratorConfig`; `GeneratorConfig(seed=s)` equals the corpus-A config of
seed s, so the two share one entry.  `tree(key)` builds a key's tree on
first use and `analysis(key)` its analysis; both are kept for the session
and shared by every test that reads them, so a test must not change them.

A test that changes a tree or an analysis, patches the engine, times a
first build or inspects a tree's `__dict__` works on a `fresh` copy instead:
an equal tree that nothing else holds, parsed from the shared one's text,
so that no config is generated twice.
"""

from __future__ import annotations

from newton_forest import oracle_gen
from newton_forest.oracle_gen import GeneratorConfig
from newton_forest.report import Analysis
from newton_forest.tree_io import parse, serialize
from newton_forest.tree_model import DecoratedRootedTree

import oracles

Key = str | GeneratorConfig

_FIXTURES = oracles.fixture_corpus()
FIXTURES = tuple(_FIXTURES)
# seeds 0..999 at max_cells=40, the default config
CORPUS_A = tuple(GeneratorConfig(seed=s) for s in range(1000))
# wide fans: seeds 0..39 at 400 cells and dicritical degree up to 120
CORPUS_B = tuple(
    GeneratorConfig(seed=s, max_cells=400, max_dicritical_degree=120) for s in range(40)
)
# seeds 0..199 at 120 cells and dicritical degree up to 6
CORPUS_120_6 = tuple(
    GeneratorConfig(seed=s, max_cells=120, max_dicritical_degree=6) for s in range(200)
)
# the rational filter: seeds 0..199 at 40 cells
RATIONAL = tuple(GeneratorConfig(seed=s, rational=True) for s in range(200))

_trees: dict[GeneratorConfig, DecoratedRootedTree] = {}
_analyses: dict[Key, Analysis] = {}


def tree(key: Key) -> DecoratedRootedTree:
    """The shared tree of `key`, generated on first use."""
    if isinstance(key, str):
        return _FIXTURES[key]
    found = _trees.get(key)
    if found is None:
        # looked up at each call, so that a wrapper installed on the module
        # sees every generation
        found = _trees[key] = oracle_gen.generate(key)
    return found


def analysis(key: Key) -> Analysis:
    """The shared analysis of `key`'s tree, built on first use; read only."""
    found = _analyses.get(key)
    if found is None:
        found = _analyses[key] = Analysis.build(tree(key))
    return found


def trees(keys) -> list[DecoratedRootedTree]:
    return [tree(key) for key in keys]


def analyses(keys) -> list[Analysis]:
    return [analysis(key) for key in keys]


def fresh(key: Key) -> DecoratedRootedTree:
    """A tree equal to `key`'s that no other test holds."""
    return parse(serialize(tree(key)))
