"""The package's errors survive pickling, as they must to leave a worker process."""

import pickle

from newton_forest import errors
from newton_forest.report import ValidationFailedError
from newton_forest.tree_model import ValidationDiagnostic

# one instance of each error class, built as the package raises it
SAMPLES = [
    errors.NewtonForestError("base"),
    errors.TreeStructureError(["a b", "c"]),
    errors.ParseError("line 3: expected ','"),
    errors.NotMinimallyCompleteError("not minimally complete"),
    errors.NotInitialVertexError("'u' is not an initial vertex"),
    errors.InternalInconsistencyError("N(v) = 0 at v3"),
    errors.GenerationError(3000, "no tree satisfied the filters"),
    ValidationFailedError(
        [
            ValidationDiagnostic(3, ("u", "v0"), "decoration 2"),
            ValidationDiagnostic("5b", ("v1",), "not coprime"),
        ]
    ),
]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_samples_cover_every_error_class():
    assert {type(e) for e in SAMPLES} == {errors.NewtonForestError, *_subclasses(errors.NewtonForestError)}


def test_errors_round_trip_through_pickle():
    for exc in SAMPLES:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert back.args == exc.args
        assert vars(back) == vars(exc)


def test_error_text_unchanged():
    assert str(SAMPLES[1]) == "a b; c"
    assert str(SAMPLES[6]) == "no tree satisfied the filters (after 3000 attempts)"
    assert str(SAMPLES[7]) == (
        "axiom 3 at (u, v0): decoration 2; axiom 5b at (v1): not coprime"
    )
