"""Property test: `cli._dump` writes exactly what `json.dumps(indent=2, sort_keys=True)` does.

Every `--format json` command prints through `cli._dump`, a walker that
gathers its text in parts and writes them in chunks of `cli.DUMP_CHUNK`
parts.  On random JSON trees (nested dicts, lists and tuples, empty
containers, strings and keys with non-ASCII, control and surrogate
characters, bools, None, negative and big ints, and floats with NaN and
±inf), its text is `json.dumps(tree, indent=2, sort_keys=True) + "\\n"`,
whatever the chunk size.  On trees that json refuses (a set, bytes or an
arbitrary object as a value, a tuple as a key, keys that do not sort
together) it raises TypeError as well.  The search is derandomized and
bounded, so the test is deterministic.
"""

import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from mirrorkit import cli  # noqa: E402

STRINGS = st.one_of(st.text(), st.text(st.characters(codec=None, categories=None)),
                    st.sampled_from(["", "\x00\x1f\x7f", "é\n\t", '"\\/', "\ud800", "\U0001f600"]))
INTS = st.one_of(st.integers(), st.integers(-2 ** 200, 2 ** 200),
                 st.sampled_from([-2 ** 63, 2 ** 64, -10 ** 100, 10 ** 400]))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, st.floats(), STRINGS)
# the key types json accepts, one type per dict: keys of several types do not sort
KEY_TYPES = [STRINGS, INTS, st.floats(), st.booleans(), st.none()]
BAD = st.sampled_from([{1, 2}, frozenset(), b"bytes", object(), 1j])


def _containers(children):
    return st.one_of(st.lists(children, max_size=4),
                     st.lists(children, max_size=4).map(tuple),
                     st.sampled_from(KEY_TYPES).flatmap(
                         lambda keys: st.dictionaries(keys, children, max_size=4)))


TREES = st.recursive(SCALARS, _containers, max_leaves=40)
# trees json may refuse: a bad leaf, a tuple key, or keys of several types in one dict
ANY_KEYS = st.one_of(*KEY_TYPES, st.tuples(st.integers()))
MAYBE_BAD = st.recursive(st.one_of(SCALARS, BAD),
                         lambda children: st.one_of(
                             _containers(children),
                             st.dictionaries(ANY_KEYS, children, max_size=4)),
                         max_leaves=20)


def _dumped(tree, chunk: int) -> str:
    out = io.StringIO()
    saved, cli.DUMP_CHUNK = cli.DUMP_CHUNK, chunk
    try:
        cli._dump(tree, out)
    finally:
        cli.DUMP_CHUNK = saved
    return out.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(tree=TREES, chunk=st.sampled_from([1, 2, 7, cli.DUMP_CHUNK]))
@example(tree={"b": [], "a": {}, "c": ()}, chunk=1)
@example(tree=[float("nan"), float("inf"), -float("inf"), -0.0, 1e300], chunk=2)
@example(tree={1.5: None, float("nan"): True, -2.0: [1]}, chunk=1)
@example(tree={"\x00é": {"": [[[], {}]]}}, chunk=3)
def test_dump_writes_what_json_dumps_writes(tree, chunk):
    assert _dumped(tree, chunk) == json.dumps(tree, indent=2, sort_keys=True) + "\n"


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(tree=MAYBE_BAD)
@example(tree={"a": [1, {2, 3}]})
@example(tree=[object()])
@example(tree={(1,): 2})
@example(tree={"a": 1, 2: 3})
def test_dump_raises_type_error_where_json_dumps_does(tree):
    try:
        expected = json.dumps(tree, indent=2, sort_keys=True) + "\n"
    except TypeError:
        with pytest.raises(TypeError):
            _dumped(tree, 2)
    else:
        assert _dumped(tree, 2) == expected
