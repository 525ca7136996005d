"""Property test: every `--input` command survives fuzzed spec-shaped JSON.

Each document starts from a fixture, a small valid spec or a direct sum of
3 to 6 quadrics (many block pairings to try, k x k nu and lambda) and takes a
few mutations (an exponent, index set, count or weight changed, a block
dropped or duplicated), then sometimes a key removed or one value
replaced by a value of the wrong type.  Each command also gets a drawn
`--order`: a small one, or one just above the series term cap for two or
three variables, which `poincare` must refuse before expanding anything.
Whatever the result, each command must return an exit code in 0-3 and
raise nothing, and a refused expansion is one line on stderr and exit 1.
The search is derandomized and bounded, so the test is deterministic.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, HealthCheck, given, settings, strategies as st  # noqa: E402

from mirrorkit import cli  # noqa: E402
from mirrorkit.pipeline import generate_family  # noqa: E402
from mirrorkit.poincare import SERIES_TERM_CAP  # noqa: E402

from specgen import direct_sum, generate_valid_specs  # noqa: E402

FIXTURES = Path(__file__).parent.parent / "src" / "mirrorkit" / "fixtures"


QUADRIC = json.loads((FIXTURES / "derived_quadric.json").read_text())
SUMS = [direct_sum(*[QUADRIC] * k) for k in range(3, 7)]   # k = 3..6 blocks
BASES = ([json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
         + [generate_family(2).to_json()] + SUMS
         + [spec.to_json() for spec in generate_valid_specs(200)[:8]])
COMMANDS = [c for c in cli.COMMANDS if c != "family"]
JUNK = st.sampled_from([None, True, 1.5, "1", [], {}, -1, 0])


def _largest_order(k: int) -> int:
    """The largest order whose C(order + k, k) series terms fit under the cap."""
    order = 0
    while math.comb(order + 1 + k, k) <= SERIES_TERM_CAP:
        order += 1
    return order


# small orders, and the boundary of the term cap for k = 2 and 3 (61 and 20
# today): the orders just above it are refused before any expansion runs,
# and at k = 1 they are still cheap
ORDERS = st.one_of(st.integers(0, 8),
                   st.sampled_from([_largest_order(k) + d for k in (2, 3) for d in (1, 2)]))


def _set_exponent(draw, data):
    blk = draw(st.sampled_from(data["blocks"]))
    row = draw(st.sampled_from(blk["exponents"]))
    row[draw(st.integers(0, len(row) - 1))] = draw(st.integers(-1, 4))


def _move_index(draw, data):
    src, dst = draw(st.sampled_from(data["blocks"])), draw(st.sampled_from(data["blocks"]))
    if src["index_set"]:
        dst["index_set"].append(src["index_set"].pop())


def _set_index(draw, data):
    iset = draw(st.sampled_from(data["blocks"]))["index_set"]
    if iset:
        iset[draw(st.integers(0, len(iset) - 1))] = draw(st.integers(0, data["n"] + 1))


def _change_count(draw, data):
    key = draw(st.sampled_from(["n", "k"]))
    data[key] = max(1, data[key] + draw(st.sampled_from([-1, 1])))


def _drop_or_duplicate_block(draw, data):
    i = draw(st.integers(0, len(data["blocks"]) - 1))
    if draw(st.booleans()) and len(data["blocks"]) > 1:
        del data["blocks"][i]
    else:
        data["blocks"].append(copy.deepcopy(data["blocks"][i]))


def _set_weights(draw, data):
    n, k = data["n"], data["k"]
    data["weights"] = [[draw(st.integers(0, 3)) for _ in range(draw(st.sampled_from([n, n - 1])))]
                       for _ in range(draw(st.sampled_from([k, k + 1])))]


def _drop_key(draw, data):
    obj = draw(st.sampled_from([data, *data["blocks"]]))
    if obj:
        del obj[draw(st.sampled_from(sorted(obj)))]


def _junk_value(draw, data):
    blk = draw(st.sampled_from(data["blocks"]))
    target = draw(st.sampled_from(["n", "k", "blocks", "exponents", "entry", "index_set"]))
    if target in ("n", "k", "blocks"):
        data[target] = draw(JUNK)
    elif target == "entry":
        blk["exponents"][0][0] = draw(JUNK)
    else:
        blk[target] = draw(JUNK)


# these keep the document's shape, so any number of them can follow each other
SHAPE_KEEPING = [_set_exponent, _move_index, _set_index, _change_count,
                 _drop_or_duplicate_block, _set_weights]


@st.composite
def spec_documents(draw):
    data = copy.deepcopy(draw(st.sampled_from(BASES)))
    for mutation in draw(st.lists(st.sampled_from(SHAPE_KEEPING), max_size=3)):
        mutation(draw, data)
    if draw(st.integers(0, 3)) == 0:
        draw(st.sampled_from([_drop_key, _junk_value]))(draw, data)
    return data


@settings(max_examples=80, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec_documents(), st.sampled_from(["text", "json"]), ORDERS)
# the draws need not reach every direct sum, so each command runs those with k > 3
@example(SUMS[1], "text", 8)
@example(SUMS[2], "json", 3)
@example(SUMS[3], "text", 2)
def test_every_command_exits_0_to_3_on_fuzzed_specs(data, fmt, order):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(data))
        for command in COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([command, "--input", str(path), "--format", fmt,
                                 "--order", str(order)])
            assert code in (0, 1, 2, 3), (command, data)
            if err.getvalue().startswith("cannot expand the series"):
                assert code == 1 and err.getvalue().count("\n") == 1, (command, data, order)


@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(BASES), ORDERS)
def test_poincare_refuses_exactly_the_orders_past_the_term_cap(data, order):
    # on the unmutated (valid) documents exit 1 can only be the refusal, and it
    # comes exactly when C(order + k, k) exceeds the cap, before any expansion
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["poincare", "--input", str(path), "--order", str(order)])
    refused = code == 1
    assert refused == err.getvalue().startswith("cannot expand the series")
    if refused:
        assert err.getvalue().count("\n") == 1
        assert math.comb(order + data["k"], data["k"]) > SERIES_TERM_CAP
    elif code == 0:
        assert math.comb(order + data["k"], data["k"]) <= SERIES_TERM_CAP
