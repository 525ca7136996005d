import json
import tracemalloc

import pytest

from mirrorkit.ci_model import (
    AmbiguousWeightsError,
    Block,
    CISpec,
    NoPositiveSolutionError,
    SpecInvalidError,
    build_cayley,
    charges,
    derive_weights,
    supplied_weights,
    validate,
)
from mirrorkit.pipeline import MirrorPair
from mirrorkit.rational_linalg import Matrix, invert

from oracles import entries
from paper_data import L_8, L_8_INV, L_13, L_13_INV, matrix_from_json


def test_validate_6_2(spec_6_2):
    report = validate(spec_6_2)
    assert report.ok
    assert report.weights.vectors == ((3, 2, 2, 7, 7),)
    assert report.charges.entries == ((21,),)


def test_validate_overlapping_index_sets():
    spec = CISpec(n=2, k=2, blocks=(
        Block(exponents=((2, 0),), index_set=(1,)),
        Block(exponents=((0, 2),), index_set=(1,)),
    ))
    report = validate(spec)
    assert not report.checks["partition"]


@pytest.mark.parametrize("defect, check, note", [
    ("negative exponent", "exponent_shape", "block 1: negative exponent"),
    ("index out of range", "partition", "block 1: index 3 out of range"),
    ("k != block count", "tau_sum", "k=2 but 1 blocks given"),
])
def test_validate_single_defect_fails_only_its_check(quadric, defect, check, note):
    (blk,) = quadric.blocks
    spec = {
        "negative exponent": CISpec(n=2, k=1, blocks=(
            Block(exponents=((2, -1), blk.exponents[1]), index_set=blk.index_set),)),
        "index out of range": CISpec(n=2, k=1, blocks=(
            Block(exponents=blk.exponents, index_set=(1, 3)),)),
        "k != block count": CISpec(n=2, k=2, blocks=quadric.blocks),
    }[defect]
    report = validate(spec)
    structural = {name: report.checks[name] for name in ("partition", "tau_sum", "exponent_shape")}
    assert structural == {name: name != check for name in structural}
    assert report.notes == (note,)
    with pytest.raises(SpecInvalidError, match=f"^{note}$"):
        build_cayley(spec)


def test_validate_memory_does_not_grow_with_declared_n():
    # one exponent vector of length 1 against n = 10**6: the structure check
    # fails at once and must not build anything of size n
    spec = CISpec.from_json({"n": 10**6, "k": 1,
                             "blocks": [{"exponents": [[2]], "index_set": [1]}]})
    tracemalloc.start()
    try:
        report = validate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report.hard_ok
    assert peak < 5 * 2**20


def test_validate_square_forces_zero_weight():
    # a single square with the product over the same variable: 2g = g
    spec = CISpec(n=1, k=1, blocks=(Block(exponents=((2,),), index_set=(1,)),))
    report = validate(spec)
    assert not report.checks["weights_solvable"]
    assert not report.checks["calabi_yau"]
    with pytest.raises(NoPositiveSolutionError):
        derive_weights(spec)


def test_derive_weights_6_2(spec_6_2):
    # oracle: 7g1 = 3g4 = 3g5 = 7g2+g4 = 7g3+g5 = sum(g), primitive
    assert derive_weights(spec_6_2).vectors == ((3, 2, 2, 7, 7),)


def test_derive_weights_quadric(quadric):
    assert derive_weights(quadric).vectors == ((1, 1),)


def test_derive_weights_6_1(spec_6_1):
    w = derive_weights(spec_6_1)
    assert w.vectors == ((1, 1, 1, 1, 0, 0, 0), (0, 0, 0, 0, 1, 1, 1))
    assert w.diagonal == (1, 1, 1, 1, 1, 1, 1)


def test_derive_weights_ambiguous():
    # block 1's monomials match its indicator on its own range: no constraint
    spec = CISpec(n=4, k=2, blocks=(
        Block(exponents=((1, 1, 1, 0), (1, 1, 0, 1)), index_set=(1, 2)),
        Block(exponents=((0, 0, 2, 0), (0, 0, 0, 2)), index_set=(3, 4)),
    ))
    with pytest.raises(AmbiguousWeightsError):
        derive_weights(spec)


def test_supplied_weights_shape_errors(spec_6_2):
    bad = CISpec(n=5, k=1, blocks=spec_6_2.blocks, weights=((3, 2, 2, 7, 0),))
    with pytest.raises(SpecInvalidError):
        supplied_weights(bad)


def test_weights_of_prefers_supplied(corrupted):
    assert MirrorPair(corrupted).effective_weights.vectors == ((3, 2, 2, 7, 8),)


def test_charges_6_2(spec_6_2):
    qm = charges(spec_6_2, derive_weights(spec_6_2))
    assert qm.entries == ((21,),)
    assert qm.column_lcms == (21,)


def test_charges_quadric(quadric):
    qm = charges(quadric, derive_weights(quadric))
    assert qm.entries == ((2,),)
    assert qm.column_lcms == (2,)


def test_charges_zero_pairing(spec_6_1):
    # block 1 never touches block 2's variables
    qm = charges(spec_6_1, derive_weights(spec_6_1))
    assert qm.entries == ((3, 0), (1, 3))
    assert qm.column_lcms == (3, 3)


def test_build_cayley_6_1_printed_matrix(spec_6_1):
    cm = build_cayley(spec_6_1)
    assert cm.matrix == Matrix.from_rows(L_13)
    assert invert(cm.matrix) == matrix_from_json(L_13_INV)
    assert cm.a_indices == (7, 13)
    assert cm.i_lambda == (1, 2, 3, 4, 8, 9, 10)


def test_build_cayley_6_2_printed_matrix(spec_6_2):
    cm = build_cayley(spec_6_2)
    assert cm.matrix == Matrix.from_rows(L_8)
    assert invert(cm.matrix) == matrix_from_json(L_8_INV)
    assert cm.a_indices == (8,)


def test_build_cayley_quadric_rows(quadric):
    # direct construction oracle from the block layout
    cm = build_cayley(quadric)
    assert [[int(x) for x in row] for row in entries(cm.matrix)] == [
        [2, 0, 1, 0, 0],
        [0, 2, 1, 0, 0],
        [0, 0, 1, 0, 1],
        [1, 1, 0, 1, 0],
        [0, 0, 0, 1, 0],
    ]


def test_build_cayley_deterministic(spec_6_1):
    a = json.dumps(build_cayley(spec_6_1).to_json(), sort_keys=True)
    b = json.dumps(build_cayley(spec_6_1).to_json(), sort_keys=True)
    assert a == b


def test_quasihomogeneity_recheck(spec_6_1, spec_6_2, quadric):
    for spec in (spec_6_1, spec_6_2, quadric):
        w = derive_weights(spec)
        for j, blk in enumerate(spec.blocks, start=1):
            ind = blk.indicator(spec.n)
            for vec in w.vectors:
                pairings = {sum(a * g for a, g in zip(v, vec)) for v in blk.exponents}
                pairings.add(sum(a * g for a, g in zip(ind, vec)))
                assert len(pairings) == 1


def test_calabi_yau_identity(spec_6_1, spec_6_2, quadric):
    for spec in (spec_6_1, spec_6_2, quadric):
        w = derive_weights(spec)
        qm = charges(spec, w)
        for q in range(1, spec.k + 1):
            assert sum(qm.column(q)) == sum(w.vectors[q - 1])


def test_spec_json_roundtrip(spec_6_1, quadric):
    for spec in (spec_6_1, quadric):
        again = CISpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert again == spec


def _quadric_data(**changes):
    data = {"n": 2, "k": 1, "blocks": [{"exponents": [[2, 0], [0, 2]], "index_set": [2, 1]}]}
    data.update(changes)
    return data


def test_from_json_reads_integers_and_sorts_index_sets(quadric):
    spec = CISpec.from_json(_quadric_data(comment="ignored", weights=None))
    assert spec == CISpec.from_json(quadric.to_json())
    assert spec.blocks[0].index_set == (1, 2)
    assert CISpec.from_json(_quadric_data(weights=[[1, 1]])).weights == ((1, 1),)


@pytest.mark.parametrize("data, message", [
    ("spec", "specification: expected a JSON object, got \"spec\""),
    (_quadric_data(n=None), "n: expected a positive integer, got null"),
    (_quadric_data(n=2.0), "n: expected a positive integer, got 2.0"),
    (_quadric_data(k=-1), "k: expected a positive integer, got -1"),
    ({"k": 1, "blocks": []}, "n: missing"),
    ({"n": 2, "k": 1}, "blocks: missing"),
    (_quadric_data(blocks=[[1, 2]]), "blocks[0]: expected an object, got a list"),
    (_quadric_data(blocks=[{"exponents": [[2, 0]]}]), "blocks[0].index_set: missing"),
    (_quadric_data(blocks=[{"index_set": [1]}]), "blocks[0].exponents: missing"),
    (_quadric_data(blocks=[{"exponents": [[2, 0], 7], "index_set": [1, 2]}]),
     "blocks[0].exponents[1]: expected a list, got 7"),
    (_quadric_data(blocks=[{"exponents": [[2, False]], "index_set": [1, 2]}]),
     "blocks[0].exponents[0][1]: expected an integer, got false"),
    (_quadric_data(blocks=[{"exponents": [[2, 0]], "index_set": [1, "2"]}]),
     "blocks[0].index_set[1]: expected an integer, got \"2\""),
    (_quadric_data(weights=[[1, 1.5]]), "weights[0][1]: expected an integer, got 1.5"),
    (_quadric_data(weights={"a": 1}), "weights: expected a list, got an object"),
])
def test_from_json_rejects_wrong_shapes_with_json_path(data, message):
    with pytest.raises(SpecInvalidError) as info:
        CISpec.from_json(data)
    assert str(info.value) == message


def test_row_labels(quadric):
    cm = build_cayley(quadric)
    kinds = [lbl[1] for lbl in cm.row_labels]
    assert kinds == ["monomial", "monomial", "s-row", "product-row", "constant-row"]
