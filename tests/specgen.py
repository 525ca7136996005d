"""Random valid specification generator for the property suite.

Valid specs are a measure-zero slice of random exponent data, so instead
of rejection sampling we construct them: pick block sizes, a partition
into index sets and positive weights first, then sample monomials whose
weighted degrees match the forced charges range by range.  A candidate is
kept only if its weights re-derive uniquely and its Cayley matrix is
nonsingular.
"""

import functools
import random

from mirrorkit.ci_model import (
    AmbiguousWeightsError,
    Block,
    build_cayley,
    CISpec,
    NoPositiveSolutionError,
    derive_weights,
    validate,
)
from mirrorkit.rational_linalg import invert, SingularMatrixError

MAX_EXPONENT = 7


def _degree_vectors(weights, target, rng, cap=4000):
    """Nonnegative integer vectors u (entries <= MAX_EXPONENT) with <u, weights> = target."""
    solutions = []

    def rec(idx, remaining, prefix):
        if len(solutions) >= cap:
            return
        if idx == len(weights):
            if remaining == 0:
                solutions.append(tuple(prefix))
            return
        w = weights[idx]
        for e in range(min(MAX_EXPONENT, remaining // w) + 1):
            rec(idx + 1, remaining - e * w, prefix + [e])

    rec(0, target, [])
    return solutions


def random_spec(rng: random.Random, max_n: int = 8, max_k: int = 2) -> CISpec | None:
    k = rng.randint(1, max_k)
    taus = [rng.randint(1, 4) for _ in range(k)]
    n = sum(taus)
    if n > max_n or n < k:
        return None

    positions = list(range(1, n + 1))
    rng.shuffle(positions)
    index_sets = []
    cut = 0
    sizes = []
    remaining = n - k
    for q in range(k):
        extra = rng.randint(0, remaining) if q < k - 1 else remaining
        sizes.append(1 + extra)
        remaining -= extra
    for size in sizes:
        index_sets.append(tuple(sorted(positions[cut:cut + size])))
        cut += size

    diag = [rng.randint(1, 3) for _ in range(n)]
    ranges = []
    start = 0
    for t in taus:
        ranges.append(list(range(start, start + t)))
        start += t

    blocks = []
    for j in range(k):
        members = set(index_sets[j])
        targets = [sum(diag[i] for i in ranges[q] if i + 1 in members) for q in range(k)]
        rows = set()
        attempts = 0
        while len(rows) < taus[j] and attempts < 60:
            attempts += 1
            vec = [0] * n
            ok = True
            for q in range(k):
                ws = [diag[i] for i in ranges[q]]
                sols = _degree_vectors(ws, targets[q], rng)
                if not sols:
                    ok = False
                    break
                pick = rng.choice(sols)
                for i, e in zip(ranges[q], pick):
                    vec[i] = e
            if ok:
                rows.add(tuple(vec))
        if len(rows) < taus[j]:
            return None
        blocks.append(Block(exponents=tuple(sorted(rows)), index_set=index_sets[j]))

    spec = CISpec(n=n, k=k, blocks=tuple(blocks))
    try:
        derive_weights(spec)
    except (AmbiguousWeightsError, NoPositiveSolutionError):
        return None
    report = validate(spec)
    if not report.ok:
        return None
    return spec


@functools.lru_cache(maxsize=None)
def generate_valid_specs(count: int, seed: int = 20260810, max_n: int = 8,
                         max_k: int = 2) -> list[CISpec]:
    """The first `count` valid specs of the seeded stream; one shared list per arguments,
    which callers must not mutate."""
    rng = random.Random(seed)
    specs = []
    attempts = 0
    while len(specs) < count and attempts < count * 300:
        attempts += 1
        spec = random_spec(rng, max_n=max_n, max_k=max_k)
        if spec is not None:
            specs.append(spec)
    if len(specs) < count:
        raise RuntimeError(f"only generated {len(specs)} specs in {attempts} attempts")
    return specs


def random_cayley_spec(rng: random.Random, max_k: int = 3, max_tau: int = 3) -> CISpec | None:
    """A spec whose index-set sizes are a permutation of its block sizes, drawn to
    fail the weights and the weight classes in every way they can; None when its
    Cayley matrix is singular.

    Each variable gets a weight in 1..3 and a group: at random (mode 0), half
    of its block range (1), its block range (2), or, for k > 1, with one
    block's range cut in two and another's free (3; else as 2).  A monomial is random with
    probability 0.15, and otherwise has, on every group, the weighted degree
    of its block's index set, with random entries at the free variables.
    """
    k = rng.randint(1, max_k)
    taus = [rng.randint(1, max_tau) for _ in range(k)]
    n = sum(taus)
    positions = rng.sample(range(n), n)
    index_sets, cut = [], 0
    for size in rng.sample(taus, k):
        index_sets.append(positions[cut:cut + size])
        cut += size
    owner = [q for q, tau in enumerate(taus) for _ in range(tau)]
    mode = rng.randrange(4)
    if mode == 3 and k > 1:
        halved, free = rng.sample(range(k), 2)
        labels = [None if owner[i] == free else 2 * owner[i] + (owner[i] == halved and i % 2)
                  for i in range(n)]
    else:
        labels = [rng.randrange(k + 1) if mode == 0
                  else 2 * owner[i] + (mode == 1 and rng.randrange(2)) for i in range(n)]
    diag = [rng.randint(1, 3) for _ in range(n)]
    groups = [[i for i in range(n) if labels[i] == g]
              for g in sorted(set(labels) - {None}, key=str)]
    blocks = []
    for tau, members in zip(taus, index_sets):
        rows = []
        for _ in range(tau):
            if rng.random() < 0.15:
                rows.append(tuple(rng.choice((0, 0, 1, 2)) for _ in range(n)))
                continue
            vec = [rng.choice((0, 0, 1, 2)) if g is None else 0 for g in labels]
            for group in groups:
                target = sum(diag[i] for i in members if i in group)
                pick = rng.choice(_degree_vectors([diag[i] for i in group], target, rng, cap=200))
                for i, e in zip(group, pick):
                    vec[i] = e
            rows.append(tuple(vec))
        blocks.append(Block(exponents=tuple(rows), index_set=tuple(sorted(i + 1 for i in members))))
    spec = CISpec(n=n, k=k, blocks=tuple(blocks))
    try:
        invert(build_cayley(spec).matrix)
    except SingularMatrixError:
        return None
    return spec


@functools.lru_cache(maxsize=None)
def nonsingular_cayley_specs(count: int, seed: int = 20261019) -> list[CISpec]:
    """The first `count` specs of random_cayley_spec's seeded stream; one shared list
    per arguments, which callers must not mutate.  Most have no weights or do
    not transpose."""
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        spec = random_cayley_spec(rng)
        if spec is not None:
            specs.append(spec)
    return specs


def oracle_specs(fixtures_dir) -> list[CISpec]:
    """The 216-spec oracle set: 200 seeded specs, families m = 1..12 and the fixtures."""
    from mirrorkit.pipeline import generate_family
    return (generate_valid_specs(200) + [generate_family(m) for m in range(1, 13)]
            + [CISpec.load(f) for f in sorted(fixtures_dir.glob("*.json"))])


# Specs with a singular Cayley matrix that still transpose, twice: the distinct
# specs among the first 20000 candidates of random_spec(random.Random(20260810),
# max_k=3) that fail validate only on the Cayley check.  They reach the
# transposition and the double transpose (the transpose and poincare commands)
# but never the nef stage, which needs the forms and so L^-1.
SINGULAR_CAYLEY_JSON = (
    {"n": 4, "k": 3, "blocks": [{"exponents": [[1, 0, 0, 1]], "index_set": [1, 4]},
                                {"exponents": [[0, 0, 1, 0], [0, 1, 0, 0]], "index_set": [2]},
                                {"exponents": [[0, 1, 0, 0]], "index_set": [3]}]},
    {"n": 4, "k": 3, "blocks": [{"exponents": [[0, 0, 0, 1]], "index_set": [3]},
                                {"exponents": [[1, 1, 0, 0]], "index_set": [1, 2]},
                                {"exponents": [[0, 0, 0, 1], [0, 0, 1, 0]], "index_set": [4]}]},
    {"n": 4, "k": 3, "blocks": [{"exponents": [[1, 1, 0, 0]], "index_set": [1, 2]},
                                {"exponents": [[0, 0, 0, 1]], "index_set": [3]},
                                {"exponents": [[0, 0, 0, 1], [0, 0, 1, 0]], "index_set": [4]}]},
    {"n": 4, "k": 3, "blocks": [{"exponents": [[1, 1, 0, 0]], "index_set": [1, 2]},
                                {"exponents": [[0, 0, 1, 0]], "index_set": [4]},
                                {"exponents": [[0, 0, 0, 1], [0, 0, 1, 0]], "index_set": [3]}]},
    {"n": 4, "k": 3, "blocks": [{"exponents": [[1, 0, 0, 1]], "index_set": [1, 4]},
                                {"exponents": [[0, 0, 1, 0], [0, 1, 0, 0]], "index_set": [3]},
                                {"exponents": [[0, 0, 1, 0]], "index_set": [2]}]},
)


def singular_cayley_specs() -> list[CISpec]:
    """The SINGULAR_CAYLEY_JSON specs."""
    return [CISpec.from_json(d) for d in SINGULAR_CAYLEY_JSON]


def direct_sum(*specs) -> dict:
    """The specs' blocks side by side on disjoint variables (specs as JSON dicts)."""
    n = sum(d["n"] for d in specs)
    blocks, offset = [], 0
    for d in specs:
        for blk in d["blocks"]:
            blocks.append({"exponents": [[0] * offset + row + [0] * (n - offset - d["n"])
                                         for row in blk["exponents"]],
                           "index_set": [i + offset for i in blk["index_set"]]})
        offset += d["n"]
    return {"n": n, "k": sum(d["k"] for d in specs), "blocks": blocks}
