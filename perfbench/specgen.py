"""Seeded generator of valid complete-intersection specifications.

The benchmark owns this generator so that a commit and its parent run the
same inputs even when the test suite's own generator changes.  It imports
nothing from the program: specs are plain JSON dicts in the documented
specification format, and validity is checked here with a small exact
rank routine.

Valid specs are constructed rather than sampled: pick block sizes, a
partition of the variables into index sets and positive diagonal weights,
then draw monomials whose weighted degrees match the forced charges range
by range.  A candidate is kept when its weights are unique (the
quasihomogeneity system has a one-dimensional kernel per block) and its
Cayley matrix is nonsingular.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

MAX_EXPONENT = 7
MAX_DEGREE_VECTORS = 4000
ATTEMPTS_PER_SPEC = 300


def rank(rows: list[list[int]]) -> int:
    """Exact rank by Gaussian elimination over the rationals."""
    work = [[Fraction(x) for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            if work[i][col] != 0:
                f = work[i][col] / work[r][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def _degree_vectors(weights: list[int], target: int) -> list[tuple[int, ...]]:
    """Vectors u with entries in 0..MAX_EXPONENT and <u, weights> = target."""
    out: list[tuple[int, ...]] = []

    def rec(idx: int, remaining: int, prefix: tuple[int, ...]) -> None:
        if len(out) >= MAX_DEGREE_VECTORS:
            return
        if idx == len(weights):
            if remaining == 0:
                out.append(prefix)
            return
        for e in range(min(MAX_EXPONENT, remaining // weights[idx]) + 1):
            rec(idx + 1, remaining - e * weights[idx], prefix + (e,))

    rec(0, target, ())
    return out


def cayley_rows(spec: dict) -> list[list[int]]:
    """The (n+3k)-square Cayley exponent matrix, in the program's row order."""
    n, k = spec["n"], spec["k"]
    size = n + 3 * k
    rows = []
    for nu, blk in enumerate(spec["blocks"], start=1):
        y_odd, y_even, s_col = n + 2 * nu - 2, n + 2 * nu - 1, n + 2 * k + nu - 1
        for v in blk["exponents"]:
            rows.append(list(v) + [0] * (3 * k))
            rows[-1][y_odd] = 1
        rows.append([0] * size)
        rows[-1][y_odd] = rows[-1][s_col] = 1
        rows.append([1 if i + 1 in blk["index_set"] else 0 for i in range(n)] + [0] * (3 * k))
        rows[-1][y_even] = 1
        rows.append([0] * size)
        rows[-1][y_even] = 1
    return rows


def is_valid(spec: dict, ranges: list[list[int]]) -> bool:
    """Unique weights per block and a nonsingular Cayley matrix."""
    n = spec["n"]
    diffs = []
    for blk in spec["blocks"]:
        members = set(blk["index_set"])
        for v in blk["exponents"]:
            diffs.append([e - (1 if i + 1 in members else 0) for i, e in enumerate(v)])
    for cols in ranges:
        if rank([[row[c] for c in cols] for row in diffs]) != len(cols) - 1:
            return False
    return rank(cayley_rows(spec)) == n + 3 * spec["k"]


def random_spec(rng: random.Random, taus: tuple[int, ...]) -> dict | None:
    """One spec with the given block sizes, or None when this draw fails."""
    k, n = len(taus), sum(taus)
    positions = list(range(1, n + 1))
    rng.shuffle(positions)
    sizes, remaining = [], n - k
    for q in range(k):
        extra = rng.randint(0, remaining) if q < k - 1 else remaining
        sizes.append(1 + extra)
        remaining -= extra
    index_sets, cut = [], 0
    for size in sizes:
        index_sets.append(sorted(positions[cut:cut + size]))
        cut += size

    diag = [rng.randint(1, 3) for _ in range(n)]
    ranges, start = [], 0
    for t in taus:
        ranges.append(list(range(start, start + t)))
        start += t

    blocks = []
    for j in range(k):
        members = set(index_sets[j])
        rows: set[tuple[int, ...]] = set()
        for _ in range(60):
            if len(rows) == taus[j]:
                break
            vec = [0] * n
            for rq in ranges:
                target = sum(diag[i] for i in rq if i + 1 in members)
                sols = _degree_vectors([diag[i] for i in rq], target)
                if not sols:
                    return None
                for i, e in zip(rq, rng.choice(sols)):
                    vec[i] = e
            rows.add(tuple(vec))
        if len(rows) < taus[j]:
            return None
        blocks.append({"exponents": [list(v) for v in sorted(rows)],
                       "index_set": index_sets[j]})

    spec = {"n": n, "k": k, "blocks": blocks}
    return spec if is_valid(spec, ranges) else None


def family_spec(m: int) -> dict:
    """The two-block family on 2m+1 variables that generalizes Example 6.1.

    Block one is the sum of m+1 m-th powers with the product over variables
    2..m+1; block two chains each of x_2..x_{m+1} against a fresh m-th
    power, with the product over variable 1 and the tail block.
    """
    n = 2 * m + 1
    first = [[m if j == i else 0 for j in range(n)] for i in range(m + 1)]
    second = []
    for i in range(1, m + 1):
        row = [0] * n
        row[i], row[m + i] = 1, m
        second.append(row)
    return {"n": n, "k": 2, "blocks": [
        {"exponents": first, "index_set": list(range(2, m + 2))},
        {"exponents": second, "index_set": [1] + list(range(m + 2, 2 * m + 2))},
    ]}


def spec_pool(seed: int, quotas: dict[tuple[int, ...], int]) -> list[dict]:
    """Specs per block-size class, in the quota table's order.

    A class (a, b) also draws its blocks in the order (b, a), chosen by the
    seed, so the pool is fixed in shape and random in content.
    """
    rng = random.Random(seed)
    pool = []
    for taus, count in quotas.items():
        for _ in range(count):
            for _ in range(ATTEMPTS_PER_SPEC):
                order = tuple(rng.sample(taus, len(taus)))
                spec = random_spec(rng, order)
                if spec is not None:
                    pool.append(spec)
                    break
            else:
                raise RuntimeError(f"no valid spec of block sizes {taus} "
                                   f"in {ATTEMPTS_PER_SPEC} draws (seed {seed})")
    return pool



def canonical(data) -> bytes:
    """Compact, key-sorted JSON bytes: the form digests are taken over."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
