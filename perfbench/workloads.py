"""Seeded instance generators for the four benchmark workloads.

Each workload is a fixed list of instance classes; the seed only draws
the numbers inside each class (form entries, torus weights, filtration
data, which tuples a profile holds).  Sizes, sparsity patterns and the planted
verdict of each class do not depend on the seed, so the cost of one
round changes little from seed to seed.

An instance is a dict with
  ``name``  the class, for reports;
  ``argv``  the `semistab` arguments after the program name;
  ``doc``   the JSON instance document fed on stdin or as ``--input``,
            or None for commands that take positional arguments;
  ``large`` whether it belongs to the workload's large class.

Nothing here imports `semistab`: the program receives only these
documents.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from checkers import generic_rank, q_str

WORKLOADS = ("form-check", "torus", "dispo", "cli-cold")


def _instance(name, argv, doc=None, large=False):
    return {"name": name, "argv": list(argv), "doc": doc, "large": large}


def _document(kind, payload):
    return {"schema_version": 1, "kind": kind, "payload": payload}


def _nonzero(rng, bound):
    value = 0
    while value == 0:
        value = rng.randint(-bound, bound)
    return value


# -- form-check -------------------------------------------------------------


def _poly_json(coefficients):
    coefficients = list(coefficients)
    while coefficients and coefficients[-1] == 0:
        coefficients.pop()
    return [q_str(c) for c in coefficients]


def _form_doc(degrees, symmetry, matrix, check):
    """``matrix`` holds coefficient lists (constant term first)."""
    return _document(
        "form_bundle",
        {
            "form": {
                "degrees": list(degrees),
                "symmetry": symmetry,
                "entries": [[_poly_json(e) for e in row] for row in matrix],
            },
            "check": check,
        },
    )


def _constant_form(rng, r, symmetry, rank=None):
    """Dense constant (anti)symmetric r x r form of the given rank.

    Full rank when ``rank`` is None: drawn again until nondegenerate.
    Otherwise B C B^T with B an r x rank matrix and C a (anti)symmetric
    rank x rank matrix, so the rank is at most ``rank``.
    """
    sign = 1 if symmetry == "symmetric" else -1
    while True:
        k = r if rank is None else rank
        c = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                if sign == -1 and i == j:
                    continue
                value = _nonzero(rng, 5)
                c[i][j] = value
                c[j][i] = sign * value
        if rank is None:
            matrix = c
        else:
            b = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
            matrix = [
                [
                    sum(b[a][i] * c[i][j] * b[e][j] for i in range(k) for j in range(k))
                    for e in range(r)
                ]
                for a in range(r)
            ]
        entries = [[[Fraction(v)] for v in row] for row in matrix]
        rank_now = generic_rank(entries)
        if rank is None and rank_now == r:
            return entries
        if rank is not None and 0 < rank_now < r and any(any(v) for v in matrix):
            return entries


def _polynomial_form(rng, degrees, symmetry):
    """Every entry allowed by the degree bound -(d_k + d_l), all nonzero.

    The zero pattern, and with it the coordinate witness, is fixed by the
    model; only the coefficients vary with the seed.
    """
    r = len(degrees)
    sign = 1 if symmetry == "symmetric" else -1
    entries = [[[] for _ in range(r)] for _ in range(r)]
    for k in range(r):
        for l in range(k, r):
            bound = -(degrees[k] + degrees[l])
            if bound < 0 or (sign == -1 and k == l):
                continue
            coefficients = [Fraction(rng.randint(-4, 4)) for _ in range(bound)]
            coefficients.append(Fraction(_nonzero(rng, 4)))
            entries[k][l] = coefficients
            entries[l][k] = [sign * c for c in coefficients]
    return entries


def form_check_instances(rng):
    out = []

    def add(name, degrees, symmetry, matrix, checks, large=False):
        for check in checks:
            out.append(
                _instance(
                    f"{name} {check}",
                    ["form-check"],
                    _form_doc(degrees, symmetry, matrix, check),
                    large,
                )
            )

    both = ("semistable", "ramanathan")
    # Nondegenerate constant forms on the trivial model: the whole walk.
    add("r3 sym const", [0] * 3, "symmetric", _constant_form(rng, 3, "symmetric"), ["semistable"])
    add("r4 sym const", [0] * 4, "symmetric", _constant_form(rng, 4, "symmetric"), both)
    add("r4 alt const", [0] * 4, "antisymmetric", _constant_form(rng, 4, "antisymmetric"), both)
    # Degenerate forms: the kernel flag is scored first and destabilizes.
    add("r3 sym rank2", [0] * 3, "symmetric", _constant_form(rng, 3, "symmetric", 2), ["semistable"])
    add("r4 alt rank2", [0] * 4, "antisymmetric", _constant_form(rng, 4, "antisymmetric", 2), ["semistable"])
    add("r5 alt rank4", [0] * 5, "antisymmetric", _constant_form(rng, 5, "antisymmetric", 4), ["semistable"])
    # Polynomial entries on nontrivial split models: a coordinate witness.
    add("r3 sym poly", [1, 0, -1], "symmetric", _polynomial_form(rng, [1, 0, -1], "symmetric"), ["semistable"])
    add("r4 sym poly", [1, 1, -1, -1], "symmetric", _polynomial_form(rng, [1, 1, -1, -1], "symmetric"), both)
    add("r4 alt poly", [1, 1, -1, -1], "antisymmetric", _polynomial_form(rng, [1, 1, -1, -1], "antisymmetric"), both)
    # Large class: the exhaustive r = 5 walk, 540 coordinate flags.
    add("r5 sym const", [0] * 5, "symmetric", _constant_form(rng, 5, "symmetric"), ["semistable"], large=True)
    return out


# -- torus -------------------------------------------------------------------


def _sum_zero_vector(rng, r, bound):
    while True:
        vec = [rng.randint(-bound, bound) for _ in range(r - 1)]
        last = -sum(vec)
        if abs(last) <= bound and any(vec + [last]):
            return vec + [last]


def _torus_doc(r, weights, extra, rng, lam=None):
    """Support b0..b{m-1} carries ``weights``; ``extra`` off-support labels."""
    basis = [{"label": f"b{i}", "weight": list(w)} for i, w in enumerate(weights)]
    for j in range(extra):
        basis.append(
            {"label": f"b{len(weights) + j}", "weight": [rng.randint(-3, 3) for _ in range(r)]}
        )
    point = {
        f"b{i}": q_str(Fraction(_nonzero(rng, 6), rng.randint(1, 4)))
        for i in range(len(weights))
    }
    payload = {"rep": {"torus_rank": r, "basis": basis}, "point": point}
    if lam is not None:
        payload["lambda"] = list(lam)
    return _document("torus_rep", payload)


def _unstable_weights(rng, r, m, bound):
    """m weights with <lambda, w> < 0 for a planted sum-zero lambda in the grid."""
    lam = _sum_zero_vector(rng, r, 3)
    weights = []
    while len(weights) < m:
        w = [rng.randint(-bound, bound) for _ in range(r)]
        if sum(a * b for a, b in zip(lam, w)) < 0:
            weights.append(w)
    return weights


def _semistable_weights(rng, r, m, bound):
    """Pairs w, -w (so 0 is in the hull), plus one free weight if m is odd."""
    weights = []
    while len(weights) + 2 <= m:
        w = [rng.randint(-bound, bound) for _ in range(r)]
        weights += [w, [-x for x in w]]
    if len(weights) < m:
        weights.append([rng.randint(-bound, bound) for _ in range(r)])
    rng.shuffle(weights)
    return weights


# (rank, support size, weight bound, class).  "wide" points are drawn
# without a planted verdict; a few of them need a destabilizer outside
# the radius-3 grid, found by the LP fallback.
_TORUS_SPECS = (
    (3, 2, 3, "unstable"), (3, 9, 3, "semistable"), (3, 3, 9, "wide"),
    (3, 3, 9, "wide"), (3, 4, 9, "wide"), (3, 6, 9, "semistable"), (3, 4, 9, "mu"),
    (4, 4, 3, "unstable"), (4, 12, 3, "semistable"), (4, 4, 9, "wide"),
    (4, 3, 9, "wide"), (4, 5, 9, "wide"),
    (4, 8, 9, "semistable"), (4, 6, 9, "mu"),
    (5, 5, 3, "unstable"), (5, 15, 9, "semistable"), (5, 3, 9, "wide"),
    (5, 10, 3, "mu"),
    (6, 3, 3, "unstable"), (6, 18, 3, "semistable"), (6, 6, 9, "unstable"),
    (6, 12, 9, "mu"),
    (7, 21, 9, "semistable"), (7, 14, 3, "mu"),
)


def _torus_instance(rng, r, m, bound, kind, large=False):
    name = f"r{r} m{m} w{bound} {kind}"
    if kind == "mu":
        weights = [[rng.randint(-bound, bound) for _ in range(r)] for _ in range(m)]
        doc = _torus_doc(r, weights, 2, rng, lam=_sum_zero_vector(rng, r, 3))
        return _instance(name, ["mu"], doc, large)
    if kind == "semistable":
        weights = _semistable_weights(rng, r, m, bound)
    elif kind == "wide":
        weights = [[rng.randint(-bound, bound) for _ in range(r)] for _ in range(m)]
    else:
        weights = _unstable_weights(rng, r, m, bound)
    return _instance(name, ["destabilize"], _torus_doc(r, weights, 2, rng), large)


def torus_instances(rng):
    out = [_torus_instance(rng, *spec) for spec in _TORUS_SPECS]
    # Large class: unstable rank-7 points, a full 7^7 grid scan each.
    out += [_torus_instance(rng, 7, 3, 3, "unstable", large=True) for _ in range(2)]
    return out


# -- dispo -------------------------------------------------------------------


def _filtration(rng, r, steps):
    """Genus-0 data: P(n) = r n + d + r, P_j(n) = k_j n + d_j + k_j."""
    ranks = sorted(rng.sample(range(1, r), steps))
    d = rng.randint(-4, 4)
    members = []
    for k in ranks:
        dj = rng.randint(-4, 4)
        members.append(
            {
                "rank": k,
                "degree": str(dj),
                "hilb": _poly_json([Fraction(dj + k), Fraction(k)]),
                "alpha": q_str(Fraction(rng.randint(1, 6), rng.randint(1, 4))),
            }
        )
    return {
        "r": r,
        "d": str(d),
        "P": _poly_json([Fraction(d + r), Fraction(r)]),
        "members": members,
    }


def _profile(rng, steps, tuple_len, share):
    """A random upward-closed profile holding ``share`` of all sorted tuples.

    Grown from the all-top tuple by adding, one at a time, a random tuple
    whose covers (one entry raised by one, still sorted) are all present,
    so its size, and with it the cost of validating it, is fixed.  The
    full profile when ``share`` is 1.
    """
    top = steps + 1
    universe = list(itertools.combinations_with_replacement(range(1, top + 1), tuple_len))
    size = max(1, round(share * len(universe)))
    tuples = {(top,) * tuple_len}

    def covers(t):
        for i in range(tuple_len):
            if t[i] < top and (i + 1 == tuple_len or t[i] < t[i + 1]):
                yield t[:i] + (t[i] + 1,) + t[i + 1 :]

    while len(tuples) < size:
        addable = [t for t in universe if t not in tuples and all(c in tuples for c in covers(t))]
        tuples.add(rng.choice(addable))
    return {"t": steps, "tuple_len": tuple_len, "tuples": [list(t) for t in sorted(tuples)]}


def _entry(rng, r, steps, tuple_len, share=0.5):
    return {
        "filtration": _filtration(rng, r, steps),
        "profile": _profile(rng, steps, tuple_len, share),
    }


def _dispo_check(rng, mode, count):
    entries = []
    for i in range(count):
        r = 3 + i % 4
        steps = 1 + i % min(3, r - 1)
        entries.append(_entry(rng, r, steps, 2 + i % 3))
    payload = {"mode": mode, "entries": entries}
    if mode == "delta":
        payload["delta"] = _poly_json([Fraction(rng.randint(0, 3)), Fraction(rng.randint(1, 3), rng.randint(1, 3))])
    elif mode == "slope":
        payload["delta_bar"] = q_str(Fraction(rng.randint(0, 6), rng.randint(1, 4)))
    return _document("dispo", payload)


def _single(rng, r, steps, tuple_len, share):
    return _document("dispo", _entry(rng, r, steps, tuple_len, share))


def dispo_instances(rng):
    out = []
    for mode in ("delta", "slope", "asymptotic"):
        for count in (8, 24):
            out.append(
                _instance(f"check {mode} {count}", ["dispo-check"], _dispo_check(rng, mode, count))
            )
    for r, steps, tuple_len in ((3, 1, 2), (4, 2, 4), (5, 3, 5), (6, 2, 6)):
        out.append(
            _instance(f"mu s{steps} l{tuple_len}", ["mu", "--kind", "dispo"], _single(rng, r, steps, tuple_len, 0.5))
        )
        out.append(
            _instance(f"deform s{steps} l{tuple_len}", ["deform"], _single(rng, r, steps, tuple_len, 0.5))
        )
    # Large class: full profiles of 165 to 330 tuples.
    out.append(_instance("mu full s3 l8", ["mu", "--kind", "dispo"], _single(rng, 5, 3, 8, 1), True))
    out.append(_instance("deform full s4 l6", ["deform"], _single(rng, 6, 4, 6, 1), True))
    slope = _dispo_check(rng, "slope", 4)
    slope["payload"]["entries"].append(_entry(rng, 6, 4, 7, 1))
    out.append(_instance("check slope full s4 l7", ["dispo-check"], slope, True))
    return out


# -- cli-cold ------------------------------------------------------------------


def cli_cold_instances(rng):
    r = 4
    degrees = [rng.randint(-2, 2) for _ in range(r - 1)]
    degrees.append(-sum(degrees))
    chain = [[1 + rng.randrange(r)]]
    rest = [k for k in range(1, r + 1) if k not in chain[0]]
    chain.append(sorted(chain[0] + rng.sample(rest, 2)))
    flag = {
        "steps": [
            {
                "generators": [
                    [["1"] if a == k else [] for a in range(1, r + 1)] for k in subset
                ],
                "alpha": q_str(Fraction(rng.randint(1, 5), rng.randint(1, 3))),
            }
            for subset in chain
        ]
    }
    return [
        _instance("form r3 sym const", ["form-check"], _form_doc([0] * 3, "symmetric", _constant_form(rng, 3, "symmetric"), "semistable")),
        _instance("form r3 sym rank2", ["form-check"], _form_doc([0] * 3, "symmetric", _constant_form(rng, 3, "symmetric", 2), "semistable")),
        _torus_instance(rng, 3, 3, 3, "unstable"),
        _torus_instance(rng, 4, 8, 9, "semistable"),
        _torus_instance(rng, 3, 4, 9, "mu"),
        _instance("check delta 4", ["dispo-check"], _dispo_check(rng, "delta", 4)),
        _instance("deform s2 l3", ["deform"], _single(rng, 4, 2, 3, 0.5)),
        _instance("mu s2 l3", ["mu", "--kind", "dispo"], _single(rng, 4, 2, 3, 0.5)),
        _instance("dualize r4", ["dualize"], _document("flags", {"degrees": degrees, "flag": flag})),
        _instance("enumerate-compositions 4", ["enumerate-compositions", "4"]),
    ] + [
        # Large class: a semistable r = 4 walk over 74 coordinate flags.
        # No cache outlives a process, so the three cost the same.
        _instance("form r4 sym const", ["form-check"], _form_doc([0] * 4, "symmetric", _constant_form(rng, 4, "symmetric"), "semistable"), True)
        for _ in range(3)
    ]


_GENERATORS = {
    "form-check": form_check_instances,
    "torus": torus_instances,
    "dispo": dispo_instances,
    "cli-cold": cli_cold_instances,
}


def instances(workload: str, seed: int) -> list[dict]:
    """The fixed instance list of one round; the same seed, the same list."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
