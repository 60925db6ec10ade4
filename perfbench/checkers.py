"""Independent checkers for `semistab` CLI outputs.

Nothing here imports `semistab`.  Every verdict is recomputed from the
instance document with plain `Fraction` arithmetic and brute force, and
every certificate or witness in the output is re-scored the same way:

* form-check: det Phi == 0 is decided by exact evaluation at more points
  than any minor's degree; nondegenerate forms are decided by brute force
  over all coordinate flags from the zero pattern of Phi; kernel
  witnesses must satisfy Phi v = 0.
* destabilize / mu on torus weights: certificates are convex
  combinations, destabilizers are primitive sum-zero vectors with
  max <lambda, w> < 0 on the support, mu is the maximum pairing.
* dispo: mu by exhaustive minimisation, M and L from their defining
  sums, verdicts and witness indices from the first failing entry,
  deformations from the upward closure of the minimal-weight tuples.

`check(instance, stdout)` raises `Mismatch` on the first disagreement.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction


class Mismatch(Exception):
    """An output that disagrees with the independent computation."""


def _require(condition, message):
    if not condition:
        raise Mismatch(message)


def q_str(value) -> str:
    """Canonical rational string, "p" or "p/q"."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _q(text) -> Fraction:
    _require(isinstance(text, (str, int)) and not isinstance(text, bool), f"not a rational: {text!r}")
    value = Fraction(text)
    _require(isinstance(text, int) or q_str(value) == text, f"rational not canonical: {text!r}")
    return value


# -- polynomials over Q: coefficient lists, constant term first, trimmed ------


def _trim(coefficients):
    coefficients = list(coefficients)
    while coefficients and coefficients[-1] == 0:
        coefficients.pop()
    return coefficients


def _poly(data):
    return _trim(Fraction(c) for c in data)


def _padd(p, q):
    n = max(len(p), len(q))
    return _trim(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def _pscale(p, c):
    return _trim(c * a for a in p)


def _pmul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _peval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _sign_at_infinity(p) -> int:
    """Sign of p(n) for n >> 0."""
    if not p:
        return 0
    return 1 if p[-1] > 0 else -1


# -- exact linear algebra -----------------------------------------------------


def _rank(rows) -> int:
    rows = [list(row) for row in rows]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def generic_rank(matrix) -> int:
    """Rank over Q(x) of a matrix of coefficient lists.

    Every minor has degree at most D, the sum of the rows' largest entry
    degrees, so a nonzero minor is nonzero at one of D + 1 distinct
    points, and the rank at a point never exceeds the generic rank.
    """
    bound = sum(max((len(p) - 1 for p in row if p), default=0) for row in matrix)
    return max(
        _rank([[_peval(p, Fraction(x)) for p in row] for row in matrix])
        for x in range(bound + 1)
    )


# -- output format --------------------------------------------------------------


def parse_output(stdout: str):
    """One sorted, compact JSON object on one line with a trailing newline."""
    _require(stdout.endswith("\n") and stdout.count("\n") == 1, "output is not one line")
    try:
        document = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"output is not JSON: {exc}") from None
    _require(isinstance(document, dict), "output is not a JSON object")
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
    _require(stdout == canonical, "output is not sorted, compact JSON")
    return document


# -- form-check -----------------------------------------------------------------


def coordinate_flags(r):
    """All chains of nonempty proper subsets of {0..r-1}, as bitmasks."""
    full = (1 << r) - 1
    subsets = [s for s in range(1, full)]

    def extend(chain):
        if chain:
            yield list(chain)
        for s in subsets:
            if not chain or (s & chain[-1] == chain[-1] and s != chain[-1]):
                yield from extend(chain + [s])

    return list(extend([]))


def score_coordinate_flag(degrees, nonzero, chain, alphas):
    """(mu, M, L) of a weighted coordinate flag of a form bundle on P^1.

    ``chain`` holds cumulative index bitmasks, ``nonzero`` the pairs (k, l)
    with Phi_kl != 0.  The pair of steps (i, j) survives when Phi is
    nonzero on F_i x F_j.  Step j is the sum of O(d_k) over its indices:
    rank |S_j|, degree deg_j = sum of d_k, Hilbert polynomial
    |S_j| n + deg_j + |S_j|; the whole sheaf has P = r n + r, degree 0.
    """
    r = len(degrees)
    steps = list(chain) + [(1 << r) - 1]
    members = []
    for s, a in zip(chain, alphas):
        k = bin(s).count("1")
        deg = sum(degrees[i] for i in range(r) if s >> i & 1)
        members.append((k, Fraction(deg), _trim([Fraction(deg + k), Fraction(k)]), a))
    filtration = (r, Fraction(0), [Fraction(r), Fraction(r)], members)

    def survives(a, b):
        return any(
            (k, l) in nonzero
            for k in range(r) if a >> k & 1
            for l in range(r) if b >> l & 1
        )

    profile = [
        (i + 1, j + 1)
        for i in range(len(steps))
        for j in range(i, len(steps))
        if survives(steps[i], steps[j])
    ]
    return mu_of(filtration, profile), functional_m(filtration), functional_l(filtration)


def _destabilizes(check, mu, m_poly, l_value):
    if check == "semistable":
        return mu < 0 or (mu == 0 and _sign_at_infinity(m_poly) < 0)
    return mu == 0 and l_value < 0


def _flag_columns(witness, r):
    _require(isinstance(witness, dict) and isinstance(witness.get("steps"), list), "witness is not a flag")
    steps = []
    for step in witness["steps"]:
        columns = [[_poly(p) for p in column] for column in step["generators"]]
        _require(all(len(c) == r for c in columns), "witness column has the wrong length")
        steps.append((columns, _q(step["alpha"])))
    return steps


def _coordinate_chain(steps, r):
    chain, alphas = [], []
    for columns, alpha in steps:
        mask = 0
        for column in columns:
            hits = [k for k, p in enumerate(column) if p]
            _require(len(hits) == 1 and column[hits[0]] == [1], "witness is not a coordinate flag")
            mask |= 1 << hits[0]
        chain.append(mask)
        alphas.append(alpha)
    full = (1 << r) - 1
    for i, s in enumerate(chain):
        _require(0 < s < full, "witness step is not a proper subsheaf")
        _require(i == 0 or (s & chain[i - 1] == chain[i - 1] and s != chain[i - 1]), "witness steps are not nested")
        _require(alphas[i] > 0, "witness weight is not positive")
    return chain, alphas


def check_form(doc, out):
    payload = doc["payload"]
    form = payload["form"]
    check = payload.get("check", "semistable")
    degrees = [int(d) for d in form["degrees"]]
    r = len(degrees)
    phi = [[_poly(p) for p in row] for row in form["entries"]]
    _require(set(out) == {"verdict", "witness"}, f"form-check keys {sorted(out)}")
    verdict, witness = out["verdict"], out["witness"]
    _require(verdict in ("semistable", "unstable"), f"unknown verdict {verdict!r}")
    _require((witness is None) == (verdict == "semistable"), "witness does not match the verdict")
    rank = generic_rank(phi)
    if rank < r and check == "semistable":
        # det Phi == 0: the kernel flag has mu = -2 rk(K) < 0.
        _require(verdict == "unstable", "degenerate form reported semistable")
        steps = _flag_columns(witness, r)
        _require(len(steps) == 1 and steps[0][1] == 1, "kernel witness must be one step of weight 1")
        columns = steps[0][0]
        _require(len(columns) == r - rank, "kernel witness has the wrong rank")
        for v in columns:
            for row in phi:
                acc = []
                for p, c in zip(row, v):
                    acc = _padd(acc, _pmul(p, c))
                _require(not acc, "kernel witness is not in the kernel of Phi")
        transposed = [[column[a] for column in columns] for a in range(r)]
        _require(generic_rank(transposed) == len(columns), "kernel witness columns are dependent")
        return
    # Nondegenerate, or a Ramanathan check (the kernel flag has mu < 0 and
    # never counts there): brute force over every coordinate flag.
    nonzero = {(k, l) for k in range(r) for l in range(r) if phi[k][l]}
    expected = any(
        _destabilizes(check, *score_coordinate_flag(degrees, nonzero, chain, [Fraction(1)] * len(chain)))
        for chain in coordinate_flags(r)
    )
    _require((verdict == "unstable") == expected, f"verdict {verdict}, brute force says unstable={expected}")
    if verdict == "unstable":
        chain, alphas = _coordinate_chain(_flag_columns(witness, r), r)
        _require(
            _destabilizes(check, *score_coordinate_flag(degrees, nonzero, chain, alphas)),
            "witness flag does not destabilize",
        )


# -- torus weights ----------------------------------------------------------------


def _torus_point(doc):
    payload = doc["payload"]
    rep = payload["rep"]
    r = int(rep["torus_rank"])
    weights = {item["label"]: [int(w) for w in item["weight"]] for item in rep["basis"]}
    support = [weights[label] for label in payload["point"]]
    return r, weights, payload["point"], support


def _pairing(lam, w):
    return sum(a * b for a, b in zip(lam, w))


def check_destabilize(doc, out):
    r, weights, point, support = _torus_point(doc)
    verdict = out.get("verdict")
    if verdict == "semistable":
        _require(set(out) == {"verdict", "certificate"}, f"destabilize keys {sorted(out)}")
        cert = out["certificate"]
        coefficients = {label: _q(c) for label, c in cert["coefficients"].items()}
        multiple = _q(cert["multiple"])
        _require(all(label in point for label in coefficients), "certificate leaves the support")
        _require(all(c > 0 for c in coefficients.values()), "certificate coefficient not positive")
        _require(sum(coefficients.values()) == 1, "certificate coefficients do not sum to 1")
        combo = [sum(c * weights[label][a] for label, c in coefficients.items()) for a in range(r)]
        _require(all(x == multiple for x in combo), "certificate combination is not multiple * (1,...,1)")
        return
    _require(verdict == "unstable" and set(out) == {"verdict", "lambda"}, f"destabilize output {sorted(out)}")
    lam = out["lambda"]
    _require(len(lam) == r and all(type(x) is int for x in lam), "lambda has the wrong shape")
    _require(sum(lam) == 0, "lambda does not sum to zero")
    _require(math.gcd(*lam) == 1, "lambda is not primitive")
    _require(max(_pairing(lam, w) for w in support) < 0, "lambda does not destabilize")


def check_mu_torus(doc, out):
    _r, _weights, _point, support = _torus_point(doc)
    lam = [int(x) for x in doc["payload"]["lambda"]]
    _require(set(out) == {"mu"}, f"mu keys {sorted(out)}")
    _require(_q(out["mu"]) == max(_pairing(lam, w) for w in support), "mu differs from max <lambda, w>")


# -- dispo -------------------------------------------------------------------------


def _filtration(data):
    members = [
        (int(m["rank"]), Fraction(m["degree"]), _poly(m["hilb"]), Fraction(m["alpha"]))
        for m in data["members"]
    ]
    return int(data["r"]), Fraction(data["d"]), _poly(data["P"]), members


def _tuples(profile):
    return {tuple(sorted(int(i) for i in t)) for t in profile["tuples"]}


def block_weights(filtration):
    """Block i of the weight vector sum_j alpha_j gamma^(rk_j): one value per block."""
    r, _d, _p, members = filtration
    return [
        sum(a * (k - r) for k, _, _, a in members[i:]) + sum(a * k for k, _, _, a in members[:i])
        for i in range(len(members) + 1)
    ]


def mu_of(filtration, tuples):
    gamma = block_weights(filtration)
    return -min(sum(gamma[i - 1] for i in t) for t in tuples)


def functional_m(filtration):
    r, _d, total, members = filtration
    out = []
    for k, _deg, hilb, a in members:
        out = _padd(out, _pscale(_padd(_pscale(total, k), _pscale(hilb, -r)), a))
    return out


def functional_l(filtration):
    r, d, _total, members = filtration
    return sum((a * (k * d - r * deg) for k, deg, _h, a in members), Fraction(0))


def _entry_fails(payload, filtration, tuples):
    mode = payload.get("mode", "asymptotic")
    mu = mu_of(filtration, tuples)
    if mode == "delta":
        value = _padd(functional_m(filtration), _pscale(_poly(payload["delta"]), mu))
        return _sign_at_infinity(value) < 0
    if mode == "slope":
        return functional_l(filtration) + Fraction(payload["delta_bar"]) * mu < 0
    return mu < 0 or (mu == 0 and _sign_at_infinity(functional_m(filtration)) < 0)


def check_dispo_check(doc, out):
    payload = doc["payload"]
    first = next(
        (
            i
            for i, entry in enumerate(payload["entries"])
            if _entry_fails(payload, _filtration(entry["filtration"]), _tuples(entry["profile"]))
        ),
        None,
    )
    if first is None:
        _require(out == {"verdict": "semistable"}, f"expected semistable, got {out}")
    else:
        _require(out == {"verdict": "violated", "witness_index": first}, f"expected violated at {first}, got {out}")


def check_mu_dispo(doc, out):
    payload = doc["payload"]
    mu = mu_of(_filtration(payload["filtration"]), _tuples(payload["profile"]))
    _require(set(out) == {"mu"} and _q(out["mu"]) == mu, f"mu {out} differs from {q_str(mu)}")


def _closure(generators, steps, tuple_len):
    universe = itertools.combinations_with_replacement(range(1, steps + 2), tuple_len)
    return {u for u in universe if any(all(a <= b for a, b in zip(g, u)) for g in generators)}


def _deform(filtration, tuples, steps, tuple_len):
    gamma = block_weights(filtration)
    sums = {t: sum(gamma[i - 1] for i in t) for t in tuples}
    least = min(sums.values())
    return _closure([t for t, s in sums.items() if s == least], steps, tuple_len)


def check_deform(doc, out):
    payload = doc["payload"]
    filtration = _filtration(payload["filtration"])
    profile = payload["profile"]
    steps, tuple_len = int(profile["t"]), int(profile["tuple_len"])
    _require(set(out) == {"profile"}, f"deform keys {sorted(out)}")
    result = out["profile"]
    _require(result.get("t") == steps and result.get("tuple_len") == tuple_len, "deformed profile changed shape")
    listed = [tuple(t) for t in result["tuples"]]
    tuples = set(listed)
    _require(listed == sorted(tuples), "deformed tuples are not sorted and distinct")
    _require(all(list(t) == sorted(t) and len(t) == tuple_len for t in listed), "deformed tuple not sorted")
    _require((steps + 1,) * tuple_len in tuples, "deformed profile lacks the all-top tuple")
    for t in tuples:
        for i in range(tuple_len):
            up = t[:i] + (t[i] + 1,) + t[i + 1:]
            if up[i] <= steps + 1 and (i + 1 == tuple_len or up[i] <= up[i + 1]):
                _require(up in tuples, f"deformed profile not upward closed at {t}")
    _require(tuples == _deform(filtration, _tuples(profile), steps, tuple_len), "not the closure of the minimal tuples")
    _require(mu_of(filtration, tuples) == mu_of(filtration, _tuples(profile)), "deformation changed mu")
    _require(_deform(filtration, tuples, steps, tuple_len) == tuples, "deformation is not idempotent")


# -- other commands ----------------------------------------------------------------


def check_dualize(doc, out):
    payload = doc["payload"]
    r = len(payload["degrees"])
    chain, alphas = _coordinate_chain(_flag_columns(payload["flag"], r), r)
    _require(set(out) == {"flag"}, f"dualize keys {sorted(out)}")
    dual, dual_alphas = _coordinate_chain(_flag_columns(out["flag"], r), r)
    full = (1 << r) - 1
    _require(dual == [full ^ s for s in reversed(chain)], "dual chain is not the reversed complement chain")
    _require(dual_alphas == list(reversed(alphas)), "dual weights are not reversed")


def compositions(s):
    """All (d_1..d_s) >= 0 with sum i d_i = s!, lexicographic, by brute force."""
    target = math.factorial(s)
    ranges = [range(target // i + 1) for i in range(1, s + 1)]
    return [list(d) for d in itertools.product(*ranges) if sum((i + 1) * x for i, x in enumerate(d)) == target]


def check_compositions(s, out):
    _require(out == {"s": s, "tuples": compositions(s)}, "compositions differ from brute force")


def check(instance, stdout):
    """Raise Mismatch unless ``stdout`` is the right answer for ``instance``."""
    out = parse_output(stdout)
    argv, doc = instance["argv"], instance["doc"]
    command = argv[0]
    if command == "form-check":
        check_form(doc, out)
    elif command == "destabilize":
        check_destabilize(doc, out)
    elif command == "mu":
        (check_mu_dispo if "dispo" in argv else check_mu_torus)(doc, out)
    elif command == "dispo-check":
        check_dispo_check(doc, out)
    elif command == "deform":
        check_deform(doc, out)
    elif command == "dualize":
        check_dualize(doc, out)
    elif command == "enumerate-compositions":
        check_compositions(int(argv[1]), out)
    else:
        raise Mismatch(f"no checker for {command!r}")
