"""The three benchmark workloads: query lists made from a seed, and their checks.

A query is a JSON object that child.py turns into one public API call.
Next to each query list comes an expected answer for every query, found
outside the timed region by the cheapest independent route:

- closed forms: theta(r) at weight zero is 2^C(r,2), its ray (N+1)^C(r,2);
- the oracles in kostant.reference inside their boxes: dynamic programming
  for partition counts with entries <= 12 at rank <= 4, Freudenthal for
  multiplicities at rank <= 4, Littlewood-Richardson for tensor
  coefficients at rank <= 3;
- plain arithmetic for basis conversion;
- elsewhere, values frozen in frozen.json (see freeze.py).

Why these workloads:

cold-heavy   theta(4..6) multiplicities, rank-4/5 tensor coefficients with
             hundreds to thousands of couples, rank-6 partition counts with
             entries near 10^9.  The residue walk and the pool do nearly all
             the work; arguments repeat only inside one pooled call, where
             the parent's cache never sees them, so engine changes show here
             and cache changes should not.
ray-fit      polynomials along dilation rays: d+3 samples per ray with
             growing entries and changing term sets, one pool per sample and
             an exact Fraction interpolation.  The only workload where the
             fit layer and batching over samples can show.
batch-mixed  a seeded stream of 1000 small records of the five batch
             commands at ranks 2-6 through kostant.cli.run_record, one
             caller in a closed loop (see BATCH_RECORDS for the mix).
             Per-record overhead (parsing, validation, search set-up, a pool
             per record with >= 24 terms, cache reuse across records)
             dominates and the residue walk does little.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

FROZEN = Path(__file__).resolve().parent / "frozen.json"

# batch-mixed.  The batch path was profiled on a 1000-record sample before
# this benchmark existed, so a pass has that many records.  That profile
# gives two figures and nothing else about the sample, so two shares here
# are fitted to them and the rest follow fixed rules:
#
# - BATCH_KOSTANT_SHARE of the records are partition counts; it sets how
#   often arguments repeat, and is fitted so that about 44% of the caller's
#   partition lookups hit its cache, as in the profile.  A partition count
#   is one lookup that rarely repeats, while a small multiplicity, tensor
#   coefficient or ray makes several lookups that mostly repeat.
# - BATCH_POOLED rank-4 tensor records have >= 24 couples, so the library
#   forks a pool for each; the number is fitted so that the caller waits on
#   pools for about 0.3 of a pass, as in the profile (1.18 s of 3.96 s).
# - The other four commands share the remaining records equally.  Each
#   command spreads its records evenly over its ranks in BATCH_RANKS: ranks
#   2-6, less those where one record costs as much as a hundred others.
#   Partition counts split evenly between small entries (at most 12, inside
#   the dynamic-programming oracle's box) and entries up to 10^6.
#
# A record that an oracle or a closed form covers is drawn from the seed;
# any other record is one of the cases of frozen.json, each used once a
# pass, so an argument repeats only where records collide by themselves.
BATCH_RECORDS = 1000
BATCH_KOSTANT_SHARE = 0.72
BATCH_POOLED = 30
BATCH_RANKS = {
    "convert": (2, 3, 4, 5, 6),
    "kostant": (2, 3, 4, 5),  # one rank-6 count takes 30 to 250 ms
    "mult": (2, 3, 4, 5, 6),
    "tensor": (2, 3, 4, 5),  # one rank-6 coefficient takes about 0.1 s
    "poly-mult": (2, 3),  # one rank-4 ray fit takes 10 to 400 ms
}


def batch_plan() -> dict:
    """Records of one batch-mixed pass per (command, rank, size) class.

    size is "big" for partition counts with entries up to 10^6, "pooled"
    for the tensor records with >= 24 couples, else "small".
    """
    others = len(BATCH_RANKS) - 1
    each = (BATCH_RECORDS - round(BATCH_RECORDS * BATCH_KOSTANT_SHARE)) // others
    counts = {command: each for command in BATCH_RANKS}
    counts["kostant"] = BATCH_RECORDS - others * each
    counts["tensor"] -= BATCH_POOLED
    plan = {("tensor", 4, "pooled"): BATCH_POOLED}
    for command, ranks in BATCH_RANKS.items():
        for i, r in enumerate(ranks):
            count = counts[command] // len(ranks) + (i < counts[command] % len(ranks))
            if command == "kostant":
                plan[command, r, "small"] = count - count // 2
                plan[command, r, "big"] = count // 2
            else:
                plan[command, r, "small"] = count
    return plan


def checked_without_freezing(command: str, r: int, size: str) -> bool:
    """Whether a closed form or a cheap oracle checks records of this class."""
    if command == "kostant":
        return r == 2 or (size == "small" and r <= 4)
    return command == "convert" or r <= {"mult": 4, "tensor": 3, "poly-mult": 3}[command]


def frozen_key(command: str, r: int, size: str) -> str:
    return f"{command}-{r}-{size}"


# --- weights -------------------------------------------------------------

def canonical(fund) -> tuple:
    """Zero-mean canonical coordinates of a weight given by fundamental ones."""
    suffix = [Fraction(0)]
    for c in reversed(fund):
        suffix.append(suffix[-1] + c)
    v = list(reversed(suffix))
    shift = Fraction(sum(v), len(v))
    return tuple(x - shift for x in v)


def theta_canonical(r: int) -> tuple:
    return tuple(Fraction(r - i) for i in range(r)) + (Fraction(-r * (r + 1), 2),)


def _strs(v) -> list:
    return [str(x) for x in v]


def _cartan_row(r: int, i: int) -> list:
    """Simple root alpha_i in fundamental coordinates."""
    row = [0] * r
    row[i] = 2
    if i > 0:
        row[i - 1] = -1
    if i < r - 1:
        row[i + 1] = -1
    return row


def lower(fund, depth, rng) -> list:
    """fund minus a random non-negative combination of simple roots."""
    r = len(fund)
    out = list(fund)
    for i in range(r):
        c = rng.randint(0, depth)
        out = [a - c * b for a, b in zip(out, _cartan_row(r, i))]
    return out


def dominant(r: int, top: int, rng) -> list:
    while True:
        fund = [rng.randint(0, top) for _ in range(r)]
        if any(fund):
            return fund


def tensor_triple(r: int, top: int, depth: int, rng):
    """Dominant lam, mu, nu with nu in the root-lattice class of lam + mu."""
    while True:
        lam, mu = dominant(r, top, rng), dominant(r, top, rng)
        nu = lower([a + b for a, b in zip(lam, mu)], depth, rng)
        if min(nu) >= 0:
            return lam, mu, nu


def cone_vector(r: int, roots: int, big: int, rng) -> list:
    """A sum of random positive roots e_i - e_j, each with multiplicity <= big."""
    a = [0] * (r + 1)
    for _ in range(roots):
        i, j = sorted(rng.sample(range(r + 1), 2))
        k = rng.randint(1, big)
        a[i] += k
        a[j] -= k
    return a


def small_cone_vector(r: int, rng) -> list:
    """A sum of 1 to 5 random positive roots, each with multiplicity <= 4,
    with every entry inside the dynamic-programming oracle's box (<= 12)."""
    while True:
        a = cone_vector(r, rng.randint(1, 5), 4, rng)
        if max(map(abs, a)) <= 12:
            return a


# --- queries -------------------------------------------------------------

def _weights_query(op, qid, *fund_weights):
    q = {"op": op, "id": qid}
    for key, fund in zip(("lam", "mu", "nu"), fund_weights):
        q[key] = _strs(canonical(fund))
    return q


def _theta_query(op, r):
    return {"op": op, "id": f"theta{r}" + ("_poly" if op == "mult_poly" else ""),
            "lam": _strs(theta_canonical(r)), "mu": ["0"] * (r + 1)}


def _load_frozen() -> dict:
    with open(FROZEN) as fh:
        return json.load(fh)


def cold_heavy(seed: int, frozen: dict):
    """The fixed heavy cases; the seed selects nothing here."""
    queries, expect = [], []
    for r in (4, 5, 6):
        queries.append(_theta_query("mult", r))
        expect.append(("value", str(2 ** comb(r, 2))))
    for case in frozen["cold_heavy"]["tensor"]:
        queries.append(_weights_query("tensor", case["id"], case["lam"], case["mu"], case["nu"]))
        expect.append(("value", case["value"]))
    for case in frozen["cold_heavy"]["partitions6"]:
        queries.append({"op": "kostant", "id": "k6", "a": case["a"]})
        expect.append(("value", case["value"]))
    return queries, expect


def ray_fit(seed: int, frozen: dict):
    rng = random.Random(seed)
    queries, expect = [], []
    for r in (2, 3, 4, 5):
        queries.append(_theta_query("mult_poly", r))
        d = comb(r, 2)
        expect.append(("value", ",".join(str(comb(d, k)) for k in range(d + 1))))
    for case in frozen["ray_fit"]["tensor_poly"]:
        queries.append(_weights_query("tensor_poly", case["id"], case["lam"], case["mu"], case["nu"]))
        expect.append(("value", case["value"]))
    for case in frozen["ray_fit"]["mult_poly"]:
        queries.append(_weights_query("mult_poly", case["id"], case["lam"], case["mu"]))
        expect.append(("mult_ray", case["lam"], case["mu"], case["value"]))
    for case in rng.sample(frozen["ray_fit"]["rank3_tensor_rays"], 2):
        queries.append(_weights_query("tensor_poly", "rank3-ray", case["lam"], case["mu"], case["nu"]))
        expect.append(("tensor_ray", case["lam"], case["mu"], case["nu"], case["value"]))
    return queries, expect


def _fund_text(v) -> str:
    return ",".join(str(x) for x in v)


def _frozen_record(command, case):
    if command == "kostant":
        rec = {"command": "kostant", "rank": len(case["a"]) - 1, "vector": _fund_text(case["a"])}
    else:
        rec = {"command": command, "rank": len(case["lam"]), "basis": "fundamental",
               "lambda": _fund_text(case["lam"]), "mu": _fund_text(case["mu"])}
        if "nu" in case:
            rec["nu"] = _fund_text(case["nu"])
    return rec, ("value", case["value"])


def _random_record(command, r, size, rng):
    """One record of a class that checked_without_freezing covers, and its check."""
    if command == "convert":
        if rng.random() < 0.5:
            fund = [rng.randint(-9, 9) for _ in range(r)]
            rec = {"command": "convert", "rank": r, "to": "canonical", "vector": _fund_text(fund)}
            return rec, ("value", ",".join(_strs(canonical(fund))))
        v = [Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3))) for _ in range(r + 1)]
        rec = {"command": "convert", "rank": r, "to": "fundamental", "vector": ",".join(_strs(v))}
        return rec, ("value", ",".join(str(v[i] - v[i + 1]) for i in range(r)))
    if command == "kostant" and size == "big":
        a = cone_vector(2, 3, 10 ** 6 // 3, rng)
        return ({"command": "kostant", "rank": 2, "vector": _fund_text(a)},
                ("value", str(min(a[0], -a[2]) + 1)))
    if command == "kostant":
        a = small_cone_vector(r, rng)
        return {"command": "kostant", "rank": r, "vector": _fund_text(a)}, ("dp", a)
    if command == "tensor":
        lam, mu, nu = tensor_triple(r, 2, 1, rng)
        rec = {"command": "tensor", "rank": r, "basis": "fundamental",
               "lambda": _fund_text(lam), "mu": _fund_text(mu), "nu": _fund_text(nu)}
        return rec, ("lr", lam, mu, nu)
    lam = dominant(r, 2, rng)
    mu = lower(lam, 1, rng)
    rec = {"command": command, "rank": r, "basis": "fundamental",
           "lambda": _fund_text(lam), "mu": _fund_text(mu)}
    return rec, ("freudenthal", lam, mu) if command == "mult" else ("mult_ray", lam, mu, None)


def batch_mixed(seed: int, frozen: dict):
    """The classes of batch_plan; the seed draws the unfrozen records and the order.

    Every frozen case is used once, so the seed does not change which
    records outside the oracles' boxes a stream holds, only where they fall.
    """
    rng = random.Random(seed)
    pairs = []
    for (command, r, size), count in batch_plan().items():
        if checked_without_freezing(command, r, size):
            pairs += [_random_record(command, r, size, rng) for _ in range(count)]
            continue
        cases = frozen["batch"][frozen_key(command, r, size)]
        if len(cases) != count:
            raise ValueError("frozen.json does not match batch_plan(); run bench/freeze.py")
        pairs += [_frozen_record(command, case) for case in cases]
    rng.shuffle(pairs)
    queries = [{"op": "record", "id": rec["command"], "record": rec} for rec, _ in pairs]
    return queries, [check for _, check in pairs]


WORKLOADS = {"cold-heavy": cold_heavy, "ray-fit": ray_fit, "batch-mixed": batch_mixed}


def build(name: str, seed: int):
    """(queries, expectations) of one workload; the same seed gives the same lists."""
    return WORKLOADS[name](seed, _load_frozen())


def mix(queries) -> dict:
    """Command and rank mix of a query list, as shares."""
    n = len(queries)
    commands = Counter(q["record"]["command"] if q["op"] == "record" else q["op"] for q in queries)
    ranks = Counter(
        q["record"]["rank"] if q["op"] == "record" else len(q.get("lam", q.get("a"))) - 1
        for q in queries
    )
    return {"commands": {k: v / n for k, v in sorted(commands.items())},
            "ranks": {str(k): v / n for k, v in sorted(ranks.items())}}


# --- checks --------------------------------------------------------------

def _scaled(fund, n):
    return canonical([n * x for x in fund])


def _ray_values(text: str):
    coeffs = [Fraction(c) for c in text.split(",")]
    return lambda n: sum(c * n ** k for k, c in enumerate(coeffs))


def expected_ok(check, answer: str) -> bool:
    """Whether `answer` (the text child.py returned) passes `check`."""
    from kostant import reference

    kind = check[0]
    if kind == "value":
        return answer == check[1]
    if kind == "dp":
        return answer == str(reference.kostant_partition_bruteforce(check[1]))
    if kind == "freudenthal":
        lam, mu = check[1], check[2]
        return answer == str(reference.multiplicity_freudenthal(canonical(lam), canonical(mu)))
    if kind == "lr":
        lam, mu, nu = (canonical(w) for w in check[1:4])
        return answer == str(reference.tensor_bruteforce_lr(lam, mu, nu))
    if answer.startswith("fit-failed"):
        return False
    if check[-1] is not None and answer != check[-1]:
        return False
    weights = check[1:-1]
    poly = _ray_values(answer)
    # Without a frozen value, d + 1 points along the ray pin the polynomial
    # (its degree is at most d = C(r, 2)).  A frozen value is confirmed at
    # N = 1, 2 only, as the oracles' cost grows fast with N.
    points = range(1, comb(len(weights[0]), 2) + 2) if check[-1] is None else (1, 2)
    for n in points:
        if kind == "mult_ray":
            direct = reference.multiplicity_freudenthal(_scaled(weights[0], n), _scaled(weights[1], n))
        else:
            direct = reference.tensor_bruteforce_lr(*(_scaled(w, n) for w in weights))
        if poly(n) != direct:
            return False
    return True
