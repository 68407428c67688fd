"""Empirical selection of the two sign conventions the alternating sums need.

Two parities are plausible for the per-order sign of the residue sum (the
descent count or the inversion count of the order), and two readings are
plausible for the couple sign of the tensor sum (the product of the two
signatures, or the parity of the product of the two lengths).  Each
candidate is evaluated against the brute-force references on exhaustive
small boxes; exactly one candidate of each pair survives, the library ships
hard-wired to the survivors, and the test suite re-runs this procedure and
writes the outcome to artifacts/sign_arbitration.json.
"""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from .formulas import _length_product_sign, _signature_product, tensor_product
from .reference import kostant_partition_bruteforce, tensor_bruteforce_lr
from .residues import descent_sign, inversion_sign, partition_total
from .vectors import DominantWeight, as_vector, deform, from_fundamental, in_positive_cone, is_regular

RESIDUE_DOMAINS: Tuple[Tuple[int, int], ...] = ((2, 5), (3, 4), (4, 2))


def cone_box(rank: int, bound: int) -> Iterable[Tuple[int, ...]]:
    """All integral zero-sum vectors in the cone with |a_i| <= bound."""
    for head in product(range(-bound, bound + 1), repeat=rank):
        tail = -sum(head)
        if abs(tail) > bound:
            continue
        a = head + (tail,)
        if in_positive_cone(a):
            yield a


def _arbitrate(candidates: Dict, cases: Iterable, compute, describe) -> Tuple[Dict, Optional[str]]:
    """Run each candidate rule on (case, expected) pairs until its first wrong
    value; returns the per-candidate record and the first survivor."""
    results = {
        name: {"passed": True, "checked": 0, "first_failure": None}
        for name in candidates
    }
    for case, expected in cases:
        for name, rule in candidates.items():
            outcome = results[name]
            if not outcome["passed"]:
                continue
            got = compute(case, rule)
            outcome["checked"] += 1
            if got != expected:
                outcome["passed"] = False
                outcome["first_failure"] = {**describe(case), "expected": expected, "got": got}
    selected = next((name for name in candidates if results[name]["passed"]), None)
    return results, selected


def _regularised_total(a: Tuple[int, ...], sign) -> int:
    av = as_vector(a)
    return partition_total(av, av if is_regular(av) else deform(av), sign)


def arbitrate_residue_sign(domains: Tuple[Tuple[int, int], ...] = RESIDUE_DOMAINS) -> Dict:
    """Check both residue sign candidates against the DP count, exhaustively."""
    candidates = {
        "descent-count": descent_sign,
        "inversion-count": inversion_sign,
    }
    cases = ((a, kostant_partition_bruteforce(a)) for r, b in domains for a in cone_box(r, b))
    results, selected = _arbitrate(candidates, cases, _regularised_total, lambda a: {"a": list(a)})
    return {
        "quantity": "per-order sign of the residue sum",
        "domains": [{"rank": r, "bound": b} for r, b in domains],
        "candidates": results,
        "selected": selected,
    }


def _tensor_family() -> List[Tuple[DominantWeight, DominantWeight, DominantWeight]]:
    """Small exhaustive triples, rank 1 and 2, matched to the root lattice."""
    triples = []
    for a in range(5):
        for b in range(5):
            for c in range(a + b + 3):
                if (a + b - c) % 2 == 0:
                    triples.append((
                        DominantWeight(from_fundamental([a])),
                        DominantWeight(from_fundamental([b])),
                        DominantWeight(from_fundamental([c])),
                    ))
    fc2 = list(product(range(3), repeat=2))
    for f1 in fc2:
        for f2 in fc2:
            for f3 in product(range(5), repeat=2):
                class1 = (f1[0] + 2 * f1[1] + f2[0] + 2 * f2[1]) % 3
                if (f3[0] + 2 * f3[1]) % 3 != class1:
                    continue
                triples.append((
                    DominantWeight(from_fundamental(f1)),
                    DominantWeight(from_fundamental(f2)),
                    DominantWeight(from_fundamental(f3)),
                ))
    return triples


def arbitrate_couple_sign() -> Dict:
    """Check both tensor-sum sign candidates against the tableau count."""
    candidates = {
        "signature-product": _signature_product,
        "length-product-parity": _length_product_sign,
    }
    cases = ((triple, tensor_bruteforce_lr(*triple)) for triple in _tensor_family())
    results, selected = _arbitrate(
        candidates,
        cases,
        lambda triple, rule: tensor_product(*triple, _sign=rule),
        lambda triple: {
            key: [str(x) for x in w.canonical] for key, w in zip(("lambda", "mu", "nu"), triple)
        },
    )
    return {
        "quantity": "couple sign of the tensor sum",
        "candidates": results,
        "selected": selected,
    }


def write_arbitration_record(path) -> Dict:
    """Run both arbitrations and write the record as JSON; returns the record."""
    record = {
        "residue_term_sign": arbitrate_residue_sign(),
        "couple_sign": arbitrate_couple_sign(),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n")
    return record
