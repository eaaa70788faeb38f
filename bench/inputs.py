"""The three workloads' inputs: prime windows and family files.

Each workload is a list of families (name -> a-coefficient polynomials, as
tuples of ints in ascending powers of t) and a window of 1-based prime
indices. The CLI receives only the family file written here, or no file for
the built-in corpus.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from reference import KEYS, nondegenerate_nonconstant_j, template

# large-prime: a corpus member with a closed form plus the 21-digit rank 6 family
LARGE_PRIME_FAMILIES = ("0_0_0_-t2_t4",)
SURVEY_FAMILIES = 48
SURVEY_TEMPLATE_SHARE = 4  # one family in four is template-shaped, half T1, half T2


@dataclass(frozen=True)
class Workload:
    name: str
    families: list  # [(name, {a1..a6: tuple}), ...] in file order
    start: int
    end: int
    file_input: bool  # False runs the CLI on its built-in corpus
    brute_rows: int  # (family, prime) rows recounted by brute force per run


WINDOWS = {"corpus": (3, 80), "large-prime": (1230, 1230), "survey": (3, 42)}


def _coeffs(fam) -> dict:
    return {k: tuple(getattr(fam, k).coeffs) for k in KEYS}


def _corpus():
    from ecmoments.corpus import builtin_corpus

    return [(f.name, _coeffs(f)) for f in builtin_corpus()]


def _large_prime():
    from ecmoments.corpus import corpus_family, rank6_family

    fams = [corpus_family(n) for n in LARGE_PRIME_FAMILIES] + [rank6_family()]
    return [(f.name, _coeffs(f)) for f in fams]


def _draw(rng: random.Random, kind: str) -> dict:
    small = lambda r: rng.randint(-r, r)
    nonzero = lambda r: rng.choice([v for v in range(-r, r + 1) if v])
    if kind == "t1":  # medium form y^2 = 4x^3 + a x^2 + b x + c + d t
        return {"a1": (rng.randint(0, 1),), "a2": (small(3),), "a3": (small(1),),
                "a4": (small(5),), "a6": (small(9), nonzero(2))}
    if kind == "t2":  # medium form y^2 = 4x^3 + (4m + 1) x^2 + n t x
        return {"a1": (rng.choice((-3, -1, 1, 3)),), "a2": (small(3),), "a3": (),
                "a4": (0, nonzero(3)), "a6": ()}
    # generic: constant a1..a3, deg a4 <= 3 and deg a6 <= 4, so deg c4 <= 3, deg c6 <= 4
    return {"a1": (small(1),), "a2": (small(2),), "a3": (small(2),),
            "a4": tuple(small(9) for _ in range(rng.randint(1, 4))),
            "a6": tuple(small(9) for _ in range(rng.randint(1, 5)))}


def survey_families(seed: int, count: int = SURVEY_FAMILIES):
    """`count` families from `seed`, a fixed share of them template-shaped.

    A draw is kept only when it is nondegenerate with nonconstant j (decided
    exactly) and its shape matches its kind: T1/T2 draws must match that
    template, generic draws must match none.
    """
    rng = random.Random(seed)
    n_tpl = count // SURVEY_TEMPLATE_SHARE
    kinds = ["t1"] * (n_tpl // 2) + ["t2"] * (n_tpl - n_tpl // 2) + ["gen"] * (count - n_tpl)
    rng.shuffle(kinds)
    out = []
    for i, kind in enumerate(kinds):
        while True:
            a = {k: tuple(v) for k, v in _draw(rng, kind).items()}
            tpl = template(a)
            shape = tpl[0].lower() if tpl else "gen"
            if shape == kind and nondegenerate_nonconstant_j(a):
                break
        out.append(("s%03d_%s" % (i, kind), a))
    return out


def family_file_json(families) -> str:
    return json.dumps(
        [dict(name=name, **{k: [str(c) for c in a[k]] for k in KEYS}) for name, a in families],
        indent=1,
    ) + "\n"


def make(name: str, seed: int) -> Workload:
    start, end = WINDOWS[name]
    if name == "corpus":
        return Workload(name, _corpus(), start, end, False, 16)
    if name == "large-prime":
        return Workload(name, _large_prime(), start, end, True, 1)
    return Workload(name, survey_families(seed), start, end, True, 16)
