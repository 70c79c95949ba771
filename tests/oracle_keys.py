"""The brute-force oracle beyond the tier-1 suite, and its frozen outputs.

Criterion 8 compares the fast census with the naive one on the 44
graph-model types of g<=2, n<=5, |i|<=3, in all four gamma conventions
(existence with gammas of any order included, compared as below).
With no argument, this script makes the same comparison on the 22
graph-model types of g<=2, n<=6, |i|<=3 that lie outside that box
(those with n = 6).  It prints one line per type and gamma convention
(type, convention, both counts, ``ok`` or ``MISMATCH``) and exits 1 if
the sorted canonical keys of a pair differ::

    PYTHONPATH=src python tests/oracle_keys.py

In EXISTENCE mode with gammas of any order the two routes keep
different gammas, so there only the underlying graphs are compared.

With ``--digests`` it prints, for each of criterion 8's types and each
convention, the oracle's graph count and the sha256 of its output (the
``to_json_dict()`` list, in order).  That output is frozen as
``tests/golden/oracle_g2_n5_i3.sha256``, which a tier-1 test compares::

    PYTHONPATH=src python tests/oracle_keys.py --digests > oracle.sha256
    cmp oracle.sha256 tests/golden/oracle_g2_n5_i3.sha256

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import hashlib
import json
import sys

from rmfchi.decograph import GammaMode, canonical_key, strip_gamma
from rmfchi.enumerator import enum_nonsep, enum_sep
from rmfchi.oracle import enum_nonsep_naive, enum_sep_naive
from rmfchi.topotype import Variant, format_type
from test_acceptance import _graph_model_types

EXISTENCE = GammaMode.EXISTENCE
NONSEP_CONVENTIONS = (
    ("as-data", {}),
    ("existence", {"gamma_mode": EXISTENCE}),
    ("any-order", {"involution": False}),
    ("existence-any-order", {"gamma_mode": EXISTENCE, "involution": False}),
)
SEP_CONVENTIONS = (("sep", {"allow_full_degree": True}),)


def criterion_8_types():
    return _graph_model_types(2, 5, 3)


def outside_types():
    """The graph-model types of g<=2, n<=6, |i|<=3 outside criterion 8's."""
    inside = set(criterion_8_types())
    return [t for t in _graph_model_types(2, 6, 3) if t not in inside]


def censuses(t):
    """(convention, fast census, naive census, keyword arguments) each."""
    if t.variant is Variant.NONSEP:
        return [(label, enum_nonsep, enum_nonsep_naive, kwargs)
                for label, kwargs in NONSEP_CONVENTIONS]
    return [(label, enum_sep, enum_sep_naive, kwargs)
            for label, kwargs in SEP_CONVENTIONS]


def digest_lines(types):
    """type, convention, oracle count and sha256 of the oracle's output."""
    for t in types:
        for label, _, naive, kwargs in censuses(t):
            graphs = naive(t, **kwargs)
            text = json.dumps([g.to_json_dict() for g in graphs])
            sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
            yield f"{format_type(t)} {label} {len(graphs)} {sha}"


def compare(types) -> bool:
    """Print one line per census pair; whether all of them agree."""
    agree = True
    for t in types:
        for label, fast, naive, kwargs in censuses(t):
            plain = label == "existence-any-order"
            keys = [sorted(canonical_key(strip_gamma(g) if plain else g)
                           for g in census(t, **kwargs))
                    for census in (fast, naive)]
            same = keys[0] == keys[1]
            agree = agree and same
            print(f"{format_type(t)} {label} {len(keys[0])} {len(keys[1])} "
                  f"{'ok' if same else 'MISMATCH'}", flush=True)
    return agree


if __name__ == "__main__":
    if sys.argv[1:] == ["--digests"]:
        for line in digest_lines(criterion_8_types()):
            print(line, flush=True)
    elif sys.argv[1:]:
        raise SystemExit("usage: oracle_keys.py [--digests]")
    else:
        sys.exit(0 if compare(outside_types()) else 1)
