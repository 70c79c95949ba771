"""Type algebra: normal forms, existence, dimension, text format."""

from __future__ import annotations

import random
import re
from dataclasses import replace
from itertools import combinations_with_replacement, permutations, product

import pytest

from rmfchi.topotype import (
    MAX_GENUS,
    MAX_SHEETS,
    NonExistentTypeError,
    NormalizationError,
    TopType,
    TypeSyntaxError,
    Variant,
    admits_extension,
    dimension,
    exists,
    format_type,
    is_normal,
    nonsep,
    normalize,
    parse_type,
    sep,
    sepext,
    sign_flipped,
)


def test_normalize_sorts_nonsep_indices():
    t = nonsep(2, 5, (2, 1, 0))
    assert t.indices == (0, 1, 2)
    assert t.variant is Variant.NONSEP


def test_normalize_prefers_positive_sign_orbit():
    assert sep(1, 3, (-1, -2)).indices == (1, 2)
    assert sep(1, 3, (1, 2)).indices == (1, 2)
    assert sep(1, 3, (2, -1)).indices == (-1, 2)
    assert sep(1, 3, (-2, 1)).indices == (-1, 2)


def test_normalize_flips_xi_with_the_signs():
    # g=3, k=2: (g-k+1)/2 = 1, so xi -> 1 - xi under the flip
    t = sepext(3, 6, (-1, -1), 0)
    assert t.indices == (1, 1)
    assert t.xi == 1


def test_normalize_folds_xi_on_symmetric_index_lists():
    # sorted(I) == sorted(-I): xi and 1 - xi name the same component
    a = sepext(3, 4, (-1, 1), 1)
    b = sepext(3, 4, (-1, 1), 0)
    assert a == b
    assert a.xi == 0


def test_normalize_idempotent_exhaustive():
    values = range(-2, 3)
    for g in range(4):
        for n in range(1, 4):
            for k in range(3):
                for idx in combinations_with_replacement(values, k):
                    for raw in set(permutations(idx)):
                        t = normalize(TopType(Variant.SEP, g, n, raw))
                        assert normalize(t) == t
                        assert is_normal(t)


def _reference_normalize(t: TopType) -> TopType:
    # The normal form stated variant by variant, with its own sign flip.
    sorted_i = tuple(sorted(t.indices))
    if t.variant is Variant.NONSEP:
        return replace(t, indices=sorted_i)
    flipped = tuple(sorted(-i for i in t.indices))
    if t.variant is Variant.SEP:
        return replace(t, indices=max(sorted_i, flipped))
    other_xi = (t.g - t.k + 1) // 2 - t.xi
    if flipped > sorted_i:
        return replace(t, indices=flipped, xi=other_xi)
    if flipped == sorted_i:
        return replace(t, indices=sorted_i, xi=min(t.xi, other_xi))
    return replace(t, indices=sorted_i)


def test_normalize_matches_the_variant_by_variant_rule():
    # every type with g <= 4, n <= 5, k <= 3, |i| <= 3, xi in -1..4
    checked = 0
    for variant, g, n, k in product(Variant, range(5), range(1, 6), range(4)):
        xis = range(-1, 5) if variant is Variant.SEP_EXT else (None,)
        for idx, xi in product(product(range(-3, 4), repeat=k), xis):
            try:
                t = TopType(variant, g, n, idx, xi)
            except NormalizationError:
                continue
            want = _reference_normalize(t)
            assert normalize(t) == want
            assert is_normal(t) is (t == want)
            checked += 1
    assert checked == 46_625


def test_a_normal_type_is_returned_as_it_is():
    for t in (nonsep(2, 5, (0, 1)), sep(1, 3, (-1, 2)),
              sepext(3, 4, (-1, 1), 0)):
        assert normalize(t) is t


def test_sign_flip_lands_in_the_same_normal_form():
    rng = random.Random(7)
    for _ in range(200):
        g = rng.randrange(0, 5)
        n = rng.randrange(1, 6)
        k = rng.randrange(1, 4)
        idx = tuple(rng.randrange(-3, 4) for _ in range(k))
        t = TopType(Variant.SEP, g, n, idx)
        assert normalize(t) == normalize(sign_flipped(t))
        assert exists(normalize(t)).exists == exists(t).exists


def test_admits_extension():
    assert admits_extension(sep(3, 4, (-1, 1)))
    assert not admits_extension(sep(1, 3, (1, 2)))      # full degree
    assert not admits_extension(sep(1, 2, (0, 0)))      # sum|i| != n-2
    assert not admits_extension(sep(0, 3, (1,)))        # |sum| = sum|i|
    assert not admits_extension(nonsep(1, 3, (1,)))


def test_exists_nonsep_clauses():
    assert exists(nonsep(1, 3, (1,))).exists
    assert exists(nonsep(0, 2, ())).exists
    assert exists(nonsep(3, 3, (0, 1)))
    r = exists(nonsep(0, 3, (1,)))
    assert not r.exists and r.violated == ("k<=g",)
    r = exists(nonsep(2, 2, (1, 1)))
    assert "sum(i)<=n-2" in r.violated
    r = exists(nonsep(1, 3, (0,)))
    assert "sum(i)=n mod 2" in r.violated
    # n = 1 never exists: sum(I) <= -1 is impossible with indices >= 0
    for g in range(4):
        assert not exists(nonsep(g, 1, ())).exists


def test_exists_sep_clauses():
    assert exists(sep(0, 1, (1,))).exists        # unit degree pattern
    assert exists(sep(1, 2, (0, 0))).exists      # all-zero pattern
    assert exists(sep(0, 2, (2,))).exists        # full degree
    assert exists(sep(1, 3, (0, 1))).exists      # slack pattern with a zero
    assert exists(sep(3, 6, (1, -1))).exists
    r = exists(sep(1, 1, ()))
    assert "1<=k<=g+1" in r.violated
    r = exists(sep(2, 6, (1, -1)))
    assert r.violated == ("k=g+1 mod 2",)
    r = exists(sep(0, 2, (1,)))
    assert "sum(i)=n mod 2" in r.violated
    r = exists(sep(0, 2, (4,)))
    assert r.violated == ("degree-pattern",)
    assert exists(sep(0, 4, (2,))).exists  # slack clause: 2 <= n-2


def test_exists_sepext_clauses():
    assert exists(sepext(3, 4, (-1, 1), 0)).exists
    assert exists(sepext(3, 4, (-1, 1), 1)).exists
    r = exists(sepext(3, 6, (1, 1), 1))
    assert "admits-extension" in r.violated
    r = exists(sepext(3, 4, (-1, 1), 2))
    assert "0<=xi<=(g-k+1)/2" in r.violated


def test_sepext_requires_even_parity():
    with pytest.raises(NormalizationError):
        sepext(2, 4, (-1, 1), 0)   # g - k + 1 = 1 is odd


def test_dimension():
    assert dimension(nonsep(1, 3, (1,))) == 6
    assert dimension(sep(0, 2, (2,))) == 2
    assert dimension(sepext(3, 4, (-1, 1), 0)) == 12
    with pytest.raises(NonExistentTypeError):
        dimension(nonsep(0, 3, (1,)))


def test_dimension_matches_formula_across_existing_types():
    for g in range(4):
        for n in range(1, 5):
            t = nonsep(g, n, ())
            if exists(t):
                assert dimension(t) == 2 * (g + n - 1)


def test_format_round_trip():
    cases = ["1,3,0|1", "0,2,0|", "1,3,1|-1,2", "3,4,1|-1,1;0", "2,2,1|0,0,0"]
    for text in cases:
        t = parse_type(text)
        assert parse_type(format_type(t)) == t


def test_parse_normalizes():
    assert parse_type("1,3,1|-1,-2") == sep(1, 3, (1, 2))
    assert format_type(parse_type("1,3,1|-1,-2")) == "1,3,1|1,2"
    assert parse_type("3,6,1|-1,-1;0") == sepext(3, 6, (1, 1), 1)


def test_parse_empty_index_list():
    t = parse_type("1,4,0|")
    assert t.indices == ()
    assert t.k == 0


def test_parse_syntax_error_positions():
    with pytest.raises(TypeSyntaxError) as err:
        parse_type("1,3,0|x")
    assert err.value.position == 6
    with pytest.raises(TypeSyntaxError) as err:
        parse_type("1,3,2|")
    assert err.value.position == 4
    with pytest.raises(TypeSyntaxError) as err:
        parse_type("1,3")
    assert err.value.position == 3
    with pytest.raises(TypeSyntaxError) as err:
        parse_type("1,3,0|1,")
    assert err.value.position == 8
    with pytest.raises(TypeSyntaxError) as err:
        parse_type("1,3,0|1x")
    assert err.value.position == 7
    # digits outside ASCII are not digits of the format
    for text in ("1,3,0|\u00b2", "1,3,0|\u0661"):
        with pytest.raises(TypeSyntaxError) as err:
            parse_type(text)
        assert err.value.position == 6
    with pytest.raises(TypeSyntaxError) as err:
        parse_type("1,3,0|" + "1" * 5000)
    assert err.value.position == 6


def test_parse_rejects_signs_and_xi_for_nonsep():
    with pytest.raises(TypeSyntaxError):
        parse_type("1,3,0|-1")
    with pytest.raises(TypeSyntaxError):
        parse_type("1,3,0|1;0")


def test_parse_rejects_odd_parity_sepext():
    with pytest.raises(NormalizationError):
        parse_type("2,4,1|-1,1;0")


def test_caps_enforced_with_an_error():
    assert nonsep(MAX_GENUS, 2, ()).g == MAX_GENUS
    with pytest.raises(NormalizationError):
        nonsep(MAX_GENUS + 1, 2, ())
    with pytest.raises(NormalizationError):
        nonsep(0, MAX_SHEETS + 1, ())
    with pytest.raises(NormalizationError):
        nonsep(0, 0, ())


def test_nonsep_rejects_negative_indices():
    with pytest.raises(NormalizationError):
        nonsep(1, 3, (-1,))


@pytest.mark.parametrize("args, message", [
    (("bogus", 2, 3, (1,), 0), "variant must be a Variant"),
    (("nonsep", 1, 3, (1,)), "variant must be a Variant"),
    ((Variant.NONSEP, 1.0, 3), "g must be an integer"),
    ((Variant.NONSEP, True, 3), "g must be an integer"),
    ((Variant.NONSEP, 1, True), "n must be an integer"),
    ((Variant.NONSEP, 1, 3, [1]), "indices must be a tuple"),
    ((Variant.NONSEP, 1, 3, (1.0,)), "indices must be integers"),
    ((Variant.SEP, 1, 3, (True, 2)), "indices must be integers"),
    ((Variant.NONSEP, 1, 3, (-1,), 0), "non-separating indices must be >= 0"),
    ((Variant.NONSEP, 1, 3, (1,), 0), "xi is defined only for sepext types"),
    ((Variant.SEP, 1, 3, (1, 2), 0), "xi is defined only for sepext types"),
    ((Variant.SEP_EXT, 3, 4, (-1, 1)), "sepext types need an integer xi"),
    ((Variant.SEP_EXT, 3, 4, (-1, 1), 0.0), "sepext types need an integer xi"),
    ((Variant.SEP_EXT, 3, 4, (-1, 1), False),
     "sepext types need an integer xi"),
    ((Variant.SEP_EXT, 2, 4, (-1, 1), 0), "sepext requires g - k + 1 even"),
])
def test_constructor_names_the_first_bad_field(args, message):
    with pytest.raises(NormalizationError, match=re.escape(message)):
        TopType(*args)


def test_parity_coherence_sweep():
    # existence is invariant under listing order of the indices
    rng = random.Random(11)
    for _ in range(100):
        g = rng.randrange(0, 4)
        n = rng.randrange(1, 5)
        idx = [rng.randrange(-2, 3) for _ in range(rng.randrange(1, 4))]
        perm = list(idx)
        rng.shuffle(perm)
        a = normalize(TopType(Variant.SEP, g, n, tuple(idx)))
        b = normalize(TopType(Variant.SEP, g, n, tuple(perm)))
        assert a == b
