"""Property tests of the type algebra on random existing types."""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rmfchi.topotype import (
    TopType,
    Variant,
    exists,
    format_type,
    normalize,
    parse_type,
    sign_flipped,
)

# The same examples on every run, so the suite stays deterministic.
PROPERTY = settings(derandomize=True, deadline=None)


@st.composite
def existing_types(draw) -> TopType:
    """An existing type of any variant, not necessarily normalized.

    n is drawn close to what the existence conditions ask for, so few
    draws are thrown away.
    """
    variant = draw(st.sampled_from(list(Variant)))
    g = draw(st.integers(0, 6))
    if variant is Variant.NONSEP:
        k = draw(st.integers(0, g))
        values = st.integers(0, 4)
    else:
        k = draw(st.sampled_from(range(1 + g % 2, g + 2, 2)))
        values = st.integers(-4, 4)
    indices = tuple(draw(st.lists(values, min_size=k, max_size=k)))
    spread = sum(abs(i) for i in indices)
    slack = 2 if variant is Variant.SEP_EXT else draw(st.sampled_from(
        (0, 2, 4)))
    xi = None
    if variant is Variant.SEP_EXT:
        xi = draw(st.integers(0, (g - k + 1) // 2))
    t = TopType(variant, g, max(1, spread + slack), indices, xi)
    assume(exists(t).exists)
    return t


@PROPERTY
@given(existing_types())
def test_parse_inverts_format(t):
    t = normalize(t)
    assert parse_type(format_type(t)) == t


@PROPERTY
@given(existing_types())
def test_normalize_is_idempotent(t):
    assert normalize(normalize(t)) == normalize(t)


@PROPERTY
@given(existing_types())
def test_sign_flip_keeps_the_normal_form(t):
    assert normalize(sign_flipped(t)) == normalize(t)
