import hashlib
import pickle
from fractions import Fraction

import pytest

from heavycover.datasets import (
    Dataset,
    emit_dataset,
    generate,
    parse_dataset,
    random_line_family,
    random_motion_path,
    random_point_set,
    random_tangent_family,
)
from heavycover.dual import tangent_family
from heavycover.errors import ParseError
from heavycover.exactgeom import (
    Hyperplane,
    Point,
    _line_violations,
    general_position_report,
    line_coeffs_int,
)


def test_parse_points_example():
    ds = parse_dataset('{"kind":"POINTS","points":[["0","0"],["1/2","3"]]}')
    assert ds.kind == "POINTS"
    assert ds.points.points == (Point(0, 0), Point(Fraction(1, 2), 3))


def test_parse_lines_example():
    ds = parse_dataset('{"kind":"LINES","lines":[{"normal":["1","0"],"offset":"1"}]}')
    assert ds.lines.lines[0].normal == (Fraction(1), Fraction(0))
    assert ds.lines.lines[0].offset == Fraction(1)


def test_parse_accepts_ints_and_finite_decimals():
    ds = parse_dataset('{"kind":"POINTS","points":[[1,2],["0.25",0.5]]}')
    assert ds.points.points[1] == Point(Fraction(1, 4), Fraction(1, 2))


def test_parse_rejects_mixed_dimensions():
    with pytest.raises(ParseError):
        parse_dataset('{"kind":"POINTS","points":[["0","0"],["1","2","3"]]}')


def test_parse_rejects_scientific_notation():
    with pytest.raises(ParseError):
        parse_dataset('{"kind":"POINTS","points":[["1e-3","0"]]}')
    with pytest.raises(ParseError):
        parse_dataset('{"kind":"POINTS","points":[[1e3,0]]}')


def test_parse_rejects_malformed_and_nonfinite():
    with pytest.raises(ParseError):
        parse_dataset("{not json")
    with pytest.raises(ParseError):
        parse_dataset('{"kind":"POINTS","points":[[NaN,0]]}')
    with pytest.raises(ParseError):
        parse_dataset('{"kind":"BOGUS"}')


def test_parse_rejects_boolean_coordinate():
    with pytest.raises(ParseError) as err:
        parse_dataset('{"kind":"POINTS","points":[["0","0"],[true,"2"]]}')
    assert str(err.value).startswith("points[1][0]: ")
    assert "booleans are rejected" in str(err.value)


def test_parse_rejects_colors_that_are_not_strings_or_integers():
    for color in ("[1]", "true", "null", '{"c":1}', "1.5"):
        text = ('{"kind":"COLORED_POINTS","points":[["0","0"],["4","0"],["0","4"]],'
                f'"colors":[0,"b",{color}]}}')
        with pytest.raises(ParseError) as err:
            parse_dataset(text)
        assert str(err.value).startswith("colors[2]: ")


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as err:
        parse_dataset('{"kind":"POINTS","points":[["0","0"],["x","2"]]}')
    assert "points[1][0]" in str(err.value)


def test_roundtrip_all_kinds():
    cases = [
        generate("POINTS", 6, 12),
        generate("COLORED_POINTS", 9, 13),
        generate("LINES", 5, 14),
        generate("LINES", 5, 15, tangent=True),
        generate("PATH", 4, 16),
    ]
    for ds in cases:
        again = parse_dataset(emit_dataset(ds))
        assert again == ds
        assert emit_dataset(again) == emit_dataset(ds)


def test_generate_is_deterministic():
    a = generate("POINTS", 10, 42)
    b = generate("POINTS", 10, 42)
    assert a == b
    assert emit_dataset(a) == emit_dataset(b)
    fam1 = random_line_family(8, 7)
    fam2 = random_line_family(8, 7)
    assert fam1 == fam2


def test_generated_points_in_general_position():
    for seed in range(30, 36):
        ps = random_point_set(12, seed)
        assert general_position_report(ps.points) == []


def test_generated_lines_in_general_position():
    for seed in range(50, 56):
        fam = random_line_family(8, seed)
        assert _line_violations(fam.coeffs) == []
    tangent = random_tangent_family(9, 3)
    assert _line_violations(tangent.coeffs) == []


# (n, seed) pairs whose first MAX_RETRIES line draws all fail; the widened
# span finds their families
_WIDENED = ((22, 2), (23, 1), (26, 5))


def test_line_family_widens_its_span_only_after_the_first_round():
    # every family the first round of draws finds stays byte-for-byte
    digest = hashlib.sha256()
    for n in range(4, 27):
        for seed in range(1, 6):
            fam = random_line_family(n, seed)
            if (n, seed) not in _WIDENED:
                digest.update(emit_dataset(Dataset("LINES", lines=fam)).encode())
    assert digest.hexdigest() == \
        "6d760669de2185cc5e1d6dd2d345baf71f6aa78cdeb69975525bb79d080181b8"


def test_line_family_draws_are_pinned_up_to_n_40():
    # the parallel-pair rejection runs before the O(n^3) report and must
    # reject exactly the draws the report rejects
    digest = hashlib.sha256()
    for n in range(4, 41):
        for seed in range(1, 6):
            fam = random_line_family(n, seed)
            digest.update(emit_dataset(Dataset("LINES", lines=fam)).encode())
    assert digest.hexdigest() == \
        "0c29a4a4cbc9aa11bb3858c89776ee9b78e6dc8ea2e8265c12d4dd8d3482d9e6"


def test_line_family_beyond_the_narrow_span():
    for n in (28, 40):
        fam = random_line_family(n, 1)
        assert fam.n == n
        assert _line_violations(fam.coeffs) == []


def test_generated_path_shape():
    path = random_motion_path(5, 3, keyframes=2)
    assert path.n == 5
    assert path.keyframes[0][0] == 0 and path.keyframes[-1][0] == 1


def test_near_convex_generator():
    ps = random_point_set(10, 9, near_convex=True)
    assert ps.n == 10
    assert general_position_report(ps.points) == []


def test_metadata_survives_roundtrip():
    ds = generate("POINTS", 5, 77)
    assert ds.metadata["seed"] == 77
    again = parse_dataset(emit_dataset(ds))
    assert again.metadata == ds.metadata


def _digest(datasets):
    digest = hashlib.sha256()
    for ds in datasets:
        digest.update(emit_dataset(ds).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("params, sizes, pinned", [
    ({}, range(3, 31),
     "8c3c9528743dde468a10d1d7990077ee9d6644092ee777625bed2b9ace89035f"),
    ({"near_convex": True}, range(3, 31),
     "f4aafc84276b3306ec73ab6310dda8069abf3761c2a99cf42ba78743b7846090"),
    ({"dim": 3}, range(1, 9),
     "8ff990da9de491cfb29d205167804f3cbe86fdc692ba8c5658fb39c6ec14245e"),
], ids=["box", "near_convex", "dim3"])
def test_point_set_draws_are_pinned(params, sizes, pinned):
    # the draws and the general-position retries decide every set
    assert _digest(Dataset("POINTS", points=random_point_set(n, seed, **params))
                   for n in sizes for seed in range(1, 6)) == pinned


def test_tangent_families_are_pinned():
    assert _digest(Dataset("LINES", lines=tangent_family(n)) for n in range(3, 61)) == \
        "74ee9c8c4e9bbc3167034fa259023d768259fca3d58c90332b04ee6cf83fb6f7"
    assert _digest(Dataset("LINES", lines=random_tangent_family(n, seed))
                   for n in range(3, 31) for seed in range(1, 6)) == \
        "4fd7c4a54dafc8c14755656ec0b72bd8b78ec0821dfe5e9e2f183cb17b5c8f58"


def test_generated_lines_cache_the_triple_a_fresh_conversion_gives():
    # the generators build each line from its integer triple and cache it;
    # a Hyperplane rebuilt from the Fraction fields has no cache and must
    # convert to the same triple (fresh), and a filled cache must stay
    # invisible next to one never filled (clean)
    families = [random_line_family(n, seed) for n in range(3, 41) for seed in range(1, 4)]
    families += [tangent_family(n) for n in range(3, 61)]
    for family in families:
        for h, coeffs in zip(family.lines, family.coeffs):
            fresh = Hyperplane(h.normal, h.offset)
            assert h._coeffs is not None and fresh._coeffs is None
            assert line_coeffs_int(fresh) == line_coeffs_int(h) == coeffs
            assert all(type(v) is Fraction for v in h.normal + (h.offset,))
            clean = Hyperplane(h.normal, h.offset)
            assert h == fresh == clean
            assert hash(h) == hash(fresh) == hash(clean)
            assert repr(h) == repr(fresh) == repr(clean)
            assert pickle.dumps(h) == pickle.dumps(fresh) == pickle.dumps(clean)
            assert pickle.loads(pickle.dumps(h))._coeffs is None
