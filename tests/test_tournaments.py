import random

import pytest

from orihex.tournaments import (
    TOURNAMENT_BITS,
    Tournament,
    arc_codes,
    canonical_form,
    double_score_set,
    enumerate_tournaments,
    fixture_a6,
    named_tournament,
    parse_tournament,
    resolve_tournament,
)

T5_CODES = [1, 2, 3, 8, 9, 11, 14, 17, 19, 20]


def test_all_zero_is_reverse_transitive():
    t = parse_tournament("0000000000", 5)
    assert t.out_degrees == (0, 1, 2, 3, 4)


def test_all_one_is_transitive():
    t = parse_tournament("1111111111", 5)
    assert t.out_degrees == (4, 3, 2, 1, 0)


def test_bit_convention_pins_t5_codes():
    assert arc_codes(parse_tournament("0001100100", 5)) == T5_CODES


def test_arc_code_of_single_arc():
    t5 = named_tournament("T5")
    assert t5.has_arc(0, 4)
    assert 20 in arc_codes(t5)


def test_all_zero_arc_codes():
    t = parse_tournament("0000000000", 5)
    assert arc_codes(t) == [1, 2, 3, 4, 7, 8, 9, 13, 14, 19]


def test_t11_arc_codes():
    assert arc_codes(named_tournament("T11")) == [2, 3, 4, 5, 9, 11, 14, 16, 17, 23]


def test_parse_length_mismatch():
    with pytest.raises(ValueError):
        parse_tournament("000", 5)
    with pytest.raises(ValueError):
        parse_tournament("00a0000000", 5)


def test_arc_codes_requires_order_five():
    with pytest.raises(ValueError):
        arc_codes(fixture_a6())


def test_bits_roundtrip():
    for name, bits in TOURNAMENT_BITS.items():
        assert parse_tournament(bits, 5).bits == bits


@pytest.mark.parametrize("order,masks,message", [
    (3, (0b110, 0b100), "out_masks length must equal order"),
    (2, (0b110, 0), "vertex 0 dominates out-of-range vertices"),
    (2, (0b11, 0), "self-loop at vertex 0"),
], ids=["length", "range", "loop"])
def test_constructor_refusals(order, masks, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Tournament(order, masks)


def test_canonical_form_order_limit():
    transitive = Tournament.from_arcs(9, [(i, j) for i in range(9) for j in range(i + 1, 9)])
    with pytest.raises(ValueError, match="^order 9 exceeds canonical-scan limit 8$"):
        canonical_form(transitive)


def test_completeness_enforced():
    with pytest.raises(ValueError):
        Tournament(3, (0, 0, 0))
    with pytest.raises(ValueError):
        Tournament.from_arcs(3, [(0, 1), (1, 0), (1, 2), (0, 2)])


def test_out_degree_sum():
    for k in (2, 3, 4, 5):
        for t in enumerate_tournaments(k):
            assert sum(t.out_degrees) == k * (k - 1) // 2


def test_canonical_transitive_orientations_agree():
    zero = parse_tournament("0000000000", 5)
    one = parse_tournament("1111111111", 5)
    assert canonical_form(zero) == canonical_form(one)


def test_canonical_relabeling_invariance():
    rng = random.Random(77)
    for name in ("T3", "T7", "T12"):
        t = named_tournament(name)
        base = canonical_form(t)
        for _ in range(10):
            perm = list(range(5))
            rng.shuffle(perm)
            relabeled = Tournament.from_arcs(5, [(perm[u], perm[v]) for (u, v) in t.arcs])
            assert canonical_form(relabeled) == base


def test_named_tournaments_pairwise_nonisomorphic():
    forms = {canonical_form(named_tournament(n)) for n in TOURNAMENT_BITS}
    assert len(forms) == 12


@pytest.mark.parametrize("k,classes", [(1, 1), (2, 1), (3, 2), (4, 4), (5, 12), (6, 56)])
def test_census_counts(k, classes):
    assert len(enumerate_tournaments(k)) == classes


def test_census_matches_named_list():
    census_forms = {canonical_form(t) for t in enumerate_tournaments(5)}
    named_forms = {canonical_form(named_tournament(n)) for n in TOURNAMENT_BITS}
    assert census_forms == named_forms


def test_census_completeness_spot_check():
    census_forms = {canonical_form(t) for t in enumerate_tournaments(5)}
    for value in range(1 << 10):
        bits = format(value, "010b")
        assert canonical_form(parse_tournament(bits, 5)) in census_forms


def test_census_limit():
    with pytest.raises(ValueError):
        enumerate_tournaments(7)


def test_census_sorted_by_canonical_bits():
    for k in (5, 6):
        bits = [t.bits for t in enumerate_tournaments(k)]
        assert bits == sorted(bits)
        assert all(canonical_form(t) == t.bits for t in enumerate_tournaments(k))


def test_double_score_three_cycle():
    t = Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert double_score_set(t) == (1, 1, 1)


def test_double_score_reverse_transitive():
    assert double_score_set(parse_tournament("0000000000", 5)) == (0, 0, 1, 3, 6)


def test_double_scores_pairwise_distinct():
    values = [double_score_set(named_tournament(n)) for n in TOURNAMENT_BITS]
    assert len(set(values)) == 12
    deduped = [tuple(sorted(set(v))) for v in values]
    assert len(set(deduped)) == 12


def test_double_score_isomorphism_invariant():
    rng = random.Random(31)
    for name in TOURNAMENT_BITS:
        t = named_tournament(name)
        base = double_score_set(t)
        perm = list(range(5))
        rng.shuffle(perm)
        relabeled = Tournament.from_arcs(5, [(perm[u], perm[v]) for (u, v) in t.arcs])
        assert double_score_set(relabeled) == base


def test_a6_fixture():
    a6 = fixture_a6()
    assert a6.order == 6
    assert len(a6.arcs) == 15
    assert min(a6.in_degrees) == 2
    assert min(a6.out_degrees) == 2
    assert tuple(sorted(a6.out_degrees)) == (2, 2, 2, 3, 3, 3)


def test_a6_is_one_cached_object():
    assert fixture_a6() is fixture_a6()
    assert named_tournament("A6") is fixture_a6()


def test_resolve_tournament_forms():
    assert resolve_tournament("T5") == parse_tournament("0001100100", 5)
    assert resolve_tournament("5:0001100100") == named_tournament("T5")
    assert resolve_tournament("A6") == fixture_a6()
    with pytest.raises(ValueError):
        resolve_tournament("T13")
    with pytest.raises(ValueError):
        resolve_tournament("x:010")


def test_named_tournaments_are_cached_objects():
    for name in list(TOURNAMENT_BITS) + ["A6"]:
        assert named_tournament(name) is named_tournament(name)
        assert resolve_tournament(name) is named_tournament(name)
    assert named_tournament("T5") == parse_tournament(TOURNAMENT_BITS["T5"], 5)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^unknown tournament name 'T13'$"):
            named_tournament("T13")
    # the <k>:<bits> form parses afresh on every call
    text = "5:" + TOURNAMENT_BITS["T5"]
    assert resolve_tournament(text) is not resolve_tournament(text)
    assert resolve_tournament(text) == named_tournament("T5")
