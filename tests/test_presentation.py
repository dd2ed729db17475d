import pytest

from alexkit.presentation import (EMPTY_WORD, GroupPresentation,
                                  PresentationError, Word, parse_presentation)

from conftest import commutator, render_presentation, word


def test_free_reduction_merges_and_cancels():
    w = word([(0, 1), (0, 1), (1, -1), (1, 1), (0, -2)])
    assert w == EMPTY_WORD


def test_word_inverse():
    w = word([(0, 1), (1, 2)])
    assert (w * w.inverse()) == EMPTY_WORD
    assert w.inverse().letters == ((1, -2), (0, -1))


def test_word_rejects_unreduced_letters():
    with pytest.raises(PresentationError):
        Word(((0, 1), (0, 1)))
    with pytest.raises(PresentationError):
        Word(((0, 0),))


def test_commutator_of_commuting_powers():
    a = word([(0, 3)])
    b = word([(0, -2)])
    assert commutator(a, b) == EMPTY_WORD


def test_exponent_vector():
    w = word([(0, 2), (1, -1), (0, 1)])
    assert w.exponent_vector(3) == [3, -1, 0]


def test_parse_and_render_roundtrip():
    text = "gens: a b c\nrel: a b a^-1 b^-1\nrel: c^2 a^-3\n"
    p = parse_presentation(text)
    assert p.num_generators == 3
    assert p.num_relators == 2
    assert parse_presentation(render_presentation(p)) == p


def test_parse_reports_location():
    with pytest.raises(PresentationError) as exc:
        parse_presentation("gens: a\nrel: b\n")
    assert exc.value.line == 2


def test_parse_rejects_duplicate_generator():
    with pytest.raises(PresentationError):
        parse_presentation("gens: a a\n")


def test_parse_ignores_comments_and_blanks():
    p = parse_presentation("# heading\n\ngens: x\n# note\nrel: x^2\n")
    assert p.relators[0].letters == ((0, 2),)


def test_relator_out_of_range():
    with pytest.raises(PresentationError):
        GroupPresentation(("a",), (word([(1, 1)]),))


def test_exponent_matrix():
    p = parse_presentation("gens: x y\nrel: x y x^-1 y^-1\nrel: x^2 y\n")
    assert p.exponent_matrix() == [[0, 0], [2, 1]]
