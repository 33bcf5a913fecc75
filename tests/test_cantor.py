import random
from fractions import Fraction

import pytest

from sepfilt.cantor import (
    ClopenAlgebra,
    cyclic_action,
    grid_action,
    parametrized_l1_norm,
    word,
)
from sepfilt.errors import ActionIncomplete


# ---------------------------------------------------------------------------
# the algebra itself


def test_generator_must_be_permutation():
    with pytest.raises(ValueError):
        ClopenAlgebra(3, {"s": [0, 0, 1]})


def test_relation_words_checked():
    perm = [1, 2, 0]
    ClopenAlgebra(3, {"s": perm}, relation_words=[word(("s", 3))])
    with pytest.raises(ValueError):
        ClopenAlgebra(3, {"s": perm}, relation_words=[word(("s", 2))])


def test_unknown_generator_raises():
    algebra = cyclic_action(4)
    with pytest.raises(ActionIncomplete):
        algebra.act(word("t"), 0)


def test_measure_is_uniform():
    algebra = cyclic_action(8)
    assert algebra.measure({0, 1}) == Fraction(1, 4)
    assert algebra.measure(algebra.full_set()) == 1


def test_measure_invariance_random_clopens():
    algebra = grid_action(4)
    words = [word(("h", 1)), word(("v", 1)), word(("h", -1)), word(("v", 2))]
    rng = random.Random(5)
    for _ in range(100):
        size = rng.randrange(0, algebra.level_size + 1)
        clopen = frozenset(rng.sample(range(algebra.level_size), size))
        for w in words:
            moved = algebra.act_set(w, clopen)
            assert algebra.measure(moved) == algebra.measure(clopen)


def test_action_json_round_trip():
    algebra = grid_action(3)
    clone = ClopenAlgebra.from_json(algebra.to_json())
    assert clone.generators == algebra.generators
    assert clone.translations == algebra.translations


def test_action_fixture_file(tmp_path):
    import json

    path = tmp_path / "action.json"
    path.write_text(
        json.dumps(
            {
                "level_size": 4,
                "generators": {"s": [1, 2, 3, 0]},
                "translations": {"s": [1]},
                "relation_words": [[["s", 4]]],
            }
        )
    )
    algebra = ClopenAlgebra.load(path)
    assert algebra.level_size == 4
    assert algebra.act(word(("s", 2)), 0) == 2


def test_word_for_translation():
    algebra = grid_action(4)
    w = algebra.word_for_translation((2, -1))
    assert algebra.translation(w) == (2, -1)
    x = 0
    assert algebra.act(w, x) == algebra.act(word(("h", 2), ("v", -1)), x)


# ---------------------------------------------------------------------------
# parametrized l1 norm


def test_l1_norm_constant_function():
    algebra = cyclic_action(8)
    assert parametrized_l1_norm([([1] * 8, "s0")], algebra) == 1


def test_l1_norm_cancellation():
    algebra = cyclic_action(8)
    f = [1, 1, 1, 1, -1, -1, -1, -1]
    assert parametrized_l1_norm([(f, "s0")], algebra) == 0


def test_l1_norm_three_terms_hand_sum():
    algebra = cyclic_action(6)
    terms = [
        ([0, 1, 2, 0, 1, 2], "a"),  # integral = 6/6 = 1
        ([2, 2, 2, 0, 0, 0], "b"),  # integral = 6/6 = 1
        ([0, 0, 1, 0, 0, 0], "c"),  # integral = 1/6
    ]
    assert parametrized_l1_norm(terms, algebra) == Fraction(13, 6)


def test_l1_norm_dict_coefficients():
    algebra = cyclic_action(4)
    assert parametrized_l1_norm([({0: 3, 2: -1}, "s")], algebra) == Fraction(1, 2)
