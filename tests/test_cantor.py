import pytest

from sepfilt.cantor import ClopenAlgebra, word


def test_generator_must_be_permutation():
    with pytest.raises(ValueError):
        ClopenAlgebra(3, {"s": [0, 0, 1]})


def test_relation_words_checked():
    perm = [1, 2, 0]
    ClopenAlgebra(3, {"s": perm}, relation_words=[word(("s", 3))])
    with pytest.raises(ValueError):
        ClopenAlgebra(3, {"s": perm}, relation_words=[word(("s", 2))])
