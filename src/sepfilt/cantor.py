"""Finite-level model of a measured group action on a Cantor fiber.

The fiber is a finite quotient of size N with the uniform probability
measure; generators act by permutations, so invariance is automatic.  Group
elements are words in the generators, and per-generator translation vectors
place them in declared fundamental-domain (lattice) coordinates.  No command
or pipeline stage uses this module.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import ActionIncomplete


def word(*steps):
    """Build a group word from (generator, power) steps or bare names."""
    out = []
    for step in steps:
        if isinstance(step, str):
            out.append((step, 1))
        else:
            name, power = step
            out.append((name, int(power)))
    return tuple(out)


class ClopenAlgebra:
    """Uniformly measured finite quotient with a permutation action.

    ``generators`` maps a name to a permutation given as the image list;
    ``translations`` optionally maps each generator to its displacement in
    the fundamental-domain lattice.  ``relation_words`` are words that must
    act as the identity; they are verified at construction.
    """

    def __init__(self, level_size, generators, translations=None, relation_words=()):
        if level_size < 1:
            raise ValueError("level size must be positive")
        self.level_size = int(level_size)
        self.generators = {}
        self._inverses = {}
        for name, images in dict(generators).items():
            perm = tuple(int(x) for x in images)
            if sorted(perm) != list(range(self.level_size)):
                raise ValueError(f"generator {name!r} is not a permutation")
            self.generators[name] = perm
            inverse = [0] * self.level_size
            for source, target in enumerate(perm):
                inverse[target] = source
            self._inverses[name] = tuple(inverse)
        self.translations = None
        if translations is not None:
            self.translations = {
                name: tuple(vec) for name, vec in dict(translations).items()
            }
            missing = set(self.generators) - set(self.translations)
            if missing:
                raise ValueError(f"translations missing for {sorted(missing)}")
        self.relation_words = tuple(word(*w) if not _is_word(w) else w
                                    for w in relation_words)
        for w in self.relation_words:
            for x in range(self.level_size):
                if self.act(w, x) != x:
                    raise ValueError(f"relation word {w} does not act trivially")

    def points(self):
        return range(self.level_size)

    def full_set(self):
        return frozenset(self.points())

    def measure(self, subset):
        return Fraction(len(subset), self.level_size)

    def act(self, w, x):
        """Apply a word to one point, rightmost letter first."""
        for name, power in reversed(w):
            table = self.generators if power > 0 else self._inverses
            if name not in table:
                raise ActionIncomplete(f"unknown generator {name!r}")
            perm = table[name]
            for _ in range(abs(power)):
                x = perm[x]
        return x

    def act_set(self, w, subset):
        return frozenset(self.act(w, x) for x in subset)

    def translation(self, w):
        """Displacement of a word in the declared lattice coordinates."""
        if self.translations is None:
            raise ActionIncomplete("no translation coordinates declared")
        total = None
        for name, power in w:
            vec = self.translations.get(name)
            if vec is None:
                raise ActionIncomplete(f"unknown generator {name!r}")
            if total is None:
                total = [0] * len(vec)
            for i, value in enumerate(vec):
                total[i] += power * value
        if total is None:
            sample = next(iter(self.translations.values()), ())
            total = [0] * len(sample)
        return tuple(total)

    def word_for_translation(self, vec):
        """A word realizing a lattice displacement (abelian coordinates)."""
        if self.translations is None:
            raise ActionIncomplete("no translation coordinates declared")
        names = sorted(self.translations)
        axes = {}
        for name in names:
            t = self.translations[name]
            nonzero = [i for i, v in enumerate(t) if v]
            if len(nonzero) != 1 or t[nonzero[0]] not in (1, -1):
                raise ActionIncomplete(
                    "word_for_translation needs unit-axis generators"
                )
            axes.setdefault(nonzero[0], (name, t[nonzero[0]]))
        out = []
        for i, value in enumerate(vec):
            if value == 0:
                continue
            if i not in axes:
                raise ActionIncomplete(f"no generator moves along axis {i}")
            name, direction = axes[i]
            out.append((name, value * direction))
        return tuple(out)

    def to_json(self):
        return {
            "level_size": self.level_size,
            "generators": {k: list(v) for k, v in sorted(self.generators.items())},
            "translations": (
                {k: list(v) for k, v in sorted(self.translations.items())}
                if self.translations
                else None
            ),
            "relation_words": [list(map(list, w)) for w in self.relation_words],
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            data["level_size"],
            data["generators"],
            translations=data.get("translations"),
            relation_words=[
                tuple((name, power) for name, power in w)
                for w in data.get("relation_words", ())
            ],
        )

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as handle:
            return cls.from_json(json.load(handle))


def _is_word(w):
    return isinstance(w, tuple) and all(
        isinstance(step, tuple) and len(step) == 2 for step in w
    )


def cyclic_action(level_size):
    """The +1 shift on Z/N with unit lattice translation."""
    perm = [(x + 1) % level_size for x in range(level_size)]
    return ClopenAlgebra(level_size, {"s": perm}, translations={"s": (1,)})


def grid_action(width, height=None):
    """Independent coordinate shifts on (Z/w) x (Z/h) with unit translations."""
    height = width if height is None else height
    size = width * height

    def index(i, j):
        return (i % width) * height + (j % height)

    horizontal = [index(i + 1, j) for i in range(width) for j in range(height)]
    vertical = [index(i, j + 1) for i in range(width) for j in range(height)]
    return ClopenAlgebra(
        size,
        {"h": horizontal, "v": vertical},
        translations={"h": (1, 0), "v": (0, 1)},
    )


def parametrized_l1_norm(thick_chain, algebra):
    """Sum of |integral of f_i| over the chain's clopen-integer coefficients.

    Each term is (f, simplex) with f a length-N integer sequence (or a dict
    point -> value); the simplices must not be translates of one another,
    which the caller certifies.  Integrals are exact rationals.
    """
    total = Fraction(0)
    for f, _simplex in thick_chain:
        if isinstance(f, dict):
            integral = Fraction(sum(f.values()), algebra.level_size)
        else:
            values = list(f)
            if len(values) != algebra.level_size:
                raise ValueError("coefficient function has the wrong length")
            integral = Fraction(sum(values), algebra.level_size)
        total += abs(integral)
    return total
