"""Finite-level permutation action on a Cantor fiber.

The fiber is a finite quotient of size N; generators act by permutations.
Group elements are words in the generators.  No command or pipeline stage
uses this module.
"""

from __future__ import annotations


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
    """Finite quotient of the fiber with a permutation action.

    ``generators`` maps a name to a permutation given as the image list.
    ``relation_words`` are words that must act as the identity; they are
    verified at construction.
    """

    def __init__(self, level_size, generators, relation_words=()):
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
        self.relation_words = tuple(relation_words)
        for w in self.relation_words:
            for x in range(self.level_size):
                if self.act(w, x) != x:
                    raise ValueError(f"relation word {w} does not act trivially")

    def act(self, w, x):
        """Apply a word to one point, rightmost letter first."""
        for name, power in reversed(w):
            table = self.generators if power > 0 else self._inverses
            if name not in table:
                raise ValueError(f"unknown generator {name!r}")
            perm = table[name]
            for _ in range(abs(power)):
                x = perm[x]
        return x
