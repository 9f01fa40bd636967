"""Print the integer continuation matrices of loop words.

The generators, their inverses, the commutator, and a handful of longer
words; checks homomorphy against products of the generator matrices.

Usage: python scripts/monodromy_table.py [words ...]
"""

import math
import sys

import numpy as np

from alblab.albanese import monodromy_action
from alblab.hodge import Heisenberg

DEFAULT_WORDS = ["0", "1", "0^-1", "1^-1", "0 1", "1 0",
                 "0 1 0^-1 1^-1", "0 0 1", "1^-1 0 1"]


def main():
    words = sys.argv[1:] or DEFAULT_WORDS
    basic = {w: Heisenberg.of(monodromy_action(w).tolist()) for w in "01"}
    basic.update({w + "^-1": g.inverse() for w, g in list(basic.items())})
    for word in words:
        mat = monodromy_action(word)
        g = Heisenberg.of(mat.tolist())
        expected = math.prod((basic[tok] for tok in word.split()), start=Heisenberg(0, 0, 0))
        tag = "" if g == expected else "   <- disagrees with letter product!"
        print(f"{word:>16}:  (a,b,c) = ({g.a:2d},{g.b:2d},{g.c:2d})   "
              f"{np.array2string(mat.flatten())}{tag}")


if __name__ == "__main__":
    main()
