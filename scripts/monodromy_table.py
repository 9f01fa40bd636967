"""Print the integer continuation matrices of loop words.

The generators, their inverses, the commutator, and a handful of longer
words; checks homomorphy against products of the generator matrices.

Usage: python scripts/monodromy_table.py [words ...]
"""

import sys

import numpy as np

from alblab.albanese import monodromy_action

DEFAULT_WORDS = ["0", "1", "0^-1", "1^-1", "0 1", "1 0",
                 "0 1 0^-1 1^-1", "0 0 1", "1^-1 0 1"]


def main():
    words = sys.argv[1:] or DEFAULT_WORDS
    basic = {"0": monodromy_action("0"), "1": monodromy_action("1")}
    basic["0^-1"] = np.linalg.inv(basic["0"]).astype(int)
    basic["1^-1"] = np.linalg.inv(basic["1"]).astype(int)
    for word in words:
        g = monodromy_action(word)
        expected = np.eye(3, dtype=int)
        for tok in word.split():
            expected = expected @ basic[tok]
        tag = "" if (g == expected).all() else "   <- disagrees with letter product!"
        a, b, c = g[1][2], g[0][1], g[0][2]
        print(f"{word:>16}:  (a,b,c) = ({a:2d},{b:2d},{c:2d})   {np.array2string(g.flatten())}{tag}")


if __name__ == "__main__":
    main()
