#!/usr/bin/env python3
"""Brute-force census over the whole corpus, printed as one summary table."""

import warnings

from latnorm.catalog import atomistic_corpus, extension_corpus
from latnorm.errors import DegenerateLengthWarning
from latnorm.oracle import DEFAULT_SIZE_CAP, census


def main():
    warnings.simplefilter("ignore", DegenerateLengthWarning)
    corpus = {}
    corpus.update(atomistic_corpus())
    for name, lat in extension_corpus().items():
        corpus.setdefault(name, lat)
    header = f"{'lattice':<22}{'|L|':>4}{'total':>7}{'lsc':>6}{'lc':>5}{'rc':>6}{'cont':>6}  generated"
    print(header)
    print("-" * len(header))
    for name, lat in corpus.items():
        if lat.n > DEFAULT_SIZE_CAP:
            print(f"{name:<22}{lat.n:>4}   (skipped: above the oracle size cap)")
            continue
        rep = census(lat)
        c = rep.classes
        gen = c["generated"] if c["generated"] is not None else "-"
        print(
            f"{name:<22}{lat.n:>4}{rep.total:>7}{c['left_semicontinuous']:>6}"
            f"{c['left_continuous']:>5}{c['right_continuous']:>6}{c['continuous']:>6}  {gen}"
        )


if __name__ == "__main__":
    main()
