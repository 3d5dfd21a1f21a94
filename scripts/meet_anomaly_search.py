#!/usr/bin/env python3
"""Hunt for corpus lattices whose gated selections are not intersection-closed.

The union of two gate-passing selections always passes, so restriction
joins are free; intersections can fail the gate, in which case the meet
of the two restrictions must be found by scanning the family instead.
This script reports every corpus witness of that failure.
"""

import warnings

from latnorm.catalog import extension_corpus, random_lattices
from latnorm.construction import AtomSelection, generated_family
from latnorm.errors import DegenerateLengthWarning
from latnorm.extension import condition_c, extend, s_family
from latnorm.tnorm import tnorm_le


def main():
    warnings.simplefilter("ignore", DegenerateLengthWarning)
    corpus = dict(extension_corpus())
    for i, lat in enumerate(random_lattices(6, seed=77)):
        corpus[f"extra_random{i}"] = lat
    found = 0
    for name, lat in corpus.items():
        ext = extend(lat)
        fam = s_family(ext, generated_family(ext.extended))
        members = fam.members()
        passing = [sel for sel, _ in members]
        witness = None
        for i, a in enumerate(passing):
            for j, b in enumerate(passing[i + 1:], start=i + 1):
                inter = AtomSelection(ext.extended, a.mask & b.mask)
                if not condition_c(ext, inter).ok:
                    witness = (i, j, inter)
                    break
            if witness:
                break
        if witness is None:
            print(f"{name}: intersections of passing selections all pass "
                  f"({len(passing)}/{len(fam.entries)} pass)")
            continue
        found += 1
        i, j, inter = witness
        (a, ta), (b, tb) = members[i], members[j]
        lower = [(sel, t) for sel, t in members if tnorm_le(t, ta) and tnorm_le(t, tb)]
        meet_sel = next(sel for sel, t in lower if all(tnorm_le(u, t) for _, u in lower))
        print(
            f"{name}: WITNESS  {{{', '.join(a.names())}}} and {{{', '.join(b.names())}}} pass, "
            f"their intersection {{{', '.join(inter.names())}}} fails the gate; "
            f"family meet realized by {{{', '.join(meet_sel.names())}}}"
        )
    print(f"\n{found} witness lattice(s) found")


if __name__ == "__main__":
    main()
