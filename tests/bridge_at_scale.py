"""The bridge procedures on the first random model with the given number of
atoms and 3 domain elements, each timed, with the peak RSS of the process
after it, and its result checked.  Run in a fresh process:

    PYTHONPATH=src:tests python tests/bridge_at_scale.py 12
"""

import random
import resource
import sys
import time

from bvmsheaf.bridge import (L, adjunction_witness, fullness_via_sections,
                             mixify, mixing_iff_sheaf)
from bvmsheaf.bvm import check_morphism, has_mixing
from util import random_model


def first_model(atoms: int):
    rng = random.Random(1)
    m = random_model(rng, atoms, 3)
    while m.alg.atom_count != atoms:
        m = random_model(rng, atoms, 3)
    return m


def timed(name, run, *args):
    start = time.perf_counter()
    out = run(*args)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{name}: {wall:.2f} s, peak RSS of the process so far {peak:.0f} MB")
    return out


def main(atoms: int) -> None:
    lm = timed("L on its own model", L, first_model(atoms))
    print(f"L: {len(lm.base.elements)} levels")
    del lm
    m = first_model(atoms)
    mx, emb = timed("mixify", mixify, m)
    assert has_mixing(mx).passed
    assert check_morphism(emb).is_embedding
    print(f"mixified model: {len(mx.domain)} elements over {atoms} atoms")
    rep = timed("fullness_via_sections", fullness_via_sections, m, 2)
    assert rep.all_agree
    print(f"fullness clauses agree on {len(rep.clauses)} formulas")
    aw = timed("adjunction_witness", adjunction_witness, m)
    assert aw.triangle_l_ok and aw.triangle_r_ok
    print(f"triangle identities hold; counit iso: {aw.counit_is_iso}")
    ms = timed("mixing_iff_sheaf", mixing_iff_sheaf, m)
    assert ms.equivalent
    print(f"mixing, sheaf and induced sections agree: {ms.mixing}")


if __name__ == "__main__":
    main(int(sys.argv[1]))
