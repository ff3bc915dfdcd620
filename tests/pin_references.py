"""Print the 40-digit references ``test_reference.PINNED`` holds, as the dict to pin.

Run from the repository root as ``PYTHONPATH=src python tests/pin_references.py``.
Each key is recomputed by ``test_reference``'s mpmath reference of the same
route, which streams the Binomial window term by term, and printed with its
count written out (``WIDEST`` as 30539601284).  A point at the widest window
takes about a minute on one core, all twenty about six minutes.
"""

import mpmath

from test_reference import PINNED, large_collision_reference, large_passage_reference

REFERENCES = {"passage": large_passage_reference, "collision": large_collision_reference}

if __name__ == "__main__":
    print("PINNED = {")
    for route, m, x in PINNED:
        print(f'    ({route!r}, {m}, {x!r}): "{mpmath.nstr(REFERENCES[route](m, x), 40)}",', flush=True)
    print("}")
