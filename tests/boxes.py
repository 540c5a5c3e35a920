"""Box networks for three-dimensional rank certificates.

    python -c "import sys; sys.path.insert(0, 'tests'); from boxes import box_network; ..."

An a x b x c box has one interior vertex per cell, an edge between the
cells of each shared face and one pendant boundary vertex on each
exposed cell face.
"""

from __future__ import annotations

from itertools import product

from netinv.network import Edge, Network


def box_network(a: int, b: int, c: int) -> Network:
    """The a x b x c box, every conductivity 1. Cells are taken in
    lexicographic (x, y, z) order and numbered after the boundary
    vertices; each cell's exposed faces, in the order -x, +x, -y, +y, -z,
    +z, give the next boundary vertices. Edge ids run over the pendant
    edges in boundary order, then over the cell pairs joined along x, y
    and z."""
    shape = (a, b, c)
    cells = list(product(range(a), range(b), range(c)))
    faces = [
        (cell, axis, step)
        for cell in cells
        for axis in range(3)
        for step in (-1, 1)
        if not 0 <= cell[axis] + step < shape[axis]
    ]
    number = {cell: len(faces) + 1 + i for i, cell in enumerate(cells)}
    pairs = [(i, number[cell]) for i, (cell, _, _) in enumerate(faces, start=1)]
    for axis in range(3):
        for cell in cells:
            if cell[axis] + 1 < shape[axis]:
                after = tuple(x + (k == axis) for k, x in enumerate(cell))
                pairs.append((number[cell], number[after]))
    edges = tuple(Edge(i, u, v, 1.0) for i, (u, v) in enumerate(pairs, start=1))
    return Network(len(faces), len(cells), edges)
