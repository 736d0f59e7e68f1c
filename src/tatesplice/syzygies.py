"""Graded syzygy computation by exact linear algebra, degree by degree.

Independent of the splice machinery; used to cross-check MCM presentations
through the classical double-syzygy-dual construction and to manufacture
small minimal resolutions for homotopy tests.
"""

from __future__ import annotations

from .freecomplex import (
    ChainComplex,
    DegreeLayout,
    GradedFreeModule,
    PolyMatrix,
    graded_piece,
)
from .linalg import FieldMatrix


def graded_kernel_generators(matrix, dmax):
    """Minimal generators of ker(matrix) in element degrees <= dmax.

    Scans degrees upward; in each degree the kernel of the graded piece is
    compared against multiples of the generators already found, and a new
    generator is kept for every independent direction (first-vector-wins,
    so the output is deterministic).
    """
    ring = matrix.source.ring
    p = ring.field.p
    gens = []  # (degree, element as a sparse column {generator: polynomial})
    if matrix.source.rank == 0:
        return gens
    start = min(-t for t in matrix.source.twists)
    for d in range(start, dmax + 1):
        layout = DegreeLayout(matrix.source, d)
        if layout.dim == 0:
            continue
        null = graded_piece(matrix, d).nullspace()
        if not null:
            continue
        base = []
        for gdeg, elem in gens:
            for mono in ring.degree_basis(d - gdeg):
                multiple = {k: e.term_mul(mono) for k, e in elem.items()}
                base.append(layout.coordinates(multiple))
        base_rank = FieldMatrix(layout.dim, base, p).rank()
        for v in null:
            if FieldMatrix(layout.dim, base + [v], p).rank() > base_rank:
                gens.append((d, layout.element(v)))
                base.append(v)
                base_rank += 1
    return gens


def syzygy_matrix(matrix, dmax):
    """The next differential: minimal kernel generators assembled columnwise."""
    gens = graded_kernel_generators(matrix, dmax)
    source = GradedFreeModule(matrix.source.ring, [-d for d, _ in gens])
    return PolyMatrix(source, matrix.source, [elem for _, elem in gens])


def minimal_resolution(presentation, length, dmax):
    """Resolution of coker(presentation) by iterated syzygies, positions
    [0, length]; minimal when the presentation itself is minimal."""
    ring = presentation.source.ring
    terms = {0: presentation.target, 1: presentation.source}
    diffs = {1: presentation}
    current = presentation
    for i in range(2, length + 1):
        current = syzygy_matrix(current, dmax)
        terms[i] = current.source
        diffs[i] = current
    return ChainComplex(ring, terms, diffs, validate=True)


def dual_module_presentation(presentation, dmax):
    """Presentation of Hom(coker(presentation), R).

    The dual module is the kernel of the transposed map; its generators
    become the columns of a map K, and the syzygies of K are the relations.
    Returns (K, relations) with coker-of-relations the dual module.
    """
    transposed = presentation.transpose()
    K = syzygy_matrix(transposed, dmax)
    relations = syzygy_matrix(K, dmax)
    return K, relations
