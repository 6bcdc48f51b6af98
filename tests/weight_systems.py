"""Weight-system helpers that only the tests use."""

from kmoduli.torusgit import SupportPoint, WeightSystem


def full_support(n: int) -> SupportPoint:
    """The support of coordinates 1..n; n = 0 gives the origin."""
    return SupportPoint.of(range(1, n + 1))


def column(ws: WeightSystem, i: int) -> tuple[int, ...]:
    """Weight of coordinate i (1-based)."""
    if not 1 <= i <= ws.n_coords:
        raise ValueError(f"coordinate index {i} out of range 1..{ws.n_coords}")
    return ws.columns[i - 1]


def negated(ws: WeightSystem) -> WeightSystem:
    return WeightSystem(tuple(-x for x in row) for row in ws.matrix)


def qdef_weight_system(qdef) -> WeightSystem:
    """The 2 x N weight system on a deformation space (QDefModel): one
    column per deformation parameter."""
    if qdef.total_dim == 0:
        raise ValueError("the deformation space is zero dimensional")
    return WeightSystem(qdef.weight_matrix)
